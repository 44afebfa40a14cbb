"""Every module-level private name in the package is used by the package,
and so is every public module-level function but the reference helpers.

A private name is a function, class or constant written ``_foo`` at the top
level of a module under ``src/softrig``.  It must be read somewhere in the
package outside its own definition, as a name or as an attribute of a
module bound by ``from . import <module>``; a use from the tests alone does
not count, since a helper only the tests call is dead code, and neither
does an attribute of anything else, such as ``args.command``.  A public
module-level function must be read the same way (the re-exports of
``__init__.py`` are imports, not reads), unless it is one of
REFERENCE_HELPERS, which the acceptance gates, the tests or the benchmark
check the package against.  Like ``test_imports.py`` this walks the syntax
tree with the standard library.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "softrig").glob("*.py"))


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
    return [(name, node) for name, node in found
            if name.startswith("_") and not name.startswith("__")]


def package_modules(tree: ast.Module) -> set[str]:
    """Names the tree binds to package modules with ``from . import``."""
    return {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None
            for alias in node.names}


def read_elsewhere(name: str, definition: ast.AST, trees) -> bool:
    """True when a tree reads ``name`` outside its own definition, as a
    name or as an attribute of a package module."""
    inside = {id(n) for n in ast.walk(definition)}
    return any(
        id(node) not in inside
        and ((isinstance(node, ast.Name) and node.id == name
              and isinstance(node.ctx, ast.Load))
             or (isinstance(node, ast.Attribute) and node.attr == name
                 and isinstance(node.value, ast.Name)
                 and node.value.id in modules))
        for tree in trees for modules in [package_modules(tree)]
        for node in ast.walk(tree))


def unused_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    return [f"{module}: {name}"
            for module, tree in trees.items()
            for name, definition in private_definitions(tree)
            if not read_elsewhere(name, definition, trees.values())]


def unread_public_functions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    return [node.name
            for tree in trees.values() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and not read_elsewhere(node.name, node, trees.values())]


def test_detects_an_unused_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "def _twice(x):\n    return _twice(x - 1) if x else 0\n"
                 "def _helper():\n    return _LIMIT\n"
                 "class _Box:\n    pass\n"),
        "b.py": "from .a import _helper\n\ndef run():\n    return _helper()\n",
    }
    assert unused_private_names(sources) == ["a.py: _twice", "a.py: _Box"]


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in SOURCES}) == []


# public functions the package never calls itself, each with what calls it
REFERENCE_HELPERS = {
    "transition_time": "acceptance gate 9",
    "config_matrix": "acceptance gates 5 and 6",
    "body_twist_from_wheels": "acceptance gate 6",
    "wheel_speeds": "perfbench/checks.py",
    "example_scenario_dict": "the tests",
}


def test_detects_an_unread_public_function():
    sources = {
        "a.py": ("def used():\n    return 1\n"
                 "def recursive(x):\n    return recursive(x - 1)\n"
                 "def orphan():\n    return used()\n"
                 "class Box:\n    def method(self):\n        pass\n"),
        "__init__.py": "from .a import orphan, recursive, used\n",
    }
    assert unread_public_functions(sources) == ["recursive", "orphan"]


def test_an_attribute_of_a_non_module_is_not_a_read():
    # cli reads args.command, which is no read of thermal.command; the
    # th.loop_step read through the module binding counts
    sources = {
        "thermal.py": ("def command():\n    return 1\n"
                       "def loop_step():\n    return 2\n"),
        "cli.py": ("from . import thermal as th\n\n"
                   "def main(args):\n"
                   "    return th.loop_step() if args.command else 0\n"),
        "__main__.py": "from .cli import main\n\nmain(None)\n",
    }
    assert unread_public_functions(sources) == ["command"]


def test_public_functions_are_read_or_reference_helpers():
    unread = set(unread_public_functions(
        {p.name: p.read_text() for p in SOURCES}))
    assert unread - REFERENCE_HELPERS.keys() == set(), "never read"
    assert REFERENCE_HELPERS.keys() - unread == set(), "read: not a helper"

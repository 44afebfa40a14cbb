"""Every module-level private name in the package is used by the package.

A private name is a function, class or constant written ``_foo`` at the top
level of a module under ``src/softrig``.  It must be read somewhere in the
package outside its own definition; a use from the tests alone does not
count, since a helper only the tests call is dead code.  Like
``test_imports.py`` this walks the syntax tree with the standard library.
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            used = any(
                id(node) not in inside
                and ((isinstance(node, ast.Name) and node.id == name
                      and isinstance(node.ctx, ast.Load))
                     or (isinstance(node, ast.Attribute) and node.attr == name))
                for other in trees.values() for node in ast.walk(other))
            if not used:
                unused.append(f"{module}: {name}")
    return unused


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

"""Every imported name is used by the module that imports it, the CLI
loads no process-pool module at start-up, and numpy is loaded only by the
functions that build arrays, in the two modules that have any.

No linter ships with the package, so this walks the syntax tree with the
standard library: a name bound by an import statement must appear as a
name somewhere else in the same file.  The package ``__init__`` is left
out, since its imports are the public re-exports.  No module may import
numpy when it is itself imported: every numpy import sits in a function
body or under ``if TYPE_CHECKING:``, so ``softrig run FILE`` never pays for
loading numpy.  Only ``spiral`` and ``cli`` import it at all, so the
planning and playback step stays on plain floats.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import example_scenario_dict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "softrig").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the sweep and refit, and the batch's random draws
NUMPY_MODULES = ("spiral.py", "cli.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [
        "line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_process_pool():
    # batch lanes are plain os.fork children; multiprocessing alone would
    # add ~10 ms to every start-up
    code = ("import sys, softrig.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    assert proc.stdout == "[]\n"


def numpy_imports(source: str, eager: bool = True) -> list[str]:
    """numpy imports outside the ``if TYPE_CHECKING:`` branch; with
    ``eager``, only those that run when the module is imported, outside
    any function body."""
    found, stack = [], list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if eager and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            stack += node.orelse
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name.split(".")[0] == "numpy"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "numpy"):
            found.append((node.lineno, f"from {node.module} import"))
        stack += ast.iter_child_nodes(node)
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_detects_an_eager_numpy_import():
    assert numpy_imports("import numpy as np\n") == [
        "line 1: import numpy"]
    assert numpy_imports("import math\ntry:\n    from numpy import "
                               "zeros\nexcept ImportError:\n    pass\n") == [
        "line 3: from numpy import"]
    assert numpy_imports("if TYPE_CHECKING:\n    import numpy\n"
                               "else:\n    import numpy.random\n") == [
        "line 4: import numpy.random"]
    assert numpy_imports("class A:\n    import numpy\n") == [
        "line 2: import numpy"]
    assert numpy_imports("def f():\n    import numpy as np\n"
                               "    return np.zeros(3)\n") == []
    assert numpy_imports("import typing\nif typing.TYPE_CHECKING:\n"
                               "    import numpy as np\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_numpy_import_at_module_level(path):
    assert numpy_imports(path.read_text()) == []


def test_detects_a_numpy_import_in_a_function():
    source = ("if TYPE_CHECKING:\n    import numpy as np\n"
              "def f():\n    import numpy as np\n    return np.zeros(3)\n")
    assert numpy_imports(source) == []
    assert numpy_imports(source, eager=False) == ["line 4: import numpy"]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name not in NUMPY_MODULES],
    ids=lambda p: p.name)
def test_only_the_array_modules_import_numpy(path):
    assert numpy_imports(path.read_text(), eager=False) == []


def test_run_file_loads_no_numpy(tmp_path):
    # one scenario is planned, played back and written on plain floats;
    # numpy would add ~150 ms to every start-up
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(example_scenario_dict()))
    code = ("import sys, softrig.cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            "code = softrig.cli.main(['run', sys.argv[1], '--out', sys.argv[2],"
            " '--keyframes', '50'])\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(code, loaded)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(scenario),
                           str(tmp_path / "out")], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    assert proc.stdout.splitlines()[-1] == "0 [False, False]"
    assert (tmp_path / "out" / "summary.json").exists()

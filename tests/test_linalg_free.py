"""The planning path makes no numpy.linalg call, and the planner no numpy
call at all.

A plan must not depend on the LAPACK or BLAS build, so the modules that run
a planner step solve their small systems in closed form, and the planner
keeps its step records on plain floats.  Like ``test_imports.py`` this
walks the syntax tree with the standard library: any reference to
``numpy.linalg`` in those modules fails, whether as an attribute
(``np.linalg.solve``) or through an import, and so does any reference to
``numpy`` in the planner.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PLANNING = ("planner.py", "jacobian.py", "simulator.py")


def linalg_references(source: str) -> list[str]:
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(alias.asname for alias in node.names
                               if alias.name == "numpy" and alias.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}"
                      for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.linalg") or (
                    node.module == "numpy"
                    and any(alias.name == "linalg" for alias in node.names)):
                found.append(f"line {node.lineno}: from {node.module} import")
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            found.append(f"line {node.lineno}: {node.value.id}.linalg")
    return found


def numpy_references(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}"
                      for alias in node.names
                      if alias.name.split(".")[0] == "numpy"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "numpy"):
            found.append(f"line {node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Name) and node.id in ("np", "numpy"):
            found.append(f"line {node.lineno}: {node.id}")
    return found


def test_detects_a_linalg_reference():
    assert linalg_references(
        "import numpy as np\nx = np.linalg.solve(a, b)\n") == [
        "line 2: np.linalg"]
    assert linalg_references("import numpy\nnumpy.linalg.inv(a)\n") == [
        "line 2: numpy.linalg"]
    assert linalg_references("from numpy.linalg import svd\n") == [
        "line 1: from numpy.linalg import"]
    assert linalg_references("from numpy import linalg\n") == [
        "line 1: from numpy import"]
    assert linalg_references("import numpy.linalg\n") == [
        "line 1: import numpy.linalg"]
    assert linalg_references("import numpy as np\nnp.zeros(3)\n") == []


@pytest.mark.parametrize("name", PLANNING)
def test_planning_modules_do_not_use_linalg(name):
    path = ROOT / "src" / "softrig" / name
    assert linalg_references(path.read_text()) == []


def test_detects_a_numpy_reference():
    assert numpy_references("import numpy as np\nx = np.zeros(3)\n") == [
        "line 1: import numpy", "line 2: np"]
    assert numpy_references("from numpy import zeros\n") == [
        "line 1: from numpy import"]
    assert numpy_references("import numpy.random\n") == [
        "line 1: import numpy.random"]
    assert numpy_references("import math\nmath.sqrt(2.0)\n") == []


def test_planner_does_not_use_numpy():
    path = ROOT / "src" / "softrig" / "planner.py"
    assert numpy_references(path.read_text()) == []

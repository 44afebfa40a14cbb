"""The run artifacts format floats in one place.

``outputs._fmt`` is the one home of the float cell format, repr(float(v)),
which round-trips exactly and prints integers given as parameters as
floats.  Like ``test_linalg_free.py`` this walks the syntax tree with the
standard library: anywhere in ``outputs.py`` outside ``_fmt``, the name
``repr`` (called, or passed as a value as in ``map(repr, ...)``), a
``__repr__`` attribute, an f-string ``!r`` conversion, or ``%r`` in a
string constant fails.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
HOME = "_fmt"


def repr_outside_home(source: str) -> list[str]:
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == HOME:
            inside.update(id(sub) for sub in ast.walk(node))
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == "repr":
            found.append(f"line {node.lineno}: repr"
                         + ("(" if id(node) in called else ""))
        elif isinstance(node, ast.Attribute) and node.attr == "__repr__":
            found.append(f"line {node.lineno}: __repr__")
        elif isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
            found.append(f"line {node.lineno}: !r")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "%r" in node.value):
            found.append(f"line {node.lineno}: %r")
    return found


def test_detects_repr_outside_the_home():
    assert repr_outside_home(
        "def _fmt(x):\n    return repr(float(x))\n") == []
    assert repr_outside_home(
        "def _fmt(x):\n    return repr(float(x))\n"
        "def cells(q):\n    return repr(q.x)\n") == ["line 4: repr("]
    assert repr_outside_home("line = f'{x!r},{y}'\n") == ["line 1: !r"]
    assert repr_outside_home("line = f'{x},{y:.2f}'\n") == []
    assert repr_outside_home(
        "def _fmt(xs):\n    return list(map(repr, xs))\n"
        "cells = list(map(repr, xs))\n") == ["line 3: repr"]
    assert repr_outside_home(
        "cells = list(map(float.__repr__, xs))\n") == ["line 1: __repr__"]
    assert repr_outside_home("line = '%r,%s' % (x, y)\n") == ["line 1: %r"]


def test_outputs_formats_floats_only_in_fmt():
    source = (ROOT / "src" / "softrig" / "outputs.py").read_text()
    assert repr_outside_home(source) == []

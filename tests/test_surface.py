"""Every public name of the library layers is reached by library code.

A name in the ``__all__`` of a layer module must be loaded somewhere in
``src/hurwitz`` outside its own definition, ``__all__`` and ``__init__``:
as a bare name or as an attribute (``transform.forward``).  Strings (and
so docstrings) and type annotations do not count; a test is not a caller.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hurwitz"
LAYERS = ("clifford", "transform", "opcalc", "gauge", "separation")


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _loads(stmt):
    """Names loaded in a statement, bare or as an attribute, outside annotations."""
    skip = {
        id(sub)
        for node in ast.walk(stmt)
        for ann in (getattr(node, "returns", None), getattr(node, "annotation", None))
        if ann is not None
        for sub in ast.walk(ann)
    }
    for node in ast.walk(stmt):
        if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _callers():
    """name -> set of (module, names defined by the statement holding the load)."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owners = frozenset(_defined(stmt))
            for name in _loads(stmt):
                found.setdefault(name, set()).add((path.stem, owners))
    return found


CALLERS = _callers()


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_has_a_library_caller(layer):
    unreached = [
        name for name in importlib.import_module(f"hurwitz.{layer}").__all__
        if not any(mod != layer or name not in owners
                   for mod, owners in CALLERS.get(name, ()))
    ]
    assert unreached == []

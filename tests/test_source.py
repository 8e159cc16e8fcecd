"""Static checks on the package source, parsed with ``ast``: every
imported name is used, every witness is built in ``witness``, and only
functions with a stated depth bound call themselves."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import semicayley
from semicayley import Digraph, SimpleGraph, independence_number, sabidussi_check
from semicayley import cli, invariants
from semicayley.recognize import endomorphisms

MODULES = sorted(Path(semicayley.__file__).parent.glob("*.py"))

# every function in the package that calls itself, with its depth bound;
# any other recursion could exhaust Python's stack on a large input
RECURSIVE = {
    # one level per vertex taken into the set; independence_number
    # refuses order > _MIS_CAP
    "invariants._mis_masked.bnb": 40,
    # one level per vertex placed; endomorphisms bounds its own depth
    # by refusing order > 8
    "recognize.endomorphisms.place": 8,
    # one level per vertex given an endomorphism, order <= 8
    "recognize.sabidussi_check.extend": 8,
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are exported, which is a use
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_modules_are_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "witness.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(_tree(path)) == []


def test_the_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import List, Tuple\n"
                     "__all__ = ['Tuple']\nx: List = os.sep\nimport sys\n")
    assert _unused_imports(tree) == [(5, "sys")]


def _self_calls(tree: ast.Module, module: str) -> list:
    """Qualified names of the functions that call themselves by name,
    as ``f(...)`` or, in a method, as ``self.f(...)``."""
    found = []
    todo = [(module, node) for node in tree.body]
    while todo:
        qual, node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qual = f"{qual}.{node.name}"
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and (getattr(call.func, "id", None) == node.name
                     or (getattr(call.func, "attr", None) == node.name
                         and getattr(call.func.value, "id", None) == "self"))
                for call in ast.walk(node)):
            found.append(qual)
        todo.extend((qual, child) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_depth_bounded_functions_call_themselves():
    found = [name for path in MODULES
             for name in _self_calls(_tree(path), path.stem)]
    assert sorted(found) == sorted(RECURSIVE)
    assert invariants._MIS_CAP == RECURSIVE["invariants._mis_masked.bnb"]
    with pytest.raises(ValueError):
        independence_number(SimpleGraph(invariants._MIS_CAP + 1))
    with pytest.raises(ValueError):
        endomorphisms(Digraph(RECURSIVE["recognize.endomorphisms.place"] + 1))
    with pytest.raises(ValueError):
        sabidussi_check(
            Digraph(RECURSIVE["recognize.sabidussi_check.extend"] + 1))


def test_cli_invariants_cap_is_the_subset_cap():
    """``cli`` writes the cap as a number so that its start-up need not
    import ``invariants``; the two must agree."""
    assert cli.MAX_ORDER["invariants"] == invariants._SUBSET_CAP


def test_the_recursion_check_sees_self_calls():
    tree = ast.parse("def f(n):\n    def g():\n        return g()\n"
                     "    return f(n - 1) + h()\n"
                     "class A:\n    def m(self):\n        return self.m()\n"
                     "    def k(self, x):\n        return x.k()\n")
    assert _self_calls(tree, "x") == ["x.A.m", "x.f", "x.f.g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_witnesses_are_built_only_in_witness_module(path):
    """``witness.certify`` is the one door a producer builds its witness
    through; only it and the record parser call ``CayleyWitness``."""
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "CayleyWitness"
                  or getattr(node.func, "attr", None) == "CayleyWitness")]
    if path.name == "witness.py":
        assert len(calls) == 2
    else:
        assert calls == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """``dataclasses`` loads ``inspect``, ``ast`` and ``dis``, several
    milliseconds of every CLI process; the value classes build on
    ``graphs.FrozenValue`` and ``graphs.Value`` instead."""
    names = [(node.lineno, alias.name) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Import) for alias in node.names]
    names += [(node.lineno, node.module) for node in ast.walk(_tree(path))
              if isinstance(node, ast.ImportFrom)]
    assert [(line, name) for line, name in names
            if name and name.split(".")[0] == "dataclasses"] == []

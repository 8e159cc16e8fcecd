"""The value classes the package hands around: equality, hashing, the
``repr`` text, ``pickle`` and ``deepcopy`` round-trips, and refusal of
assignment on the frozen ones.  Forked census workers send outcomes,
witnesses, tables and graphs through pipes, so the round-trips matter."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from semicayley.algebra import MulTable, TableViolation
from semicayley.embed import FunctionFamily
from semicayley.graphs import ComponentDecomposition, Digraph, SimpleGraph
from semicayley.invariants import (NonmonoidCertificate, SpectralProfile,
                                   profile_certificate, synthetic_profile)
from semicayley.outcome import Budget, SearchOutcome
from semicayley.recognize import CensusEntry, CensusReport
from semicayley.trees import RootedTreeAnalysis, TreeVerdict, analyze
from semicayley.witness import CayleyWitness, certify
from semicayley.zelinka import ComponentShape, OutregularProfile, profile

Z2 = MulTable(2, ((0, 1), (1, 0)), identity=0)
Z2_REPR = "MulTable(order=2, rows=((0, 1), (1, 0)), identity=0)"
PATH3 = SimpleGraph(3, [(0, 1), (1, 2)])


def _witness():
    return CayleyWitness("monoid-digraph", Z2, [1], (0, 1))


# name: (build, build an equal one another way, build a different one,
#        the repr of the first, its fields in order, frozen)
CASES = {
    "Digraph": (
        lambda: Digraph(2, [(0, 1), (1, 0)]),
        lambda: Digraph(order=2, arcs=iter([(1, 0), (0, 1)])),
        lambda: Digraph(2, [(0, 1)]),
        "Digraph(order=2, arcs=frozenset({(0, 1), (1, 0)}))",
        ("order", "arcs"), True),
    "SimpleGraph": (
        lambda: SimpleGraph(3, [(0, 1), (1, 2)]),
        lambda: SimpleGraph(order=3, edges=[(2, 1), (1, 0)]),
        lambda: SimpleGraph(3, [(0, 1)]),
        "SimpleGraph(order=3, edges=frozenset({(0, 1), (1, 2)}))",
        ("order", "edges"), True),
    "ComponentDecomposition": (
        lambda: ComponentDecomposition((0, 0, 1), 2),
        lambda: ComponentDecomposition(component=(0, 0, 1), count=2),
        lambda: ComponentDecomposition((0, 1, 1), 2),
        "ComponentDecomposition(component=(0, 0, 1), count=2)",
        ("component", "count"), True),
    "Budget": (
        lambda: Budget(5, None),
        lambda: Budget(max_nodes=5, max_seconds=None, nodes=0),
        lambda: Budget(5, None, 1),
        "Budget(max_nodes=5, max_seconds=None, nodes=0)",
        ("max_nodes", "max_seconds", "nodes", "_deadline"), False),
    "SearchOutcome": (
        lambda: SearchOutcome("exhausted-no", nodes=7),
        lambda: SearchOutcome(status="exhausted-no", witness=None, nodes=7),
        lambda: SearchOutcome("exhausted-no"),
        "SearchOutcome(status='exhausted-no', witness=None, nodes=7)",
        ("status", "witness", "nodes"), False),
    "MulTable": (
        lambda: Z2,
        lambda: MulTable(order=2, rows=[[0, 1], [1, 0]], identity=0),
        lambda: MulTable(2, ((0, 1), (1, 0))),
        Z2_REPR,
        ("order", "rows", "identity"), True),
    "TableViolation": (
        lambda: TableViolation("associativity", (0, 1, 2)),
        lambda: TableViolation(kind="associativity", triple=(0, 1, 2)),
        lambda: TableViolation("identity", (0, 1, 2)),
        "TableViolation(kind='associativity', triple=(0, 1, 2))",
        ("kind", "triple"), True),
    "CayleyWitness": (
        _witness,
        lambda: certify("monoid-digraph", Digraph(2, [(0, 1), (1, 0)]),
                        Z2, [1]),
        lambda: CayleyWitness("monoid-digraph", Z2, [1], (0, 1),
                              carrier="undirected"),
        f"CayleyWitness(mode='monoid-digraph', table={Z2_REPR}, "
        "connection=frozenset({1}), vertex_map=(0, 1), carrier='directed', "
        "component=None)",
        ("mode", "table", "connection", "vertex_map", "carrier", "component"),
        True),
    "CensusEntry": (
        lambda: CensusEntry(PATH3, b"\x01", SearchOutcome("witness")),
        lambda: CensusEntry(graph=PATH3, key=b"\x01",
                            outcome=SearchOutcome("witness")),
        lambda: CensusEntry(PATH3, b"\x02", SearchOutcome("witness")),
        "CensusEntry(graph=SimpleGraph(order=3, edges=frozenset({(0, 1), "
        "(1, 2)})), key=b'\\x01', outcome=SearchOutcome(status='witness', "
        "witness=None, nodes=0))",
        ("graph", "key", "outcome"), False),
    "CensusReport": (
        lambda: CensusReport(1, "monoid-graph", []),
        lambda: CensusReport(order=1, mode="monoid-graph", entries=[]),
        lambda: CensusReport(2, "monoid-graph", []),
        "CensusReport(order=1, mode='monoid-graph', entries=[])",
        ("order", "mode", "entries"), False),
    "ComponentShape": (
        lambda: ComponentShape((0, 1), (1,), 1, 1),
        lambda: ComponentShape(vertices=(0, 1), cycle=(1,), z=1, depth=1),
        lambda: ComponentShape((0, 1), (0, 1), 2, 0),
        "ComponentShape(vertices=(0, 1), cycle=(1,), z=1, depth=1)",
        ("vertices", "cycle", "z", "depth"), True),
    "OutregularProfile": (
        lambda: profile(Digraph(2, [(0, 1), (1, 1)])),
        lambda: OutregularProfile(
            order=2, succ=(1, 1), component=(0, 0),
            components=(ComponentShape((0, 1), (1,), 1, 1),),
            vertex_depth=(1, 0)),
        lambda: profile(Digraph(2, [(0, 0), (1, 1)])),
        "OutregularProfile(order=2, succ=(1, 1), component=(0, 0), "
        "components=(ComponentShape(vertices=(0, 1), cycle=(1,), z=1, "
        "depth=1),), vertex_depth=(1, 0))",
        ("order", "succ", "component", "components", "vertex_depth"), True),
    "RootedTreeAnalysis": (
        lambda: analyze(PATH3, 1),
        lambda: RootedTreeAnalysis(
            tree=PATH3, root=1, depth=(1, 0, 1), succ_count=(0, 2, 0),
            branch=(0, 1, 2), parent=(1, 1, 1), children=((), (0, 2), ()),
            bfs=(1, 0, 2)),
        lambda: analyze(PATH3, 0),
        "RootedTreeAnalysis(tree=SimpleGraph(order=3, edges=frozenset({"
        "(0, 1), (1, 2)})), root=1, depth=(1, 0, 1), succ_count=(0, 2, 0), "
        "branch=(0, 1, 2), parent=(1, 1, 1), children=((), (0, 2), ()), "
        "bfs=(1, 0, 2))",
        ("tree", "root", "depth", "succ_count", "branch", "parent",
         "children", "bfs"), True),
    "TreeVerdict": (
        lambda: TreeVerdict("no", None, (1,), {1: ("part1", 0)}),
        lambda: TreeVerdict(status="no", witness=None, candidates=(1,),
                            details={1: ("part1", 0)}),
        lambda: TreeVerdict("undecided", None, (1,), {1: ("open",)}),
        "TreeVerdict(status='no', witness=None, candidates=(1,), "
        "details={1: ('part1', 0)})",
        ("status", "witness", "candidates", "details"), True),
    "FunctionFamily": (
        lambda: FunctionFamily(2, ((1, 1), (0, 0))),
        lambda: FunctionFamily(order=2, maps=((1, 1), (0, 0))),
        lambda: FunctionFamily(2, ((1, 1),)),
        "FunctionFamily(order=2, maps=((1, 1), (0, 0)))",
        ("order", "maps"), True),
    "SpectralProfile": (
        lambda: synthetic_profile(4, 2, 0.5),
        lambda: SpectralProfile(order=4, eigenvalues=(), degree=2, lam=0.5),
        lambda: SpectralProfile(4, ()),
        "SpectralProfile(order=4, eigenvalues=(), degree=2, lam=0.5)",
        ("order", "eigenvalues", "degree", "lam"), True),
    "NonmonoidCertificate": (
        lambda: profile_certificate(synthetic_profile(10, 3, 0.5), 0, 20),
        lambda: NonmonoidCertificate(
            certified=True,
            hypotheses={"regular": True, "triangle-free": True,
                        "k-nonnegative": True, "degree-at-least-2": True,
                        "cycle-long-enough": True},
            lower=Fraction(5, 2), upper=Fraction(5, 3)),
        lambda: NonmonoidCertificate(False, {}, None, None),
        "NonmonoidCertificate(certified=True, hypotheses={'regular': True, "
        "'triangle-free': True, 'k-nonnegative': True, "
        "'degree-at-least-2': True, 'cycle-long-enough': True}, "
        "lower=Fraction(5, 2), upper=Fraction(5, 3))",
        ("certified", "hypotheses", "lower", "upper"), True),
}

# frozen classes holding a dict hash like a tuple holding one: they raise
UNHASHABLE_FROZEN = {"TreeVerdict", "NonmonoidCertificate"}


def test_every_value_class_is_pinned():
    assert len(CASES) == 17
    for name, (build, *_rest) in CASES.items():
        assert type(build()).__name__ == name


@pytest.mark.parametrize("name", CASES)
def test_equality(name):
    build, same, other, _, _, _ = CASES[name]
    a = build()
    assert a == same() and not a != same()
    assert a != other() and not a == other()
    assert a != object() and not a == object()
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", CASES)
def test_hash(name):
    build, same, _, _, fields, frozen = CASES[name]
    a = build()
    if not frozen or name in UNHASHABLE_FROZEN:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    assert hash(a) == hash(same())
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    build, _, _, text, _, _ = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    build, _, _, text, fields, _ = CASES[name]
    a = build()
    b = pickle.loads(pickle.dumps(a, protocol))
    assert type(b) is type(a)
    assert b == a and repr(b) == text
    assert vars(b) == vars(a)


@pytest.mark.parametrize("name", CASES)
def test_deepcopy_round_trip(name):
    build, _, _, text, fields, _ = CASES[name]
    a = build()
    b = copy.deepcopy(a)
    assert type(b) is type(a)
    assert b == a and repr(b) == text
    assert vars(b) == vars(a)
    assert [getattr(b, f) for f in fields] == [getattr(a, f) for f in fields]


@pytest.mark.parametrize("name", CASES)
def test_frozen_refuses_assignment(name):
    build, _, _, text, fields, frozen = CASES[name]
    a = build()
    if not frozen:
        setattr(a, fields[0], getattr(a, fields[0]))
        return
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert repr(a) == text


def test_budget_compares_its_deadline_but_does_not_show_it():
    a = Budget(5, 2.0)
    b = copy.deepcopy(a)
    assert a == b and repr(a) == "Budget(max_nodes=5, max_seconds=2.0, nodes=0)"
    b._deadline += 1.0
    assert a != b and repr(b) == repr(a)


def test_certified_witness_keeps_its_checks_through_a_pipe():
    """The checks ``certify`` ran ride along with the witness, but equality,
    hashing and the ``repr`` ignore them."""
    certified = CASES["CayleyWitness"][1]()
    plain = _witness()
    assert certified._checks is not None and plain._checks is None
    assert certified == plain and hash(certified) == hash(plain)
    assert repr(certified) == repr(plain)
    for back in (pickle.loads(pickle.dumps(certified)),
                 copy.deepcopy(certified)):
        assert back._checks == certified._checks

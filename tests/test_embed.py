"""Transition-monoid embeddings of sink-free digraphs and of graphs."""

from __future__ import annotations

import subprocess
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, complete_graph, cycle_graph, path_graph, star_graph
from semicayley import (
    BudgetExceededError,
    Digraph,
    FunctionFamily,
    SimpleGraph,
    cayley_digraph,
    embed_monoid,
    embed_undirected,
    greedy_cover,
    underlying_graph,
    verify_witness,
)
from semicayley.embed import closure, family_violation
from semicayley.outcome import MAX_CARRIER_ORDER


def test_function_family_guards():
    with pytest.raises(ValueError):
        FunctionFamily(3, ((0, 1),))
    with pytest.raises(ValueError):
        FunctionFamily(2, ((0, 2),))


def test_family_violation_cases():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    ok = FunctionFamily(3, ((1, 2, 0), (2, 2, 0)))
    assert family_violation(ok, g) is None
    bad_arc = FunctionFamily(3, ((1, 0, 0),))
    assert family_violation(bad_arc, g)[0] == "not-an-arc"
    partial = FunctionFamily(3, ((1, 2, 0),))
    assert family_violation(partial, g) == ("uncovered-arc", (0, 2))
    assert family_violation(FunctionFamily(2, ((0, 0),)), g)[0] == "order-mismatch"


def test_greedy_cover_covers_all_arcs():
    g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0), (3, 1)])
    fam = greedy_cover(g, 2)
    assert len(fam.maps) == 2
    assert family_violation(fam, g) is None


def test_greedy_cover_distinct_maps_at_full_degree_vertex():
    g = Digraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    fam = greedy_cover(g, 2)
    assert len(set(fam.maps)) == 2


def test_greedy_cover_rejects_sinks_and_excess_degree():
    with pytest.raises(ValueError, match="sink"):
        greedy_cover(Digraph(2, [(0, 1)]), 1)
    with pytest.raises(ValueError, match="outdegree"):
        greedy_cover(Digraph(2, [(0, 0), (0, 1), (1, 1)]), 1)


def test_closure_of_a_transposition():
    fam = FunctionFamily(2, ((1, 0),))
    maps = closure(fam)
    assert maps == ((0, 1), (1, 0))


def test_closure_respects_map_cap():
    fam = FunctionFamily(3, ((1, 2, 0),))
    with pytest.raises(BudgetExceededError):
        closure(fam, max_maps=2)


def _check_component_removal(w, g: Digraph):
    """Recompute the separation property without verify_witness."""
    cay = cayley_digraph(w.table, w.connection)
    comp = set(w.component)
    rest = [v for v in range(w.table.order) if v not in comp]
    assert sorted(w.vertex_map) == rest
    back = {m: v for v, m in enumerate(w.vertex_map)}
    outside = {(back[u], back[v]) for u, v in cay.arcs
               if u not in comp and v not in comp}
    assert outside == set(g.arcs)
    # no arc leaves the identity component
    assert all(v in comp for u, v in cay.arcs if u in comp)


def test_embed_monoid_small_digraph():
    g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)])
    fam = greedy_cover(g, 2)
    w = embed_monoid(g, fam)
    assert w.mode == "embedding" and w.carrier == "directed"
    assert len(w.connection) == 2
    assert all(verify_witness(w, g).values())
    _check_component_removal(w, g)


def test_embed_monoid_loops_and_cycles():
    g = Digraph(3, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)])
    w = embed_monoid(g, greedy_cover(g, 2))
    assert all(verify_witness(w, g).values())
    _check_component_removal(w, g)


def test_embed_monoid_order_cap(monkeypatch):
    """The 40-cycle with the arc 1 -> 0 and loops at 2..39 closes to far
    more than 4,096 maps; the closure stops once the carrier would pass
    its cap, not at the default million maps."""
    import semicayley.embed as embed_module

    class Counted(deque):
        stored = 0

        def __init__(self, items):
            super().__init__(items)
            Counted.stored += len(self)

        def append(self, item):
            super().append(item)
            Counted.stored += 1

    n = 40
    arcs = ([(v, (v + 1) % n) for v in range(n)] + [(1, 0)]
            + [(v, v) for v in range(2, n)])
    g = Digraph(n, arcs)
    monkeypatch.setattr(embed_module, "deque", Counted)
    with pytest.raises(BudgetExceededError):
        embed_monoid(g, greedy_cover(g, 2))
    # the map that would have passed the cap is built but never stored
    assert Counted.stored == MAX_CARRIER_ORDER - n


@pytest.mark.parametrize("g,c_size", [
    (cycle_graph(5), 1),
    (path_graph(4), 1),
    (complete_graph(4), 2),
    (star_graph(3), 1),
])
def test_embed_undirected_connection_size_is_pseudoarboricity(g, c_size):
    w = embed_undirected(g)
    assert w.carrier == "undirected"
    assert len(w.connection) == c_size
    assert all(verify_witness(w, g).values())


def test_embed_undirected_underlying_equality_recomputed():
    g = complete_graph(4)
    w = embed_undirected(g)
    cay = cayley_digraph(w.table, w.connection)
    comp = set(w.component)
    back = {m: v for v, m in enumerate(w.vertex_map)}
    kept = {(back[u], back[v]) for u, v in cay.arcs
            if u not in comp and v not in comp}
    restricted = underlying_graph(Digraph(g.order, kept))
    assert set(restricted.edges) == set(g.edges)


def test_embed_undirected_rejects_isolated_vertices():
    with pytest.raises(ValueError, match="isolated"):
        embed_undirected(SimpleGraph(3, [(0, 1)]))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_embed_monoid_random_sink_free(data):
    n = data.draw(st.integers(1, 5))
    outs = [data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            for _ in range(n)]
    g = Digraph(n, [(v, u) for v in range(n) for u in outs[v]])
    k = max(len(s) for s in outs)
    w = embed_monoid(g, greedy_cover(g, k))
    assert all(verify_witness(w, g).values())
    _check_component_removal(w, g)


SELF_CHECK_SCRIPT = """
import sys
import semicayley.witness
from semicayley import (Digraph, SimpleGraph, WitnessCheckError, embed_monoid,
                        embed_undirected, greedy_cover)
from semicayley.families import gen_threshold

if not sys.flags.optimize:
    sys.exit("not running under -O")
semicayley.witness.verify_witness = lambda w, g: {"roundtrip": False}
cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
cases = [
    (embed_monoid, (cycle, greedy_cover(cycle, 1))),
    (embed_undirected, (SimpleGraph(3, [(0, 1), (1, 2)]),)),
    (gen_threshold, (["i", "d", "d"],)),
]
for build, args in cases:
    try:
        build(*args)
    except WitnessCheckError as exc:
        print(exc)
    else:
        sys.exit(build.__name__ + " returned a witness that fails its checks")
"""


def test_embedding_and_family_self_checks_run_under_python_O():
    """Embeddings and the threshold family re-verify their witnesses with
    the one check in ``witness``, which ``python -O`` keeps."""
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("fails its own checks: roundtrip\n") == 3

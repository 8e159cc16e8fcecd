"""Dominant-component decisions and constructions for 1-outregular digraphs.

The isomorphism-class oracle below canonicalises successor maps directly
(rooted-tree codes hung on cycles, cycles rotated to their minimum), so
class counts and per-class agreement with the search engine never rely on
the library's own canonical form.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import functional_digraph, nx_trees
from semicayley import (
    Budget,
    SimpleGraph,
    construct_monoid,
    construct_semigroup,
    decide_monoid,
    decide_semigroup,
    forest_witness,
    profile,
    recognize_monoid_digraph,
    recognize_semigroup_digraph,
    witness_ok,
)
from semicayley.zelinka import walk

# frozen: functional digraphs up to isomorphism, order 1..6
FUNCTIONAL_COUNTS = (1, 3, 7, 19, 47, 130)


def func_canon(succ) -> tuple:
    """Canonical key of a successor map up to relabelling."""
    n = len(succ)
    on_cycle = [False] * n
    for v in range(n):
        x = v
        for _ in range(n):
            x = succ[x]
        if not on_cycle[x]:
            y = x
            while True:
                on_cycle[y] = True
                y = succ[y]
                if y == x:
                    break
    children = [[] for _ in range(n)]
    for v in range(n):
        if not on_cycle[v]:
            children[succ[v]].append(v)

    def code(v):
        return "(" + "".join(sorted(code(c) for c in children[v])) + ")"

    seen = [False] * n
    comps = []
    for v in range(n):
        if on_cycle[v] and not seen[v]:
            cyc = []
            y = v
            while True:
                seen[y] = True
                cyc.append(y)
                y = succ[y]
                if y == v:
                    break
            codes = tuple(code(c) for c in cyc)
            comps.append(min(codes[i:] + codes[:i] for i in range(len(codes))))
    return tuple(sorted(comps))


def functional_classes(n: int):
    """One successor map per isomorphism class of functional digraphs."""
    reps = {}
    for succ in itertools.product(range(n), repeat=n):
        key = func_canon(succ)
        if key not in reps:
            reps[key] = succ
    return list(reps.values())


def test_functional_class_counts_frozen():
    got = tuple(len(functional_classes(n)) for n in range(1, 7))
    assert got == FUNCTIONAL_COUNTS


def test_oracle_agrees_with_library_enumeration_small():
    # independent cross-check against the generic digraph enumerator
    from semicayley import enumerate_graphs
    for n in range(1, 5):
        lib = sum(1 for g in enumerate_graphs(n, "digraph-outregular")
                  if g.is_k_outregular(1))
        assert lib == FUNCTIONAL_COUNTS[n - 1]


def test_profile_shape():
    # 3-cycle 0->1->2->0 with a tail 4->3->0
    g = functional_digraph([1, 2, 0, 0, 3])
    p = profile(g)
    assert p.order == 5
    assert len(p.components) == 1
    shape = p.components[0]
    assert shape.z == 3 and shape.depth == 2
    assert sorted(shape.cycle) == [0, 1, 2]
    assert p.vertex_depth == (0, 0, 0, 1, 2)
    assert tuple((c.z, c.depth) for c in p.components) == ((3, 2),)


def reference_profile(succ) -> tuple:
    """Every profile field from a separate walk per vertex: v's walk stops
    at its first repeat w, so its depth is the index of w and its cycle
    the walk from w on.  Vertices with the same cycle share a component,
    numbered in order of smallest member, whose cycle is read off the
    walk from that member."""
    n = len(succ)
    depth, cycle = [], []
    for v in range(n):
        seen = [v]
        while succ[seen[-1]] not in seen:
            seen.append(succ[seen[-1]])
        k = seen.index(succ[seen[-1]])
        depth.append(k)
        cycle.append(tuple(seen[k:]))
    key = [frozenset(c) for c in cycle]
    ids = list(dict.fromkeys(key))
    comp = tuple(ids.index(k) for k in key)
    shapes = []
    for cid in range(len(ids)):
        members = tuple(v for v in range(n) if comp[v] == cid)
        cyc = cycle[members[0]]
        shapes.append((members, cyc, len(cyc), max(depth[v] for v in members)))
    return tuple(succ), comp, tuple(shapes), tuple(depth)


def test_profile_matches_per_vertex_walks_up_to_order_6():
    """Every labelled functional digraph of order <= 6: 50,069 maps."""
    count = 0
    for n in range(1, 7):
        for succ in itertools.product(range(n), repeat=n):
            p = profile(functional_digraph(succ))
            shapes = tuple((c.vertices, c.cycle, c.z, c.depth)
                           for c in p.components)
            assert (p.succ, p.component, shapes, p.vertex_depth) \
                == reference_profile(succ), succ
            count += 1
    assert count == 50_069


def test_profile_rejects_non_functional():
    from semicayley import Digraph
    with pytest.raises(ValueError):
        profile(Digraph(2, [(0, 1), (0, 0), (1, 0)]))


def test_walk_arithmetic():
    g = functional_digraph([1, 2, 0, 0, 3])
    p = profile(g)
    assert walk(p, 4, 0) == 4
    assert walk(p, 4, 2) == 0
    assert walk(p, 4, 5) == 0          # 2 steps to the cycle, then 3 more
    assert walk(p, 0, 3 * 10**9) == 0  # huge k reduced mod cycle length


@pytest.mark.parametrize("succ,monoid,semigroup", [
    ((1, 2, 0), True, True),            # single cycle
    ((1, 2, 0, 4, 3), False, False),    # 3-cycle + 2-cycle: no divisibility
    ((1, 0, 2), True, True),            # 2-cycle + loop
    ((0, 0, 1), True, True),            # loop with a path hanging off
    ((0, 0, 3, 2), False, True),        # deepest component not dominant
])
def test_decide_frozen_cases(succ, monoid, semigroup):
    p = profile(functional_digraph(succ))
    assert decide_monoid(p)[0] is monoid
    assert decide_semigroup(p)[0] is semigroup


def test_decide_agrees_with_search_engine_up_to_order_5():
    budget = lambda: Budget(max_nodes=10**7, max_seconds=60.0)
    for n in range(1, 6):
        for succ in functional_classes(n):
            g = functional_digraph(succ)
            p = profile(g)
            mono = recognize_monoid_digraph(g, budget())
            semi = recognize_semigroup_digraph(g, budget())
            assert mono.status in ("witness", "exhausted-no")
            assert semi.status in ("witness", "exhausted-no")
            assert decide_monoid(p)[0] == mono.is_witness, succ
            assert decide_semigroup(p)[0] == semi.is_witness, succ


def test_constructions_roundtrip_all_positive_classes():
    for n in range(1, 6):
        for succ in functional_classes(n):
            g = functional_digraph(succ)
            p = profile(g)
            ok_m, _ = decide_monoid(p)
            ok_s, _ = decide_semigroup(p)
            if ok_m:
                w = construct_monoid(g)
                assert witness_ok(w, g)
                assert w.table.identity is not None
                assert len(w.connection) == 1
            if ok_s:
                w = construct_semigroup(g)
                assert witness_ok(w, g)
                assert w.table.identity is None


def walk_formula_rows(succ, e) -> tuple:
    """The monoid table of ``construct_monoid`` at neutral vertex e, cell by
    cell: x*y walks r(y) = d(e, omega) - d(y, omega) steps from x for y in
    e's component C, with omega l(C) + z(C) - 1 steps beyond e; e's row and
    the columns outside C are the identity."""
    p = profile(functional_digraph(succ))
    n = len(succ)
    shape = p.components[p.component[e]]
    omega = walk(p, e, shape.depth + shape.z - 1)

    def d(v):
        return next(k for k in range(n) if walk(p, v, k) == omega)

    return tuple(tuple(y if x == e or p.component[y] != p.component[e]
                       else walk(p, x, d(e) - d(y)) for y in range(n))
                 for x in range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_constructions_match_the_per_cell_walk_formula(succ):
    g = functional_digraph(succ)
    p = profile(g)
    n = len(succ)
    if decide_monoid(p)[0]:
        w = construct_monoid(g)
        assert tuple(map(tuple, w.table.rows)) == walk_formula_rows(succ, w.table.identity)
    if decide_semigroup(p)[0]:
        w = construct_semigroup(g)
        (v,) = w.connection       # the fresh neutral vertex n points at v
        big = walk_formula_rows(list(succ) + [v], n)
        assert tuple(map(tuple, w.table.rows)) == tuple(row[:n] for row in big[:n])


def test_construct_rejects_negative_instances():
    g = functional_digraph((1, 2, 0, 4, 3))
    with pytest.raises(ValueError):
        construct_monoid(g)
    with pytest.raises(ValueError):
        construct_semigroup(g)


def test_construct_monoid_fixed_neutral_vertex_validates():
    g = functional_digraph([1, 2, 0, 0, 3])
    w = construct_monoid(g, e=4)
    assert witness_ok(w, g) and w.table.identity == 4


def test_construct_monoid_rejects_bad_neutral_choice():
    g = functional_digraph([1, 2, 0, 0, 3])
    with pytest.raises(ValueError):
        construct_monoid(g, e=0)       # on the cycle, not of maximal depth


def test_forest_witness_trees():
    for n in range(1, 8):
        for t in nx_trees(n):
            w = forest_witness(t)
            assert witness_ok(w, t)
            assert len(w.connection) == 1


def test_forest_witness_multi_component_and_edgeless():
    f = SimpleGraph(6, [(0, 1), (1, 2), (3, 4)])   # path + edge + isolate
    w = forest_witness(f)
    assert witness_ok(w, f) and len(w.connection) == 1
    e = SimpleGraph(4)
    w = forest_witness(e)
    assert witness_ok(w, e) and len(w.connection) == 1


def test_forest_witness_rejects_cycles():
    with pytest.raises(ValueError):
        forest_witness(SimpleGraph(3, [(0, 1), (1, 2), (2, 0)]))

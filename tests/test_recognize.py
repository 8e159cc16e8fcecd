"""Exhaustive table search: digraph and graph modes, the homomorphism
route, and the census driver.

Census tallies are frozen from runs whose positive halves all carry
self-verified witnesses and whose searches completed without hitting a
budget; the digraph tallies are cross-checked against the independent
left-multiplication search in ``sabidussi_check``.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, cycle_graph, functional_digraph, looped_to_zero
from semicayley import (
    Budget,
    BudgetExceededError,
    Digraph,
    SimpleGraph,
    WitnessCheckError,
    classify_all,
    decide_monoid,
    decide_semigroup,
    enumerate_graphs,
    profile,
    recognize_monoid_digraph,
    recognize_monoid_graph,
    recognize_semigroup_digraph,
    sabidussi_check,
    witness_ok,
)
from semicayley.families import gen_K4_Cl, looped_path_digraph, gen_smallest_tree
from semicayley.graphs import is_strongly_connected
from semicayley import forked, recognize as recognize_module
from semicayley.recognize import (_GraphTables, _TableSolver, _search_tables,
                                  endomorphisms)
from semicayley.witness import generated_submonoid

# frozen: order-3 outregular digraph census, both algebraic modes
ORDER3_TALLY = {"witness": 13, "exhausted-no": 3}


def fresh_budget(nodes=10**7, seconds=120.0) -> Budget:
    return Budget(max_nodes=nodes, max_seconds=seconds)


def test_looped_path_negative_both_modes():
    g = looped_path_digraph()
    for rec in (recognize_monoid_digraph, recognize_semigroup_digraph):
        out = rec(g, fresh_budget())
        assert out.status == "exhausted-no"
        assert out.nodes > 0


def test_directed_cycle_is_a_group_cayley_graph():
    g = functional_digraph([1, 2, 3, 0])
    out = recognize_monoid_digraph(g, fresh_budget())
    assert out.is_witness
    w = out.witness
    assert witness_ok(w, g)
    assert len(w.connection) == 1
    assert w.table.identity is not None


def test_semigroup_witness_without_identity_claim():
    g = functional_digraph([0, 0, 1])
    out = recognize_semigroup_digraph(g, fresh_budget())
    assert out.is_witness
    assert out.witness.table.identity is None
    assert witness_ok(out.witness, g)


def test_recognize_agrees_with_dominant_component_rules():
    # every 1-outregular digraph on <= 4 vertices, both modes
    for g in enumerate_graphs(4, "digraph-outregular"):
        if not g.is_k_outregular(1):
            continue
        p = profile(g)
        assert recognize_monoid_digraph(g, fresh_budget()).is_witness \
            == decide_monoid(p)[0]
        assert recognize_semigroup_digraph(g, fresh_budget()).is_witness \
            == decide_semigroup(p)[0]


def test_one_outregular_witnesses_have_singleton_connection():
    for succ in ([1, 2, 0], [0, 0, 1], [1, 0, 2]):
        g = functional_digraph(succ)
        out = recognize_monoid_digraph(g, fresh_budget())
        if out.is_witness:
            assert len(out.witness.connection) == 1


def test_census_order3_tallies_frozen():
    for mode in ("semigroup-digraph", "monoid-digraph"):
        report = classify_all(3, mode)
        assert report.counts() == ORDER3_TALLY, mode
        assert len(report.entries) == 16


def test_census_lines_format():
    report = classify_all(2, "monoid-digraph")
    for line in report.lines():
        key, status, nodes = line.split("\t")
        int(key, 16)
        assert status in ("witness", "exhausted-no", "budget-exceeded")
        int(nodes)


def test_census_parallel_matches_serial():
    serial = classify_all(3, "semigroup-digraph", workers=1)
    parallel = classify_all(3, "semigroup-digraph", workers=2)
    assert sorted(serial.lines()) == sorted(parallel.lines())


def test_census_rejects_unknown_mode():
    with pytest.raises(ValueError):
        classify_all(3, "ring-digraph")


def test_all_small_graphs_are_monoid_graphs():
    # orders 1..4: 1 + 2 + 4 + 11 classes, all positive
    for n in range(1, 5):
        for g in enumerate_graphs(n, "simple"):
            out = recognize_monoid_graph(g, fresh_budget())
            assert out.is_witness
            assert witness_ok(out.witness, g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_recognition_is_invariant_under_relabelling(data):
    """Metamorphic guard for enumeration and search speed-ups: a relabelled
    graph or digraph gets the same status, and every witness verifies on
    the labelling it was found for."""
    directed = data.draw(st.booleans())
    n = data.draw(st.integers(1, 4 if directed else 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    perm = data.draw(st.permutations(range(n)))
    if directed:
        kind, recognize = Digraph, recognize_monoid_digraph
        arcs = data.draw(st.sets(pairs, max_size=n * n))
    else:
        kind, recognize = SimpleGraph, recognize_monoid_graph
        arcs = data.draw(st.sets(pairs.filter(lambda e: e[0] != e[1]),
                                 max_size=n * (n - 1) // 2))
    graphs = (kind(n, arcs), kind(n, [(perm[u], perm[v]) for u, v in arcs]))
    outs = [recognize(g, fresh_budget(10**6, 60.0)) for g in graphs]
    assert outs[0].status in ("witness", "exhausted-no")
    assert outs[0].status == outs[1].status
    for g, out in zip(graphs, outs):
        if out.is_witness:
            assert witness_ok(out.witness, g)


def test_edgeless_graphs():
    g = SimpleGraph(3)
    out = recognize_monoid_graph(g, fresh_budget())
    assert out.is_witness and out.witness.connection == frozenset()
    gen = recognize_monoid_graph(g, fresh_budget(), require_generated=True)
    assert gen.status == "exhausted-no"
    single = recognize_monoid_graph(SimpleGraph(1), fresh_budget(),
                                    require_generated=True)
    assert single.is_witness


def test_generated_mode_separates_broom_from_spider():
    broom = gen_smallest_tree()
    assert recognize_monoid_graph(broom, fresh_budget()).is_witness
    out = recognize_monoid_graph(broom, fresh_budget(),
                                 require_generated=True)
    assert out.status == "exhausted-no"

    spider = SimpleGraph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    out = recognize_monoid_graph(spider, fresh_budget(),
                                 require_generated=True)
    assert out.is_witness
    gen = generated_submonoid(out.witness.table, out.witness.connection)
    assert len(gen) == 7


def test_max_connection_restricts_identity_degree():
    # a star demands its full-degree center as identity when generated
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    restricted = recognize_monoid_graph(star, fresh_budget(),
                                        require_generated=True,
                                        max_connection=2)
    assert restricted.status == "exhausted-no"
    free = recognize_monoid_graph(star, fresh_budget(),
                                  require_generated=True)
    assert free.is_witness


def test_budget_exhaustion_is_reported_not_raised():
    g = SimpleGraph(9, [(i, (i + 1) % 9) for i in range(9)]
                    + [(i, (i + 2) % 9) for i in range(9)])
    out = recognize_monoid_graph(g, Budget(max_nodes=50, max_seconds=60.0))
    assert out.status == "budget-exceeded"
    assert out.nodes >= 50


def test_time_budget_stops_at_the_first_poll():
    """The clock starts with the budget; with no time left, the search
    stops where time is first polled, at node 4,096."""
    out = recognize_monoid_graph(gen_K4_Cl(5), Budget(max_seconds=0))
    assert (out.status, out.nodes) == ("budget-exceeded", 4096)


@pytest.mark.parametrize("max_seconds", [None, 600.0])
@pytest.mark.parametrize("k", [1, 4095, 4096, 15_002, 15_003, 18_714,
                               18_715, 56_127, 60_008])
def test_node_budget_stops_one_node_past_its_limit(k, max_seconds):
    """K4 + C5 runs out of nodes at node k + 1 wherever k falls: around
    the time poll at 4,096, around the end of the first identity candidate
    (18,714 nodes) and at the end of the third (56,127), at the ends that
    the first and fourth had without the probe (15,002 and 60,008), with
    and without a time limit."""
    budget = Budget(max_nodes=k, max_seconds=max_seconds)
    out = recognize_monoid_graph(gen_K4_Cl(5), budget)
    assert (out.status, out.nodes, budget.nodes) == (
        "budget-exceeded", k + 1, k + 1)


def test_an_exhausted_search_leaves_its_count_in_the_budget():
    """The search counts its nodes itself; when it exhausts, the budget
    holds the count the outcome reports."""
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    cases = [
        (recognize_monoid_digraph, looped_path_digraph(), {}),
        (recognize_semigroup_digraph, looped_path_digraph(), {}),
        (recognize_monoid_graph, star,
         {"require_generated": True, "max_connection": 2}),
    ]
    for recognize, g, options in cases:
        budget = fresh_budget()
        out = recognize(g, budget, **options)
        assert out.is_no and out.nodes == budget.nodes > 0


def test_failed_table_check_raises_instead_of_resuming(monkeypatch):
    """A complete table that fails ``validate_table`` is a fault, not a
    branch to prune: it must not turn into a certified negative."""
    import semicayley.recognize as rec
    import semicayley.witness as wit

    def failing(table):
        return "forced failure"

    monkeypatch.setattr(wit, "validate_table", failing)
    # and wherever the search might filter its tables with it
    monkeypatch.setattr(rec, "validate_table", failing, raising=False)
    c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(WitnessCheckError, match="table-valid"):
        recognize_monoid_graph(c4, Budget())


def test_sabidussi_agrees_with_search_up_to_order_3():
    for n in range(1, 4):
        for g in enumerate_graphs(n, "digraph-all"):
            a = sabidussi_check(g, fresh_budget())
            b = recognize_monoid_digraph(g, fresh_budget())
            assert a.is_witness == b.is_witness, sorted(g.arcs)
            if a.is_witness:
                assert witness_ok(a.witness, g)


def test_sabidussi_order_cap():
    big = Digraph(9, [(i, i) for i in range(9)])
    with pytest.raises(ValueError):
        sabidussi_check(big, fresh_budget())


def test_endomorphisms_refuse_a_long_path_before_recursing():
    """The directed path on 1,200 vertices with a loop at its end: the
    order cap, not the recursion limit or the budget, stops both."""
    n = 1200
    g = Digraph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)])
    for search in (endomorphisms, sabidussi_check):
        with pytest.raises(ValueError):
            search(g, Budget(max_nodes=5000))


def brute_force_homs(g: Digraph, v: int) -> list:
    """Every map {0..v-1} -> V(g) keeping the arcs among {0..v-1}, in
    lexicographic order."""
    arcs = [(a, b) for a, b in g.arcs if a < v and b < v]
    return [m for m in itertools.product(range(g.order), repeat=v)
            if all((m[a], m[b]) in g.arcs for a, b in arcs)]


def check_endomorphisms_by_brute_force(g: Digraph) -> None:
    budget = fresh_budget()
    assert endomorphisms(g, budget) == brute_force_homs(g, g.order)
    # one node per partial map on {0..v-1}, for v = 0..n
    assert budget.nodes == sum(len(brute_force_homs(g, v))
                               for v in range(g.order + 1))
    assert endomorphisms(g) == brute_force_homs(g, g.order)


def test_endomorphisms_match_brute_force_up_to_order_3():
    digraphs = [g for n in range(1, 4) for g in enumerate_graphs(n, "digraph-all")]
    assert len(digraphs) == 116
    for g in digraphs:
        check_endomorphisms_by_brute_force(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_endomorphisms_match_brute_force_at_orders_4_and_5(data):
    n = data.draw(st.integers(4, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    check_endomorphisms_by_brute_force(Digraph(n, data.draw(st.sets(pairs))))


def test_sabidussi_totals_frozen_up_to_order_4():
    nodes = witnesses = 0
    for n in range(1, 5):
        for g in enumerate_graphs(n, "digraph-all"):
            out = sabidussi_check(g, fresh_budget())
            assert out.status in ("witness", "exhausted-no")
            nodes += out.nodes
            if out.is_witness:
                witnesses += 1
                assert witness_ok(out.witness, g)
    assert (nodes, witnesses) == (155079, 171)


# frozen: per monoid route, sha256 over every order-1..4 digraph class's
# answer, written as in test_crosscheck_4_answers_frozen_per_class
CROSSCHECK_4_DIGESTS = {
    "sabidussi_check":
        "fc638d219f8e1c7e30a45cdd48f41963c287963172ed38db0b300575fc047287",
    "recognize_monoid_digraph":
        "c8039e5437b896f4187731013b1f2a57ad5e38a24dd4d144e145ceb4c96e3e97",
}


def test_crosscheck_4_answers_frozen_per_class():
    """Each class's status, node count, table rows and connection set,
    on both routes, not only their totals."""
    digraphs = [g for n in range(1, 5) for g in enumerate_graphs(n, "digraph-all")]
    assert len(digraphs) == 3160
    for route, totals in ((sabidussi_check, (155079, 171)),
                          (recognize_monoid_digraph, (7006, 171))):
        digest = hashlib.sha256()
        nodes = witnesses = 0
        for g in digraphs:
            out = route(g, fresh_budget())
            w = out.witness
            answer = (out.status, out.nodes, None if w is None
                      else (w.table.rows, tuple(sorted(w.connection))))
            digest.update(repr(answer).encode())
            nodes += out.nodes
            witnesses += out.is_witness
        assert (nodes, witnesses) == totals, route.__name__
        assert digest.hexdigest() == CROSSCHECK_4_DIGESTS[route.__name__]


def _loop_rule_drops(out_sets, e) -> bool:
    """A looped identity candidate beside a loopless vertex."""
    return e in out_sets[e] and any(x not in s for x, s in enumerate(out_sets))


def _check_loop_rule_against_prefill(g: Digraph):
    """(candidates, dropped) over ``g``'s maximum-outdegree identity
    candidates, after checking that the loop rule drops a candidate
    exactly when ``prefill_identity`` on a fresh solver fails."""
    out_sets = [frozenset(s) for s in g.out_neighbors()]
    dmax = max(map(len, out_sets))
    graph = _GraphTables(out_sets, True)
    injective = is_strongly_connected(g)
    candidates = dropped = 0
    for e, s in enumerate(out_sets):
        if len(s) != dmax:
            continue
        solver = _TableSolver(graph, s, fresh_budget(), identity=e,
                              injective_rows=injective)
        passes = solver.prefill_identity()
        assert passes != _loop_rule_drops(out_sets, e), (sorted(g.arcs), e)
        candidates += 1
        dropped += not passes
    return candidates, dropped


def test_loop_rule_drops_exactly_the_failing_prefills_to_order_4():
    """Every candidate is checked; those of digraphs without a sink are
    the ones the table search builds a solver for."""
    totals = {True: [0, 0], False: [0, 0]}
    for n in range(1, 5):
        for g in enumerate_graphs(n, "digraph-all"):
            counts = totals[all(g.out_neighbors())]
            for i, k in enumerate(_check_loop_rule_against_prefill(g)):
                counts[i] += k
    assert totals == {True: [4022, 2407], False: [1120, 731]}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loop_rule_drops_exactly_the_failing_prefills_at_orders_5_and_6(data):
    n = data.draw(st.integers(5, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    loops = data.draw(st.sets(st.integers(0, n - 1)))
    _check_loop_rule_against_prefill(
        Digraph(n, data.draw(st.sets(pairs)) | {(x, x) for x in loops}))


def test_no_candidate_left_is_answered_before_any_table(monkeypatch):
    """Only vertex 0 has the maximum outdegree, and it has a loop that
    vertex 2 lacks."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("built a table for a dropped candidate")

    for name in ("_GraphTables", "_TableSolver", "is_strongly_connected"):
        monkeypatch.setattr(recognize_module, name, unbuilt)
    g = Digraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)])
    out = recognize_monoid_digraph(g, fresh_budget())
    assert (out.status, out.nodes) == ("exhausted-no", 0)


def test_sabidussi_skips_only_identities_with_an_empty_candidate_list():
    """Below the maximum outdegree, some x has no endomorphism phi with
    phi(e) = x and N+(x) inside phi(N+(e)), so skipping e loses nothing.
    Nor does a looped e beside loopless vertices: phi maps a loop to a
    loop, so no loopless x is served."""
    skipped = looped_skips = pairs = 0
    for n in range(1, 5):
        for g in enumerate_graphs(n, "digraph-all"):
            out = g.out_neighbors()
            dmax = max(map(len, out))
            looped = {x for x in range(n) if x in out[x]}
            endos = endomorphisms(g)
            for e in range(n):
                pairs += 1
                if len(out[e]) == dmax and (len(looped) == n or e not in looped):
                    continue
                skipped += 1
                served = {phi[e] for phi in endos
                          if out[phi[e]] <= {phi[c] for c in out[e]}}
                assert len(served) < n, (sorted(g.arcs), e)
                if len(out[e]) == dmax:
                    looped_skips += 1
                    assert served <= looped, (sorted(g.arcs), e)
    assert (skipped, looped_skips, pairs) == (10506, 3138, 12510)


@pytest.mark.parametrize("g, status, full", [
    (Digraph(3, [(0, 1), (1, 2), (2, 0)]), "witness", 11),
    (looped_path_digraph(), "exhausted-no", 13),
])
def test_sabidussi_budget_stops_at_the_node_after_the_cap(g, status, full):
    for k in range(full):
        out = sabidussi_check(g, Budget(max_nodes=k, max_seconds=None))
        assert (out.status, out.nodes) == ("budget-exceeded", k + 1)
    out = sabidussi_check(g, Budget(max_nodes=full, max_seconds=None))
    assert (out.status, out.nodes) == (status, full)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_routes_agree_on_outregular_digraphs_of_order_5_and_6(data):
    """Differential and metamorphic guard beyond A13's order 4: the
    endomorphism route and the table search give one status, on the input
    and on a relabelling, and on 1-outregular inputs so does the dominant
    component rule; every witness verifies."""
    k = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(5, 6))
    outs = st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
    arcs = [(u, w) for u in range(n) for w in data.draw(outs)]
    perm = data.draw(st.permutations(range(n)))
    graphs = (Digraph(n, arcs), Digraph(n, [(perm[u], perm[w]) for u, w in arcs]))
    statuses = set()
    for g in graphs:
        for route in (sabidussi_check, recognize_monoid_digraph):
            out = route(g, fresh_budget(10**6, 60.0))
            assert out.status in ("witness", "exhausted-no")
            statuses.add(out.status)
            if out.is_witness:
                assert witness_ok(out.witness, g)
    assert len(statuses) == 1, sorted(arcs)
    if k == 1:
        expected = "witness" if decide_monoid(profile(graphs[0]))[0] else "exhausted-no"
        assert statuses == {expected}


def test_search_node_counts_frozen():
    """Frozen node totals: the search must visit the same nodes in the
    same order however its hot path is written."""
    def total(report):
        return sum(entry.outcome.nodes for entry in report.entries)

    report = classify_all(5, "monoid-graph")
    assert report.counts() == {"witness": 34}
    assert total(report) == 804
    report = classify_all(4, "monoid-digraph")
    assert report.counts() == {"witness": 40, "exhausted-no": 66}
    assert total(report) == 1222
    report = classify_all(4, "semigroup-digraph")
    assert report.counts() == {"witness": 47, "exhausted-no": 59}
    assert total(report) == 8406
    assert recognize_monoid_digraph(looped_to_zero(30), fresh_budget()).nodes == 841

    def tally(outcomes):
        counts = {}
        for out in outcomes:
            counts[out.status] = counts.get(out.status, 0) + 1
        return counts, sum(out.nodes for out in outcomes)

    graphs = list(enumerate_graphs(5, "simple"))
    assert tally([recognize_monoid_graph(g, fresh_budget(),
                                         require_generated=True)
                  for g in graphs]) == ({"witness": 21, "exhausted-no": 13}, 46323)
    assert tally([recognize_monoid_graph(g, fresh_budget(), max_connection=2)
                  for g in graphs]) == ({"witness": 29, "exhausted-no": 5}, 3711)
    # every order-3 digraph, sinks and the edgeless one included
    digraphs = list(enumerate_graphs(3, "digraph-all"))
    assert len(digraphs) == 104
    assert tally([recognize_monoid_digraph(g, fresh_budget())
                  for g in digraphs]) == ({"witness": 25, "exhausted-no": 79}, 161)
    assert tally([recognize_semigroup_digraph(g, fresh_budget())
                  for g in digraphs]) == ({"witness": 28, "exhausted-no": 76}, 676)
    # canonical labellings put a sink first, where the search dies at once;
    # a sink last shows that sinks are refuted before any search
    sink_last = Digraph(3, [(0, 1), (1, 2)])
    assert tally([rec(sink_last, fresh_budget())
                  for rec in (recognize_monoid_digraph,
                              recognize_semigroup_digraph)]) == ({"exhausted-no": 2}, 0)


@pytest.mark.parametrize("n, nodes", [(36, 1225), (45, 1936)])
def test_deep_search_has_no_recursion_limit(n, nodes):
    g = looped_to_zero(n)
    out = recognize_monoid_digraph(g, fresh_budget())
    assert out.is_witness and witness_ok(out.witness, g)
    assert out.nodes == nodes


SELF_CHECK_SCRIPT = """
import sys
import semicayley.recognize as rec
import semicayley.witness
from semicayley import (Budget, Digraph, SimpleGraph, WitnessCheckError,
                        classify_tree, construct_monoid, construct_semigroup,
                        forest_witness)

if not sys.flags.optimize:
    sys.exit("not running under -O")
semicayley.witness.verify_witness = lambda w, g: {"roundtrip": False}
cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
path = SimpleGraph(3, [(0, 1), (1, 2)])
cases = [
    (rec.recognize_monoid_digraph, cycle, Budget()),
    (rec.recognize_semigroup_digraph, cycle, Budget()),
    (rec.recognize_monoid_graph, path, Budget()),
    (rec.recognize_monoid_digraph, Digraph(2), Budget()),
    (rec.recognize_semigroup_digraph, Digraph(2), Budget()),
    (rec.recognize_monoid_graph, SimpleGraph(2), Budget()),
    (rec.sabidussi_check, cycle, Budget()),
    (construct_monoid, cycle),
    (construct_semigroup, cycle),
    (forest_witness, path),
    (classify_tree, path),  # the sufficient condition holds at vertex 0
]
for produce, *args in cases:
    try:
        produce(*args)
    except WitnessCheckError as exc:
        print(exc)
    else:
        sys.exit(produce.__name__ + " returned a witness that fails its checks")
"""


def test_witness_self_check_runs_under_python_O():
    """Each recognizer (searched or edgeless witness), the endomorphism
    search, the Zelinka constructions and the tree classifier re-verify
    their witnesses with the one check in ``witness``, which ``python -O``
    keeps; here every check is made to fail."""
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("fails its own checks: roundtrip\n") == 11


# -- the check-then-commit kernel ------------------------------------------


def _solver_state(s):
    """Everything ``assign_propagate`` may write, as a deep copy."""
    counters = ((s.remaining, s.uncovered, s.cover_count) if s.directed
                else (s.remaining, s.ecov))
    return copy.deepcopy((s.table, s.occ, s.row_cols, s.col_rows, s.trail,
                          s.row_used, counters))


def _check_derived_state(s):
    """The triple lists hold exactly the cells on the trail, in its order,
    and the coverage counters count what the table holds.  Once the
    identity's row and column are complete, none of their cells is on the
    trail, so none is in the lists either."""
    T, n, trail = s.table, s.n, s.trail
    assert s.occ == [[(a, b) for a, b in trail if T[a][b] == v]
                     for v in range(n)]
    assert s.row_cols == [[b for a, b in trail if a == x] for x in range(n)]
    assert s.col_rows == [[a for a, b in trail if b == y] for y in range(n)]
    e = s.identity
    if e is not None and all(T[e][x] >= 0 and T[x][e] >= 0 for x in range(n)):
        assert not any(e in cell for cell in trail)
    assert s.remaining == [sum(T[x][c] < 0 for c in s.conn) for x in range(n)]
    if not s.directed:
        ecov = [0] * s.graph.edges
        for x in range(n):
            for c in s.conn:
                v = T[x][c]
                if v >= 0 and v != x:
                    ecov[s.graph.eid[x][v]] += 1
        assert s.ecov == ecov


def _first_cell_rejected(s, arc, a, b, v) -> bool:
    """Whether a rule rejects the open cell (a, b) := v on its own, derived
    from the table and ``arc(x, y)``, not from the solver's counters."""
    T = s.table
    n = s.n
    conn = s.conn
    if b in conn and not arc(a, v):
        return True
    if s.row_used is not None and v in T[a]:
        return True
    # the row of a must map arcs at b to arcs, a loop at b included
    if s.directed and arc(b, b) and not arc(v, v):
        return True
    for y in range(n):
        z = T[a][y]
        if z >= 0 and ((arc(b, y) and not arc(v, z))
                       or (s.directed and arc(y, b) and not arc(z, v))):
            return True
    after = [row[:] for row in T]
    after[a][b] = v

    def image(x):
        return {after[x][c] for c in conn if after[x][c] >= 0}

    def open_cells(x):
        return sum(after[x][c] < 0 for c in conn)

    # coverage: a row has more arcs left to cover than open connection
    # cells, or an edge has no open connection cell left at either end
    if b in conn:
        for x in range(n):
            if s.directed:
                left = [y for y in range(n) if arc(x, y) and y not in image(x)]
                if len(left) > open_cells(x):
                    return True
                continue
            for y in range(x + 1, n):
                if (arc(x, y) and y not in image(x) and x not in image(y)
                        and not open_cells(x) + open_cells(y)):
                    return True
    for x, y, z in itertools.product(range(n), repeat=3):
        xy, yz = after[x][y], after[y][z]
        if xy >= 0 and yz >= 0:
            lhs, rhs = after[xy][z], after[x][yz]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return True
    return False


def _watch_kernel(s, arc, seen):
    """Wrap the solver's kernel so that every call checks the state it
    starts from, and what a rejected value leaves behind, before and after
    ``undo_to``."""
    assign, undo = s.assign_propagate, s.undo_to

    def checked(a, b, v):
        assert s.table[a][b] < 0
        _check_derived_state(s)
        before = _solver_state(s)
        mark = len(s.trail)
        at_first = _first_cell_rejected(s, arc, a, b, v)
        if assign(a, b, v):
            assert not at_first
            return True
        if at_first:
            # nothing was committed: not even the trail moved
            assert _solver_state(s) == before
            seen["first"] += 1
        else:
            # the tried cell passed its checks, so it was committed first
            assert s.trail[mark] == (a, b)
            seen["later"] += 1
        undo(mark)
        assert _solver_state(s) == before
        return False

    s.assign_propagate = checked


def _run_watched(sets, arc, candidates, directed, injective, seen):
    budget = Budget(max_nodes=3000, max_seconds=None)
    graph = _GraphTables(sets, directed)
    for identity, conn in candidates:
        s = _TableSolver(graph, conn, budget, identity=identity,
                         injective_rows=injective)
        _watch_kernel(s, arc, seen)
        try:
            if s.prefill_identity():
                s.search()
        except BudgetExceededError:
            return


@st.composite
def small_carriers(draw):
    """A simple graph of order 2-5, or a digraph of order 2-4 with every
    outdegree positive; about half of the digraphs get a Hamiltonian cycle,
    so they are strongly connected and force injective rows."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 4 if directed else 5))
    pairs = [(x, y) for x in range(n) for y in range(n)
             if directed or x < y]
    arcs = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    if not directed:
        return SimpleGraph(n, arcs)
    if draw(st.booleans()):
        arcs |= {(x, (x + 1) % n) for x in range(n)}
    arcs |= {(x, x) for x in range(n) if not any(u == x for u, _ in arcs)}
    return Digraph(n, arcs)


@settings(max_examples=120, deadline=None)
@given(small_carriers(), st.integers(0, 1))
def test_rejected_values_leave_the_state_as_it_was(g, semigroup):
    """Every value ``assign_propagate`` rejects leaves the table, ``occ``,
    the row and column lists, trail, ``row_used`` and coverage counters as
    ``undo_to(mark)`` finds them before the call; a value rejected at its
    first cell leaves them so without any undo."""
    seen = {"first": 0, "later": 0}
    if isinstance(g, SimpleGraph):
        sets = [frozenset(s) for s in g.neighbors()]

        def arc(x, y):
            return x == y or y in sets[x]

        candidates = [(e, sets[e]) for e in range(g.order) if sets[e]]
        _run_watched(sets, arc, candidates, False, False, seen)
        return
    sets = [frozenset(s) for s in g.out_neighbors()]

    def arc(x, y):
        return y in sets[x]

    dmax = max(map(len, sets))
    if semigroup:
        candidates = [(None, conn) for size in range(dmax, g.order + 1)
                      for conn in itertools.combinations(range(g.order), size)]
    else:
        candidates = [(e, sets[e]) for e in range(g.order)
                      if len(sets[e]) == dmax]
    _run_watched(sets, arc, candidates, True, is_strongly_connected(g), seen)


def test_rejections_at_the_first_cell_and_later_are_both_watched():
    """The watched kernel meets both kinds of rejection: on the 5-cycle as
    a graph, and with injective rows on the strongly connected digraph
    0 -> 1, 0 -> 2, 1 -> 1, 1 -> 2, 2 -> 0, 2 -> 1, whose loop at 1 the
    loop rule reads."""
    g = cycle_graph(5)
    sets = [frozenset(s) for s in g.neighbors()]
    seen = {"first": 0, "later": 0}
    _run_watched(sets, lambda x, y: x == y or y in sets[x],
                 [(e, sets[e]) for e in range(g.order)], False, False, seen)
    assert seen["first"] > 0 and seen["later"] > 0
    d = Digraph(3, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)])
    dsets = [frozenset(s) for s in d.out_neighbors()]
    seen = {"first": 0, "later": 0}
    _run_watched(dsets, lambda x, y: y in dsets[x],
                 [(None, conn) for size in (2, 3)
                  for conn in itertools.combinations(range(3), size)],
                 True, True, seen)
    assert seen["first"] > 0 and seen["later"] > 0


# the unrestricted K4 + C5 search per identity: all four degree-3
# candidates and the cheap degree-2 ones, each exhausted in the pieces
# ``_search_tables`` splits it into, since a probing walk's count depends
# on that split; without the probe (1,272,392 nodes in all) and with it
# (696,357)
K4_C5_IDENTITY_NODES = [(0, 15_002), (1, 15_002), (2, 15_002), (3, 15_002),
                        (4, 46_086), (5, 44_166), (8, 46_086)]
K4_C5_PROBING_IDENTITY_NODES = [(0, 18_714), (1, 18_709), (2, 18_704),
                                (3, 18_704), (4, 57_124), (5, 55_426),
                                (8, 54_213)]


def _k4_c5_identity_answer(identity):
    g = gen_K4_Cl(5)
    sets = [frozenset(s) for s in g.neighbors()]
    budget = fresh_budget()
    out = _search_tables("monoid-graph", g, budget, sets,
                         [(identity, sets[identity])])
    return out.status, out.nodes, budget.nodes


@pytest.mark.parametrize("identity, nodes", K4_C5_IDENTITY_NODES)
def test_k4_c5_nodes_per_identity_frozen(monkeypatch, identity, nodes):
    monkeypatch.setattr(recognize_module, "FORK_AFTER", float("inf"))
    monkeypatch.setattr(recognize_module, "PROBE_AFTER", float("inf"))
    assert _k4_c5_identity_answer(identity) == ("exhausted-no", nodes, nodes)


@pytest.mark.parametrize("identity, nodes", K4_C5_PROBING_IDENTITY_NODES)
def test_k4_c5_probing_nodes_per_identity_frozen(monkeypatch, identity, nodes):
    monkeypatch.setattr(recognize_module, "FORK_AFTER", float("inf"))
    assert _k4_c5_identity_answer(identity) == ("exhausted-no", nodes, nodes)


# -- searches split into pieces and run on forked workers -------------------


def _two_cpus_counting_forks(monkeypatch) -> list:
    """Report two usable CPUs whatever the machine has; the returned list
    collects the pid of every worker started."""
    started = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    return started


@pytest.fixture
def forking(monkeypatch):
    """Every search forks at its first piece boundary, onto two workers.
    Returns the pids of the workers started."""
    monkeypatch.setattr(recognize_module, "FORK_AFTER", 0)
    return _two_cpus_counting_forks(monkeypatch)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _answer(out):
    w = out.witness
    rows = (w.table.rows, w.table.identity, w.connection) if w else None
    return out.status, out.nodes, rows


def _serial_and_forked(monkeypatch, run):
    """``run()`` with every search in process, then forking at once."""
    monkeypatch.setattr(recognize_module, "FORK_AFTER", float("inf"))
    serial = run()
    monkeypatch.setattr(recognize_module, "FORK_AFTER", 0)
    return serial, run()


@pytest.mark.parametrize("identity, nodes", K4_C5_IDENTITY_NODES)
def test_forked_k4_c5_per_identity_matches_the_pins(forking, monkeypatch,
                                                    identity, nodes):
    monkeypatch.setattr(recognize_module, "PROBE_AFTER", float("inf"))
    assert _k4_c5_identity_answer(identity) == ("exhausted-no", nodes, nodes)
    assert len(forking) == 2
    assert_no_child_left()


@pytest.mark.parametrize("identity, nodes", K4_C5_PROBING_IDENTITY_NODES)
def test_forked_k4_c5_probing_per_identity_matches_the_pins(forking, identity,
                                                            nodes):
    assert _k4_c5_identity_answer(identity) == ("exhausted-no", nodes, nodes)
    assert len(forking) == 2
    assert_no_child_left()


def test_k4_c5_forks_past_the_threshold_with_the_serial_count(monkeypatch):
    """At the real threshold: the search forks once, onto two workers, and
    still exhausts in 696,357 nodes."""
    started = _two_cpus_counting_forks(monkeypatch)
    out = recognize_monoid_graph(gen_K4_Cl(5), fresh_budget())
    assert (out.status, out.nodes) == ("exhausted-no", 696_357)
    assert len(started) == 2
    assert_no_child_left()
    out = recognize_monoid_graph(gen_K4_Cl(5), Budget(max_nodes=60_008))
    assert (out.status, out.nodes) == ("budget-exceeded", 60_009)
    assert len(started) == 2  # under the threshold: no fork


ORDER_5_OPTIONS = [{}, {"require_generated": True}, {"max_connection": 2}]


@pytest.mark.parametrize("options", ORDER_5_OPTIONS)
def test_forked_search_matches_serial_on_order_5(forking, monkeypatch, options):
    graphs = list(enumerate_graphs(5, "simple"))

    def run():
        return [_answer(recognize_monoid_graph(g, fresh_budget(), **options))
                for g in graphs]

    serial, parallel = _serial_and_forked(monkeypatch, run)
    assert parallel == serial
    assert forking
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["monoid-digraph", "semigroup-digraph"])
def test_forked_order_4_digraph_census_matches_serial(forking, monkeypatch, mode):
    def run():
        return [(entry.key, _answer(entry.outcome))
                for entry in classify_all(4, mode, workers=1).entries]

    serial, parallel = _serial_and_forked(monkeypatch, run)
    assert parallel == serial
    assert forking
    assert_no_child_left()


# -- probing the open connection cells ------------------------------------


def _probe_everywhere(monkeypatch):
    """Every piece's walk probes from its first node, on any connection set."""
    monkeypatch.setattr(recognize_module, "PROBE_AFTER", 0)
    monkeypatch.setattr(recognize_module, "PROBE_MAX_CONNECTION", float("inf"))


def _probe_corpus(name):
    """(recognizer, graph, options) for each search of one corpus."""
    if name == "simple-6":
        return [(recognize_monoid_graph, g, options)
                for g in enumerate_graphs(6, "simple")
                for options in ({}, {"max_connection": 2})]
    if name == "simple-5-generated":
        return [(recognize_monoid_graph, g, {"require_generated": True})
                for g in enumerate_graphs(5, "simple")]
    return [(recognize, g, {}) for g in enumerate_graphs(4, "digraph-all")
            for recognize in (recognize_monoid_digraph,
                              recognize_semigroup_digraph)]


@pytest.mark.parametrize("corpus", ["simple-6", "simple-5-generated",
                                    "digraph-all-4"])
def test_probing_changes_no_status(monkeypatch, corpus):
    """Probing rejects only values that no complete table extends, so with
    it forced on everywhere each search answers as with it off; the node
    totals differ, so it did probe."""
    runs = _probe_corpus(corpus)

    def answers():
        outs = [recognize(g, fresh_budget(), **options)
                for recognize, g, options in runs]
        return [out.status for out in outs], sum(out.nodes for out in outs)

    monkeypatch.setattr(recognize_module, "PROBE_AFTER", float("inf"))
    off, off_nodes = answers()
    _probe_everywhere(monkeypatch)
    on, on_nodes = answers()
    assert on == off
    assert "exhausted-no" in off and on_nodes != off_nodes


@pytest.mark.parametrize("options", ORDER_5_OPTIONS)
def test_forked_search_matches_serial_on_order_5_probing_everywhere(
        forking, monkeypatch, options):
    _probe_everywhere(monkeypatch)
    test_forked_search_matches_serial_on_order_5(forking, monkeypatch, options)


def test_forked_k4_c4_matches_serial_with_probing(forking, monkeypatch):
    """K4 ∪ C4 probes under the default trigger, in process and in the
    workers alike."""
    def run():
        return _answer(recognize_monoid_graph(gen_K4_Cl(4), fresh_budget()))

    serial, parallel = _serial_and_forked(monkeypatch, run)
    assert parallel == serial == ("exhausted-no", 334_027, None)
    assert forking
    assert_no_child_left()


def _record_probes(monkeypatch) -> list:
    """Record, for each call of every solver's ``assign_propagate`` after
    the identity's prefill, whether it is provably a probe: a branching
    value goes to the first open cell in the static order, so a call
    anywhere else is a probe.  Returns the records and the unwatched
    prefill."""
    calls = []
    prefill = _TableSolver.prefill_identity

    def watched_prefill(self):
        passed = prefill(self)
        assign, T, order = self.assign_propagate, self.table, self.order

        def recorded(a, b, v):
            first_open = next(cell for cell in order
                              if T[cell[0]][cell[1]] < 0)
            calls.append((a, b) != first_open)
            return assign(a, b, v)

        self.assign_propagate = recorded
        return passed

    monkeypatch.setattr(_TableSolver, "prefill_identity", watched_prefill)
    return calls, prefill


def test_a_node_limit_inside_a_probe_stops_one_node_past_it(forking,
                                                             monkeypatch):
    """A limit whose next node is a probe value stops there, serial and
    forked, before that value is tried.  K4 + C5's first candidate,
    identity 0, searched alone, calls ``assign_propagate`` once per node,
    so its calls number its nodes."""
    monkeypatch.setattr(recognize_module, "FORK_AFTER", float("inf"))
    calls, prefill = _record_probes(monkeypatch)
    g = gen_K4_Cl(5)
    sets = [frozenset(s) for s in g.neighbors()]
    out = _search_tables("monoid-graph", g, fresh_budget(), sets,
                         [(0, sets[0])])
    assert (out.status, out.nodes, len(calls)) == (
        "exhausted-no", 18_714, 18_714)
    k = calls.index(True)  # node k + 1 is a probe value
    assert k >= recognize_module.PROBE_AFTER
    calls.clear()
    out = recognize_monoid_graph(g, Budget(max_nodes=k, max_seconds=None))
    assert (out.status, out.nodes, len(calls)) == ("budget-exceeded", k + 1, k)
    monkeypatch.setattr(_TableSolver, "prefill_identity", prefill)

    def run():
        budget = Budget(max_nodes=k, max_seconds=None)
        out = recognize_monoid_graph(g, budget)
        return out.status, out.nodes, budget.nodes

    serial, parallel = _serial_and_forked(monkeypatch, run)
    assert serial == parallel == ("budget-exceeded", k + 1, k + 1)
    assert forking
    assert_no_child_left()


def _census(order, mode, **options):
    report = classify_all(order, mode, **options)
    return (report.order, report.mode,
            [(entry.key, _answer(entry.outcome)) for entry in report.entries])


@pytest.mark.parametrize("mode, orders", [
    ("monoid-digraph", range(1, 5)), ("semigroup-digraph", range(1, 5)),
    ("monoid-graph", range(1, 6))])
def test_default_census_matches_the_census_in_process(monkeypatch, mode,
                                                      orders):
    """Keys, entry order, statuses, nodes and witness rows are those of
    ``workers=1``; the default forks one worker per usable CPU."""
    started = _two_cpus_counting_forks(monkeypatch)
    for order in orders:
        serial = _census(order, mode, workers=1)
        assert not started
        assert _census(order, mode) == serial, order
        assert len(started) == (2 if len(serial[2]) > 1 else 0)
        started.clear()
        assert_no_child_left()


def test_default_census_forks_one_worker_per_usable_cpu(monkeypatch):
    """No fork with one usable CPU, with one class, or beside a second
    Python thread."""
    import threading

    started = _two_cpus_counting_forks(monkeypatch)
    classify_all(3, "monoid-graph")
    assert len(started) == 2 and all(started)
    assert_no_child_left()
    started.clear()
    classify_all(1, "monoid-graph")
    assert not started
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    assert len(classify_all(3, "monoid-graph").entries) == 4
    assert not started
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert len(classify_all(3, "monoid-graph").entries) == 4
        assert not started
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_no_child_left()


@pytest.mark.parametrize("workers", [None, 1])
def test_census_search_error_reaches_the_caller_first_in_order(monkeypatch,
                                                               workers):
    """A search that raises reaches the caller of ``classify_all`` as that
    exception, the first in enumeration order, even when a later class
    raises first: forked by default on two usable CPUs, or in process.
    No child process and no pipe is left behind."""
    started = _two_cpus_counting_forks(monkeypatch)
    classes = list(enumerate_graphs(3, "simple"))
    recognize = recognize_module._RECOGNIZERS["monoid-graph"]

    def failing(g, budget):
        i = classes.index(g)
        if i == 1:
            time.sleep(0.2)  # class 3's error arrives before this one
        if i in (1, 3):
            raise ValueError(f"class {i}")
        return recognize(g, budget)

    monkeypatch.setitem(recognize_module._RECOGNIZERS, "monoid-graph", failing)
    with pytest.raises(ValueError, match="^class 1$"):
        classify_all(3, "monoid-graph", workers=workers)
    assert len(started) == (2 if workers is None else 0)
    assert_no_child_left()


def test_census_raises_the_first_error_before_starting_the_rest(monkeypatch,
                                                                 tmp_path):
    """Class 1 of the order-4 graph census fails at once on two usable
    CPUs: its error is raised as soon as it comes up, before more than a
    few of the nine classes after it, about 0.1 s each, have started."""
    _two_cpus_counting_forks(monkeypatch)
    classes = list(enumerate_graphs(4, "simple"))
    assert len(classes) == 11
    started = tmp_path / "started"
    recognize = recognize_module._RECOGNIZERS["monoid-graph"]

    def failing(g, budget):
        i = classes.index(g)
        if i == 1:
            raise ValueError("class 1")
        if i > 1:
            with open(started, "a") as f:
                f.write(f"{i}\n")
            time.sleep(0.1)
        return recognize(g, budget)

    monkeypatch.setitem(recognize_module._RECOGNIZERS, "monoid-graph", failing)
    with pytest.raises(ValueError, match="^class 1$"):
        classify_all(4, "monoid-graph")
    later = started.read_text().split() if started.exists() else []
    assert len(later) <= 2, later
    assert_no_child_left()


@pytest.mark.parametrize("workers", [0, -3])
def test_census_workers_below_one_is_an_input_error(monkeypatch, workers):
    def no_enumeration(*args):
        raise AssertionError("enumerated before checking workers")

    monkeypatch.setattr(recognize_module, "enumerate_graphs", no_enumeration)
    with pytest.raises(ValueError, match=f"workers must be at least 1, "
                                         f"got {workers}"):
        classify_all(3, "monoid-graph", workers=workers)


@pytest.mark.parametrize("max_seconds", [None, 600.0])
@pytest.mark.parametrize("k", [1, 4095, 4096, 15_002, 15_003, 18_714,
                               18_715, 56_127, 60_008])
def test_forked_node_budget_stops_one_node_past_its_limit(forking, k,
                                                          max_seconds):
    budget = Budget(max_nodes=k, max_seconds=max_seconds)
    out = recognize_monoid_graph(gen_K4_Cl(5), budget)
    assert (out.status, out.nodes, budget.nodes) == (
        "budget-exceeded", k + 1, k + 1)
    assert forking
    assert_no_child_left()


def test_forked_time_budget_stops_at_the_first_poll(forking):
    out = recognize_monoid_graph(gen_K4_Cl(5), Budget(max_seconds=0))
    assert (out.status, out.nodes) == ("budget-exceeded", 4096)
    assert forking
    assert_no_child_left()


def test_a_spent_budget_passed_again_stops_at_once(forking, monkeypatch):
    def run():
        budget = Budget(max_nodes=10)
        return [recognize_monoid_graph(gen_K4_Cl(5), budget).nodes
                for _ in range(2)]

    serial, parallel = _serial_and_forked(monkeypatch, run)
    assert serial == parallel == [11, 11]
    assert_no_child_left()


def test_forked_witness_found_early_leaves_no_worker(forking):
    out = recognize_monoid_graph(cycle_graph(7), fresh_budget())
    assert out.is_witness and witness_ok(out.witness, cycle_graph(7))
    assert forking
    assert_no_child_left()


def test_leaf_check_raising_in_a_worker_reaches_the_caller(forking):
    g = cycle_graph(5)
    sets = [frozenset(s) for s in g.neighbors()]
    pid = os.getpid()

    def leaf_check(table, conn):
        raise ValueError(f"leaf check in process {os.getpid() != pid}")

    with pytest.raises(ValueError, match="leaf check in process True"):
        _search_tables("monoid-graph", g, fresh_budget(), sets,
                       [(e, sets[e]) for e in range(5)], leaf_check)
    assert forking
    assert_no_child_left()


def test_no_search_forks_inside_a_worker_or_beside_a_thread(forking):
    """A census worker's searches stay serial, and so does a search in a
    process that runs a second Python thread."""
    import threading

    assert forked.may_fork()
    answers = forked.ordered(lambda job: forked.may_fork(),
                             [(i, i) for i in range(3)], 2)
    assert [value for _, _, value in answers] == [False, False, False]
    assert len(forking) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not forked.may_fork()
        g = gen_K4_Cl(5)
        sets = [frozenset(s) for s in g.neighbors()]
        out = _search_tables("monoid-graph", g, fresh_budget(), sets,
                             [(0, sets[0])])
        assert (out.status, out.nodes) == ("exhausted-no", 18_714)
        assert len(forking) == 2
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_no_child_left()

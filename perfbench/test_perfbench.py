"""Tests of the benchmark's own arithmetic and reference answers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import itertools
import statistics
import sys
from pathlib import Path

import pytest

import spans as spanlib
import stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _span(name, parent, start, end):
    return spanlib.Span(name, "0", parent, start, end)


# -- span self time --------------------------------------------------------


def test_self_time_without_children_is_duration():
    s = [_span("a", None, 1.0, 3.5)]
    assert spanlib.self_times(s) == [2.5]


def test_self_time_nested_children_count_once():
    # root [0, 10] > child [1, 6] > grandchild [2, 4]; sibling [7, 9]
    s = [_span("root", None, 0.0, 10.0),
         _span("child", 0, 1.0, 6.0),
         _span("grandchild", 1, 2.0, 4.0),
         _span("sibling", 0, 7.0, 9.0)]
    assert spanlib.self_times(s) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_adjacent_children():
    s = [_span("root", None, 0.0, 6.0),
         _span("a", 0, 1.0, 3.0),
         _span("b", 0, 3.0, 5.0)]
    assert spanlib.self_times(s) == pytest.approx([2.0, 2.0, 2.0])


def test_self_time_overlapping_and_overhanging_children():
    # overlap is covered once, and a child running past its parent's end
    # is clipped to the parent's interval
    s = [_span("root", None, 0.0, 10.0),
         _span("a", 0, 2.0, 6.0),
         _span("b", 0, 4.0, 8.0),
         _span("c", 0, 9.0, 12.0)]
    assert spanlib.self_times(s)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_instances():
    tr = spanlib.Tracer()
    with tr.span("bench.pass", "0"):
        with tr.span("graphs.canonical_form", "0.1"):
            pass
        with tr.span("recognize.recognize_monoid_graph", "0.1"):
            pass
    names = [(s.name, s.parent, s.instance) for s in tr.spans]
    assert names == [("bench.pass", None, "0"),
                     ("graphs.canonical_form", 0, "0.1"),
                     ("recognize.recognize_monoid_graph", 0, "0.1")]
    assert all(s.end >= s.start for s in tr.spans)
    selfs = spanlib.self_times(tr.spans)
    assert sum(selfs) == pytest.approx(tr.spans[0].duration)


def test_null_tracer_records_nothing():
    tr = spanlib.NullTracer()
    with tr.span("a", "0"):
        pass
    assert tr.spans == [] and not tr.enabled


# -- tail percentile rule ----------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))          # 1..100
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order_and_counts_samples():
    values = [5.0] * 15 + [1.0] * 5
    value, pct, n = stats.tail(list(reversed(values)))
    assert n == 20 and pct == 50.0 and value == 5.0


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, n = stats.tail([float(v) for v in range(11, 0, -1)])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_of_small_sample_falls_back_to_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail([float(v) for v in range(10)]) == (9.0, 100.0, 10)
    with pytest.raises(ValueError):
        stats.tail([])


# -- spread between runs -----------------------------------------------------


def test_spread_matches_statistics_quantiles():
    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 10.6, 9.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_spread_of_constant_values_is_zero():
    assert stats.spread([4.0] * 10) == 0.0
    assert stats.spread([0.0] * 10) == 0.0


def test_spread_is_scale_free():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.spread(values) == pytest.approx(
        stats.spread([v * 1000 for v in values]))


# -- run bookkeeping ---------------------------------------------------------


def test_counts_differ_only_on_counts_both_hold():
    import run
    assert not run._differ({"a": 1, "b": 2}, {"b": 2, "c": 3})
    assert run._differ({"a": 1, "b": 2}, {"b": 3})


def test_run_child_reports_exit_output_and_its_own_memory():
    import workloads
    code = ("import sys; data = sys.stdin.read(); block = b'x' * (64 << 20); "
            "print(data.upper()); print('err', file=sys.stderr); sys.exit(3)")
    rc, out, err, rss_kb = workloads.run_child([sys.executable, "-c", code],
                                               "abc")
    assert (rc, out, err) == (3, "ABC\n", "err\n")
    assert rss_kb >= 64 * 1024


def test_minimisation_counter_counts_traced_passes_only():
    from semicayley import canonical_form, enumerate_graphs
    from semicayley import graphs as graphs_module
    import workloads
    original = getattr(graphs_module, workloads.MINIMISER)
    counts = {}
    with workloads._counting_minimisations(spanlib.Tracer(), counts):
        classes = list(enumerate_graphs(3, "simple"))
        for g in classes:
            canonical_form(g)
    # one check per labelled graph on 3 vertices, one per outer call
    assert counts == {"graphs.canonical_calls": 2 ** 3 + len(classes)}
    assert getattr(graphs_module, workloads.MINIMISER) is original
    counts = {}
    with workloads._counting_minimisations(spanlib.NullTracer(), counts):
        list(enumerate_graphs(3, "simple"))
    assert counts == {}


# -- reference answers the CLI is checked against ----------------------------


def _succ_digraph(succ):
    from semicayley import Digraph
    return Digraph(len(succ), [(v, s) for v, s in enumerate(succ)])


def test_zelinka_rule_agrees_with_package_on_all_small_functions():
    from semicayley import decide_monoid, decide_semigroup, profile
    import workloads
    for n in range(1, 5):
        for succ in itertools.product(range(n), repeat=n):
            p = profile(_succ_digraph(succ))
            want = {"monoid": decide_monoid(p)[0],
                    "semigroup": decide_semigroup(p)[0]}
            assert workloads.zelinka_answers(succ) == want, succ


def test_graph_invariants_agree_with_package():
    from semicayley import SimpleGraph, arboricity, independence_number
    from semicayley import pseudoarboricity
    import workloads
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = SimpleGraph(4, edges)
        assert workloads.graph_invariants(4, edges) == {
            "edges": len(edges),
            "arboricity": arboricity(g),
            "pseudoarboricity": pseudoarboricity(g),
            "independence-number": independence_number(g),
        }


def test_smallest_nonmonoid_tree_is_recognised_under_relabelling():
    from semicayley.families import gen_smallest_tree
    import workloads
    edges = sorted(gen_smallest_tree().edges)
    assert workloads.is_smallest_nonmonoid_tree(7, edges)
    perm = [3, 6, 0, 5, 1, 4, 2]
    assert workloads.is_smallest_nonmonoid_tree(
        7, [(perm[u], perm[v]) for u, v in edges])
    # same degree sequence, two branches of length 2: a monoid tree
    assert not workloads.is_smallest_nonmonoid_tree(
        7, [(0, 1), (0, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_random_trees_are_trees():
    import random
    import workloads
    rng = random.Random(7)
    for n in range(2, 9):
        for _ in range(20):
            edges = workloads._random_tree(rng, n)
            assert len(edges) == n - 1
            reach = {0}
            for _ in range(n):
                reach |= {v for u, v in edges if u in reach}
                reach |= {u for u, v in edges if v in reach}
            assert reach == set(range(n))

"""Generated-monoid-tree analysis: rooted profiles, the walk-table
construction, necessary conditions, symmetry and the classifier.

Order-8 classifier statistics were frozen after validating every decided
verdict against the exhaustive table search.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import nx_trees, path_graph, star_graph
from semicayley import (Budget, SimpleGraph, canonical_form,
                        recognize_monoid_graph, witness_ok)
from semicayley.families import gen_perfect_kary, gen_smallest_tree, gen_Tplus
from semicayley.trees import (
    NO,
    UNDECIDED,
    YES,
    analyze,
    classify_tree,
    construct_generated_witness,
    necessary_check,
    neutral_candidates,
    sufficient_check,
    symmetry_condition,
)
from semicayley.witness import (format_witness_record, generated_submonoid,
                                 verify_witness)

BROOM = gen_smallest_tree()

# frozen: classifier tallies for all free trees of order 8, every decided
# verdict cross-checked against the exhaustive search
ORDER8_TALLY = {YES: 14, NO: 4, UNDECIDED: 5}


def test_analyze_fields_on_broom():
    a = analyze(BROOM, 0)
    assert a.root == 0
    assert a.depth == (0, 1, 1, 1, 1, 2, 3)
    assert a.succ_count == (4, 0, 0, 0, 1, 1, 0)
    assert a.parent[5] == 4 and a.parent[0] == 0
    assert a.branch == (0, 1, 2, 3, 4, 4, 4)


def test_analyze_rejects_non_trees():
    with pytest.raises(ValueError):
        analyze(SimpleGraph(3, [(0, 1), (1, 2), (2, 0)]), 0)
    with pytest.raises(ValueError):
        analyze(SimpleGraph(4, [(0, 1), (2, 3)]), 0)


def test_sufficient_check_cases():
    assert sufficient_check(analyze(star_graph(4), 0))
    assert sufficient_check(analyze(path_graph(4), 0))
    assert not sufficient_check(analyze(BROOM, 0))
    # the long tail looks fine from inside the tail
    assert not sufficient_check(analyze(BROOM, 6))


def test_construct_generated_witness_small_trees():
    for t, e in ((star_graph(4), 0), (path_graph(5), 0),
                 (gen_perfect_kary(2, 2)[0], 0)):
        w = construct_generated_witness(analyze(t, e))
        assert w.mode == "generated-monoid-tree"
        assert witness_ok(w, t)
        gen = generated_submonoid(w.table, w.connection)
        assert len(gen) == t.order


def _walk_table(a):
    """The walk table by its definition: u*v walks u along v's canonical
    root word, one letter at a time."""
    n, e = a.tree.order, a.root
    children = a.children
    word = {e: ()}
    for v in sorted(range(n), key=lambda x: a.depth[x]):
        for i, c in enumerate(children[v]):
            word[c] = word[v] + (i,)
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            x = u
            for i in word[v]:
                ch = children[x]
                x = ch[min(i, len(ch) - 1)] if ch else x
            row.append(x)
        rows.append(tuple(row))
    return tuple(rows)


def test_walk_table_rows_match_the_word_walks_up_to_order_9():
    """Rows filled one step from the parent's cell give the table that
    walking each root word gives, at every root of every tree of order
    at most 9 where the sufficient condition holds."""
    built = 0
    for n in range(1, 10):
        for t in nx_trees(n):
            for e in range(n):
                a = analyze(t, e)
                if sufficient_check(a):
                    w = construct_generated_witness(a)
                    assert w.table.rows == _walk_table(a)
                    built += 1
    assert built == 84


def test_construct_refuses_insufficient_root():
    with pytest.raises(ValueError):
        construct_generated_witness(analyze(BROOM, 0))


def test_necessary_check_broom_fails_part2():
    a = analyze(BROOM, 0)
    assert necessary_check(a, symmetry_free=True) == ("part2", 1, 4)


def test_necessary_check_part1():
    # rooted at a broom leaf the heavy center sits too deep to back up
    a = analyze(BROOM, 6)
    failure = necessary_check(a, symmetry_free=True)
    assert failure is not None and failure[0] in ("part1", "part2")


def test_sufficient_implies_necessary_up_to_order_6():
    for n in range(1, 7):
        for t in nx_trees(n):
            for e in range(n):
                a = analyze(t, e)
                if sufficient_check(a):
                    for sym in (True, False):
                        assert necessary_check(a, symmetry_free=sym) is None


def test_symmetry_condition_cases():
    assert symmetry_condition(analyze(path_graph(2), 0))      # the halves swap
    assert not symmetry_condition(analyze(path_graph(3), 1))  # fixing e != moving e
    assert symmetry_condition(analyze(path_graph(4), 1))
    assert not symmetry_condition(analyze(BROOM, 0))


def nx_symmetry(t: SimpleGraph, e: int) -> bool:
    """Some edge {e, c} splits t into two sides, rooted at e and at c,
    that networkx finds isomorphic as rooted trees."""
    import networkx as nx
    from networkx.algorithms.isomorphism import rooted_tree_isomorphism

    g = nx.Graph(list(t.edges))
    g.add_nodes_from(range(t.order))
    for c in list(g[e]):
        g.remove_edge(e, c)
        e_side = g.subgraph(nx.node_connected_component(g, e))
        c_side = g.subgraph(nx.node_connected_component(g, c))
        iso = (len(e_side) == len(c_side)
               and rooted_tree_isomorphism(e_side, e, c_side, c))
        g.add_edge(e, c)
        if iso:
            return True
    return False


def test_symmetry_condition_matches_networkx_up_to_order_9():
    roots = 0
    for n in range(1, 10):
        for t in nx_trees(n):
            for e in range(n):
                assert symmetry_condition(analyze(t, e)) == nx_symmetry(t, e), \
                    (sorted(t.edges), e)
                roots += 1
    assert roots == 749


def test_neutral_candidates():
    assert neutral_candidates(BROOM) == [0]
    assert neutral_candidates(star_graph(5)) == [0]
    assert neutral_candidates(path_graph(4)) == [0, 1, 2, 3]


def test_classifier_all_trees_up_to_7():
    tally = {YES: 0, NO: 0, UNDECIDED: 0}
    negatives = []
    for n in range(1, 8):
        for t in nx_trees(n):
            v = classify_tree(t)
            tally[v.status] += 1
            if v.status == NO:
                negatives.append(t)
            if v.status == YES:
                assert v.witness is not None and witness_ok(v.witness, t)
    assert tally == {YES: 24, NO: 1, UNDECIDED: 0}
    assert canonical_form(negatives[0]) == canonical_form(BROOM)


def test_classifier_order_8_tally_frozen():
    tally = {YES: 0, NO: 0, UNDECIDED: 0}
    for t in nx_trees(8):
        tally[classify_tree(t).status] += 1
    assert tally == ORDER8_TALLY


def test_classifier_escalation_resolves_undecided():
    # two order-8 trees the quick conditions cannot settle
    yes_tree = SimpleGraph(8, [(0, 1), (0, 5), (0, 7), (1, 2), (1, 4),
                               (2, 3), (5, 6)])
    no_tree = SimpleGraph(8, [(0, 1), (0, 4), (0, 7), (1, 2), (2, 3),
                              (4, 5), (5, 6)])
    assert classify_tree(yes_tree).status == UNDECIDED
    assert classify_tree(no_tree).status == UNDECIDED
    budget = Budget(max_nodes=10**7, max_seconds=120.0)
    up = classify_tree(yes_tree, escalate=True, budget=budget)
    assert up.status == YES and witness_ok(up.witness, yes_tree)
    # the search's table, certified as what the verdict claims
    assert up.witness.mode == "generated-monoid-tree"
    assert verify_witness(up.witness, yes_tree)["generated"]
    down = classify_tree(no_tree, escalate=True,
                         budget=Budget(max_nodes=10**7, max_seconds=120.0))
    assert down.status == NO


def test_classifier_agrees_with_the_search_up_to_order_7():
    """Every YES and NO of the unescalated classifier is the search's
    answer with the generation requirement.  Statuses only: a prune on
    generation would move the node counts."""
    answers = {YES: "witness", NO: "exhausted-no"}
    decided = 0
    for n in range(1, 8):
        for t in nx_trees(n):
            verdict = classify_tree(t)
            if verdict.status in answers:
                out = recognize_monoid_graph(
                    t, Budget(max_nodes=10**7, max_seconds=None),
                    require_generated=True)
                assert out.status == answers[verdict.status], sorted(t.edges)
                decided += 1
    assert decided == 25


def test_classifier_verdict_details_recorded():
    v = classify_tree(BROOM)
    assert v.status == NO
    assert tuple(v.candidates) == (0,)
    assert v.details[0] == ("part2", 1, 4)


def test_classifier_tkh_spot_checks():
    for k, h in ((2, 3), (3, 2)):
        t, _root = gen_perfect_kary(k, h)
        v = classify_tree(t)
        assert v.status == YES
        gen = generated_submonoid(v.witness.table, v.witness.connection)
        assert len(gen) == t.order


def test_classifier_tplus_negative():
    t, _root = gen_Tplus(3, 2)
    assert classify_tree(t).status == NO


def test_classifier_rejects_non_tree():
    with pytest.raises(ValueError):
        classify_tree(SimpleGraph(3, [(0, 1), (1, 2), (2, 0)]))


def test_classifier_checks_the_tree_once(monkeypatch):
    """``classify_tree`` roots the tree at every candidate it reaches but
    checks that its input is a tree only once."""
    import semicayley.trees as trees_module

    calls = []
    real = trees_module._check_tree

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(trees_module, "_check_tree", counted)
    t, _root = gen_Tplus(3, 2)
    verdict = classify_tree(t)
    assert verdict.status == NO and len(verdict.details) > 1
    assert len(calls) == 1


def _verdict_facts(t):
    v = classify_tree(t)
    yield repr((v.status, v.candidates, sorted(v.details.items())))
    if v.witness is not None:
        yield format_witness_record(v.witness, t)


def _classifier_facts():
    """Every fact the classifier derives: its verdict, details and
    witness record on each tree of order at most 11, every rooted field
    and condition at each of their roots, and the verdicts on three
    large trees."""
    for n in range(1, 12):
        for t in nx_trees(n):
            yield from _verdict_facts(t)
            for e in range(n):
                a = analyze(t, e)
                yield repr((e, a.depth, a.succ_count, a.branch, a.parent,
                            sufficient_check(a), symmetry_condition(a),
                            necessary_check(a, symmetry_free=True),
                            necessary_check(a, symmetry_free=False)))
    for t, _root in (gen_perfect_kary(2, 8), gen_Tplus(3, 4),
                     gen_perfect_kary(3, 5)):
        yield from _verdict_facts(t)


def test_classifier_facts_frozen():
    """One sha256 over every fact the classifier derives on a fixed
    corpus: how a rooted tree is walked may change, the facts may not."""
    digest = hashlib.sha256()
    trees = 0
    for fact in _classifier_facts():
        digest.update(fact.encode())
        trees += fact.startswith("('")
    assert trees == 439
    assert digest.hexdigest() == (
        "a4547bda11b5ee03c4b2f379f2b68febb5009bf25c51263bc83ad074cd8e1a60")

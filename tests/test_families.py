"""Named graph families: structural invariants and witness round trips."""

from __future__ import annotations

import hashlib
import itertools
import subprocess
import sys

import pytest

from conftest import child_env
from semicayley import SimpleGraph, underlying_graph, witness_ok
from semicayley.families import (
    looped_path_digraph,
    gen_Gkl,
    gen_Gklk,
    gen_K4_Cl,
    gen_perfect_kary,
    gen_smallest_tree,
    gen_threshold,
    gen_Tplus,
)
from semicayley.graphs import is_strongly_connected, weak_components
from semicayley.witness import format_witness_record


def is_tree(g: SimpleGraph) -> bool:
    return (len(g.edges) == g.order - 1
            and weak_components(g.to_digraph() if hasattr(g, "to_digraph")
                                else g).count == 1)


def test_gkl_structure():
    g = gen_Gkl(2, 3)
    assert g.order == 2 * 2 + 2 * 2        # wide layer + two narrow layers
    assert g.is_k_outregular(2)
    assert is_strongly_connected(g)
    assert gen_Gkl(3, 2).order == 9 + 3


def test_gklk_merged_layer_size():
    for k, kappa in ((2, 2), (4, 2), (4, 3), (6, 4)):
        g = gen_Gklk(k, 2, kappa)
        narrow = (2 - 1) * k
        assert g.order == (k // kappa) * k + narrow
        assert g.is_k_outregular(k)
        assert is_strongly_connected(g)


def test_gklk_kappa_one_is_unmerged():
    a, b = gen_Gkl(2, 3), gen_Gklk(2, 3, 1)
    assert a.order == b.order and set(a.arcs) == set(b.arcs)


# frozen: one sha256 over (order, sorted arcs) of gen_Gkl(k, ell) and
# gen_Gklk(k, ell, kappa) for 1 <= k <= 6, 1 <= ell <= 7, 1 <= kappa <= 7,
# then the witness record of gen_threshold on every {i, d} word of length
# <= 8 and on the list form of the step names
FAMILIES_DIGEST = (
    "e2bc0dc8c85affe1685e5f94866f19ed07519c35c452e97b3770c8a95e99c429")


def test_families_frozen():
    """How a family is built may change, its graphs and records may not."""
    digest = hashlib.sha256()
    for k in range(1, 7):
        for ell in range(1, 8):
            g = gen_Gkl(k, ell)
            digest.update(repr((g.order, sorted(g.arcs))).encode())
            for kappa in range(1, 8):
                g = gen_Gklk(k, ell, kappa)
                digest.update(repr((g.order, sorted(g.arcs))).encode())
    words = ["".join(w) for n in range(9)
             for w in itertools.product("id", repeat=n)]
    assert len(words) == 511
    for seq in words + [["dominating", "isolated", "D", "I"]]:
        g, w = gen_threshold(seq)
        digest.update(format_witness_record(w, g).encode())
    assert digest.hexdigest() == FAMILIES_DIGEST


def test_family_guards():
    with pytest.raises(ValueError):
        gen_Gkl(0, 2)
    with pytest.raises(ValueError):
        gen_Gklk(2, 0, 1)
    with pytest.raises(ValueError):
        gen_K4_Cl(2)
    with pytest.raises(ValueError):
        gen_Tplus(2, 0)
    with pytest.raises(ValueError):
        gen_threshold("x")


STRUCTURE_CHECK_SCRIPT = """
import sys
import semicayley.families as fam

if not sys.flags.optimize:
    sys.exit("not running under -O")
breaks = [
    # no arcs at all: gen_Gkl is not 2-outregular
    ("_gkl_arcs", lambda k, ell: iter(()), fam.gen_Gkl, (2, 2)),
    # everything merged into one vertex: wrong merged-layer size
    ("_merge_classes", lambda k, kappa: [list(range(k * k))], fam.gen_Gklk, (2, 2, 2)),
    # merging 0 with 1 and 2 with 3 halves some outdegrees
    ("_merge_classes", lambda k, kappa: [[0, 1], [2, 3]], fam.gen_Gklk, (2, 2, 2)),
    ("is_strongly_connected", lambda g: False, fam.gen_Gklk, (2, 2, 2)),
]
for name, fake, build, args in breaks:
    true = getattr(fam, name)
    setattr(fam, name, fake)
    try:
        build(*args)
    except RuntimeError as exc:
        print(exc)
    else:
        sys.exit(build.__name__ + " built a graph that fails its claims")
    finally:
        setattr(fam, name, true)
"""


def test_family_structure_checks_run_under_python_O():
    """``gen_Gkl`` and ``gen_Gklk`` check their structural claims with a
    check that ``python -O`` keeps; each broken helper must trip one."""
    proc = subprocess.run([sys.executable, "-O", "-c", STRUCTURE_CHECK_SCRIPT],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "gen_Gkl fails its own check: not 2-outregular",
        "gen_Gklk fails its own check: merged layer has 1 vertices, not 2",
        "gen_Gklk fails its own check: not 2-outregular",
        "gen_Gklk fails its own check: not strongly connected",
    ]


def brute_threshold(steps: str) -> SimpleGraph:
    """Rebuild the threshold graph directly from its creation sequence."""
    edges = set()
    n = 1
    for s in steps:
        if s == "d":
            edges.update((v, n) for v in range(n))
        n += 1
    return SimpleGraph(n, edges)


@pytest.mark.parametrize("seq", ["", "i", "d", "di", "id", "ddid", "iiddi"])
def test_threshold_graphs_and_witnesses(seq):
    g, w = gen_threshold(seq)
    expect = brute_threshold(seq)
    assert g.order == expect.order and set(g.edges) == set(expect.edges)
    assert witness_ok(w, g)
    assert len(w.connection) == seq.count("d")


def test_threshold_connection_marks_dominating_vertices():
    g, w = gen_threshold("dkd".replace("k", "i"))
    assert w.connection == frozenset({1, 3})


def test_k4_cl_components():
    g = gen_K4_Cl(5)
    assert g.order == 9
    comp = weak_components(g)
    assert comp.count == 2
    sizes = sorted(len(comp.members(i)) for i in range(2))
    assert sizes == [4, 5]
    degs = g.degrees()
    assert sorted(degs) == [2] * 5 + [3] * 4


def test_perfect_kary_tree():
    g, root = gen_perfect_kary(2, 2)
    assert root == 0 and g.order == 7
    assert len(g.edges) == 6
    degs = g.degrees()
    assert degs[0] == 2 and sorted(degs) == [1, 1, 1, 1, 2, 3, 3]
    path, _ = gen_perfect_kary(1, 3)
    assert path.order == 4 and sorted(path.degrees()) == [1, 1, 2, 2]


def test_tplus_structure():
    g, root = gen_Tplus(3, 2)
    assert g.order == 14 and root == 0
    assert len(g.edges) == 13
    assert weak_components(g).count == 1
    degs = g.degrees()
    assert max(degs) == 5 and degs[1] == 5       # extra leaf lands below 1
    assert degs[13] == 1


def test_smallest_tree_is_the_broom():
    g = gen_smallest_tree()
    assert g.order == 7 and len(g.edges) == 6
    assert weak_components(g).count == 1
    assert sorted(g.degrees()) == [1, 1, 1, 1, 2, 2, 4]
    # center carries three leaves and the tail 0-4-5-6
    assert set(g.neighbors()[0]) == {1, 2, 3, 4}


def test_looped_path_digraph_frozen():
    g = looped_path_digraph()
    assert g.order == 3
    assert g.is_k_outregular(2)
    assert set(underlying_graph(g).edges) == {(0, 1), (1, 2)}

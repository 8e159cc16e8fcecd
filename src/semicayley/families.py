"""Deterministic generators for the named graph families.

Each generator fixes a vertex numbering (documented per family) so
canonical-form comparisons and regression tests are stable.  Generators
with structural claims attached self-check those claims on construction.
"""

from __future__ import annotations

from typing import Tuple

from .algebra import MulTable
from .graphs import Digraph, SimpleGraph, is_strongly_connected
from .witness import CayleyWitness, certify

__all__ = [
    "gen_Gkl",
    "gen_Gklk",
    "gen_threshold",
    "gen_K4_Cl",
    "gen_perfect_kary",
    "gen_Tplus",
    "gen_smallest_tree",
    "looped_path_digraph",
]


def _claim(holds: bool, generator: str, claim: str) -> None:
    """A generator's self-check; unlike ``assert``, ``python -O`` keeps it."""
    if not holds:
        raise RuntimeError(f"{generator} fails its own check: {claim}")


def _gkl_arcs(k: int, ell: int):
    """The arcs of ``Gkl``, layer by layer, in the layer-major numbering:
    the k^2 layer-0 vertices first, then layers 1..ell-1 of k vertices
    each.  Every vertex of a layer feeds the whole next layer, and vertex
    j of the last layer feeds the layer-0 vertices jk..jk+k-1."""
    start, size = 0, k * k
    for _ in range(ell - 1):
        nxt = start + size
        for u in range(start, nxt):
            for v in range(nxt, nxt + k):
                yield u, v
        start, size = nxt, k
    for v in range(k * k):
        yield start + v // k, v


def gen_Gkl(k: int, ell: int) -> Digraph:
    """Layered k-outregular digraph: a wide layer of k^2 vertices feeding
    ell-1 narrow layers of k vertices, wrapping back block-wise."""
    if k < 1 or ell < 1:
        raise ValueError("k and ell must be >= 1")
    g = Digraph(k * k + (ell - 1) * k, _gkl_arcs(k, ell))
    if ell >= 2:
        _claim(g.is_k_outregular(k), "gen_Gkl", f"not {k}-outregular")
    return g


def _merge_classes(k: int, kappa: int):
    """Partition of layer-0 labels 0..k^2-1: same residue mod k and same
    kappa-block, with the trailing partial block (when kappa does not
    divide k) folded into its predecessor."""
    top = (k * k - 1) // (k * kappa)

    def block(j: int) -> int:
        b = j // (k * kappa)
        if k % kappa != 0 and b == top:
            b -= 1
        return b

    classes: dict = {}
    for j in range(k * k):
        classes.setdefault((j % k, block(j)), []).append(j)
    return sorted(classes.values())


def gen_Gklk(k: int, ell: int, kappa: int) -> Digraph:
    """The layered digraph with its wide layer merged block-wise.

    Numbering: merged layer-0 classes first (by least original label),
    then layers 1..ell-1.  Self-checks k-outregularity and strong
    connectivity for ell >= 2, and the merged-layer size floor(k/kappa)*k
    when kappa <= k.
    """
    if k < 1 or ell < 1 or kappa < 1:
        raise ValueError("k, ell, kappa must be >= 1")
    base = gen_Gkl(k, ell)
    groups = _merge_classes(k, kappa)
    n0 = len(groups)
    n = n0 + base.order - k * k
    # layer-0 vertex j goes to its class, every later vertex i to i - k^2 + n0
    new_index = [0] * (k * k) + list(range(n0, n))
    for ci, group in enumerate(groups):
        for j in group:
            new_index[j] = ci
    g = Digraph(n, ((new_index[u], new_index[v]) for u, v in base.arcs))
    if kappa <= k:
        _claim(n0 == (k // kappa) * k, "gen_Gklk",
               f"merged layer has {n0} vertices, not {(k // kappa) * k}")
    if ell >= 2:
        _claim(g.is_k_outregular(k), "gen_Gklk", f"not {k}-outregular")
        _claim(is_strongly_connected(g), "gen_Gklk", "not strongly connected")
    return g


def gen_threshold(seq) -> Tuple[SimpleGraph, CayleyWitness]:
    """Threshold graph from a creation sequence over
    {"isolated", "dominating"}, together with a monoid witness.

    Starts from a single vertex with the trivial monoid; each step adjoins
    an absorbing element x (x*v = v*x = x for all v), so the monoid is the
    chain 0..n-1 under max; x is a connection element iff it dominates.
    """
    dominating = []
    n = 1
    for s in seq:
        s = str(s).lower()
        if s in ("dominating", "d"):
            dominating.append(n)
        elif s not in ("isolated", "i"):
            raise ValueError(f"unknown threshold step {s!r}")
        n += 1
    g = SimpleGraph(n, ((v, c) for c in dominating for v in range(c)))
    table = MulTable(n, [[max(x, y) for y in range(n)] for x in range(n)],
                     identity=0)
    return g, certify("monoid-graph", g, table, dominating)


def gen_K4_Cl(ell: int) -> SimpleGraph:
    """Disjoint union of a complete graph on vertices 0..3 and a cycle on
    4..ell+3.  The divisibility hypotheses under which the union fails to
    be a monoid graph are the caller's concern."""
    if ell < 3:
        raise ValueError("cycle length must be >= 3")
    edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    edges |= {(4 + i, 4 + (i + 1) % ell) for i in range(ell)}
    return SimpleGraph(4 + ell, edges)


def gen_perfect_kary(k: int, h: int) -> Tuple[SimpleGraph, int]:
    """Perfect k-ary tree of height h, BFS-numbered from the root 0."""
    if k < 1 or h < 0:
        raise ValueError("need k >= 1 and h >= 0")
    edges = set()
    level = [0]
    nxt = 1
    for _ in range(h):
        new_level = []
        for v in level:
            for _ in range(k):
                edges.add((v, nxt))
                new_level.append(nxt)
                nxt += 1
        level = new_level
    return SimpleGraph(nxt, edges), 0


def gen_Tplus(k: int, h: int) -> Tuple[SimpleGraph, int]:
    """Perfect k-ary tree of height h plus one extra leaf at depth h,
    attached to the first depth-(h-1) vertex; the leaf gets the last
    index."""
    if h < 1:
        raise ValueError("need h >= 1")
    base, root = gen_perfect_kary(k, h)
    n = base.order
    # depth h-1 starts right after the full levels 0..h-2
    attach = 0 if h == 1 else sum(k**d for d in range(h - 1))
    return SimpleGraph(n + 1, set(base.edges) | {(attach, n)}), root


def gen_smallest_tree() -> SimpleGraph:
    """The unique tree of order <= 7 that is not a generated monoid tree.

    Derived by exhaustively searching all free trees up to order 7 for
    tables whose connection set generates the monoid: the broom with
    three leaves and one path of length 3 at a common center.  Numbered
    center 0, leaves 1..3, path 0-4-5-6.
    """
    return SimpleGraph(7, {(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)})


def looped_path_digraph() -> Digraph:
    """The 3-vertex 2-outregular digraph whose underlying graph is a path:
    loops at both ends and a doubled middle edge on one side."""
    return Digraph(3, {(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)})

"""Transition-monoid embeddings.

Any sink-free digraph with max outdegree k embeds as the non-identity part
of a monoid digraph with |C| = k: cover the arcs by k endofunctions, close
the family under composition, and glue the vertex set to the resulting
transformation monoid with the four-case product below.  The undirected
variant first orients the graph with max outdegree equal to its
pseudoarboricity, patching sinks with reverse arcs.

The carrier, the n vertices plus the closure's maps, has at most
``MAX_CARRIER_ORDER`` elements: the closure stops at ``min(max_maps,
MAX_CARRIER_ORDER - n)`` maps with a ``BudgetExceededError``.  That
bound is below 1, a ``ValueError``, when ``max_maps < 1`` or
``n >= MAX_CARRIER_ORDER``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from .algebra import MulTable
from .graphs import Digraph, FrozenValue, SimpleGraph
from .invariants import orientation_with_outdegree, pseudoarboricity
from .outcome import DEFAULT_MAX_MAPS, MAX_CARRIER_ORDER, BudgetExceededError
from .witness import CayleyWitness, certify

__all__ = [
    "FunctionFamily",
    "family_violation",
    "greedy_cover",
    "closure",
    "embed_monoid",
    "embed_undirected",
]


class FunctionFamily(FrozenValue):
    """A sequence of endofunctions on {0..order-1}, stored as tuples.

    Against a target digraph the family must satisfy: every (v, f(v)) is
    an arc, and every arc is (v, f(v)) for some member f.
    """

    order: int
    maps: Tuple[tuple, ...]

    def __init__(self, order: int, maps: Tuple[tuple, ...]):
        for i, f in enumerate(maps):
            if len(f) != order:
                raise ValueError(f"map {i} has length {len(f)} != {order}")
            if any(not (0 <= x < order) for x in f):
                raise ValueError(f"map {i} has values out of range")
        self.__dict__.update(order=order, maps=maps)


def family_violation(fam: FunctionFamily, g: Digraph) -> Optional[tuple]:
    """First violated family invariant against g, or None.

    Returns ("not-an-arc", map_index, (v, f(v))) or ("uncovered-arc", (v, w)).
    """
    if fam.order != g.order:
        return ("order-mismatch", fam.order, g.order)
    arcs = g.arcs
    for i, f in enumerate(fam.maps):
        for v in range(g.order):
            if (v, f[v]) not in arcs:
                return ("not-an-arc", i, (v, f[v]))
    selected = {(v, f[v]) for f in fam.maps for v in range(g.order)}
    for a in sorted(arcs):
        if a not in selected:
            return ("uncovered-arc", a)
    return None


def greedy_cover(g: Digraph, k: int) -> FunctionFamily:
    """Cover the arcs of g with k successor selections.

    Pass i picks, per vertex, the smallest out-neighbor whose arc is still
    uncovered, falling back to the (i mod outdeg)-th out-neighbor once all
    of the vertex's arcs are covered.  Sinks and outdegrees above k are
    rejected.
    """
    n = g.order
    succ = [sorted(s) for s in g.out_neighbors()]
    for v in range(n):
        if not succ[v]:
            raise ValueError(f"vertex {v} is a sink")
        if len(succ[v]) > k:
            raise ValueError(f"vertex {v} has outdegree {len(succ[v])} > {k}")
    covered = set()
    maps = []
    for i in range(k):
        f = []
        for v in range(n):
            w = next((u for u in succ[v] if (v, u) not in covered),
                     succ[v][i % len(succ[v])])
            covered.add((v, w))
            f.append(w)
        maps.append(tuple(f))
    return FunctionFamily(n, tuple(maps))


def closure(fam: FunctionFamily, max_maps: int = DEFAULT_MAX_MAPS) -> tuple:
    """All compositions of family members, identity included.

    BFS over right-composition; the returned tuple starts with the
    identity and lists maps in discovery order (deterministic).  The
    identity alone counts one map, so ``max_maps`` below 1 is a
    ``ValueError``.
    """
    if max_maps < 1:
        raise ValueError(f"max_maps must be >= 1, got {max_maps}")
    n = fam.order
    ident = tuple(range(n))
    seen = {ident}
    found = [ident]
    queue = deque([ident])
    while queue:
        h = queue.popleft()
        for f in fam.maps:
            nh = tuple(f[x] for x in h)
            if nh not in seen:
                if len(seen) >= max_maps:
                    raise BudgetExceededError(
                        f"transition monoid exceeds {max_maps} maps")
                seen.add(nh)
                found.append(nh)
                queue.append(nh)
    return tuple(found)


def _embed(target: Digraph, fam: FunctionFamily, claim,
           max_maps: int) -> CayleyWitness:
    viol = family_violation(fam, target)
    if viol is not None:
        raise ValueError(f"family invariant violated: {viol}")
    n = target.order
    maps = closure(fam, min(max_maps, MAX_CARRIER_ORDER - n))
    total = n + len(maps)
    index = {m: n + i for i, m in enumerate(maps)}

    rows = []
    for a in range(total):
        if a < n:
            # vertex row: x*y = y, x*f = f(x)
            row = [b if b < n else maps[b - n][a] for b in range(total)]
        else:
            # map row: f*x = x, f*g = g∘f
            f = maps[a - n]
            row = [b if b < n
                   else index[tuple(maps[b - n][x] for x in f)]
                   for b in range(total)]
        rows.append(tuple(row))
    table = MulTable(total, tuple(rows), identity=n)
    return certify("embedding", claim, table, (index[m] for m in fam.maps),
                   component=range(n, total))


def embed_monoid(g: Digraph, fam: FunctionFamily,
                 max_maps: int = DEFAULT_MAX_MAPS) -> CayleyWitness:
    """Monoid witness whose Cayley digraph minus the identity's component
    equals g exactly; connection set = the family maps."""
    return _embed(g, fam, g, max_maps)


def embed_undirected(g: SimpleGraph,
                     max_maps: int = DEFAULT_MAX_MAPS) -> CayleyWitness:
    """Monoid witness for a graph via a pseudoarboricity-optimal
    orientation; |C| equals the pseudoarboricity.

    Isolated vertices are rejected: they admit no sink-free orientation
    without a loop, and loops vanish in the underlying graph.
    """
    degs = g.degrees()
    for v, d in enumerate(degs):
        if d == 0:
            raise ValueError(f"vertex {v} is isolated")
    k = pseudoarboricity(g)
    orient = orientation_with_outdegree(g, k)
    arcs = set(orient.arcs)
    # a sink keeps outdegree >= 1 by doubling its smallest incident edge
    for v, od in enumerate(orient.out_degrees()):
        if od == 0:
            u = min(u for (u, w) in arcs if w == v)
            arcs.add((v, u))
    fixed = Digraph(g.order, arcs)
    fam = greedy_cover(fixed, k)
    return _embed(fixed, fam, g, max_maps)

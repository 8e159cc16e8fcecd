"""Monoid and semigroup recognition for 1-outregular digraphs.

Every weak component of a 1-outregular digraph is a rho shape: a unique
directed cycle with in-trees hanging off it.  Writing z(C) for the cycle
length of component C and l(C) for its largest depth (distance to the
cycle), the digraph is a monoid Cayley graph with a single generator iff
some component C satisfies z(D) | z(C) and l(D) <= l(C) for every
component D, and a semigroup Cayley graph iff some C satisfies
z(D) | z(C) and l(D) <= l(C) + 1.  Both directions are constructive and
implemented here; forests reduce to the monoid case by orienting each
component towards a root and adding a loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import MulTable
from .graphs import Digraph, SimpleGraph, weak_components
from .witness import CayleyWitness, WitnessCheckError, _verified

__all__ = [
    "ComponentShape",
    "OutregularProfile",
    "profile",
    "decide_monoid",
    "decide_semigroup",
    "construct_monoid",
    "construct_semigroup",
    "forest_witness",
    "walk",
]


@dataclass(frozen=True)
class ComponentShape:
    """One weak component: its vertices, unique cycle, z and max depth."""

    vertices: tuple
    cycle: tuple
    z: int
    depth: int


@dataclass(frozen=True)
class OutregularProfile:
    """Shape summary of a 1-outregular digraph."""

    order: int
    succ: tuple
    component: tuple          # vertex -> component id
    components: tuple         # ComponentShape per id
    vertex_depth: tuple       # l(v): distance from v to its cycle


def profile(g: Digraph) -> OutregularProfile:
    """Components, cycles and depths from one successor walk per vertex
    not yet placed.  A walk either closes a new cycle, whose component
    takes the next id, or runs into a placed vertex, whose component its
    vertices join.  A new cycle is only ever closed from a component's
    smallest vertex, so ids follow smallest members as in
    ``weak_components``."""
    succ = g.successor_map()      # raises if not 1-outregular
    n = g.order
    comp = [-1] * n               # -2 while on the current walk
    depth = [0] * n
    cycles = []
    for start in range(n):
        if comp[start] != -1:
            continue
        path = []
        v = start
        while comp[v] == -1:
            comp[v] = -2
            path.append(v)
            v = succ[v]
        if comp[v] == -2:
            k = path.index(v)
            cid, d = len(cycles), 0
            cycles.append(tuple(path[k:]))
            for w in path[k:]:
                comp[w] = cid
            del path[k:]
        else:
            cid, d = comp[v], depth[v]
        for w in reversed(path):
            d += 1
            comp[w] = cid
            depth[w] = d
    members = [[] for _ in cycles]
    for v in range(n):
        members[comp[v]].append(v)
    shapes = tuple(
        ComponentShape(vertices=tuple(vs), cycle=cyc, z=len(cyc),
                       depth=max(depth[v] for v in vs))
        for vs, cyc in zip(members, cycles))
    return OutregularProfile(n, tuple(succ), tuple(comp), shapes, tuple(depth))


def _dominates(p: OutregularProfile, cid: int, slack: int) -> bool:
    c = p.components[cid]
    return all(c.z % d.z == 0 and d.depth <= c.depth + slack
               for d in p.components)


def _dominant(p: OutregularProfile, slack: int) -> Tuple[bool, Optional[int]]:
    for cid in range(len(p.components)):
        if _dominates(p, cid, slack):
            return True, cid
    return False, None


def decide_monoid(p: OutregularProfile) -> Tuple[bool, Optional[int]]:
    """Is some component dominant: z(D) | z(C) and l(D) <= l(C) for all D?
    Returns (answer, witnessing component id), lowest id on ties."""
    return _dominant(p, 0)


def decide_semigroup(p: OutregularProfile) -> Tuple[bool, Optional[int]]:
    """Same with the relaxed depth condition l(D) <= l(C) + 1."""
    return _dominant(p, 1)


def walk(p: OutregularProfile, x: int, k: int) -> int:
    """The vertex x+k reached by k successor steps from x.

    Uses the depth/cycle-length arithmetic d(x, x+k) = k for k < l(x) and
    l(x) + ((k - l(x)) mod z) otherwise, so the step count never exceeds
    l(x) + z even for huge k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lx = p.vertex_depth[x]
    z = p.components[p.component[x]].z
    d = k if k < lx else lx + (k - lx) % z
    v = x
    for _ in range(d):
        v = p.succ[v]
    return v


def _distance_to(p: OutregularProfile, target: int) -> dict:
    """Directed distances d(v, target) for every v that can reach target."""
    preds = [[] for _ in range(p.order)]
    for v in range(p.order):
        preds[p.succ[v]].append(v)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for w in preds[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def construct_monoid(g: Digraph, e: Optional[int] = None) -> CayleyWitness:
    """Build the monoid witness for a dominant-component digraph.

    The neutral element e is a deepest vertex of the witness component C,
    a its successor, and for y in C the product x*y walks r(y) steps from
    x where r(y) = d(e, omega) - d(y, omega) with omega the vertex
    l(C) + z(C) - 1 steps beyond e.  Products by other components leave
    the right factor unchanged.
    """
    return _verified(_monoid_witness(g, e), g)


def _monoid_witness(g: Digraph, e: Optional[int]) -> CayleyWitness:
    """``construct_monoid`` without its self-check, for the constructions
    that check the witness they derive from it instead."""
    p = profile(g)
    if e is None:
        ok, cid = decide_monoid(p)
        if not ok:
            raise ValueError("no dominant component: not a monoid digraph")
        shape = p.components[cid]
        e = min(v for v in shape.vertices if p.vertex_depth[v] == shape.depth)
    else:
        cid = p.component[e]
        shape = p.components[cid]
        if not _dominates(p, cid, 0):
            raise ValueError("chosen vertex is not in a dominant component")
        if p.vertex_depth[e] != shape.depth:
            raise ValueError("chosen vertex is not of maximal depth")
    a = p.succ[e]
    omega = walk(p, e, shape.depth + shape.z - 1)
    dist = _distance_to(p, omega)
    in_c = [p.component[v] == cid for v in range(g.order)]
    r = {v: dist[e] - dist[v] for v in range(g.order) if in_c[v]}
    n = g.order
    rows = []
    for x in range(n):
        if x == e:
            rows.append(list(range(n)))
            continue
        # r(y) <= d(e, omega), so one walk that long from x gives the row
        path = [x]
        for _ in range(dist[e]):
            path.append(p.succ[path[-1]])
        rows.append([path[r[y]] if in_c[y] else y for y in range(n)])
    table = MulTable(n, rows, identity=e)
    return CayleyWitness("monoid-digraph", table, {a}, tuple(range(n)))


def construct_semigroup(g: Digraph) -> CayleyWitness:
    """Extend g by a fresh deepest vertex, build the monoid there, and drop
    the neutral row and column after checking the rest is closed."""
    p = profile(g)
    ok, cid = decide_semigroup(p)
    if not ok:
        raise ValueError("no dominant component: not a semigroup digraph")
    shape = p.components[cid]
    v = min(u for u in shape.vertices if p.vertex_depth[u] == shape.depth)
    n = g.order
    extended = Digraph(n + 1, set(g.arcs) | {(n, v)})
    big = _monoid_witness(extended, n)
    rows = big.table.rows
    if any(rows[x][y] == n for x in range(n) for y in range(n)):
        raise WitnessCheckError("semigroup reduction not closed without neutral")
    table = MulTable(n, [row[:n] for row in rows[:n]], identity=None)
    w = CayleyWitness("semigroup-digraph", table, {v}, tuple(range(n)))
    return _verified(w, g)


def forest_witness(f: SimpleGraph) -> CayleyWitness:
    """Witness that any forest is a monoid graph with one generator.

    Each component is oriented towards its smallest vertex, a loop is added
    there, and the dominant-component construction applies since every
    cycle length is 1.
    """
    n = f.order
    comp = weak_components(f)
    if len(f.edges) != n - comp.count:
        raise ValueError("input graph contains a cycle; not a forest")
    adj = f.neighbors()
    arcs = set()
    for cid in range(comp.count):
        members = comp.members(cid)
        root = min(members)
        arcs.add((root, root))
        parent = {root: root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    arcs.add((w, u))
                    queue.append(w)
    oriented = Digraph(n, arcs)
    base = _monoid_witness(oriented, None)
    w = CayleyWitness("monoid-graph", base.table, base.connection,
                      tuple(range(n)), carrier="undirected")
    return _verified(w, f)

"""Graph carriers and the structural algorithms the other modules share.

Vertices are dense integers ``0..n-1`` everywhere.  Two carriers appear:
directed graphs (loops allowed, no parallel arcs) and simple undirected
graphs.  Both are immutable after construction.  ``Value`` and
``FrozenValue``, the base of every value class in the package, are here too.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterator, Union

__all__ = [
    "Digraph",
    "SimpleGraph",
    "ComponentDecomposition",
    "GraphFormatError",
    "parse_graph",
    "format_graph",
    "weak_components",
    "is_strongly_connected",
    "strong_connectivity",
    "vertex_connectivity",
    "canonical_form",
    "enumerate_graphs",
]


# ---------------------------------------------------------------------------
# value classes.  A class's fields are its annotated class attributes, in
# order, and each class writes its own ``__init__``; a frozen one sets its
# fields with ``self.__dict__.update``.  Equality, hashing and ``repr`` are
# those of a ``dataclass`` with the same fields, without loading
# ``dataclasses`` (and with it ``inspect``, ``ast`` and ``dis``) in every
# process.  ``pickle`` and ``copy`` restore ``__dict__`` directly.  The
# base lives here because every module with a value class imports this one.

class Value:
    """Fields compare equal in order between instances of the same class;
    the ``repr`` is ``Name(field=value, ...)`` over the fields whose names
    do not start with an underscore.  Mutable, so unhashable."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if cls._fields:
            # one call that returns the tuple of field values
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}"
                          for f in self._fields if not f.startswith("_"))
        return f"{self.__class__.__qualname__}({shown})"


class FrozenValue(Value):
    """A ``Value`` that hashes as the tuple of its fields and refuses
    assignment and deletion with ``AttributeError``."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Digraph(FrozenValue):
    """Directed graph on ``0..order-1``: loops allowed, no parallel arcs."""

    order: int
    arcs: frozenset

    def __init__(self, order: int, arcs=()):
        if order < 1:
            raise ValueError("order must be >= 1")
        norm = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in norm:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"arc ({u},{v}) out of range for order {order}")
        self.__dict__.update(order=order, arcs=norm)

    def out_neighbors(self) -> list:
        out = [set() for _ in range(self.order)]
        for u, v in self.arcs:
            out[u].add(v)
        return out

    def out_degrees(self) -> list:
        deg = [0] * self.order
        for u, _ in self.arcs:
            deg[u] += 1
        return deg

    def is_k_outregular(self, k: int) -> bool:
        return all(d == k for d in self.out_degrees())

    def successor_map(self) -> list:
        """For a 1-outregular digraph, the map vertex -> unique out-neighbor."""
        succ = [-1] * self.order
        for u, v in self.arcs:
            if succ[u] != -1:
                raise ValueError("not 1-outregular: repeated out-arc")
            succ[u] = v
        if any(s == -1 for s in succ):
            raise ValueError("not 1-outregular: missing out-arc")
        return succ


class SimpleGraph(FrozenValue):
    """Simple undirected graph: no loops, no parallel edges."""

    order: int
    edges: frozenset

    def __init__(self, order: int, edges=()):
        if order < 1:
            raise ValueError("order must be >= 1")
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at {u} not allowed in a simple graph")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u},{v}) out of range for order {order}")
            norm.add((min(u, v), max(u, v)))
        self.__dict__.update(order=order, edges=frozenset(norm))

    def neighbors(self) -> list:
        adj = [set() for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list:
        deg = [0] * self.order
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


Graph = Union[Digraph, SimpleGraph]


# ---------------------------------------------------------------------------
# text format: first line "n directed|undirected", then one "u v" per line

def parse_graph(text: str) -> Graph:
    lines = [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)]
    lines = [(no, s) for no, s in lines if s and not s.startswith("#")]
    if not lines:
        raise GraphFormatError(1, "empty input")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[1] not in ("directed", "undirected"):
        raise GraphFormatError(header_no, "expected header 'n directed|undirected'")
    try:
        n = int(parts[0])
    except ValueError:
        raise GraphFormatError(header_no, f"bad order {parts[0]!r}") from None
    if n < 1:
        raise GraphFormatError(header_no, "order must be >= 1")
    pairs = []
    for no, line in lines[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise GraphFormatError(no, "expected 'u v'")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphFormatError(no, f"bad vertex in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(no, f"vertex out of range in {line!r}")
        if parts[1] == "undirected" and u == v:
            raise GraphFormatError(no, "loop in undirected graph")
        pairs.append((u, v))
    if parts[1] == "directed":
        return Digraph(n, pairs)
    return SimpleGraph(n, pairs)


def format_graph(g: Graph) -> str:
    if isinstance(g, Digraph):
        body = sorted(g.arcs)
        head = f"{g.order} directed"
    else:
        body = sorted(g.edges)
        head = f"{g.order} undirected"
    return "\n".join([head] + [f"{u} {v}" for u, v in body]) + "\n"


# ---------------------------------------------------------------------------
# components and connectivity

class ComponentDecomposition(FrozenValue):
    """Weak components; ids are dense and ordered by smallest member vertex."""

    component: tuple
    count: int

    def __init__(self, component: tuple, count: int):
        self.__dict__.update(component=component, count=count)

    def members(self, i: int) -> list:
        return [v for v, c in enumerate(self.component) if c == i]


def _masks(g: Graph) -> tuple:
    """Out- and in-neighbour bitmasks of every vertex: bit v of ``out[u]``
    and bit u of ``inn[v]`` stand for the arc u -> v.  A simple graph's
    edges run both ways, so it gets one list twice."""
    simple = isinstance(g, SimpleGraph)
    out = [0] * g.order
    inn = out if simple else [0] * g.order
    for u, v in g.edges if simple else g.arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return out, inn


def _reach(masks: list, seen: int) -> int:
    """The vertices reachable from the vertex bitmask ``seen`` along
    ``masks``, the neighbour bitmask of each vertex."""
    frontier = seen
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            step |= masks[low.bit_length() - 1]
        frontier = step & ~seen
        seen |= frontier
    return seen


def weak_components(g: Graph) -> ComponentDecomposition:
    """One union-find pass over the arcs, with path halving."""
    parent = list(range(g.order))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in g.edges if isinstance(g, SimpleGraph) else g.arcs:
        parent[root(u)] = root(v)
    ids: Dict[int, int] = {}  # a root -> its component's id, in vertex order
    comp = tuple(ids.setdefault(root(v), len(ids)) for v in range(g.order))
    return ComponentDecomposition(comp, len(ids))


def is_strongly_connected(g: Digraph) -> bool:
    out, inn = _masks(g)
    full = (1 << g.order) - 1
    return _reach(out, 1) == full and _reach(inn, 1) == full


def _disjoint_paths(steps: list, s: int, t: int, limit: int) -> int:
    """Number of internally vertex-disjoint s -> t paths, up to ``limit``,
    for s and t with no arc s -> t.

    Each augmenting path is one BFS over the states 2v (in side) and
    2v + 1 (out side) of the vertex-split network, which is never built.
    An out side leads to the in sides ``steps[v]``: its own and its
    heads'.  An in side leads to ``pred[v]``'s out side, where ``pred[v]``
    is the vertex before v on its path, or v itself while v is on none.
    A loop repeats one of these steps."""
    pred = list(range(len(steps)))
    start, goal = 2 * s + 1, 2 * t
    for paths in range(limit):
        parent = [-1] * (2 * len(steps))
        parent[start] = start
        queue = [start]
        for x in queue:
            v = x >> 1
            for y in steps[v] if x & 1 else (2 * pred[v] + 1,):
                if parent[y] < 0:
                    parent[y] = x
                    queue.append(y)
            if parent[goal] >= 0:
                break
        else:
            return paths
        # each in side on the new path takes the vertex it was entered
        # from: its own when the path turns back through v
        y = goal
        while y != start:
            x = parent[y]
            if not y & 1:
                pred[y >> 1] = x >> 1
            y = x
    return limit


def _even_cut(out: list, directed: bool) -> int:
    """Least count of internally vertex-disjoint paths over Even's pair
    set, or n - 1 when it is empty.  The first vertex i outside a minimum
    separator S has i <= kappa, and S cuts it from some later j (one way
    at least, on a digraph); so the pairs (i, j), j > i, with no arc
    i -> j (or j -> i, on a digraph) suffice for i up to the best cut so
    far, and each flow stops at that best."""
    n = len(out)
    if n < 2:
        raise ValueError("connectivity needs order >= 2")
    best = n - 1
    steps = [[2 * v] + [2 * w for w in heads] for v, heads in enumerate(out)]
    i = 0
    while i <= best:
        for j in range(i + 1, n):
            for s, t in ((i, j), (j, i)) if directed else ((i, j),):
                if t not in out[s]:
                    best = _disjoint_paths(steps, s, t, best)
                    if best == 0:
                        return 0
        i += 1
    return best


def strong_connectivity(g: Digraph) -> int:
    """Largest kappa with every directed vertex cut of size >= kappa and
    kappa + 1 <= order.  Cost: at most 2 (kappa + 1)(n - 1) flows on
    Even's pair set, each of at most b + 1 BFS passes of O(n + m), b the
    best cut so far.  Tested to order 1,000 (the directed 1,000-cycle)."""
    if not is_strongly_connected(g):
        raise ValueError("digraph is not strongly connected")
    return _even_cut(g.out_neighbors(), directed=True)


def vertex_connectivity(g: SimpleGraph) -> int:
    """Least vertex cut: 0 when disconnected, n - 1 for K_n.  Cost: at
    most (kappa + 1)(n - 1) flows on Even's pair set, each of at most
    b + 1 BFS passes of O(n + m), b the best cut so far.  Tested to order
    1,500 (the 1,500-vertex path) and on the 1,000-cycle."""
    return _even_cut(g.neighbors(), directed=False)


# ---------------------------------------------------------------------------
# canonical forms: the least row-major adjacency matrix over vertex orders

_CANON_CAP = 10


def _min_packed(rows) -> bytes:
    """Least row-major adjacency bit string over all vertex orders, packed
    eight bits to a byte, first bit highest, the last byte padded with
    zeros.

    Branch and bound over ordered partitions (individualisation and
    refinement).  At level k the vertices at positions 0..k-1 are fixed
    and the rest lie in ordered cells on which every fixed vertex's row is
    constant, so rows 0..k-1 are already determined.  Putting a vertex v
    of the first cell at position k makes row k at best: v's bits toward
    positions 0..k-1, its loop bit, then for each cell v's non-neighbours
    (0s) before its neighbours (1s).  Splitting every cell that way keeps
    the invariant, and only the branches tied on the least row go on.  A
    vertex whose transposition with an already tied one in the same cell
    is an automorphism (a twin) would give the same rows and is skipped.
    """
    n = len(rows)
    by_bit = rows[::-1]            # vertex v's row is by_bit[order-1-v]
    cols = None
    states = [((), [(1 << n) - 1])]
    least = []
    for k in range(n):
        best = None
        ties = []
        for prefix, cells in states:
            head = cells[0]
            rest = cells[1:]
            tied = []
            todo = head
            while todo:
                low = todo & -todo
                todo ^= low
                rv = by_bit[low.bit_length() - 1]
                r = 0
                for fixed in prefix:
                    r = r << 1 | (rv & fixed != 0)
                r = r << 1 | (rv & low != 0)
                for cell in (head ^ low, *rest):
                    r = r << cell.bit_count() | ((1 << (cell & rv).bit_count()) - 1)
                if best is not None and r > best:
                    continue
                if r == best:
                    if cols is None:
                        cols = _columns(by_bit)
                    if any(_twins(low, rv, other, ro, cols)
                           for other, ro in tied):
                        continue
                else:
                    best = r
                    ties = []
                    tied = []
                tied.append((low, rv))
                ties.append((prefix, head, rest, low, rv))
        least.append(best)
        states = []
        for prefix, head, rest, low, rv in ties:
            cells = []
            for cell in (head ^ low, *rest):
                out = cell & rv
                if cell ^ out:
                    cells.append(cell ^ out)
                if out:
                    cells.append(out)
            states.append((prefix + (low,), cells))
    packed = 0
    for r in least:
        packed = packed << n | r
    pad = -(n * n) % 8
    return (packed << pad).to_bytes((n * n + pad) // 8, "big")


def _columns(by_bit: list) -> list:
    """In-neighbour masks, indexed like ``by_bit`` (by a vertex's bit)."""
    cols = [0] * len(by_bit)
    for b, rv in enumerate(by_bit):
        for c in range(len(by_bit)):
            if rv >> c & 1:
                cols[c] |= 1 << b
    return cols


def _twins(bu: int, ru: int, bw: int, rw: int, cols: list) -> bool:
    """Whether swapping the vertices with bits bu and bw, taken from one
    cell with tied rows, is an automorphism.  The tie already gives them
    equal loop bits, and u->w iff w->u once their out-neighbours agree
    apart from u and w; so it remains to compare out- and in-neighbours
    apart from u and w."""
    rest = ~(bu | bw)
    return (not (ru ^ rw) & rest
            and not (cols[bu.bit_length() - 1] ^ cols[bw.bit_length() - 1]) & rest)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string, equal iff the graphs are isomorphic: the
    order, the carrier kind (so digraphs and simple graphs never collide),
    then the least row-major adjacency matrix over all vertex orders."""
    if g.order > _CANON_CAP:
        raise ValueError(f"canonical_form capped at order {_CANON_CAP}")
    kind = b"D" if isinstance(g, Digraph) else b"U"
    # reversed, the out-masks are the rows of g relabelled by v -> n-1-v
    # with column j at bit n-1-j, the layout ``_min_packed`` reads
    return bytes([g.order]) + kind + _min_packed(_masks(g)[0][::-1])


def _least_labellings(n: int, mode: str) -> list:
    """Adjacency rows of the least labelling of every class of order n.

    An order-(m+1) graph minus a vertex of largest degree (arcs in plus
    out) is an order-m graph, so every way to give each order-m class a
    new last vertex of largest degree reaches every order-(m+1) class."""
    layer = [[]]
    for m in range(n):
        keys = set()
        for rows in layer:
            deg = [r.bit_count() + sum(s >> (m - 1 - u) & 1 for s in rows)
                   for u, r in enumerate(rows)]
            for ins in range(1 << m):
                bits = [ins >> (m - 1 - u) & 1 for u in range(m)]
                old = [r << 1 | b for r, b in zip(rows, bits)]
                base = [d + b for d, b in zip(deg, bits)]
                outs = [ins << 1] if mode == "simple" else range(2 << m)
                if mode == "digraph-outregular" and m == n - 1:
                    sizes = {r.bit_count() for r in old}
                    outs = [t for t in outs if sizes <= {t.bit_count()}]
                for out in outs:
                    own = ins.bit_count() + out.bit_count() + (out & 1)
                    if all(d + (out >> (m - u) & 1) <= own
                           for u, d in enumerate(base)):
                        keys.add(_min_packed(old + [out]))
        pad, full = -(m + 1) ** 2 % 8, (2 << m) - 1
        layer = [[bits >> (m + 1) * (m - u) & full for u in range(m + 1)]
                 for bits in (int.from_bytes(k, "big") >> pad for k in keys)]
    return layer


def enumerate_graphs(n: int, mode: str) -> Iterator[Graph]:
    """Stream one canonical representative per isomorphism class.

    ``simple``: all simple graphs, order <= 8.  ``digraph-all``: all
    digraphs including sinks and loops, order <= 4.  ``digraph-outregular``:
    digraphs with constant outdegree (any value from 0 to n), order <= 4.
    Each representative is its class's least labelling, streamed in
    labelled-scan order: by edge mask over ``combinations(range(n), 2)``,
    or for digraphs by each row's index among out-neighbour sets listed by
    size, then lexicographically.  A 2-core Xeon with CPython 3.11 takes
    0.04 s for order 6, 0.35 s for 7 and 4.4 s for 8 (12,346 classes) in
    ``simple`` mode, and 0.2 s for ``digraph-all`` at order 4.
    """
    caps = {"simple": 8, "digraph-all": 4, "digraph-outregular": 4}
    if mode not in caps:
        raise ValueError(f"unknown enumeration mode {mode!r}")
    if n > caps[mode]:
        raise ValueError(f"{mode} enumeration capped at order {caps[mode]}")
    top = n - 1
    if mode == "simple":  # edge masks compare from their highest bit down
        kind, pairs = SimpleGraph, list(itertools.combinations(range(n), 2))
        order = lambda rows: [rows[u] >> (top - v) & 1 for u, v in pairs[::-1]]
    else:  # sets of one size come lexicographically, that is by falling mask
        kind, pairs = Digraph, list(itertools.product(range(n), repeat=2))
        order = lambda rows: [(r.bit_count(), -r) for r in rows]
    for rows in sorted(_least_labellings(n, mode), key=order):
        yield kind(n, [(u, v) for u, v in pairs if rows[u] >> (top - v) & 1])

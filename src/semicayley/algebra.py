"""Finite multiplication tables and the Cayley-graph constructions."""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import Digraph, FrozenValue, SimpleGraph

__all__ = [
    "MulTable",
    "TableViolation",
    "InvalidTableError",
    "TableFormatError",
    "validate_table",
    "check_connection_set",
    "cayley_arc_set",
    "cayley_digraph",
    "underlying_graph",
    "parse_table",
    "format_table",
]

# past this order the associativity scan runs vectorised; same semantics
_NUMPY_VALIDATE_MIN = 64


class MulTable(FrozenValue):
    """n x n product table over element indices 0..n-1.

    ``identity`` is the index of a claimed two-sided identity, or None for a
    plain semigroup table.  Claims are checked by ``validate_table``, not by
    the constructor.
    """

    order: int
    rows: tuple
    identity: Optional[int]

    def __init__(self, order: int, rows, identity: Optional[int] = None):
        if order < 1:
            raise ValueError("order must be >= 1")
        norm = tuple(tuple(int(x) for x in row) for row in rows)
        if len(norm) != order or any(len(r) != order for r in norm):
            raise ValueError("rows must form an order x order square")
        for row in norm:
            for x in row:
                if not 0 <= x < order:
                    raise ValueError(f"entry {x} out of range")
        if identity is not None and not 0 <= identity < order:
            raise ValueError("identity index out of range")
        self.__dict__.update(order=order, rows=norm, identity=identity)


class TableViolation(FrozenValue):
    """First law violation found: kind 'associativity' or 'identity'."""

    kind: str
    triple: tuple

    def __init__(self, kind: str, triple: tuple):
        self.__dict__.update(kind=kind, triple=triple)


class InvalidTableError(ValueError):
    def __init__(self, violation: TableViolation):
        super().__init__(f"{violation.kind} violated at {violation.triple}")
        self.violation = violation


def validate_table(t: MulTable) -> Optional[TableViolation]:
    """Exhaustive O(n^3) associativity scan, then the identity law.

    Returns None when every law holds, else the first violating triple in
    lexicographic (a, b, c) order; identity violations report (e, x, e*x)
    or (x, e, x*e).
    """
    n = t.order
    rows = t.rows
    if n >= _NUMPY_VALIDATE_MIN:
        import numpy as np

        arr = np.array(rows, dtype=np.int32)
        for a in range(n):
            lhs = arr[arr[a], :]           # (a*b)*c over all b, c
            rhs = arr[a][arr]              # a*(b*c)
            if not np.array_equal(lhs, rhs):
                b, c = map(int, np.argwhere(lhs != rhs)[0])
                return TableViolation("associativity", (a, b, c))
    else:
        for a in range(n):
            ra = rows[a]
            for b in range(n):
                rab = rows[ra[b]]
                rb = rows[b]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        return TableViolation("associativity", (a, b, c))
    e = t.identity
    if e is not None:
        re = rows[e]
        for x in range(n):
            if re[x] != x:
                return TableViolation("identity", (e, x, re[x]))
            if rows[x][e] != x:
                return TableViolation("identity", (x, e, rows[x][e]))
    return None


def check_connection_set(conn: Iterable[int], order: int) -> frozenset:
    c = frozenset(int(x) for x in conn)
    if not c:
        raise ValueError("connection set must be non-empty")
    for x in c:
        if not 0 <= x < order:
            raise ValueError(f"connection element {x} out of range")
    return c


def _checked(t: MulTable) -> MulTable:
    violation = validate_table(t)
    if violation is not None:
        raise InvalidTableError(violation)
    return t


def cayley_arc_set(table: MulTable, connection) -> frozenset:
    """Arc set of Cay(table, connection); empty connection gives no arcs."""
    return frozenset((s, table.rows[s][c])
                     for s in range(table.order) for c in connection)


def cayley_digraph(t: MulTable, conn: Iterable[int]) -> Digraph:
    """Arcs (s, s*c) for c in the connection set; parallel arcs collapse."""
    _checked(t)
    return Digraph(t.order, cayley_arc_set(t, check_connection_set(conn, t.order)))


def underlying_graph(g: Digraph) -> SimpleGraph:
    """Forget directions, loops and multiplicities."""
    return SimpleGraph(g.order, {(u, v) for u, v in g.arcs if u != v})


# ---------------------------------------------------------------------------
# text format: first line "n identity|-", then n rows of n indices

class TableFormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_table(text: str) -> MulTable:
    lines = [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)]
    lines = [(no, s) for no, s in lines if s and not s.startswith("#")]
    if not lines:
        raise TableFormatError(1, "empty input")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise TableFormatError(no, "expected header 'n identity_index|-'")
    try:
        n = int(parts[0])
    except ValueError:
        raise TableFormatError(no, f"bad order {parts[0]!r}") from None
    identity = None
    if parts[1] != "-":
        try:
            identity = int(parts[1])
        except ValueError:
            raise TableFormatError(no, f"bad identity {parts[1]!r}") from None
    body = lines[1:]
    if len(body) != n:
        raise TableFormatError(no, f"expected {n} rows, got {len(body)}")
    rows = []
    for rno, line in body:
        toks = line.split()
        if len(toks) != n:
            raise TableFormatError(rno, f"expected {n} entries")
        try:
            row = [int(x) for x in toks]
        except ValueError:
            raise TableFormatError(rno, f"bad entry in {line!r}") from None
        rows.append(row)
    try:
        return MulTable(n, rows, identity=identity)
    except ValueError as exc:
        raise TableFormatError(no, str(exc)) from None


def format_table(t: MulTable) -> str:
    head = f"{t.order} {'-' if t.identity is None else t.identity}"
    body = [" ".join(str(x) for x in row) for row in t.rows]
    return "\n".join([head] + body) + "\n"

"""Multiplication tables: validation, Cayley constructions, text format.

The associativity oracle here is an independent three-loop scan kept
deliberately dumb; ``validate_table`` must agree with it on every input,
including the vectorised large-order path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicayley import Digraph, MulTable, TableFormatError, validate_table
from semicayley.algebra import (
    InvalidTableError,
    cayley_digraph,
    check_connection_set,
    format_table,
    parse_table,
)
from semicayley import underlying_graph


def brute_violation(t: MulTable):
    """First (a, b, c) with (a*b)*c != a*(b*c), else first identity break."""
    n, rows = t.order, t.rows
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return ("associativity", (a, b, c))
    e = t.identity
    if e is not None:
        for x in range(n):
            if rows[e][x] != x:
                return ("identity", (e, x, rows[e][x]))
            if rows[x][e] != x:
                return ("identity", (x, e, rows[x][e]))
    return None


def cyclic_table(n: int) -> MulTable:
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    return MulTable(n, rows, identity=0)


def left_zero_table(n: int) -> MulTable:
    return MulTable(n, [[a] * n for a in range(n)])


def test_constructor_guards():
    with pytest.raises(ValueError):
        MulTable(0, [])
    with pytest.raises(ValueError):
        MulTable(2, [[0, 1]])
    with pytest.raises(ValueError):
        MulTable(2, [[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        MulTable(2, [[0, 1], [1, 0]], identity=2)


def test_validate_known_tables():
    assert validate_table(cyclic_table(5)) is None
    assert validate_table(left_zero_table(4)) is None
    # right-zero rows: also associative
    assert validate_table(MulTable(3, [[0, 1, 2]] * 3)) is None


def test_validate_finds_first_violation_in_order():
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    rows[1][2] = 1                      # break one product of Z3
    t = MulTable(3, rows)
    v = validate_table(t)
    assert (v.kind, v.triple) == brute_violation(t)
    assert v.kind == "associativity"


def test_validate_identity_claims():
    t = MulTable(2, [[0, 1], [1, 1]], identity=0)
    assert validate_table(t) is None
    bad = MulTable(2, [[0, 0], [1, 1]], identity=0)
    v = validate_table(bad)
    assert v.kind == "identity"
    assert v.triple == (0, 1, 0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_validate_agrees_with_brute_oracle(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=n, max_size=n))
    e = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    t = MulTable(n, rows, identity=e)
    v = validate_table(t)
    got = None if v is None else (v.kind, v.triple)
    assert got == brute_violation(t)


def test_validate_large_order_vectorised_path():
    t = cyclic_table(70)
    assert validate_table(t) is None
    rows = [list(r) for r in t.rows]
    rows[13][27] = (13 + 27 + 1) % 70
    bad = MulTable(70, rows, identity=0)
    v = validate_table(bad)
    assert (v.kind, v.triple) == brute_violation(bad)


def test_check_connection_set():
    assert check_connection_set([1, 2, 1], 3) == frozenset({1, 2})
    with pytest.raises(ValueError):
        check_connection_set([], 3)
    with pytest.raises(ValueError):
        check_connection_set([3], 3)


def test_cayley_digraph_of_cyclic_group():
    g = cayley_digraph(cyclic_table(4), [1])
    assert set(g.arcs) == {(0, 1), (1, 2), (2, 3), (3, 0)}


def test_cayley_digraph_collapses_parallel_arcs():
    t = left_zero_table(3)               # s*c = s for every c: all loops
    g = cayley_digraph(t, [0, 1])
    assert set(g.arcs) == {(0, 0), (1, 1), (2, 2)}


def test_cayley_digraph_rejects_invalid_table():
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    rows[1][2] = 1
    with pytest.raises(InvalidTableError):
        cayley_digraph(MulTable(3, rows), [1])


def test_underlying_graph_drops_loops_and_directions():
    g = Digraph(3, [(0, 1), (1, 0), (1, 1), (2, 0)])
    u = underlying_graph(g)
    assert set(u.edges) == {(0, 1), (0, 2)}


def test_table_text_roundtrip():
    for t in (cyclic_table(3), left_zero_table(2)):
        back = parse_table(format_table(t))
        assert back.rows == t.rows and back.identity == t.identity


def test_table_parse_errors():
    with pytest.raises(TableFormatError, match="line 1"):
        parse_table("")
    with pytest.raises(TableFormatError, match="line 1"):
        parse_table("2\n0 1\n1 0\n")
    with pytest.raises(TableFormatError, match="line 3"):
        parse_table("2 -\n0 1\n1\n")
    with pytest.raises(TableFormatError, match="line 2"):
        parse_table("2 0\n0 x\n1 0\n")
    # comments and blank lines are ignored
    t = parse_table("# product\n\n2 0\n0 1\n1 0\n")
    assert t.identity == 0

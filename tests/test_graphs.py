"""Graph containers, text format, canonical forms, enumeration.

Class counts are frozen below and recomputed by an independent
orbit-counting oracle (Burnside's lemma over vertex permutations).
Canonical keys are checked against a brute-force minimiser over every
vertex permutation.  The enumeration streams are compared, in order,
with a scan over every labelled graph: filtered by the brute-force
minimiser at small orders, and by ``canonical_form`` up to the orders
the enumeration is used at.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (child_env, complete_graph, cycle_graph, path_graph,
                      petersen)
import semicayley
from semicayley import (
    Digraph,
    GraphFormatError,
    SimpleGraph,
    canonical_form,
    enumerate_graphs,
    format_graph,
    parse_graph,
)
from semicayley.families import gen_K4_Cl, looped_path_digraph
from semicayley.graphs import (
    is_strongly_connected,
    strong_connectivity,
    vertex_connectivity,
    weak_components,
)

# frozen: number of simple graphs up to isomorphism, order 1..6
SIMPLE_COUNTS = (1, 2, 4, 11, 34, 156)
# frozen: number of digraphs (loops allowed) up to isomorphism, order 1..4
DIGRAPH_COUNTS = (2, 10, 104, 3044)


def orbit_count_simple(n: int) -> int:
    """Burnside count of simple graphs: average 2^(edge orbits) over S_n."""
    total = 0
    for perm in itertools.permutations(range(n)):
        seen = set()
        orbits = 0
        for pair in itertools.combinations(range(n), 2):
            if pair in seen:
                continue
            orbits += 1
            a, b = pair
            while True:
                a, b = perm[a], perm[b]
                cur = (a, b) if a < b else (b, a)
                if cur == pair:
                    break
                seen.add(cur)
        total += 1 << orbits
    return total // math.factorial(n)


def orbit_count_digraph(n: int) -> int:
    """Burnside count of binary relations: orbits on ordered pairs."""
    total = 0
    for perm in itertools.permutations(range(n)):
        seen = set()
        orbits = 0
        for pair in itertools.product(range(n), repeat=2):
            if pair in seen:
                continue
            orbits += 1
            a, b = pair
            while True:
                a, b = perm[a], perm[b]
                if (a, b) == pair:
                    break
                seen.add((a, b))
        total += 1 << orbits
    return total // math.factorial(n)


def test_frozen_counts_match_orbit_oracle():
    assert tuple(orbit_count_simple(n) for n in range(1, 7)) == SIMPLE_COUNTS
    assert tuple(orbit_count_digraph(n) for n in range(1, 5)) == DIGRAPH_COUNTS


@pytest.mark.parametrize("n", range(1, 7))
def test_simple_enumeration_counts(n):
    assert sum(1 for _ in enumerate_graphs(n, "simple")) == SIMPLE_COUNTS[n - 1]


@pytest.mark.parametrize("n", range(1, 5))
def test_digraph_enumeration_counts(n):
    got = sum(1 for _ in enumerate_graphs(n, "digraph-all"))
    assert got == DIGRAPH_COUNTS[n - 1]


def test_enumeration_streams_distinct_canonical_representatives():
    seen = set()
    for g in enumerate_graphs(4, "simple"):
        key = canonical_form(g)
        assert key not in seen
        seen.add(key)


def test_outregular_enumeration_agrees_with_filtered_digraphs():
    # same classes two ways: dedicated mode vs filtering the full stream
    for n in range(1, 5):
        direct = sum(1 for _ in enumerate_graphs(n, "digraph-outregular"))
        filtered = sum(
            1 for g in enumerate_graphs(n, "digraph-all")
            if len(set(g.out_degrees())) == 1)
        assert direct == filtered


def test_digraph_basic_accessors():
    g = Digraph(3, [(0, 1), (0, 2), (1, 1), (2, 0)])
    assert g.out_degrees() == [2, 1, 1]
    assert set(g.out_neighbors()[0]) == {1, 2}
    assert set(g.in_neighbors()[1]) == {0, 1}
    assert not g.is_k_outregular(1)
    assert Digraph(2, [(0, 1), (1, 0)]).is_k_outregular(1)


def test_successor_map_requires_one_outregular():
    assert Digraph(2, [(0, 1), (1, 1)]).successor_map() == [1, 1]
    with pytest.raises(ValueError):
        Digraph(2, [(0, 1)]).successor_map()


def test_simple_graph_rejects_loops_and_dedupes():
    g = SimpleGraph(3, [(0, 1), (1, 0), (1, 2)])
    assert len(g.edges) == 2
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 0)])


def test_parse_format_roundtrip_directed():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0), (2, 2)])
    h = parse_graph(format_graph(g))
    assert isinstance(h, Digraph)
    assert h.order == 3 and set(h.arcs) == set(g.arcs)


def test_parse_format_roundtrip_undirected():
    g = cycle_graph(5)
    h = parse_graph(format_graph(g))
    assert isinstance(h, SimpleGraph)
    assert h.order == 5 and set(h.edges) == set(g.edges)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("nonsense")
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("3 directed\n0 1\n9 0\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("2 undirected\n0\n")


def _apply_perm_digraph(g: Digraph, perm) -> Digraph:
    return Digraph(g.order, [(perm[u], perm[v]) for u, v in g.arcs])


def _apply_perm_simple(g: SimpleGraph, perm) -> SimpleGraph:
    return SimpleGraph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_isomorphism_invariant(data):
    n = data.draw(st.integers(2, 5))
    arcs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    g = Digraph(n, arcs)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g) == canonical_form(_apply_perm_digraph(g, perm))


def test_canonical_form_separates_nonisomorphic():
    assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))
    a = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    b = Digraph(3, [(0, 1), (1, 0), (2, 2)])
    assert canonical_form(a) != canonical_form(b)


def _matrix(g) -> list:
    n = g.order
    m = [["0"] * n for _ in range(n)]
    pairs = g.arcs if isinstance(g, Digraph) else g.edges
    for u, v in pairs:
        m[u][v] = "1"
        if isinstance(g, SimpleGraph):
            m[v][u] = "1"
    return m


def _pack(bits: str) -> bytes:
    """Bit string to bytes, first bit highest, last byte padded with 0s."""
    pad = -len(bits) % 8
    return (int(bits, 2) << pad).to_bytes((len(bits) + pad) // 8, "big")


def _row_major(m, perm) -> str:
    return "".join("".join(m[a][b] for b in perm) for a in perm)


def brute_canonical_form(g) -> bytes:
    """Oracle: least row-major adjacency bit string over every vertex
    permutation, with canonical_form's order and carrier prefix."""
    m = _matrix(g)
    least = min(_row_major(m, p) for p in itertools.permutations(range(g.order)))
    kind = b"D" if isinstance(g, Digraph) else b"U"
    return bytes([g.order]) + kind + _pack(least)


def _brute_is_self_canonical(g) -> bool:
    return brute_canonical_form(g)[2:] == _pack(_row_major(_matrix(g), range(g.order)))


def _labelled_simple(n: int):
    """Every labelled simple graph, in enumerate_graphs's scan order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _labelled_digraphs(n: int, outregular: bool = False):
    """Every labelled digraph, in enumerate_graphs's digraph-all scan order;
    or, in its digraph-outregular order, those of constant outdegree, one
    outdegree after another."""
    groups = [[k] for k in range(n + 1)] if outregular else [range(n + 1)]
    for group in groups:
        sets = [c for r in group for c in itertools.combinations(range(n), r)]
        for choice in itertools.product(sets, repeat=n):
            yield Digraph(n, [(u, v) for u in range(n) for v in choice[u]])


LABELLED_SCANS = {
    "simple": _labelled_simple,
    "digraph-all": _labelled_digraphs,
    "digraph-outregular": lambda n: _labelled_digraphs(n, outregular=True),
}


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_form_matches_brute_force_on_every_simple_graph(n):
    for g in _labelled_simple(n):
        assert canonical_form(g) == brute_canonical_form(g), sorted(g.edges)


@pytest.mark.parametrize("n", range(1, 4))
def test_canonical_form_matches_brute_force_on_every_digraph(n):
    for g in _labelled_digraphs(n):
        assert canonical_form(g) == brute_canonical_form(g), sorted(g.arcs)


def test_canonical_form_matches_brute_force_on_a_twin_trap():
    # 2 and 3 tie on row 0 and have no in-neighbours, but different
    # out-neighbours; taking them for twins misses the least form
    g = Digraph(4, [(0, 1), (1, 1), (2, 1), (3, 0)])
    assert canonical_form(g) == brute_canonical_form(g)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_canonical_form_matches_brute_force_on_larger_graphs(data):
    n = data.draw(st.integers(6, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if data.draw(st.booleans()):
        g = Digraph(n, data.draw(st.sets(pairs, max_size=n * n)))
    else:
        g = SimpleGraph(n, data.draw(st.sets(
            pairs.filter(lambda e: e[0] != e[1]), max_size=n * (n - 1) // 2)))
    assert canonical_form(g) == brute_canonical_form(g)


@pytest.mark.parametrize("n", range(1, 6))
def test_simple_enumeration_is_the_brute_force_filtered_stream(n):
    expected = [g for g in _labelled_simple(n) if _brute_is_self_canonical(g)]
    assert list(enumerate_graphs(n, "simple")) == expected


@pytest.mark.parametrize("n", range(1, 4))
def test_digraph_enumeration_is_the_brute_force_filtered_stream(n):
    expected = [g for g in _labelled_digraphs(n) if _brute_is_self_canonical(g)]
    assert list(enumerate_graphs(n, "digraph-all")) == expected


def _is_least_labelling(g) -> bool:
    """Whether g is its own canonical form, by the production labeller
    (checked against brute force above)."""
    return canonical_form(g)[2:] == _pack(_row_major(_matrix(g), range(g.order)))


@pytest.mark.parametrize("mode,n", [("simple", n) for n in range(1, 7)] + [
    (mode, n) for mode in ("digraph-all", "digraph-outregular")
    for n in range(1, 5)])
def test_enumeration_is_the_labelled_scan_of_least_labellings(mode, n):
    """One-vertex extension yields exactly the stream of a scan over every
    labelled graph that keeps the labellings equal to their own canonical
    form, in scan order, graph for graph."""
    expected = [g for g in LABELLED_SCANS[mode](n) if _is_least_labelling(g)]
    assert list(enumerate_graphs(n, mode)) == expected


@pytest.mark.parametrize("g,key", [
    (cycle_graph(4), "045533cc"),
    (gen_K4_Cl(5), "0955018147058341c10504c000"),
    (petersen(), "0a5501c190a8343054261248a43200"),
    (looped_path_digraph(), "03447a80"),
])
def test_canonical_keys_are_pinned(g, key):
    assert canonical_form(g).hex() == key


# highly symmetric graphs at the canonical_form order cap: many vertices tie
# at every level, and the empty, complete, matching and looped ones consist
# of twins
SYMMETRIC_10 = {
    "empty": SimpleGraph(10),
    "complete": complete_graph(10),
    "C10": cycle_graph(10),
    "petersen": petersen(),
    "5K2": SimpleGraph(10, [(2 * i, 2 * i + 1) for i in range(5)]),
    "2C5": SimpleGraph(10, [(c + i, c + (i + 1) % 5)
                            for c in (0, 5) for i in range(5)]),
    "directed C10": Digraph(10, [(i, (i + 1) % 10) for i in range(10)]),
    "10 loops": Digraph(10, [(i, i) for i in range(10)]),
}


@pytest.mark.parametrize("name", SYMMETRIC_10)
def test_canonical_form_is_relabelling_invariant_at_order_cap(name):
    g = SYMMETRIC_10[name]
    key = canonical_form(g)
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(10))
        rng.shuffle(perm)
        relabel = _apply_perm_digraph if isinstance(g, Digraph) else _apply_perm_simple
        assert canonical_form(relabel(g, perm)) == key


def test_symmetric_graphs_at_order_cap_get_distinct_keys():
    keys = {canonical_form(g) for g in SYMMETRIC_10.values()}
    assert len(keys) == len(SYMMETRIC_10)


def test_order_7_simple_enumeration_count():
    assert sum(1 for _ in enumerate_graphs(7, "simple")) == 1044
    assert orbit_count_simple(7) == 1044


@pytest.mark.slow
def test_order_8_simple_enumeration_count():
    # OEIS A000088: 12,346 simple graphs on 8 vertices
    keys = [canonical_form(g) for g in enumerate_graphs(8, "simple")]
    assert len(keys) == len(set(keys)) == 12346


@pytest.mark.parametrize("mode,n", [("simple", 9), ("digraph-all", 5),
                                    ("digraph-outregular", 5)])
def test_enumeration_refuses_orders_past_its_cap(mode, n):
    with pytest.raises(ValueError, match="capped at order"):
        list(enumerate_graphs(n, mode))


# -- import hygiene --------------------------------------------------------

# modules outside the package that a bare import and the CLI should not load
_WATCHED = ("numpy", "multiprocessing")


def _loaded_in_child(code: str) -> set:
    """Run ``code`` in a fresh interpreter and return what it loaded: the
    package's submodules by their short names, and those in ``_WATCHED``.

    ``code`` may print; the loaded names are printed on the last line.
    """
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(m.split('.')[1] if m.startswith('semicayley.') else m"
        f" for m in sys.modules if m.startswith('semicayley.') or m in {_WATCHED!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_leaves_numpy_unloaded():
    """numpy serves only spectra and tables of order >= 64, and every public
    name loads its submodule on first use, so a bare import loads neither."""
    assert _loaded_in_child("import semicayley") == set()
    assert _loaded_in_child("import semicayley; semicayley.Digraph") == {"graphs"}


def _cli_in_child(argv) -> str:
    return ("import contextlib, io\n"
            "from semicayley.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "assert code == 0, code\n")


def test_cli_verify_witness_loads_no_search_module(tmp_path):
    g = parse_graph("4 directed\n0 1\n1 2\n2 3\n3 0\n")
    w = semicayley.construct_monoid(g)
    record = tmp_path / "c4.rec"
    record.write_text(semicayley.format_witness_record(w, g))
    loaded = _loaded_in_child(_cli_in_child(["verify-witness", str(record)]))
    assert "witness" in loaded
    assert not loaded & {"recognize", "embed", "invariants", "trees", "zelinka",
                         "families", "multiprocessing"}


def test_cli_recognize_loads_only_the_search(tmp_path):
    """A search that never forks does not load ``forked`` either."""
    path = tmp_path / "c5.txt"
    path.write_text(format_graph(cycle_graph(5)))
    loaded = _loaded_in_child(_cli_in_child(
        ["recognize", "--mode", "monoid-graph", str(path)]))
    assert "recognize" in loaded
    assert not loaded & {"multiprocessing", "forked", "embed", "trees",
                         "zelinka"}


def test_cli_defaults_are_the_library_defaults():
    """The parser takes its defaults from ``outcome`` and loads neither the
    embedding nor the search to build them."""
    import inspect

    from semicayley import cli, embed, recognize

    census = ["census", "3", "--mode", "monoid-graph"]
    loaded = _loaded_in_child("from semicayley.cli import build_parser\n"
                              f"build_parser().parse_args({census!r})\n")
    assert not loaded & {"embed", "recognize"}
    parser = cli.build_parser()
    assert parser.parse_args(["embed"]).max_maps == embed.DEFAULT_MAX_MAPS
    args = parser.parse_args(census)
    defaults = inspect.signature(recognize.classify_all).parameters
    assert args.max_nodes == defaults["max_nodes"].default
    assert args.max_seconds == defaults["max_seconds"].default
    assert args.workers == defaults["workers"].default


def test_cli_embed_and_gen_threshold_load_no_search(tmp_path):
    """Both re-verify their witnesses through ``witness``, not ``recognize``."""
    path = tmp_path / "c5.txt"
    path.write_text(format_graph(cycle_graph(5)))
    for argv in (["embed", str(path)], ["gen", "threshold", "--seq", "idd"]):
        loaded = _loaded_in_child(_cli_in_child(argv))
        assert "witness" in loaded, argv
        assert not loaded & {"recognize", "multiprocessing"}, argv


def test_a_forking_search_loads_no_multiprocessing():
    """Refuting K4 + C5 forks its workers with ``os.fork`` and pipes."""
    loaded = _loaded_in_child(
        "import os\n"
        "from semicayley import forked, recognize_monoid_graph\n"
        "from semicayley.families import gen_K4_Cl\n"
        "forked.usable_cpus = lambda: 2\n"
        "fork, started = os.fork, []\n"
        "def counted_fork():\n"
        "    pid = fork()\n"
        "    started.append(pid)\n"
        "    return pid\n"
        "os.fork = counted_fork\n"
        "out = recognize_monoid_graph(gen_K4_Cl(5))\n"
        "assert (out.status, out.nodes) == ('exhausted-no', 1272392), out\n"
        "assert len(started) == 2 and all(started), started\n")
    assert "recognize" in loaded and "forked" in loaded
    assert "multiprocessing" not in loaded


def test_every_public_name_resolves():
    for name in semicayley.__all__:
        assert getattr(semicayley, name) is not None, name
    assert set(semicayley.__all__) <= set(dir(semicayley))
    assert not hasattr(semicayley, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        semicayley.no_such_name


def test_weak_components():
    g = Digraph(5, [(0, 1), (1, 0), (2, 3), (3, 4)])
    comp = weak_components(g)
    assert comp.count == 2
    assert sorted(comp.members(comp.component[0])) == [0, 1]
    assert sorted(comp.members(comp.component[2])) == [2, 3, 4]


def test_strong_connectivity_values():
    c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert is_strongly_connected(c3)
    assert strong_connectivity(c3) == 1
    k3 = Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
    assert strong_connectivity(k3) == 2
    with pytest.raises(ValueError):
        strong_connectivity(Digraph(2, [(0, 1)]))


def _brute_vertex_connectivity(g: SimpleGraph) -> int:
    """Smallest separating or exhausting vertex set, by direct subset search."""
    n = g.order
    if n <= 1:
        return 0
    nbrs = [set(ns) for ns in g.neighbors()]
    if all(len(nb) == n - 1 for nb in nbrs):
        return n - 1
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            alive = [v for v in range(n) if v not in cut]
            if not alive:
                continue
            seen = {alive[0]}
            stack = [alive[0]]
            while stack:
                v = stack.pop()
                for w in nbrs[v]:
                    if w not in cut and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) < len(alive):
                return size
    return n - 1


@pytest.mark.parametrize("g,expect", [
    (complete_graph(5), 4),
    (cycle_graph(6), 2),
    (path_graph(4), 1),
    (SimpleGraph(4, [(0, 1), (2, 3)]), 0),
])
def test_vertex_connectivity_known_values(g, expect):
    assert vertex_connectivity(g) == expect
    assert _brute_vertex_connectivity(g) == expect


def test_vertex_connectivity_rejects_trivial_order():
    with pytest.raises(ValueError):
        vertex_connectivity(SimpleGraph(1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vertex_connectivity_matches_brute_force(data):
    n = data.draw(st.integers(2, 6))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]), max_size=12))
    g = SimpleGraph(n, edges)
    assert vertex_connectivity(g) == _brute_vertex_connectivity(g)

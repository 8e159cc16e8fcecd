"""Density, independence and spectral invariants.

Brute-force subset oracles live beside the frozen values they produced;
the library must agree with both.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, path_graph, petersen, star_graph
from semicayley import (
    SimpleGraph,
    arboricity,
    beta,
    connectivity_bound,
    enumerate_graphs,
    independence_number,
    nonmonoid_certificate,
    pseudoarboricity,
    spectrum,
)
from semicayley.invariants import (
    OrientationInfeasible,
    beta_lower_bound,
    beta_upper_bound,
    orientation_with_outdegree,
    profile_certificate,
    synthetic_profile,
)


def bipartite_graph(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# -- subset oracles --------------------------------------------------------

def brute_arboricity(g: SimpleGraph) -> int:
    best = 0
    for r in range(2, g.order + 1):
        for sub in itertools.combinations(range(g.order), r):
            s = set(sub)
            m = sum(1 for u, v in g.edges if u in s and v in s)
            if m:
                best = max(best, math.ceil(m / (r - 1)))
    return best


def brute_pseudoarboricity(g: SimpleGraph) -> int:
    best = 0
    for r in range(1, g.order + 1):
        for sub in itertools.combinations(range(g.order), r):
            s = set(sub)
            m = sum(1 for u, v in g.edges if u in s and v in s)
            best = max(best, math.ceil(m / r))
    return best


def brute_independence(g: SimpleGraph) -> int:
    best = 0
    for r in range(g.order, 0, -1):
        for sub in itertools.combinations(range(g.order), r):
            s = set(sub)
            if all(u not in s or v not in s for u, v in g.edges):
                return r
    return best


def brute_beta(g: SimpleGraph, k: int) -> int:
    incident = [[e for e in g.edges if v in e] for v in range(g.order)]
    best = 0
    choices = list(itertools.product(*incident))
    for combo in itertools.combinations_with_replacement(choices, k):
        removed = set(e for choice in combo for e in choice)
        kept = [e for e in g.edges if e not in removed]
        best = max(best, brute_independence(SimpleGraph(g.order, kept)))
    return best


@pytest.mark.parametrize("g,arb,psarb", [
    (path_graph(5), 1, 1),
    (cycle_graph(6), 2, 1),
    (complete_graph(4), 2, 2),
    (complete_graph(5), 3, 2),
    (bipartite_graph(3, 3), 2, 2),
    (petersen(), 2, 2),
])
def test_sparsity_frozen_and_oracle(g, arb, psarb):
    assert arboricity(g) == arb == brute_arboricity(g)
    assert pseudoarboricity(g) == psarb == brute_pseudoarboricity(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparsity_matches_oracles_random(data):
    n = data.draw(st.integers(2, 7))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]), min_size=1, max_size=14))
    g = SimpleGraph(n, edges)
    assert arboricity(g) == brute_arboricity(g)
    assert pseudoarboricity(g) == brute_pseudoarboricity(g)


def test_orientation_with_outdegree_roundtrip():
    g = petersen()
    k = pseudoarboricity(g)
    d = orientation_with_outdegree(g, k)
    assert max(d.out_degrees()) <= k
    und = {(min(u, v), max(u, v)) for u, v in d.arcs}
    assert und == set(g.edges)


# frozen: sha256 over the arcs of orientation_with_outdegree(g,
# pseudoarboricity(g)) for every simple graph of order 1..6
ORIENTATIONS_6_DIGEST = (
    "65ca98f13b293e63b66cc082358b40228b03d764a4aa7c56b31ab1143d11f17b")


def test_orientations_frozen_up_to_order_6():
    """Each orientation, not only its outdegrees, so the flow's path
    order is pinned too."""
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in enumerate_graphs(n, "simple"):
            d = orientation_with_outdegree(g, pseudoarboricity(g))
            digest.update(repr(sorted(d.arcs)).encode())
    assert digest.hexdigest() == ORIENTATIONS_6_DIGEST


def test_orientation_infeasible():
    with pytest.raises(OrientationInfeasible):
        orientation_with_outdegree(complete_graph(4), 1)


def test_infeasible_orientations_carry_dense_subsets():
    """Below the pseudoarboricity p the orientation fails, and its subset
    S, reached from one stuck edge, spans more than (p - 1) |S| edges."""
    for n in range(1, 7):
        for g in enumerate_graphs(n, "simple"):
            p = pseudoarboricity(g)
            if p == 0:
                continue
            with pytest.raises(OrientationInfeasible) as info:
                orientation_with_outdegree(g, p - 1)
            cert = info.value
            inside = set(cert.subset)
            assert cert.k == p - 1
            assert cert.edge_count == sum(
                1 for u, v in g.edges if u in inside and v in inside)
            assert cert.edge_count > (p - 1) * len(cert.subset)


def test_orientation_of_a_shuffled_4000_vertex_path():
    """With its labels shuffled (seed 1), the second pass reverses paths
    of up to 936 arcs; the search is a list queue, so nothing recurses."""
    order = list(range(4000))
    random.Random(1).shuffle(order)
    g = SimpleGraph(4000, zip(order, order[1:]))
    d = orientation_with_outdegree(g, 1)
    assert max(d.out_degrees()) == 1
    assert len(d.arcs) == len(g.edges)
    assert {(min(u, v), max(u, v)) for u, v in d.arcs} == set(g.edges)


@pytest.mark.parametrize("g,alpha", [
    (cycle_graph(5), 2),
    (petersen(), 4),
    (bipartite_graph(3, 3), 3),
    (complete_graph(6), 1),
    (path_graph(4), 2),
])
def test_independence_frozen_and_oracle(g, alpha):
    assert independence_number(g) == alpha == brute_independence(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_independence_matches_oracle_random(data):
    n = data.draw(st.integers(1, 8))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]), max_size=16))
    g = SimpleGraph(n, edges)
    assert independence_number(g) == brute_independence(g)


@pytest.mark.parametrize("g,k,value", [
    (cycle_graph(5), 0, 2),
    (cycle_graph(5), 1, 5),   # picking every edge around the cycle empties it
    (cycle_graph(4), 1, 4),
    (path_graph(3), 1, 3),
    (complete_graph(4), 1, 3),
])
def test_beta_frozen_and_oracle(g, k, value):
    assert beta(g, k) == value == brute_beta(g, k)


def test_beta_guards():
    with pytest.raises(ValueError):
        beta(cycle_graph(4), -1)
    with pytest.raises(ValueError):
        beta(SimpleGraph(3, [(0, 1)]), 1)      # isolated vertex
    with pytest.raises(ValueError, match="budget"):
        beta(petersen(), 2, budget=1000)


def test_spectrum_frozen_values():
    p = spectrum(cycle_graph(5))
    assert p.degree == 2
    assert abs(p.lam - 2 * math.cos(math.pi / 5)) < 1e-9
    pet = spectrum(petersen())
    assert pet.degree == 3 and abs(pet.lam - 2.0) < 1e-9
    rounded = sorted(round(x) for x in pet.eigenvalues)
    assert rounded == [-2] * 4 + [1] * 5 + [3]


def test_spectrum_bipartite_discards_both_extremes():
    p = spectrum(bipartite_graph(3, 3))
    assert p.degree == 3 and abs(p.lam) < 1e-8


def test_spectrum_disconnected_regular_keeps_second_copy():
    g = SimpleGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    p = spectrum(g)
    assert p.degree == 2 and abs(p.lam - 2.0) < 1e-8


def test_spectrum_irregular_has_no_profile():
    p = spectrum(path_graph(3))
    assert p.degree is None and p.lam is None


def brute_triangles(g: SimpleGraph) -> int:
    return sum(1 for a, b, c in itertools.combinations(range(g.order), 3)
               if (a, b) in g.edges and (b, c) in g.edges and (a, c) in g.edges)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_eigenvalue_traces_random(data):
    n = data.draw(st.integers(2, 7))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]), max_size=14))
    g = SimpleGraph(n, edges)
    eig = spectrum(g).eigenvalues
    assert abs(sum(eig)) < 1e-6
    assert abs(sum(x * x for x in eig) - 2 * len(g.edges)) < 1e-6
    assert abs(sum(x ** 3 for x in eig) - 6 * brute_triangles(g)) < 1e-6


def test_beta_bounds_bracket_true_values():
    for g, k in ((cycle_graph(5), 0), (cycle_graph(5), 1),
                 (petersen(), 0), (petersen(), 1)):
        p = spectrum(g)
        lo = beta_lower_bound(p.order, p.degree, p.degree, k)
        hi = beta_upper_bound(p, k)
        assert lo <= beta(g, k) <= hi


@pytest.mark.parametrize("g,bound,exact", [
    (petersen(), 1, 3),
    (cycle_graph(6), 1, 2),
    (complete_graph(5), 3, 4),
])
def test_connectivity_bound_frozen(g, bound, exact):
    from semicayley.graphs import vertex_connectivity
    assert connectivity_bound(spectrum(g)) == bound
    assert vertex_connectivity(g) == exact
    assert bound <= exact


def test_real_graph_certificates_small_graphs_never_fire():
    c = nonmonoid_certificate(petersen(), 1, 20)
    assert not c.certified and c.hypotheses["triangle-free"]
    assert c.lower is not None and c.lower <= c.upper
    c = nonmonoid_certificate(complete_graph(4), 1, 20)
    assert not c.certified and not c.hypotheses["triangle-free"]
    c = nonmonoid_certificate(path_graph(3), 0, 20)
    assert not c.certified and not c.hypotheses["regular"]


@pytest.mark.parametrize("d,k,fires", [
    (36, 1, True),
    (36, 2, False),
    (64, 3, True),
    (64, 4, True),
])
def test_synthetic_profile_certificates(d, k, fires):
    # lambda = 2 sqrt(d), the worst value the coarse sufficient test allows
    p = synthetic_profile(100, d, 2 * math.sqrt(d))
    cert = profile_certificate(p, k, ell=2 * d + 2 * k + 2)
    assert cert.certified is fires
    coarse = d - 4 * math.sqrt(d) - 6 * k - 2
    if coarse > 0:                     # the coarse test implies the exact one
        assert cert.certified
    if cert.certified:
        assert cert.lower > cert.upper
        assert isinstance(cert.lower, Fraction)


def test_certificate_requires_long_cycle():
    p = synthetic_profile(100, 36, 12.0)
    short = profile_certificate(p, 1, ell=2 * 36 + 2 * 1 + 1)
    assert not short.certified and not short.hypotheses["cycle-long-enough"]

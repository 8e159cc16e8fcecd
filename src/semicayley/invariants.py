"""Density, independence and spectral invariants used by the certificates.

The sparsity pair (arboricity, pseudoarboricity) bounds connection-set
sizes; beta(G, k) measures independence after deleting the images of k
incidence maps; the spectral profile feeds the expander-mixing style upper
and lower bounds whose gap certifies that no monoid representation joining
G to a long cycle can exist.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional

from .graphs import Digraph, FrozenValue, SimpleGraph, _masks

if TYPE_CHECKING:
    # imported where a bound is computed: ``fractions`` loads ``decimal``
    # and ``numbers``, which a process that computes no bound skips
    from fractions import Fraction

__all__ = [
    "arboricity",
    "pseudoarboricity",
    "orientation_with_outdegree",
    "OrientationInfeasible",
    "independence_number",
    "beta",
    "SpectralProfile",
    "spectrum",
    "beta_upper_bound",
    "beta_lower_bound",
    "connectivity_bound",
    "NonmonoidCertificate",
    "nonmonoid_certificate",
]

_EIG_TOL = 1e-8
_BETA_BUDGET = 10_000_000
_SUBSET_CAP = 20
_MIS_CAP = 40


def arboricity(g: SimpleGraph) -> int:
    """Nash-Williams density max ceil(|E(G[S])| / (|S|-1)), |S| >= 2;
    exhaustive over subsets."""
    n = g.order
    if n > _SUBSET_CAP:
        raise ValueError(f"exhaustive subset scan capped at order {_SUBSET_CAP}")
    adj = _masks(g)[0]
    best = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < 2:
            continue
        edges = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            edges += (adj[v] & m).bit_count()
        best = max(best, -(-edges // (size - 1)))
    return best


class OrientationInfeasible(ValueError):
    """No orientation with the requested max outdegree; carries a violating
    vertex subset S with |E(G[S])| > k * |S|."""

    def __init__(self, k: int, subset: tuple, edge_count: int):
        super().__init__(
            f"subset of {len(subset)} vertices spans {edge_count} > "
            f"{k}*{len(subset)} edges")
        self.k = k
        self.subset = subset
        self.edge_count = edge_count


def orientation_with_outdegree(g: SimpleGraph, k: int) -> Digraph:
    """Orient each edge so every outdegree is <= k, or raise
    OrientationInfeasible with a density certificate.

    First pass: each edge, in sorted order, leaves its first endpoint if
    that has room (fewer than k out-arcs), else its second if that has
    room.  Second pass: each edge left over runs one BFS from its two
    endpoints along the arcs so far, heads ascending, reverses the path to
    the first vertex with room and leaves the path's start.  If none is
    reached, the reached set S, all full and with no arc leaving it, spans
    the k * |S| arcs and this edge.  Cost: one pass over the sorted edges
    and one O(n + m) BFS per edge left over; tested to order 4,000."""
    n = g.order
    out = [[] for _ in range(n)]
    left = []
    for u, v in sorted(g.edges):
        if len(out[u]) < k:
            out[u].append(v)
        elif len(out[v]) < k:
            out[v].append(u)
        else:
            left.append((u, v))
    for u, v in left:
        parent = {u: -1, v: -1}
        queue = [u, v]
        for x in queue:
            if len(out[x]) < k:
                break
            for w in sorted(out[x]):
                if w not in parent:
                    parent[w] = x
                    queue.append(w)
        else:
            count = sum(1 for a, b in g.edges if a in parent and b in parent)
            raise OrientationInfeasible(k, tuple(sorted(parent)), count)
        while parent[x] >= 0:
            p = parent[x]
            out[p].remove(x)
            out[x].append(p)
            x = p
        out[x].append(v if x == u else u)
    return Digraph(n, [(x, w) for x in range(n) for w in out[x]])


def pseudoarboricity(g: SimpleGraph) -> int:
    """Smallest max outdegree over all orientations (0 for edgeless).
    Cost: one ``orientation_with_outdegree`` per k from max(1, ceil(m / n))
    up to the answer; tested to order 4,000."""
    if not g.edges:
        return 0
    k = max(1, -(-len(g.edges) // g.order))
    while True:
        try:
            orientation_with_outdegree(g, k)
            return k
        except OrientationInfeasible:
            k += 1


def independence_number(g: SimpleGraph) -> int:
    """Exact maximum independent set size by branch and bound."""
    n = g.order
    if n > _MIS_CAP:
        raise ValueError(f"independence_number capped at order {_MIS_CAP}")
    return _mis_masked(_masks(g)[0], (1 << n) - 1)


def _mis_masked(adj: list, mask: int) -> int:
    """Max independent set within mask, over bitmask adjacency rows."""
    best = 0

    def bnb(m: int, size: int) -> None:
        nonlocal best
        while m:
            if size + m.bit_count() <= best:
                return
            # pick a highest-degree vertex within m
            v, vdeg = -1, -1
            mm = m
            while mm:
                w = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                d = (adj[w] & m).bit_count()
                if d > vdeg:
                    v, vdeg = w, d
            if vdeg <= 1:
                # remaining graph is a matching plus isolated vertices
                total = size
                mm = m
                while mm:
                    w = (mm & -mm).bit_length() - 1
                    mm &= mm - 1
                    mm &= ~adj[w]
                    total += 1
                best = max(best, total)
                return
            bnb(m & ~(1 << v) & ~adj[v], size + 1)
            m &= ~(1 << v)
        best = max(best, size)

    bnb(mask, 0)
    return best


def beta(g: SimpleGraph, k: int) -> int:
    """max over k incidence maps f_i: V -> E (v in f_i(v)) of the
    independence number of (V, E minus the union of the images).

    For k >= 1 that is the largest |S| for which G[S] orients with every
    outdegree <= k: an independent set I of the reduced graph orients each
    edge of G[I] away from a vertex whose map took it, and such an
    orientation hands every vertex of I its out-edges as images.  Sizes are
    tried upward, and the scan stops at the first size with no orientable
    subset, since orientability passes to subsets.  Raises ValueError once
    more than ``_BETA_BUDGET`` subsets have been examined; order 20 has
    2^20.  At order 20 and k <= 3 one call took at most 1.4 s (2-core Xeon,
    CPython 3.11).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return independence_number(g)
    if any(d == 0 for d in g.degrees()):
        raise ValueError("beta with k >= 1 needs minimum degree >= 1")
    n = g.order
    adj = _masks(g)[0]
    examined = 0
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            examined += 1
            if examined > _BETA_BUDGET:
                raise ValueError(
                    f"beta examined {_BETA_BUDGET} subsets without an answer")
            mask = sum([1 << v for v in sub])
            # each edge of G[S] counted from both ends
            if sum([(adj[v] & mask).bit_count() for v in sub]) > 2 * k * size:
                continue
            index = {v: i for i, v in enumerate(sub)}
            try:
                orientation_with_outdegree(SimpleGraph(size, [
                    (index[u], index[v]) for u, v in g.edges
                    if u in index and v in index]), k)
            except OrientationInfeasible:
                continue
            break
        else:
            return size - 1
    return n


# ---------------------------------------------------------------------------
# spectra and the (n, d, lambda) bounds

class SpectralProfile(FrozenValue):
    """Adjacency spectrum with the (n, d, lambda) reading when regular.

    ``lam`` is the largest absolute eigenvalue after discarding one copy of
    d and one copy of -d (so disconnected or bipartite regular graphs are
    classified soundly); None when the graph is not regular.
    """

    order: int
    eigenvalues: tuple
    degree: Optional[int]
    lam: Optional[float]

    def __init__(self, order: int, eigenvalues: tuple,
                 degree: Optional[int] = None, lam: Optional[float] = None):
        self.__dict__.update(order=order, eigenvalues=eigenvalues,
                             degree=degree, lam=lam)


def spectrum(g: SimpleGraph) -> SpectralProfile:
    import numpy as np

    a = np.zeros((g.order, g.order))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    eig = sorted(np.linalg.eigvalsh(a), reverse=True)
    degs = g.degrees()
    d = degs[0] if degs and all(x == degs[0] for x in degs) else None
    lam = None
    if d is not None:
        rest = list(eig)
        for target in (float(d), float(-d)):
            for i, x in enumerate(rest):
                if abs(x - target) <= _EIG_TOL:
                    rest.pop(i)
                    break
        lam = max((abs(x) for x in rest), default=0.0)
    return SpectralProfile(g.order, tuple(eig), d, lam)


def synthetic_profile(order: int, degree: int, lam: float) -> SpectralProfile:
    """Profile with prescribed (n, d, lambda); eigenvalues left empty.
    Used to evaluate the bound arithmetic away from a concrete graph."""
    return SpectralProfile(order, (), degree, lam)


def _lam_rational(lam: float) -> Fraction:
    """Round lambda up at 1e-8 granularity so bounds stay conservative."""
    from fractions import Fraction

    return Fraction(math.ceil(lam * 10**8), 10**8)


def beta_upper_bound(p: SpectralProfile, k: int) -> Fraction:
    """(n/d)(lambda + 2k); requires a regular profile."""
    if p.degree is None or p.lam is None:
        raise ValueError("upper bound needs a regular profile")
    if p.degree == 0:
        raise ValueError("upper bound needs degree >= 1")
    return (_lam_rational(p.lam) + 2 * k) * p.order / p.degree


def beta_lower_bound(order: int, min_degree: int, max_degree: int,
                     k: int) -> Fraction:
    """(n/(max_degree-1)) * (min_degree/2 - k - 1); hypotheses include a
    triangle-free join target, checked by the certificate builder."""
    from fractions import Fraction

    if max_degree < 2:
        raise ValueError("lower bound needs max degree >= 2")
    return (Fraction(order, max_degree - 1)
            * (Fraction(min_degree, 2) - k - 1))


def connectivity_bound(p: SpectralProfile) -> int:
    """Largest k with k < (d - lambda)^2 / d + 1 (and k >= 0)."""
    if p.degree is None or p.lam is None:
        raise ValueError("connectivity bound needs a regular profile")
    if p.degree == 0:
        return 0
    lam = _lam_rational(p.lam)
    bound = (p.degree - lam) ** 2 / p.degree + 1
    k = math.ceil(bound) - 1     # largest integer strictly below bound
    return max(k, 0)


def _has_triangle(g: SimpleGraph) -> bool:
    adj = _masks(g)[0]
    return any(adj[u] & adj[v] for u, v in g.edges)


class NonmonoidCertificate(FrozenValue):
    """Outcome of confronting the beta bounds for a joined representation.

    ``certified`` holds only when every hypothesis holds and the lower
    bound strictly exceeds the upper bound, which rules out any monoid
    whose underlying Cayley graph is g and a cycle of length ell joined by
    k edges.
    """

    certified: bool
    hypotheses: dict
    lower: Optional[Fraction]
    upper: Optional[Fraction]

    def __init__(self, certified: bool, hypotheses: dict,
                 lower: Optional[Fraction], upper: Optional[Fraction]):
        self.__dict__.update(certified=certified, hypotheses=hypotheses,
                             lower=lower, upper=upper)


def nonmonoid_certificate(g: SimpleGraph, k: int, ell: int) -> NonmonoidCertificate:
    """Certify that g joined to an ell-cycle by k edges is never an
    underlying monoid Cayley graph, via the beta bound gap."""
    return profile_certificate(spectrum(g), k, ell, not _has_triangle(g))


def profile_certificate(p: SpectralProfile, k: int, ell: int,
                        triangle_free: bool = True) -> NonmonoidCertificate:
    """Bound-gap arithmetic on an (n, d, lambda) profile, synthetic or the
    spectrum of a graph."""
    hypotheses = {
        "regular": p.degree is not None,
        "triangle-free": triangle_free,
        "k-nonnegative": k >= 0,
        "degree-at-least-2": (p.degree or 0) >= 2,
        "cycle-long-enough": (
            p.degree is not None and ell > 2 * p.degree + 2 * k + 1),
    }
    lower = upper = None
    if p.degree is not None and p.degree >= 2 and p.lam is not None:
        lower = beta_lower_bound(p.order, p.degree, p.degree, k)
        upper = beta_upper_bound(p, k)
    certified = (all(hypotheses.values()) and lower is not None
                 and lower > upper)
    return NonmonoidCertificate(certified, hypotheses, lower, upper)

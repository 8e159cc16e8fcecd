"""Generated monoid trees: when is a tree the underlying graph of a
Cayley digraph whose connection set generates the monoid?

A rooted analysis fixes an identity candidate e and, in one BFS from e
and one pass back over it, records distances, successor counts b_e
(neighbors one step deeper), children ordered by subtree size, and
branches (the subtrees hanging at e's neighbors).  A monotonicity
condition on b_e is sufficient: deeper vertices never have more
successors than shallower ones.  The witness monoid is then the quotient
of the free word monoid over e's neighbors by "words walking to the same
vertex", realized directly on the vertex set by walking canonical words.

Two necessary conditions prune negatives.  The first compares every
vertex against the previous depth level.  The second compares against
branches and is only valid when no nontrivial left-multiplication is a
tree automorphism; surviving symmetries are so constrained (a single
involution exchanging e with a neighbor) that it suffices to withhold
the second condition when some neighbor c of e spans a subtree
isomorphic to e's own side of the split at the edge {e, c}.

The classifier restricts identity candidates to degrees within one of
the maximum degree, which is exact for generated monoid trees, and
returns a three-valued verdict; undecided instances can be escalated to
the exhaustive table search with a generation check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .algebra import MulTable
from .graphs import FrozenValue, SimpleGraph, weak_components
from .outcome import Budget
from .witness import CayleyWitness, WitnessCheckError, certify

YES = "yes"
NO = "no"
UNDECIDED = "undecided"


class RootedTreeAnalysis(FrozenValue):
    """A tree rooted at an identity candidate, with the derived fields
    the tree conditions quantify over."""

    tree: SimpleGraph
    root: int
    depth: Tuple[int, ...]
    # succ_count[v] = len(children[v])
    succ_count: Tuple[int, ...]
    # branch[v] = the neighbor of the root whose subtree contains v;
    # branch[root] = root
    branch: Tuple[int, ...]
    parent: Tuple[int, ...]
    # children[v] by subtree size descending, then id
    children: Tuple[Tuple[int, ...], ...]
    # every vertex in BFS order from the root, so depths never decrease
    bfs: Tuple[int, ...]

    def __init__(self, tree: SimpleGraph, root: int, depth: Tuple[int, ...],
                 succ_count: Tuple[int, ...], branch: Tuple[int, ...],
                 parent: Tuple[int, ...],
                 children: Tuple[Tuple[int, ...], ...],
                 bfs: Tuple[int, ...]):
        self.__dict__.update(tree=tree, root=root, depth=depth,
                             succ_count=succ_count, branch=branch,
                             parent=parent, children=children, bfs=bfs)


class TreeVerdict(FrozenValue):
    status: str
    witness: Optional[CayleyWitness]
    candidates: Tuple[int, ...]
    # per-candidate detail: ("sufficient",) | ("part1", x) | ("part2", x, c)
    # | ("open",)
    details: Dict[int, tuple]

    def __init__(self, status: str, witness: Optional[CayleyWitness],
                 candidates: Tuple[int, ...], details: Dict[int, tuple]):
        self.__dict__.update(status=status, witness=witness,
                             candidates=candidates, details=details)


def _check_tree(t: SimpleGraph) -> List[set]:
    if len(t.edges) != t.order - 1 or weak_components(t).count != 1:
        raise ValueError("input graph is not a tree")
    return t.neighbors()


def analyze(t: SimpleGraph, e: int) -> RootedTreeAnalysis:
    """Root the tree at candidate ``e`` and compute depth, successor
    count, children and branch membership for every vertex."""
    adj = _check_tree(t)
    if not 0 <= e < t.order:
        raise ValueError(f"root {e} out of range")
    return _rooted(t, adj, e)


def _rooted(t: SimpleGraph, adj: List[set], e: int) -> RootedTreeAnalysis:
    """``analyze`` on a checked tree ``t`` with neighbor sets ``adj``."""
    n = t.order
    depth = [-1] * n
    parent = [-1] * n
    branch = [-1] * n
    depth[e] = 0
    parent[e] = e
    branch[e] = e
    bfs = [e]
    for v in bfs:
        for u in adj[v]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                parent[u] = v
                branch[u] = u if v == e else branch[v]
                bfs.append(u)
    size = [1] * n
    kids: List[List[int]] = [[] for _ in range(n)]
    for v in reversed(bfs[1:]):  # every child before its parent
        size[parent[v]] += size[v]
        kids[parent[v]].append(v)
    children = tuple(tuple(sorted(k, key=lambda u: (-size[u], u))) for k in kids)
    return RootedTreeAnalysis(
        tree=t,
        root=e,
        depth=tuple(depth),
        succ_count=tuple(map(len, children)),
        branch=tuple(branch),
        parent=tuple(parent),
        children=children,
        bfs=tuple(bfs),
    )


def sufficient_check(a: RootedTreeAnalysis) -> bool:
    """Strictly deeper vertices never have more successors."""
    b = a.succ_count
    # least b over the levels shallower than v's, and over all vertices so
    # far; a tree's successor counts stay below its order
    lim = seen = a.tree.order
    level = 0
    for v in a.bfs:
        if a.depth[v] != level:
            level, lim = a.depth[v], seen
        if b[v] > lim:
            return False
        seen = min(seen, b[v])
    return True


def construct_generated_witness(a: RootedTreeAnalysis) -> CayleyWitness:
    """Build the word-quotient monoid on the vertex set.

    Letters are the root's children in canonical order.  A vertex walks
    letter i to its i-th child, clamped to the last child when i exceeds
    its successor count; leaves absorb every letter.  The product u*v
    walks u along v's canonical root-to-v word.  Requires the sufficient
    condition, which makes the walk independent of representatives.

    v's word is its parent p's word plus v's index i among p's children,
    so u*v is one step from u*p: each row is filled from e in BFS order
    with one lookup per cell.
    """
    if not sufficient_check(a):
        raise ValueError("sufficient condition does not hold at this root")
    t, e = a.tree, a.root
    n = t.order
    children = a.children

    def step(v: int, i: int) -> int:
        ch = children[v]
        if not ch:
            return v
        return ch[min(i, len(ch) - 1)]

    letters = range(max(map(len, children)))
    move = [[step(x, i) for i in letters] for x in range(n)]
    # (v, parent, index of v among the parent's children), parents first
    links = [(v, p, i) for p in a.bfs for i, v in enumerate(children[p])]
    rows = []
    for u in range(n):
        row = [0] * n
        row[e] = u
        for v, p, i in links:
            row[v] = move[row[p]][i]
        rows.append(tuple(row))
    # the sufficient condition is what makes this associative; certify
    # checks that with the rest of the witness
    table = MulTable(n, tuple(rows), identity=e)
    return certify("generated-monoid-tree", t, table, children[e])


def necessary_check(a: RootedTreeAnalysis, symmetry_free: bool):
    """Both necessary conditions at this root; None on pass, else a
    certificate tuple naming the first failing vertex.

    Part 1: every non-root vertex is matched by some vertex one level
    shallower with at least as many successors.  Part 2 (only when
    ``symmetry_free``): every branch contains, for every vertex x, a
    vertex not much deeper than x with few enough successors; the slack
    is zero for x in C or the root.
    """
    t, e = a.tree, a.root
    n = t.order
    depth, b = a.depth, a.succ_count
    for x in range(n):
        if x == e:
            continue
        dx = depth[x]
        if not any(depth[y] == dx - 1 and b[x] <= b[y] for y in range(n)):
            return ("part1", x)
    if symmetry_free:
        conn = sorted(u for u in range(n) if a.parent[u] == e and u != e)
        cset = frozenset(conn)
        for x in range(n):
            eps = 0 if (x == e or x in cset) else 1
            for c in conn:
                if not any(
                    a.branch[y] == c
                    and depth[y] <= depth[x] + 1
                    and b[y] <= b[x] + eps
                    for y in range(n)
                    if y != e
                ):
                    return ("part2", x, c)
    return None


def neutral_candidates(t: SimpleGraph) -> List[int]:
    """Identity candidates: degree within one of the maximum degree."""
    return _candidates(t)[0]


def _candidates(t: SimpleGraph) -> Tuple[List[int], List[set]]:
    """``neutral_candidates`` and the neighbor sets of the checked tree."""
    adj = _check_tree(t)
    dmax = max(map(len, adj))
    return [v for v in range(t.order) if len(adj[v]) >= dmax - 1], adj


def symmetry_condition(a: RootedTreeAnalysis) -> bool:
    """Could a nontrivial left-multiplication be a tree automorphism?

    Surviving symmetries fix an involution exchanging e with a single
    neighbor c, which forces the two sides of the edge {e, c} to be
    isomorphic as rooted trees.  Returns True when some neighbor allows
    this, in which case the second necessary condition is withheld.

    Each subtree gets a bottom-up code, equal for isomorphic rooted
    subtrees (Aho, Hopcroft and Ullman): c's side is coded by c, and e's
    side by e's child codes with one copy of c's code taken out.
    """
    ids: Dict[tuple, int] = {}
    codes = [0] * a.tree.order
    for v in reversed(a.bfs):
        kids = tuple(sorted(codes[u] for u in a.children[v]))
        codes[v] = ids.setdefault(kids, len(ids))
    root_kids = sorted(codes[c] for c in a.children[a.root])
    for code in set(root_kids):
        rest = list(root_kids)
        rest.remove(code)
        if ids.get(tuple(rest)) == code:
            return True
    return False


def classify_tree(
    t: SimpleGraph,
    *,
    escalate: bool = False,
    budget: Optional[Budget] = None,
) -> TreeVerdict:
    """Three-valued classification of a tree as a generated monoid graph.

    Yes when the sufficient condition holds at some admissible root (a
    witness is built); No when every admissible root fails a necessary
    condition that applies to it; Undecided otherwise.  With
    ``escalate`` the undecided case falls through to the exhaustive
    table search with the generation requirement.
    """
    cands, adj = _candidates(t)
    details: Dict[int, tuple] = {}
    analyses = []
    for e in cands:
        a = _rooted(t, adj, e)
        if sufficient_check(a):
            w = construct_generated_witness(a)
            sf = not symmetry_condition(a)
            if necessary_check(a, sf) is not None:
                raise WitnessCheckError(
                    "sufficient condition held but a necessary one failed")
            details[e] = ("sufficient",)
            return TreeVerdict(YES, w, tuple(cands), details)
        analyses.append(a)
    open_count = 0
    for e, a in zip(cands, analyses):
        fail = necessary_check(a, not symmetry_condition(a))
        if fail is None:
            details[e] = ("open",)
            open_count += 1
        else:
            details[e] = fail
    if open_count == 0:
        return TreeVerdict(NO, None, tuple(cands), details)
    if escalate:
        from .recognize import recognize_monoid_graph

        out = recognize_monoid_graph(t, budget, require_generated=True)
        if out.is_witness:
            w = certify("generated-monoid-tree", t, out.witness.table,
                        out.witness.connection)
            return TreeVerdict(YES, w, tuple(cands), details)
        if out.is_no:
            return TreeVerdict(NO, None, tuple(cands), details)
    return TreeVerdict(UNDECIDED, None, tuple(cands), details)

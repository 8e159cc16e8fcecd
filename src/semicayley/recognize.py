"""Exhaustive searches answering: is this graph a Cayley graph?

Three recognizers share one constraint solver over partial multiplication
tables: directed monoid (identity fixed, connection set equal to the
out-neighborhood of the identity), directed semigroup (no identity,
connection sets enumerated by size), and undirected monoid (connection
set equal to the neighborhood of the identity, each edge realized by an
arc in at least one direction).  A fourth search selects endomorphisms
instead of table cells and is used to cross-validate the table search on
small digraphs.

Every pruning rule is a necessary condition for a valid table, so an
exhausted search certifies a negative answer:

* the identity's out-neighborhood (neighborhood, undirected) determines
  the connection set exactly;
* a looped identity of a digraph needs a loop at every vertex, since
  x*e = x is then a connection cell;
* a 1-outregular semigroup digraph always admits a singleton connection
  set, so larger sets need not be searched in that case;
* rows of a Cayley table are endomorphisms of the represented digraph;
* strongly connected directed carriers force injective rows;
* deep in a search, every open connection cell must keep some value that
  the other rules accept (the probe of ``_TableSolver``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import MulTable
from .graphs import (
    Digraph,
    Graph,
    SimpleGraph,
    Value,
    _masks,
    canonical_form,
    enumerate_graphs,
    is_strongly_connected,
)
from .outcome import (
    CENSUS_MAX_NODES,
    CENSUS_MAX_SECONDS,
    CENSUS_MODES,
    Budget,
    BudgetExceededError,
    SearchOutcome,
    budget_outcome,
    no_outcome,
    witness_outcome,
)
from .witness import certify, generated_submonoid


# A search forks workers once it has counted this many nodes at a piece
# boundary; the largest search of the order-6 census counts 9,173.
FORK_AFTER = 1 << 16
# A candidate's pieces are the subtrees under its first SPLIT branching cells.
SPLIT = 2
# A piece's walk probes the open connection cells (see ``_TableSolver``)
# once it has counted PROBE_AFTER nodes, on connection sets of at most
# PROBE_MAX_CONNECTION elements.  Probing from the first node takes the
# order-6 census from 70,391 to 87,545 nodes (0.25 to 0.35 s serial);
# without the bound, the order-7 census under 2,000,000 nodes a class
# takes 85 s instead of about 35 to 40 s (2 cores, Python 3.11.7).  With
# both, K4 + C5 takes 696,357 nodes instead of 1,272,392, and the order-6
# census keeps its count.
PROBE_AFTER = 4096
PROBE_MAX_CONNECTION = 3


class _GraphTables:
    """What the table search asks of one graph, built once for all of its
    (identity, connection set) candidates.

    ``sets`` are the out-neighborhoods of a digraph (``directed``) or the
    neighborhoods of a graph.  ``ok`` is a boolean matrix: arc x -> y for
    a directed carrier; y adjacent to or equal to x for an undirected one.
    ``conn_vals[x]`` are the sorted values a connection cell of row x may
    take.  Undirected, the edges get dense ids: ``nbr_e[x]`` pairs each
    neighbor y of x with the id of {x, y}, and ``eid[x][y]`` is that id
    (-1 off the edges).
    """

    def __init__(self, sets: Sequence[frozenset], directed: bool):
        self.n = n = len(sets)
        self.directed = directed
        self.ok = ok = [[False] * n for _ in range(n)]
        self.out_nbrs = out_nbrs = [sorted(s) for s in sets]
        if directed:
            # directed carrier: row x must cover N+(x) exactly
            self.in_nbrs: List[List[int]] = [[] for _ in range(n)]
            for x in range(n):
                for y in out_nbrs[x]:
                    ok[x][y] = True
                    self.in_nbrs[y].append(x)
            self.conn_vals = out_nbrs
        else:
            # undirected carrier: each edge needs an arc in some direction
            self.nbr_e: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
            self.eid = [[-1] * n for _ in range(n)]
            edges = 0
            for x in range(n):
                ok[x][x] = True
                for y in out_nbrs[x]:
                    ok[x][y] = True
                    if x < y:
                        self.eid[x][y] = self.eid[y][x] = edges
                        self.nbr_e[x].append((y, edges))
                        self.nbr_e[y].append((x, edges))
                        edges += 1
            self.edges = edges
            self.conn_vals = [sorted(sets[x] | {x}) for x in range(n)]


class _TableSolver:
    """Backtracking search for an associative table realizing a graph.

    ``graph`` holds the graph's ``_GraphTables``; the solver allocates
    only the state of one (identity, connection set) candidate.  Cells
    are assigned in a fixed static order, connection columns first.  Each
    assignment propagates every associativity triple it completes, via
    occurrence lists keyed by cell value (``occ``) and lists of the
    assigned cells of each row and column (``row_cols``, ``col_rows``),
    and keeps coverage counters whose infeasibility prunes the branch.
    A complete table is returned only if ``leaf_check(table, connection)``,
    when given, accepts it; otherwise the search resumes.

    Coverage is counted per row: ``remaining[x]`` is the number of open
    connection cells of row x.  Directed, row x must still cover its
    ``uncovered[x]`` out-neighbors, so it needs that many open cells.
    Undirected, ``ecov`` counts for each edge the arcs that cover it, and
    an edge {x, y} can still be covered exactly when ``remaining[x] +
    remaining[y] > 0``.  So the "dead" test of a connection cell in row a
    runs only when it is the last open one (``remaining[a] == 1``), and
    looks only at the uncovered edges to neighbors y with ``remaining[y]
    == 0``.  Committing or undoing a cell a*b = v changes ``remaining[a]``
    and, when v is a neighbor of a, ``ecov`` of the one edge
    ``eid[a][v]``.

    ``prefill_identity`` assigns the identity's row and column through the
    kernel, so each of them still passes every rule.  Those 2n - 1 cells
    are all it commits: a triple it completes holds e in the middle, where
    both sides are one cell, or at both ends, where the cell it forces is
    again an identity cell.  Once they pass, the identity's cells stay in
    the table, in ``row_used`` and in the counters, but leave ``occ``,
    ``row_cols``, ``col_rows`` and the trail; nothing undoes below them.
    This changes no node count: with the identity's row and column
    complete, every triple that holds e is satisfied by them, and such a
    triple met through an identity cell in a list has all four cells
    assigned and equal sides, so it could neither reject a value nor force
    a cell.

    ``assign_propagate`` checks each cell before it commits it.  The
    checks are reads: value domain, endomorphism row (in-arcs and a loop
    at b too when directed), row injectivity, the coverage "dead" test and
    the four associativity roles of the cell.  Their only write is the
    tentative table entry, reset when a rule rejects the cell.  A cell that
    passes is committed to ``occ``, ``row_cols``, ``col_rows``, ``trail``,
    ``row_used`` and the counters, and the cells it forces are queued.  So
    a rejection leaves every committed cell of the call on the trail and
    nothing else, and ``undo_to(mark)`` restores the state from before the
    call exactly; a value rejected at its first cell leaves the trail at
    its mark, with nothing to undo.  Every rule is monotone, so
    propagation reaches the same closure, or fails, whatever order it
    meets the triples in: whether a value passes depends only on the set
    of assignments, and the order of these lists changes no node count.

    ``walk``, behind ``search`` and ``_answers``, is a loop over an
    explicit stack with one frame per branching cell: the cell's index in
    the order, an iterator over its untried candidate values, and the
    trail length to undo to before the next one.  It visits the nodes a
    recursive depth-first search would, in the same order, without a depth
    limit.  It counts nodes locally and calls ``budget.tick`` only at the
    nodes where the budget can stop it.

    A node is one value tried at a cell: a branching value, or a probe
    value.  A piece's walk (``split < 0``) probes once it has counted
    ``PROBE_AFTER`` nodes, if the connection set has at most
    ``PROBE_MAX_CONNECTION`` elements.  From then on a branching value
    that passes must leave each open connection cell (x, c), in the static
    order, some value of ``conn_vals[x]`` that ``assign_propagate``
    accepts; each such trial is undone at once, and a cell with none
    rejects the branching value.  This is singleton consistency on the
    connection cells (Debruyne and Bessiere, IJCAI 1997).  It is sound:
    every rule of the kernel is a necessary condition, and the values tried
    are all those the walk would branch over at that cell, so a cell with
    none has no completion.  Whether a node passes still depends only on
    the set of assignments.  A probe value counts as one node and ticks
    the budget as a branching value does, so ``nodes`` and a node limit
    still bound the work.

    The trigger counts from the start of the walk, so a probing search's
    count depends on how the candidate is split into pieces: ``search``
    from a candidate's root counts differently from ``_search_tables``.
    Serial and forked searches count alike, because a piece's walk starts
    its count at 0 both in process and in a worker (``_explore``), and
    neither the lead walk (``split >= 0``) nor a worker's path replay
    probes.
    """

    def __init__(
        self,
        graph: _GraphTables,
        connection: Iterable[int],
        budget: Budget,
        *,
        identity: Optional[int] = None,
        injective_rows: bool = False,
        leaf_check=None,
    ):
        self.graph = graph
        self.n = n = graph.n
        self.directed = graph.directed
        self.conn = tuple(sorted(connection))
        self.budget = budget
        self.identity = identity
        self.leaf_check = leaf_check
        self.table = [[-1] * n for _ in range(n)]
        self.occ: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        # row_cols[x]: the assigned columns of row x; col_rows[y]: the
        # rows with column y assigned; both in the order of the trail
        self.row_cols: List[List[int]] = [[] for _ in range(n)]
        self.col_rows: List[List[int]] = [[] for _ in range(n)]
        self.trail: List[Tuple[int, int]] = []
        # row_used[a][v]: v occurs in row a; kept only for injective rows
        self.row_used = [[False] * n for _ in range(n)] if injective_rows else None
        self.is_conn = [False] * n
        for c in self.conn:
            self.is_conn[c] = True
        self.remaining = [len(self.conn)] * n
        if self.directed:
            self.uncovered = [len(s) for s in graph.out_nbrs]
            self.cover_count = [[0] * n for _ in range(n)]
        else:
            self.ecov = [0] * graph.edges
        free = [b for b in range(n) if not self.is_conn[b]]
        self.conn_cells = [(x, c) for x in range(n) for c in self.conn]
        rest = [(a, b) for a in range(n) for b in free]
        self.order = self.conn_cells + rest
        self.assign_propagate, self.undo_to = self._kernels()

    # -- assignment / undo ------------------------------------------------

    def _kernels(self):
        """Bind the hot state once and return (assign_propagate, undo_to)."""
        graph = self.graph
        T = self.table
        occ = self.occ
        row_cols = self.row_cols
        col_rows = self.col_rows
        trail = self.trail
        is_conn = self.is_conn
        ok = graph.ok
        out_nbrs = graph.out_nbrs
        row_used = self.row_used
        injective = row_used is not None
        remaining = self.remaining
        queue: List[Tuple[int, int, int]] = []
        push = queue.append
        pop = queue.pop
        directed = self.directed
        if directed:
            in_nbrs = graph.in_nbrs
            uncovered = self.uncovered
            cover_count = self.cover_count
        else:
            nbr_e = graph.nbr_e
            eid = graph.eid
            ecov = self.ecov

        def assign_propagate(a: int, b: int, v: int) -> bool:
            """Assign the open cell (a, b) := v and drain all forced consequences.

            Forced cells are queued and popped last in, first out.  On
            False the caller undoes to its trail mark if the trail grew.
            """
            if queue:
                queue.clear()  # left by a rejected call
            while True:
                Ta = T[a]
                cur = Ta[b]
                if cur >= 0:
                    if cur != v:
                        return False
                    if not queue:
                        return True
                    a, b, v = pop()
                    continue
                conn = is_conn[b]
                if conn and not ok[a][v]:
                    return False
                if injective and row_used[a][v]:
                    return False
                # left translation by a must be an endomorphism: arcs at b
                ok_v = ok[v]
                for y in out_nbrs[b]:
                    z = Ta[y]
                    if z >= 0 and not ok_v[z]:
                        return False
                if directed:
                    # a loop at b, which the loop above meets still open
                    if ok[b][b] and not ok_v[v]:
                        return False
                    for y in in_nbrs[b]:
                        z = Ta[y]
                        if z >= 0 and not ok[z][v]:
                            return False
                if conn:
                    # dead: with this cell, some arc at a (edge, undirected)
                    # could no longer be covered
                    if directed:
                        if (uncovered[a] - (cover_count[a][v] == 0)
                                > remaining[a] - 1):
                            return False
                    elif remaining[a] == 1:
                        for y, e in nbr_e[a]:
                            if not remaining[y] and not ecov[e] and v != y:
                                return False
                # associativity: four roles of the tentative cell
                Ta[b] = v
                Tb = T[b]
                Tv = T[v]
                cols = row_cols[b]
                if a == b:
                    # the triple (a, a, a) of the tentative cell itself;
                    # row a in the second loop would only repeat it
                    cols = cols + [b]
                for c in cols:
                    w = Tb[c]
                    lhs = Tv[c]
                    rhs = Ta[w]
                    if lhs >= 0:
                        if rhs >= 0:
                            if lhs != rhs:
                                Ta[b] = -1
                                return False
                        else:
                            push((a, w, lhs))
                    elif rhs >= 0:
                        push((v, c, rhs))
                for c in col_rows[a]:
                    Tc = T[c]
                    w = Tc[a]
                    lhs = T[w][b]
                    rhs = Tc[v]
                    if lhs >= 0:
                        if rhs >= 0:
                            if lhs != rhs:
                                Ta[b] = -1
                                return False
                        else:
                            push((c, v, lhs))
                    elif rhs >= 0:
                        push((w, b, rhs))
                # the cell is not in occ yet, so neither occ loop meets it
                for x, y in occ[a]:
                    w = T[y][b]
                    if w >= 0:
                        z = T[x][w]
                        if z >= 0:
                            if z != v:
                                Ta[b] = -1
                                return False
                        else:
                            push((x, w, v))
                for y, z in occ[b]:
                    w = Ta[y]
                    if w >= 0:
                        u = T[w][z]
                        if u >= 0:
                            if u != v:
                                Ta[b] = -1
                                return False
                        else:
                            push((w, z, v))
                # commit
                occ[v].append((a, b))
                row_cols[a].append(b)
                col_rows[b].append(a)
                trail.append((a, b))
                if injective:
                    row_used[a][v] = True
                if conn:
                    remaining[a] -= 1
                    if directed:
                        cc = cover_count[a]
                        if not cc[v]:
                            uncovered[a] -= 1
                        cc[v] += 1
                    elif v != a:
                        ecov[eid[a][v]] += 1
                if not queue:
                    return True
                a, b, v = pop()

        def undo_to(mark: int) -> None:
            for _ in range(len(trail) - mark):
                a, b = trail.pop()
                Ta = T[a]
                v = Ta[b]
                Ta[b] = -1
                occ[v].pop()
                row_cols[a].pop()
                col_rows[b].pop()
                if injective:
                    row_used[a][v] = False
                if is_conn[b]:
                    remaining[a] += 1
                    if directed:
                        cc = cover_count[a]
                        cc[v] -= 1
                        if not cc[v]:
                            uncovered[a] += 1
                    elif v != a:
                        ecov[eid[a][v]] -= 1

        return assign_propagate, undo_to

    # -- search -----------------------------------------------------------

    def prefill_identity(self) -> bool:
        e = self.identity
        if e is None:
            return True
        for x in range(self.n):
            if self.table[e][x] < 0 and not self.assign_propagate(e, x, x):
                return False
            if self.table[x][e] < 0 and not self.assign_propagate(x, e, x):
                return False
        # the trail holds exactly the identity's row and column (see the
        # class docstring); they leave the triple lists and the trail
        assert len(self.trail) == 2 * self.n - 1
        for lists in (self.occ, self.row_cols, self.col_rows):
            for cells in lists:
                cells.clear()
        self.trail.clear()
        return True

    def search(self) -> Optional[MulTable]:
        """The first complete table below the current state that
        ``leaf_check``, when given, accepts, or None once the subtree is
        exhausted and the state restored; ``budget`` counts the nodes."""
        for _, path in self.walk(self.budget, -1):
            if path is not None:
                rows = tuple(tuple(row) for row in self.table)
                table = MulTable(self.n, rows, identity=self.identity)
                if self.leaf_check is None or self.leaf_check(table, self.conn):
                    return table
        return None

    def walk(self, budget: Budget, split: int):
        """Depth-first search below the current state, the one loop behind
        ``search`` and ``_answers``.

        Yields ``(nodes, path)`` at every complete table and at every
        node of depth ``split`` that passes; on resumption it backtracks
        from there.  ``path`` holds the values of the branching cells
        above, ``nodes`` the nodes tried since the previous yield, probe
        values included.  Ends by yielding ``(nodes, None)``.  With
        ``split < 0`` the walk probes the open connection cells as the class
        docstring describes; with ``split >= 0`` it never does.
        """
        T = self.table
        order = self.order
        end = len(order)
        is_conn = self.is_conn
        conn_vals = self.graph.conn_vals
        all_vals = range(self.n)
        trail = self.trail
        nodes = counted = budget.nodes
        stop = budget.next_stop()
        probe_at = (nodes + PROBE_AFTER
                    if split < 0 and len(self.conn) <= PROBE_MAX_CONNECTION
                    else float("inf"))
        conn_cells = self.conn_cells
        assign_propagate = self.assign_propagate
        undo_to = self.undo_to
        frames = []
        idx = 0
        while True:
            # descend to the next open cell, or to a leaf
            while idx < end:
                a, b = order[idx]
                if T[a][b] < 0:
                    break
                idx += 1
            if idx < end and len(frames) != split:
                vals = conn_vals[a] if is_conn[b] else all_vals
                frames.append((idx, a, b, iter(vals), len(trail)))
            else:
                budget.nodes = nodes
                yield nodes - counted, tuple(T[f[1]][f[2]] for f in frames)
                counted = nodes
            # backtrack to the deepest frame with a candidate left
            while frames:
                idx, a, b, vals, mark = frames[-1]
                if len(trail) > mark:
                    undo_to(mark)
                for v in vals:
                    nodes += 1
                    if nodes >= stop:
                        budget.nodes = nodes - 1
                        budget.tick()
                        stop = budget.next_stop()
                    if assign_propagate(a, b, v):
                        if nodes < probe_at:
                            break
                        # probe: each open connection cell keeps a value
                        for x, c in conn_cells:
                            if T[x][c] >= 0:
                                continue
                            for u in conn_vals[x]:
                                nodes += 1
                                if nodes >= stop:
                                    budget.nodes = nodes - 1
                                    budget.tick()
                                    stop = budget.next_stop()
                                here = len(trail)
                                kept = assign_propagate(x, c, u)
                                if len(trail) > here:
                                    undo_to(here)
                                if kept:
                                    break
                            else:
                                break  # a cell with no value left
                        else:
                            break
                    if len(trail) > mark:
                        undo_to(mark)
                else:
                    frames.pop()
                    continue
                idx += 1
                break
            else:
                budget.nodes = nodes
                yield nodes - counted, None
                return


def _search_tables(
    mode: str,
    g: Graph,
    budget: Optional[Budget],
    sets: Sequence[frozenset],
    candidates: Iterable[Tuple[Optional[int], Iterable[int]]],
    leaf_check=None,
) -> SearchOutcome:
    """Search a table for each (identity, connection set) candidate in turn.

    ``sets`` are the out-neighborhoods of ``g`` in the digraph modes and
    its neighborhoods in ``monoid-graph``.  An edgeless ``g`` is answered
    by a left-zero table, with an identity adjoined in the monoid modes,
    over the empty connection set; ``leaf_check`` (see ``_TableSolver``)
    judges that table as it does every searched one.

    Otherwise this is the merge loop.  It takes the pieces' answers from
    ``_answers`` in depth-first order, in process or from workers, and
    merges each as the serial search would meet it: the piece's ``lead``,
    its subtree's nodes, then its table.  So status, table and node count
    are the serial search's: the first piece holding a table gives the
    witness, which ``certify`` has checked, and a node limit passed
    inside a piece stops the count at one node past it.
    """
    budget = budget or Budget()
    n = g.order
    directed = mode != "monoid-graph"
    if not any(sets):
        rows = [(x,) * n for x in range(n)]
        monoid = mode != "semigroup-digraph"
        if monoid:
            rows[0] = tuple(range(n))
        table = MulTable(n, rows, identity=0 if monoid else None)
        if leaf_check is not None and not leaf_check(table, ()):
            return no_outcome(budget)
        return witness_outcome(certify(mode, g, table, ()), budget)
    if directed and not all(sets):
        # a nonempty connection set forces positive outdegree everywhere
        return no_outcome(budget)
    injective = directed and is_strongly_connected(g)
    graph = _GraphTables(sets, directed)

    def make(identity, conn):
        return _TableSolver(graph, conn, budget, identity=identity,
                            injective_rows=injective, leaf_check=leaf_check)

    answers = _answers(make, candidates, budget)
    try:
        for (lead, conn), ok, value in answers:
            budget.count(lead)
            if not ok:
                raise value
            nodes, table, stopped = value
            budget.count(nodes)
            if stopped:  # count has raised; a stopped piece is never exhausted
                raise BudgetExceededError("budget exhausted in a piece")
            if table is not None:
                break
        else:
            return no_outcome(budget)
    except BudgetExceededError:
        return budget_outcome(budget)
    finally:
        answers.close()
    return witness_outcome(certify(mode, g, table, conn), budget)


def _answers(make, candidates, budget: Budget):
    """``((lead, conn), ok, answer)`` per piece of each candidate, in
    depth-first order; ``answer`` is ``_explore``'s, or the exception
    raised in its place.

    A candidate's pieces are the subtrees under its first ``SPLIT``
    branching cells.  Its solver's ``walk`` stops at each piece's root, a
    node that passed at depth ``SPLIT`` or a complete table above it, with
    ``path``, the values of the branching cells down to it.  ``lead``
    counts the nodes tried at depth ``SPLIT`` or above since the previous
    piece, the root included; a last ``(lead, None)`` counts those after
    the last piece.  The walk counts them on a budget of its own; the
    merge loop adds ``lead`` to the search's.

    Pieces are explored in process until the search has counted
    ``FORK_AFTER`` nodes at a piece boundary.  From there, if this
    process may fork and may use more than one CPU, the rest go to that
    many forked workers through ``forked.ordered``.  It draws the next
    piece, and so walks the search to it, only when a worker is idle, and
    none once the caller closes the stream.
    """
    start = budget.nodes
    pieces = ((solver, lead, path)
              for solver in (make(e, conn) for e, conn in candidates)
              if solver.prefill_identity()
              for lead, path in solver.walk(Budget(max_seconds=None), SPLIT))
    for piece in pieces:
        if budget.nodes - start >= FORK_AFTER:
            from . import forked

            cpus = forked.usable_cpus()
            if cpus > 1 and forked.may_fork():
                jobs = (((lead, s.conn),
                         (s.identity, s.conn, path,
                          budget.max_nodes - budget.nodes - lead))
                        for s, lead, path in itertools.chain([piece], pieces))
                yield from forked.ordered(lambda job: _run_piece(make, *job),
                                          jobs, cpus)
                return
        solver, lead, path = piece
        cap = budget.max_nodes - budget.nodes - lead
        yield (lead, solver.conn), True, _explore(solver, path, cap)


def _explore(solver: _TableSolver, path, cap: int):
    """Search the piece whose root ``solver`` stands at, under a fresh
    count of at most ``cap`` nodes: (nodes, table or None, whether the
    count stopped it).  A None ``path``, after a candidate's last piece,
    holds no node."""
    if path is None:
        return 0, None, False
    solver.budget = solver.budget.fresh(cap)
    try:
        table = solver.search()
    except BudgetExceededError:
        return solver.budget.nodes, None, True
    return solver.budget.nodes, table, False


def _run_piece(make, identity, conn, path, cap: int):
    """A worker's job: build the candidate's solver, replay the piece's
    path, assigning its values to the next open cells in order as the walk
    that yielded it did, and explore the piece."""
    solver = make(identity, conn)
    solver.prefill_identity()
    T = solver.table
    for v in path or ():
        a, b = next(cell for cell in solver.order if T[cell[0]][cell[1]] < 0)
        if not solver.assign_propagate(a, b, v):
            raise RuntimeError("a replayed path no longer passes")
    return _explore(solver, path, cap)


def _monoid_identities(out_sets: Sequence[set]) -> List[int]:
    """The vertices that may be the identity of a monoid whose Cayley
    digraph has these out-neighborhoods: those of maximum outdegree (the
    identity's row is a bijection onto the vertex set, so no row can cover
    a larger out-neighborhood), looped only when every vertex is looped
    (x*e = x is then a connection cell)."""
    dmax = max(map(len, out_sets))
    all_looped = all(x in s for x, s in enumerate(out_sets))
    return [e for e, s in enumerate(out_sets)
            if len(s) == dmax and (all_looped or e not in s)]


def recognize_monoid_digraph(
    g: Digraph,
    budget: Optional[Budget] = None,
) -> SearchOutcome:
    """Decide whether ``g`` is the Cayley digraph of a finite monoid.

    The identity candidates are ``_monoid_identities``; given the
    identity, the connection set is exactly its out-neighborhood.  The
    loop rule is the one rule e's prefill can fail; with no candidate
    left, the negative (0 nodes) comes before any table is built.
    """
    out_sets = [frozenset(s) for s in g.out_neighbors()]
    candidates = [(e, out_sets[e]) for e in _monoid_identities(out_sets)]
    if not candidates:
        return no_outcome(budget or Budget())
    return _search_tables("monoid-digraph", g, budget, out_sets, candidates)


def recognize_semigroup_digraph(
    g: Digraph,
    budget: Optional[Budget] = None,
) -> SearchOutcome:
    """Decide whether ``g`` is the Cayley digraph of a finite semigroup.

    Connection sets are enumerated by size starting at the maximum
    outdegree (rows must cover their out-neighborhoods exactly).  For
    1-outregular inputs only singletons are tried: any representation
    restricts to one over a single connection element.
    """
    out_sets = [frozenset(s) for s in g.out_neighbors()]
    if g.is_k_outregular(1):
        sizes: Sequence[int] = (1,)
    else:
        sizes = range(max(map(len, out_sets)), g.order + 1)
    candidates = ((None, conn) for size in sizes
                  for conn in itertools.combinations(range(g.order), size))
    return _search_tables("semigroup-digraph", g, budget, out_sets, candidates)


def recognize_monoid_graph(
    g: SimpleGraph,
    budget: Optional[Budget] = None,
    *,
    require_generated: bool = False,
    max_connection: Optional[int] = None,
) -> SearchOutcome:
    """Decide whether ``g`` is the underlying graph of a monoid Cayley digraph.

    Given the identity candidate the connection set is exactly its
    neighborhood: any representation can be rewritten so that every
    connection element is adjacent to the identity and every neighbor
    occurs.  ``max_connection`` restricts identity candidates to degree
    at most that bound, trading completeness for speed: an exhausted
    restricted search then certifies only that no representation exists
    whose identity has degree within the bound.  A bound below 1, which
    would leave no candidate but a vacuous negative, is a ``ValueError``.
    """
    if max_connection is not None and max_connection < 1:
        raise ValueError(f"max_connection must be >= 1, got {max_connection}")
    n = g.order
    adj_sets = [frozenset(s) for s in g.neighbors()]
    degs = [len(s) for s in adj_sets]
    candidates = ((e, adj_sets[e])
                  for e in sorted(range(n), key=lambda x: (-degs[x], x))
                  if degs[e] and (max_connection is None
                                  or degs[e] <= max_connection))

    def generated(table, conn):
        return len(generated_submonoid(table, conn)) == n

    return _search_tables("monoid-graph", g, budget, adj_sets, candidates,
                          generated if require_generated else None)


# -- endomorphism-based cross-check ---------------------------------------


def endomorphisms(g: Digraph, budget: Optional[Budget] = None) -> List[Tuple[int, ...]]:
    """All endomorphisms of ``g`` as tuples, in lexicographic order.

    Vertices are placed in order 0..n-1.  A node is one partial map on
    {0..v-1} that respects every arc among those vertices, the empty map
    and the complete endomorphisms included: ``budget`` ticks once per
    node.  The images allowed for v are one adjacency bitmask, the AND of
    the out-masks of its earlier predecessors' images, the in-masks of its
    earlier successors' images and, if v has a loop, the looped vertices;
    its set bits are tried in ascending order.  The search recurses once
    per vertex, so it refuses order > 8.
    """
    if g.order > 8:
        raise ValueError("endomorphism search is limited to order <= 8")
    n = g.order
    out_mask, in_mask = _masks(g)
    looped = sum(1 << v for v in range(n) if out_mask[v] >> v & 1)
    start = [looped if looped >> v & 1 else (1 << n) - 1 for v in range(n)]
    earlier = [[(out_mask, u) for u in range(v) if in_mask[v] >> u & 1]
               + [(in_mask, u) for u in range(v) if out_mask[v] >> u & 1]
               for v in range(n)]
    tick = budget.tick if budget is not None else lambda: None
    result: List[Tuple[int, ...]] = []
    img = [0] * n

    def place(v: int) -> None:
        tick()
        allowed = start[v]
        for masks, u in earlier[v]:
            allowed &= masks[img[u]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            img[v] = low.bit_length() - 1
            if v < n - 1:
                place(v + 1)
            else:  # a complete endomorphism: a leaf node, no call
                tick()
                result.append(tuple(img))

    place(0)
    return result


def sabidussi_check(g: Digraph, budget: Optional[Budget] = None) -> SearchOutcome:
    """Monoid recognition by selecting one endomorphism per vertex.

    ``g`` is a monoid Cayley digraph iff for some vertex e one can pick
    endomorphisms (phi_x) with phi_x(e) = x, phi_e the identity map,
    closed under composition (phi_x . phi_y = phi_{phi_x(y)}), and such
    that every phi_x pushes some out-neighbor of e onto each out-neighbor
    of x.  The product x*y = phi_x(y) then defines the monoid.  Order at
    most 8, as ``endomorphisms`` requires.

    The nodes are those of ``endomorphisms`` (lexicographic order) plus
    one per endomorphism tried in the selection.  phi is a candidate for
    phi_{phi(e)} iff the out-mask of phi(e) lies inside the bitmask of
    phi's images of the out-neighbors of e.  Only ``_monoid_identities``
    reach that filter; it would count no node for the others.  Below the
    maximum outdegree some vertex has no candidate, since phi(N+(e)) has
    at most deg e elements.  Beside a loopless x, a looped e leaves x
    none either: an endomorphism maps a looped vertex to a looped one.
    """
    budget = budget or Budget()
    n = g.order
    need = _masks(g)[0]
    try:
        endos = endomorphisms(g, budget)
        identity_map = tuple(range(n))
        for e in _monoid_identities(g.out_neighbors()):
            conn = [c for c in range(n) if need[e] >> c & 1]
            cands: List[List[Tuple[int, ...]]] = [[] for _ in range(n)]
            for phi in endos:
                x = phi[e]
                image_mask = 0
                for c in conn:
                    image_mask |= 1 << phi[c]
                if not need[x] & ~image_mask:
                    cands[x].append(phi)
            if any(not c for c in cands):
                continue
            cand_sets = [frozenset(c) for c in cands]
            chosen: List[Optional[Tuple[int, ...]]] = [None] * n
            chosen[e] = identity_map
            var_order = sorted(
                (x for x in range(n) if x != e), key=lambda x: len(cands[x])
            )
            trail: List[int] = [e]

            def close(x: int) -> bool:
                """Force compositions of phi_x with all chosen maps."""
                stack = [x]
                while stack:
                    a = stack.pop()
                    pa = chosen[a]
                    for b in range(n):
                        pb = chosen[b]
                        if pb is None:
                            continue
                        for first, second in ((pa, pb), (pb, pa)):
                            comp = tuple(second[first[i]] for i in range(n))
                            t = comp[e]
                            cur = chosen[t]
                            if cur is None:
                                if comp not in cand_sets[t]:
                                    return False
                                chosen[t] = comp
                                trail.append(t)
                                stack.append(t)
                            elif cur != comp:
                                return False
                return True

            def extend(i: int) -> bool:
                while i < len(var_order) and chosen[var_order[i]] is not None:
                    i += 1
                if i == len(var_order):
                    return True
                x = var_order[i]
                for phi in cands[x]:
                    budget.tick()
                    mark = len(trail)
                    chosen[x] = phi
                    trail.append(x)
                    if close(x) and extend(i + 1):
                        return True
                    while len(trail) > mark:
                        chosen[trail.pop()] = None
                return False

            if extend(0):
                rows = tuple(chosen[x] for x in range(n))
                table = MulTable(n, rows, identity=e)
                return witness_outcome(
                    certify("monoid-digraph", g, table, conn), budget)
    except BudgetExceededError:
        return budget_outcome(budget)
    return no_outcome(budget)


# -- census ----------------------------------------------------------------


class CensusEntry(Value):
    graph: object
    key: bytes
    outcome: SearchOutcome

    def __init__(self, graph: object, key: bytes, outcome: SearchOutcome):
        self.graph = graph
        self.key = key
        self.outcome = outcome


class CensusReport(Value):
    order: int
    mode: str
    entries: List[CensusEntry]

    def __init__(self, order: int, mode: str, entries: List[CensusEntry]):
        self.order = order
        self.mode = mode
        self.entries = entries

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.entries:
            out[entry.outcome.status] = out.get(entry.outcome.status, 0) + 1
        return out

    def lines(self):
        for entry in self.entries:
            yield "%s\t%s\t%d" % (
                entry.key.hex(),
                entry.outcome.status,
                entry.outcome.nodes,
            )


_RECOGNIZERS = {
    "monoid-digraph": recognize_monoid_digraph,
    "semigroup-digraph": recognize_semigroup_digraph,
    "monoid-graph": recognize_monoid_graph,
}


def classify_all(
    order: int,
    mode: str,
    *,
    max_nodes: int = CENSUS_MAX_NODES,
    max_seconds: Optional[float] = CENSUS_MAX_SECONDS,
    workers: Optional[int] = None,
) -> CensusReport:
    """Classify every graph of the given order up to isomorphism.

    Digraph modes run over all outregular digraphs (every outdegree
    equal, including the edgeless case); the undirected mode runs over
    all simple graphs.  Each instance gets a fresh budget so one hard
    instance cannot starve the rest.  The classes are classified on
    ``workers`` forked workers (see ``forked``), by default one per CPU
    this process may use, and come back in enumeration order; a worker's
    searches stay serial.  The first error in enumeration order is raised
    as soon as it comes up, and the workers stop with it.  One worker,
    one class, one usable CPU, or a process that may not fork (a worker
    itself, or one running a second Python thread) classifies in process.
    """
    if mode not in CENSUS_MODES:
        raise ValueError(f"unknown census mode: {mode}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    Budget(max_nodes=max_nodes, max_seconds=max_seconds)  # checks the bounds
    kind = "simple" if mode == "monoid-graph" else "digraph-outregular"
    graphs = list(enumerate_graphs(order, kind))
    from . import forked

    def classify(i: int) -> CensusEntry:
        g = graphs[i]
        budget = Budget(max_nodes=max_nodes, max_seconds=max_seconds)
        # the recognizer is read from the table as each class runs
        return CensusEntry(g, canonical_form(g), _RECOGNIZERS[mode](g, budget))

    count = min(forked.usable_cpus() if workers is None else workers,
                len(graphs))
    if count > 1 and forked.may_fork():
        # a worker is handed only the index of its class
        answers = forked.ordered(classify, ((i, i) for i in range(len(graphs))),
                                 count)
        entries = []
        try:
            for _, ok, value in answers:
                if not ok:
                    raise value  # the first error in enumeration order
                entries.append(value)
        finally:
            answers.close()
    else:
        entries = [classify(i) for i in range(len(graphs))]
    return CensusReport(order, mode, entries)

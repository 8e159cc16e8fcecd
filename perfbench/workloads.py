"""The benchmark's workloads: seeded inputs, one timed pass, answer checks.

A pass is one complete set of decisions: one refutation, one order-6
census, one order-1..4 cross-check, or one cycle of CLI calls.  Every pass
checks its own answers and returns a message per wrong or failed answer.
The counts a pass returns are deterministic; the runner compares them
between passes over equal inputs and between runs of the same seed.

Spans are recorded here, around calls into the package's public
functions, and nowhere inside the package.  In traced passes the one
probe inside the package is a call counter on the labeller's permutation
minimisation (see ``_counting_minimisations``).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

from semicayley import (
    Budget,
    SimpleGraph,
    canonical_form,
    classify_all,
    enumerate_graphs,
    format_graph,
    parse_witness_record,
    recognize_monoid_digraph,
    recognize_monoid_graph,
    sabidussi_check,
    verify_witness,
    witness_ok,
)
from semicayley import graphs as graphs_module
from semicayley.families import gen_K4_Cl

WITNESS = "witness"
EXHAUSTED_NO = "exhausted-no"
CLI_SUBCOMMANDS = ("recognize", "check-zelinka", "construct-zelinka", "embed",
                   "tree-classify", "invariants", "verify-witness")


@dataclass
class PassResult:
    wall: float                       # seconds for the whole pass
    calls: List[float]                # seconds per timed call
    instances: int                    # instances decided
    failures: List[str]               # one message per wrong answer
    counts: Dict[str, object]         # deterministic counts
    key: str                          # equal keys mean equal inputs


def _tally(counts: Dict[str, object], prefix: str, outcomes) -> None:
    """Add call, node and status counts of search outcomes."""
    for out in outcomes:
        counts[prefix + "calls"] = counts.get(prefix + "calls", 0) + 1
        counts[prefix + "nodes"] = counts.get(prefix + "nodes", 0) + out.nodes
        key = prefix + out.status
        counts[key] = counts.get(key, 0) + 1


# the labeller's function that minimises an adjacency matrix over every
# vertex permutation; both canonical_form and enumerate_graphs's
# self-canonical check go through it once per graph
MINIMISER = "_min_packed"


@contextlib.contextmanager
def _counting_minimisations(tr, counts: Dict[str, object]):
    """In a traced pass, count the labeller's full minimisations into
    ``counts["graphs.canonical_calls"]``.  Untraced passes run the package
    untouched, and a package without the minimiser counts nothing."""
    inner = getattr(graphs_module, MINIMISER, None)
    if not tr.enabled or inner is None:
        yield
        return
    counts["graphs.canonical_calls"] = 0

    def counted(*args, **kwargs):
        counts["graphs.canonical_calls"] += 1
        return inner(*args, **kwargs)

    setattr(graphs_module, MINIMISER, counted)
    try:
        yield
    finally:
        setattr(graphs_module, MINIMISER, inner)


# -- refute-k4c5 -------------------------------------------------------------


class RefuteK4C5:
    """Unrestricted refutation of K4 + C5.

    Every pass refutes the published labelling, so the timed work is the
    same for every seed.  The seed draws a relabelling that is refuted
    once per run as a metamorphic check: its status must match.  Its node
    count varies several-fold with the labelling, which is why it is not
    the timed work.
    """

    name = "refute-k4c5"
    labelled_scanned = 0

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        self.graph = gen_K4_Cl(5)
        perm = list(range(self.graph.order))
        random.Random(self.seed).shuffle(perm)
        self.perm = perm
        self.relabelled = SimpleGraph(
            self.graph.order, [(perm[u], perm[v]) for u, v in self.graph.edges])

    @staticmethod
    def _budget() -> Budget:
        return Budget(max_nodes=10**9, max_seconds=3600.0)

    def run_pass(self, i: int, tr) -> PassResult:
        t0 = time.perf_counter()
        with tr.span("recognize.recognize_monoid_graph", f"{i}.0"):
            out = recognize_monoid_graph(self.graph, self._budget())
        wall = time.perf_counter() - t0
        failures = []
        if out.status != EXHAUSTED_NO:
            failures.append(f"published K4+C5: status {out.status}, "
                            f"expected {EXHAUSTED_NO}")
        counts: Dict[str, object] = {}
        _tally(counts, "recognize.", [out])
        return PassResult(wall, [wall], 1, failures, counts, "published")

    def final_check(self) -> PassResult:
        t0 = time.perf_counter()
        out = recognize_monoid_graph(self.relabelled, self._budget())
        wall = time.perf_counter() - t0
        failures = []
        if out.status != EXHAUSTED_NO:
            failures.append(f"K4+C5 relabelled by {self.perm}: status "
                            f"{out.status}, expected {EXHAUSTED_NO}")
        counts: Dict[str, object] = {"perm": list(self.perm)}
        _tally(counts, "recognize.", [out])
        return PassResult(wall, [wall], 1, failures, counts, "relabelled")


# -- census-6 ----------------------------------------------------------------


class Census6:
    """``classify_all(6, "monoid-graph")`` run serially with the extended
    census budgets; every class must carry a witness that verifies.

    The package generates the inputs itself, so the seed does not apply.
    The traced pass makes the same serial calls one layer at a time.
    """

    name = "census-6"
    order = 6
    classes = 156
    labelled_scanned = 2 ** (6 * 5 // 2)   # every labelled simple graph

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        pass

    @staticmethod
    def _budget() -> Budget:
        return Budget(max_nodes=10**9, max_seconds=3600.0)

    def _layered(self, i: int, tr):
        with tr.span("graphs.enumerate_graphs", f"{i}"):
            graphs = list(enumerate_graphs(self.order, "simple"))
        entries = []
        for j, g in enumerate(graphs):
            inst = f"{i}.{j}"
            with tr.span("graphs.canonical_form", inst):
                key = canonical_form(g)
            with tr.span("recognize.recognize_monoid_graph", inst):
                out = recognize_monoid_graph(g, self._budget())
            entries.append((g, key, out))
        return entries

    def run_pass(self, i: int, tr) -> PassResult:
        counts: Dict[str, object] = {}
        with _counting_minimisations(tr, counts):
            return self._pass(i, tr, counts)

    def _pass(self, i: int, tr, counts: Dict[str, object]) -> PassResult:
        t0 = time.perf_counter()
        if tr.enabled:
            entries = self._layered(i, tr)
        else:
            report = classify_all(self.order, "monoid-graph",
                                  max_nodes=10**9, max_seconds=3600.0)
            entries = [(e.graph, e.key, e.outcome) for e in report.entries]
        failures = []
        verified = 0
        for j, (g, _key, out) in enumerate(entries):
            if not out.is_witness:
                failures.append(f"order-6 class {j}: status {out.status}, "
                                f"expected {WITNESS}")
                continue
            with tr.span("witness.witness_ok", f"{i}.{j}"):
                ok = witness_ok(out.witness, g)
            verified += 1
            if not ok:
                failures.append(f"order-6 class {j}: witness does not verify")
        wall = time.perf_counter() - t0
        if len(entries) != self.classes:
            failures.append(f"order-6 census has {len(entries)} classes, "
                            f"expected {self.classes}")
        if len({key for _, key, _ in entries}) != len(entries):
            failures.append("order-6 census repeats an isomorphism class")
        counts["graphs.classes"] = len(entries)
        counts["witness.verify_calls"] = verified
        _tally(counts, "recognize.", [out for _, _, out in entries])
        return PassResult(wall, [wall], len(entries), failures, counts, "census")


# -- crosscheck-4 ------------------------------------------------------------


class Crosscheck4:
    """Every digraph class of order 1..4 through both monoid routes.

    ``sabidussi_check`` (endomorphism route) and
    ``recognize_monoid_digraph`` (table search) must agree on every class,
    every witness must verify, and the canonical keys must be distinct.
    """

    name = "crosscheck-4"
    orders = (1, 2, 3, 4)
    classes = 3160
    # digraph-all scans every labelled digraph with loops: 2^(n*n) per order
    labelled_scanned = sum(2 ** (n * n) for n in orders)

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        pass

    @staticmethod
    def _budget() -> Budget:
        return Budget(max_nodes=10**8, max_seconds=600.0)

    def run_pass(self, i: int, tr) -> PassResult:
        counts: Dict[str, object] = {}
        with _counting_minimisations(tr, counts):
            return self._pass(i, tr, counts)

    def _pass(self, i: int, tr, counts: Dict[str, object]) -> PassResult:
        t0 = time.perf_counter()
        with tr.span("graphs.enumerate_graphs", f"{i}"):
            graphs = [g for n in self.orders
                      for g in enumerate_graphs(n, "digraph-all")]
        failures = []
        calls = []
        keys = set()
        routes = []
        verified = 0
        for j, g in enumerate(graphs):
            inst = f"{i}.{j}"
            c0 = time.perf_counter()
            with tr.span("graphs.canonical_form", inst):
                keys.add(canonical_form(g))
            with tr.span("recognize.sabidussi_check", inst):
                a = sabidussi_check(g, self._budget())
            with tr.span("recognize.recognize_monoid_digraph", inst):
                b = recognize_monoid_digraph(g, self._budget())
            oks = []
            for out in (a, b):
                if out.is_witness:
                    with tr.span("witness.witness_ok", inst):
                        oks.append(witness_ok(out.witness, g))
            calls.append(time.perf_counter() - c0)
            verified += len(oks)
            routes.append((a, b))
            if {a.status, b.status} - {WITNESS, EXHAUSTED_NO}:
                failures.append(f"digraph class {j}: statuses "
                                f"{a.status}/{b.status}")
            elif a.is_witness != b.is_witness:
                failures.append(f"digraph class {j}: routes disagree "
                                f"({a.status} vs {b.status})")
            if not all(oks):
                failures.append(f"digraph class {j}: witness does not verify")
        wall = time.perf_counter() - t0
        if len(graphs) != self.classes:
            failures.append(f"digraph-all 1..4 has {len(graphs)} classes, "
                            f"expected {self.classes}")
        if len(keys) != len(graphs):
            failures.append("digraph-all 1..4 repeats an isomorphism class")
        counts["graphs.classes"] = len(graphs)
        counts["witness.verify_calls"] = verified
        _tally(counts, "recognize.sabidussi_", [a for a, _ in routes])
        _tally(counts, "recognize.", [b for _, b in routes])
        return PassResult(wall, calls, len(graphs), failures, counts,
                          "crosscheck")


# -- cli-mix -----------------------------------------------------------------
# Reference answers below are computed by the benchmark itself, without the
# package, so that the CLI's output is checked against an independent rule.


def child_env(root: str) -> dict:
    """Environment for a child Python that imports the package from
    ``root/src``, as an uninstalled checkout requires."""
    old = os.environ.get("PYTHONPATH")
    src = os.path.join(root, "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def run_child(cmd, stdin: str, **kwargs) -> tuple:
    """Run ``cmd`` to its end, feeding it ``stdin``.

    Returns the exit code, standard output, standard error and the
    child's own peak resident memory in KiB, which ``os.wait4`` reports
    for that child alone.
    """
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)

    def feed():
        try:
            with proc.stdin:
                proc.stdin.write(stdin)
        except BrokenPipeError:
            pass

    err: List[str] = []
    helpers = [threading.Thread(target=feed),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    for t in helpers:
        t.start()
    out = proc.stdout.read()
    for t in helpers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


def _digraph_text(n: int, arcs) -> str:
    return "\n".join([f"{n} directed"]
                     + [f"{u} {v}" for u, v in sorted(set(arcs))]) + "\n"


def _graph_text(n: int, edges) -> str:
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return "\n".join([f"{n} undirected"] + [f"{u} {v}" for u, v in edges]) + "\n"


def zelinka_answers(succ) -> Dict[str, bool]:
    """Monoid and semigroup answers for a 1-outregular digraph by the
    component rule: some component C with z(D) | z(C) and l(D) <= l(C)
    (+1 for semigroups) for every component D, where z is the cycle
    length and l the largest distance to the cycle."""
    n = len(succ)

    def step(v, k):
        for _ in range(k):
            v = succ[v]
        return v

    shapes: Dict[frozenset, int] = {}
    for v in range(n):
        c = step(v, n)
        cycle = frozenset(step(c, k) for k in range(n))
        depth = next(k for k in range(n + 1) if step(v, k) in cycle)
        shapes[cycle] = max(shapes.get(cycle, 0), depth)
    comps = [(len(cyc), depth) for cyc, depth in shapes.items()]

    def dominant(slack):
        return any(all(z % zd == 0 and ld <= l + slack for zd, ld in comps)
                   for z, l in comps)

    return {"monoid": dominant(0), "semigroup": dominant(1)}


def graph_invariants(n: int, edges) -> Dict[str, int]:
    """Independence number, arboricity and pseudoarboricity by scanning
    every vertex subset (Nash-Williams and Hakimi density formulas)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    alpha = arb = pseudo = 0
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        inner = sum((adj[v] & mask).bit_count() for v in members) // 2
        if inner == 0:
            alpha = max(alpha, len(members))
        pseudo = max(pseudo, -(-inner // len(members)))
        if len(members) >= 2:
            arb = max(arb, -(-inner // (len(members) - 1)))
    return {"edges": len(edges), "arboricity": arb,
            "pseudoarboricity": pseudo, "independence-number": alpha}


def is_smallest_nonmonoid_tree(n: int, edges) -> bool:
    """The one tree of order <= 7 that is not a generated monoid tree: a
    centre of degree 4 with three leaves and a path of length 3."""
    if n != 7:
        return False
    deg = [0] * n
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        nbrs[u].append(v)
        nbrs[v].append(u)
    if sorted(deg) != [1, 1, 1, 1, 2, 2, 4]:
        return False
    dist = {deg.index(4): 0}
    frontier = list(dist)
    while frontier:
        frontier = [w for v in frontier for w in nbrs[v] if w not in dist]
        for w in frontier:
            dist[w] = dist[next(v for v in nbrs[w] if v in dist)] + 1
    return max(dist.values()) == 3


def _random_tree(rng: random.Random, n: int):
    if n == 2:
        return [(0, 1)]
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    for v in prufer:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.append((u, w))
    return edges


class CliMix:
    """Closed loop, one client: one ``python -m semicayley.cli`` process at
    a time, each checked on exit code and output, and every witness record
    re-verified in process and through ``verify-witness``.

    The seed draws a pool of ``POOL`` input sets; pass i decides set
    i mod ``POOL``.
    """

    name = "cli-mix"
    labelled_scanned = 0
    POOL = 8
    EMBED_MAX_MAPS = 300      # above |T_4| = 256, so the cap is never hit

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.env = child_env(root)
        self.child_rss_kb = 0

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.pool = [self._draw(rng, k) for k in range(self.POOL)]

    @staticmethod
    def _draw(rng: random.Random, k: int) -> dict:
        n = rng.randint(3, 8)
        succ = [rng.randrange(n) for _ in range(n)]
        zel = (_digraph_text(n, enumerate(succ)), zelinka_answers(succ))
        mode = ("monoid", "semigroup")[k % 2]
        while True:
            m = rng.randint(3, 8)
            csucc = [rng.randrange(m) for _ in range(m)]
            if zelinka_answers(csucc)[mode]:
                break
        construct = (mode, _digraph_text(m, enumerate(csucc)))
        e = rng.randint(2, 4)
        outs = [rng.sample(range(e), rng.randint(1, min(2, e))) for _ in range(e)]
        embed = _digraph_text(e, [(v, u) for v in range(e) for u in outs[v]])
        t = rng.randint(2, 7)
        labels = list(range(t))
        rng.shuffle(labels)
        tedges = [(labels[u], labels[v]) for u, v in _random_tree(rng, t)]
        tree = (_graph_text(t, tedges),
                "no" if is_smallest_nonmonoid_tree(t, tedges) else "yes")
        gedges = [p for p in itertools.combinations(range(5), 2)
                  if rng.random() < 0.5]
        g5 = (_graph_text(5, gedges), graph_invariants(5, gedges))
        return {"zel": zel, "construct": construct, "embed": embed,
                "tree": tree, "g5": g5}

    def _cli(self, tr, inst: str, sub: str, args, stdin: str, calls):
        cmd = [sys.executable, "-m", "semicayley.cli", sub, *args]
        c0 = time.perf_counter()
        with tr.span(f"cli.{sub}", inst):
            code, out, err, rss_kb = run_child(cmd, stdin, cwd=self.root,
                                               env=self.env)
        calls.append(time.perf_counter() - c0)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return code, out, err

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest CLI process."""
        return self.child_rss_kb / 1024.0

    def _record(self, tr, inst, what, out, graph_text, modes, calls, failures):
        """Check one emitted witness record in process and via the CLI."""
        start = out.find("cayley-witness\n")
        if start < 0:
            failures.append(f"{what}: no witness record in output")
            return 0
        record = out[start:]
        with tr.span("witness.parse_witness_record", inst):
            w, g, _recorded = parse_witness_record(record)
        with tr.span("witness.verify_witness", inst):
            checks = verify_witness(w, g)
        if not all(checks.values()):
            failures.append(f"{what}: record fails {checks}")
        if format_graph(g) != graph_text:
            failures.append(f"{what}: record holds another graph")
        if w.mode not in modes:
            failures.append(f"{what}: record mode {w.mode}, expected {modes}")
        code, vout, verr = self._cli(tr, inst, "verify-witness", [], record, calls)
        lines = vout.splitlines()
        if code != 0 or not lines or any(not x.endswith(": true") for x in lines):
            failures.append(f"{what}: verify-witness exit {code}: "
                            f"{vout.strip()} {verr.strip()}")
        return 1

    def run_pass(self, i: int, tr) -> PassResult:
        p = self.pool[i % self.POOL]
        inst = f"{i}"
        calls: List[float] = []
        failures: List[str] = []
        records = 0
        nodes = []
        t0 = time.perf_counter()

        def run(sub, args, stdin):
            code, out, err = self._cli(tr, inst, sub, args, stdin, calls)
            if code != 0:
                failures.append(f"{sub}: exit {code}: {err.strip()}")
            return out

        text, want = p["zel"]
        out = run("check-zelinka", [], text)
        for kind in ("monoid", "semigroup"):
            line = next((x for x in out.splitlines()
                         if x.startswith(kind + ":")), "")
            got = line.split()[1:2] == ["yes"]
            if got != want[kind]:
                failures.append(f"check-zelinka {kind}: {line!r}, "
                                f"expected {'yes' if want[kind] else 'no'}")

        mode, text = p["construct"]
        out = run("construct-zelinka", ["--mode", mode], text)
        records += self._record(tr, inst, "construct-zelinka", out, text,
                                {f"{mode}-digraph"}, calls, failures)

        out = run("embed", ["--max-maps", str(self.EMBED_MAX_MAPS)], p["embed"])
        records += self._record(tr, inst, "embed", out, p["embed"],
                                {"embedding"}, calls, failures)

        text, verdict = p["tree"]
        out = run("tree-classify", [], text)
        if f"verdict: {verdict}\n" not in out:
            failures.append(f"tree-classify: expected verdict {verdict}, "
                            f"got {out.splitlines()[:1]}")
        if verdict == "yes":
            records += self._record(tr, inst, "tree-classify", out, text,
                                    {"generated-monoid-tree"}, calls, failures)

        text, inv = p["g5"]
        out = run("recognize", ["--mode", "monoid-graph"], text)
        if not out.startswith(f"status: {WITNESS}\n"):
            failures.append(f"recognize: {out.splitlines()[:1]}, every order-5 "
                            "graph is a monoid graph")
        nodes += [int(x.split()[1]) for x in out.splitlines()
                  if x.startswith("nodes: ")]
        records += self._record(tr, inst, "recognize", out, text,
                                {"monoid-graph"}, calls, failures)

        out = run("invariants", [], text)
        got = dict(x.split("\t", 1) for x in out.splitlines() if "\t" in x)
        for name, value in inv.items():
            if got.get(name) != str(value):
                failures.append(f"invariants {name}: {got.get(name)}, "
                                f"expected {value}")

        wall = time.perf_counter() - t0
        counts: Dict[str, object] = {
            "cli.invocations": len(calls),
            "cli.recognize_nodes": nodes,
            "witness.verify_calls": records,
        }
        return PassResult(wall, calls, len(calls), failures, counts,
                          f"pool{i % self.POOL}")


WORKLOADS = {
    cls.name: cls for cls in (RefuteK4C5, Census6, Crosscheck4, CliMix)
}


def make(name: str, seed: int, root: str):
    cls = WORKLOADS[name]
    return cls(seed, root) if cls is CliMix else cls(seed)

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  The run sets up (import plus input generation), then repeats
passes of the workload until ``--seconds`` have elapsed, at least one.
Every pass checks its answers.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the passes come in pairs over equal inputs, one untraced
and one traced, and the JSON holds the per-layer metrics.  Any wrong answer, or a deterministic count
that drifts between passes or between runs of the same seed and code,
makes the run exit 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 12      # fresh set-ups per run, spread over its passes
CLI_PROBES = 5          # bare interpreter and import timings per traced run


def _setup() -> tuple:
    """Import the package, timed, then the workload definitions."""
    t0 = time.perf_counter()
    import semicayley  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    import workloads
    return t1 - t0, workloads


def _setup_probe(wl, import_s: float) -> int:
    t0 = time.perf_counter()
    wl.build()
    print(json.dumps({"import_s": import_s,
                      "inputs_s": time.perf_counter() - t0}))
    return 0


class SetupSamples:
    """This process's set-up plus ``SETUP_SAMPLES`` set-ups in fresh
    processes: a third before the first pass, the rest between passes in
    step with the pass time done.  Spread over the whole run, they are
    not all caught by one slow moment of a shared host."""

    def __init__(self, args, own: tuple):
        from workloads import child_env
        self.samples = [own]
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.env = child_env(str(ROOT))

    def keep_up(self, done: float) -> None:
        """Take fresh set-ups until those due at the share ``done`` of the
        pass time are in."""
        due = math.ceil(SETUP_SAMPLES * (1 + 2 * min(done, 1.0)) / 3)
        while len(self.samples) - 1 < due:
            proc = subprocess.run(self.cmd, capture_output=True, text=True,
                                  check=True, cwd=ROOT, env=self.env)
            rec = json.loads(proc.stdout.splitlines()[-1])
            self.samples.append((rec["import_s"], rec["inputs_s"]))


def _cli_probes() -> dict:
    """Median wall time of a bare interpreter and of importing the package."""
    from workloads import child_env
    out = {}
    for name, code in (("cli.interpreter_ms", "pass"),
                       ("cli.import_ms", "import semicayley")):
        walls = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                           env=child_env(str(ROOT)))
            walls.append(time.perf_counter() - t0)
        out[name] = statistics.median(walls) * 1000
    return out


def _measure(wl, seconds: float, setups: SetupSamples) -> list:
    """Untraced passes until they have taken ``seconds``; at least one."""
    results = []
    spent = 0.0
    setups.keep_up(0.0)
    while not results or spent < seconds:
        t0 = time.perf_counter()
        results.append(wl.run_pass(len(results), spanlib.NullTracer()))
        spent += time.perf_counter() - t0
        setups.keep_up(spent / seconds)
    return results


def _measure_pairs(wl, seconds: float, tracer, setups: SetupSamples) -> tuple:
    """Pairs of passes over equal inputs, one untraced and one traced,
    until they have taken ``seconds``; at least one pair.  Which comes
    first alternates from pair to pair, so that the tracing overhead is
    not confused with the order of the passes."""
    untraced, traced = [], []
    spent = 0.0
    setups.keep_up(0.0)
    while not traced or spent < seconds:
        i = len(traced)
        t0 = time.perf_counter()
        for with_spans in ((False, True), (True, False))[i % 2]:
            if with_spans:
                with tracer.span("bench.pass", str(i)):
                    traced.append(wl.run_pass(i, tracer))
            else:
                untraced.append(wl.run_pass(i, spanlib.NullTracer()))
        spent += time.perf_counter() - t0
        setups.keep_up(spent / seconds)
    return untraced, traced


def _code_hash() -> str:
    h = hashlib.sha256()
    for d in (SRC / "semicayley", HERE):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _differ(old: dict, new: dict) -> bool:
    """Whether two count records disagree on a count both hold; traced
    passes hold counts that untraced ones do not."""
    return any(old[k] != new[k] for k in old.keys() & new.keys())


def _drift(args, results) -> list:
    """Counts of equal inputs must repeat, within the run and across runs
    of the same seed and code (recorded under ``.perfbench_out``)."""
    problems = []
    seen = {}
    for r in results:
        if r.key in seen and _differ(seen[r.key], r.counts):
            problems.append(f"counts of {r.key} drifted between passes: "
                            f"{seen[r.key]} then {r.counts}")
        seen[r.key] = {**r.counts, **seen.get(r.key, {})}
    path = OUT / "counts.json"
    OUT.mkdir(exist_ok=True)
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    entry = book.setdefault(f"{_code_hash()}/{args.workload}/{args.seed}", {})
    for key, counts in seen.items():
        counts = json.loads(json.dumps(counts))
        if key in entry and _differ(entry[key], counts):
            problems.append(f"counts of {key} drifted from an earlier run of "
                            f"this seed and code: {entry[key]} then {counts}")
        entry[key] = {**counts, **entry.get(key, {})}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(book, sort_keys=True))
    os.replace(tmp, path)
    return problems


def _peak_rss_mb(wl) -> float:
    """Peak resident memory of the process that does the work: this one,
    unless the workload runs its work in child processes."""
    if hasattr(wl, "peak_rss_mb"):
        return wl.peak_rss_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _decision_tail(results) -> tuple:
    """Tail of the timed calls, with a note naming percentile and count.

    When every pass has more than ``TAIL_BEYOND`` calls the tail is taken
    per pass and the median over passes is reported, so that one stalled
    call cannot set it; otherwise all calls of the run are pooled.
    """
    if all(len(r.calls) > stats.TAIL_BEYOND for r in results):
        tails = [stats.tail(r.calls) for r in results]
        _, pct, n = tails[0]
        return (statistics.median([t for t, _, _ in tails]),
                f"median over {len(results)} passes of p{pct:.2f} "
                f"of {n} timed calls each")
    tail_s, pct, n = stats.tail([c for r in results for c in r.calls])
    small = " (10 or fewer: maximum)" if n <= stats.TAIL_BEYOND else ""
    return tail_s, f"p{pct:.2f} of {n} timed calls{small}"


def end_to_end(results, setup, rss_mb) -> tuple:
    calls = [c for r in results for c in r.calls]
    tail_s, tail_note = _decision_tail(results)
    metrics = {
        "wall_s": (statistics.median([r.wall for r in results]), "s"),
        "setup_s": (statistics.median([a + b for a, b in setup]), "s"),
        "decisions_per_s": (sum(r.instances for r in results)
                            / sum(r.wall for r in results), "1/s"),
        "decision_p50_ms": (statistics.median(calls) * 1000, "ms"),
        "decision_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"decision_tail_ms": tail_note}


RECOGNIZE_SPANS = ("recognize.recognize_monoid_graph",
                   "recognize.recognize_monoid_digraph",
                   "recognize.classify_all")


def per_layer(wl, untraced, traced, spans, setup, probes) -> tuple:
    from workloads import CLI_SUBCOMMANDS
    selfs = spanlib.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.name == "bench.pass"]
    bounds = list(zip(roots, roots[1:] + [len(spans)]))

    def busy(match) -> float:
        """Median over traced passes of the self time of matching spans."""
        return statistics.median([
            sum(selfs[k] for k in range(lo, hi) if match(spans[k].name))
            for lo, hi in bounds])

    def durations(match) -> list:
        return [s.duration for s in spans if match(s.name)]

    def ms(values, pick) -> float:
        return pick(values) * 1000 if values else 0.0

    counts = traced[0].counts
    classes = counts.get("graphs.classes", 0)
    rec_calls = counts.get("recognize.calls", 0)
    rec_busy = busy(lambda n: n in RECOGNIZE_SPANS)
    rec_durs = durations(lambda n: n in RECOGNIZE_SPANS)
    traced_wall = sum(spans[lo].duration for lo, _ in bounds)
    layer_self = sum(t for s, t in zip(spans, selfs)
                     if not s.name.startswith("bench."))
    tail_ms, pct, n = (stats.tail(rec_durs) if rec_durs else (0.0, 0.0, 0))
    m = {
        "setup.import_s": (statistics.median([a for a, _ in setup]), "s"),
        "setup.inputs_s": (statistics.median([b for _, b in setup]), "s"),
        "graphs.enumerate_s": (busy(lambda n: n == "graphs.enumerate_graphs"), "s"),
        "graphs.classes": (classes, "count"),
        "graphs.canonical_s": (busy(lambda n: n == "graphs.canonical_form"), "s"),
        "graphs.canonical_calls": (counts.get("graphs.canonical_calls", 0), "count"),
        "graphs.labelled_scanned": (wl.labelled_scanned, "count"),
        "graphs.class_yield": (classes / wl.labelled_scanned
                               if wl.labelled_scanned else 0.0, "ratio"),
        "recognize.busy_s": (rec_busy, "s"),
        "recognize.calls": (rec_calls, "count"),
        "recognize.nodes": (counts.get("recognize.nodes", 0), "count"),
        "recognize.nodes_per_s": (counts.get("recognize.nodes", 0) / rec_busy
                                  if rec_busy else 0.0, "1/s"),
        "recognize.call_p50_ms": (ms(rec_durs, statistics.median), "ms"),
        "recognize.call_tail_ms": (tail_ms * 1000, "ms"),
        "recognize.witness_ratio": (counts.get("recognize.witness", 0) / rec_calls
                                    if rec_calls else 0.0, "ratio"),
        "recognize.budget_ratio": (counts.get("recognize.budget-exceeded", 0)
                                   / rec_calls if rec_calls else 0.0, "ratio"),
        "recognize.sabidussi_s": (busy(lambda n: n == "recognize.sabidussi_check"), "s"),
        "recognize.sabidussi_nodes": (counts.get("recognize.sabidussi_nodes", 0),
                                      "count"),
        "witness.verify_s": (busy(lambda n: n.startswith("witness.")), "s"),
        "witness.verify_calls": (counts.get("witness.verify_calls", 0), "count"),
        "cli.interpreter_ms": (probes["cli.interpreter_ms"], "ms"),
        "cli.import_ms": (probes["cli.import_ms"], "ms"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_p50_ms"] = (
            ms(durations(lambda n, s=sub: n == f"cli.{s}"), statistics.median), "ms")
    m["trace.overhead_ratio"] = (
        statistics.median([t.wall / u.wall for u, t in zip(untraced, traced)]),
        "ratio")
    m["trace.coverage"] = (layer_self / traced_wall, "ratio")
    notes = {"recognize.call_tail_ms": f"p{pct:.2f} of {n} recognize calls"}
    return m, notes


def _print_metrics(metrics, notes) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {unit}{note}")


def main(argv=None) -> int:
    if not (SRC / "semicayley" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a "
              "semicayley checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_s, workloads = _setup()

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, str(ROOT))
    if args.setup_probe:
        return _setup_probe(wl, import_s)
    t0 = time.perf_counter()
    wl.build()
    setups = SetupSamples(args, (import_s, time.perf_counter() - t0))

    if args.trace:
        tracer = spanlib.Tracer()
        untraced, traced = _measure_pairs(wl, args.seconds, tracer, setups)
        results = untraced + traced
    else:
        results = _measure(wl, args.seconds, setups)
    setup = setups.samples
    extra = [wl.final_check()] if hasattr(wl, "final_check") else []
    rss_mb = _peak_rss_mb(wl)

    failures = [f for r in results + extra for f in r.failures]
    failures += _drift(args, results + extra)
    attempted = sum(r.instances for r in results + extra)
    failed = min(attempted, len(failures))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(results)} passes, {attempted} decisions")
    for r in extra:
        print(f"  check {r.key}: {r.counts} in {r.wall:.3f} s")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics, notes = per_layer(wl, untraced, traced, tracer.spans, setup,
                                   _cli_probes())
    else:
        metrics, notes = end_to_end(results, setup, rss_mb)
    _print_metrics(metrics, notes)
    print(f"  {'failed_ratio':32s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted})")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

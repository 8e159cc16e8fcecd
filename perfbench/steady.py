"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload NAME --seeds 1-10 [--trace 1]
        [--json PATH]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the run
length from BENCHMARK.json.  For every metric it prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median.  For end-to-end metrics it also prints the bound
from BENCHMARK.json; a spread at or above a third of its bound is marked.
Exits 1 if any run fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write the summary to this file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    ok = True
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            continue
        runs.append({"seed": seed, "took_s": took, "result": result})
        print(f"seed {seed}: {took:.1f} s, " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace), flush=True)
    if len(runs) < 2:
        return 1

    summary = {}
    print(f"\n{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spr = stats.spread(values)
        bound = bounds.get(name)
        flag = "  <-- over a third of its bound" if (
            bound is not None and spr >= bound / 3) else ""
        print(f"{name:32s} {statistics.median(values):12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spr:8.4f} {bound if bound is not None else '':>6}"
              f"{flag}")
        summary[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "spread": spr, "values": values}
    print(f"run time: median {statistics.median(r['took_s'] for r in runs):.1f} s,"
          f" max {max(r['took_s'] for r in runs):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "workload": args.workload, "trace": args.trace,
            "seeds": [r["seed"] for r in runs],
            "run_s": [r["took_s"] for r in runs],
            "metrics": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

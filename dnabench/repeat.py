#!/usr/bin/env python3
"""Runs each workload N times with seeds 1..N and prints, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median: the data behind BENCHMARK.json's bounds.

    python3 dnabench/repeat.py [--runs 10]

Every workload of BENCHMARK.json is run untraced for its run_seconds.
Spreads are computed as statistics.quantiles(values, n=4) gives them; a
spread above a third of the metric's bound is flagged with "!". Exits
non-zero if any run fails, reports correct=false, or the runs of a workload
do not all fail the same number of operations at the same share.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
               "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results, walls = [], []
        for seed in range(1, args.runs + 1):
            result, wall = run_once(workload, seed, 0)
            results.append(result)
            walls.append(wall)
            print(f"  {workload} seed {seed}: {wall:.1f} s, "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}", file=sys.stderr)
        failed = sorted({r["failed"] for r in results})
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(failed) == 1 and len(shares) == 1
        print(f"\n{workload}: correct={correct} failed={failed} "
              f"failed share(s)={shares} wall per run max {max(walls):.1f} s")
        print(f"  {'metric':<26}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound/3':>9}")
        for name, metric in results[0]["metrics"].items():
            m = summarize([r["metrics"][name]["value"] for r in results])
            flag = " !" if m["spread"] > bounds[name] / 3 else ""
            print(f"  {name:<26}{metric['unit']:>7}{m['median']:>14.6g}"
                  f"{m['q1']:>14.6g}{m['q3']:>14.6g}{m['spread']:>9.3f}"
                  f"{bounds[name] / 3:>9.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

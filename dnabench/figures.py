#!/usr/bin/env python3
"""Regenerates every reference figure in dnabench/README.md from scratch.

    python3 dnabench/figures.py [--runs 5] [--traced-runs 3]

For each workload it makes --runs untraced and --traced-runs traced runs
(seeds 1, 2, ...) and prints, as Markdown:

  * the end-to-end medians with their quartile spread,
  * the per-layer medians,
  * differential vs monolithic advance per workload (the paper's claim),
  * the tracing overhead: a traced run's own medians minus the untraced.

Takes about (runs + traced_runs) x workloads x (run_seconds + 6) seconds.
"""
import argparse
import sys

from repeat import SPEC, run_once, summarize

PER_WORKLOAD_NOTE = {
    "narrow-edits": "static route, ACL, announce/withdraw",
    "routing-churn": "link cost, link fail/recover",
    "read-flood": "static route, ACL, announce/withdraw",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--traced-runs", type=int, default=3)
    args = parser.parse_args()
    if min(args.runs, args.traced_runs) < 2:
        parser.error("--runs and --traced-runs must be at least 2")
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]

    e2e, layers, units = {}, {}, {}
    for workload in workloads:
        untraced = [run_once(workload, seed, 0)[0]
                    for seed in range(1, args.runs + 1)]
        traced = [run_once(workload, seed, 1)[0]
                  for seed in range(1, args.traced_runs + 1)]
        for result in untraced + traced:
            if not result["correct"]:
                sys.exit(f"{workload}: a run reported correct=false")
        for table, results in ((e2e, untraced), (layers, traced)):
            table[workload] = {
                name: summarize([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]}
            units.update((name, metric["unit"])
                         for name, metric in results[0]["metrics"].items())
        print(f"  {workload} done", file=sys.stderr)

    print(f"End-to-end medians of {args.runs} runs of {seconds} s "
          "(spread = quartile distance / median):\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for name in e2e[workloads[0]]:
        cells = [f"{e2e[w][name]['median']:.4g} ({e2e[w][name]['spread']:.0%})"
                 for w in workloads]
        print(f"| `{name}` | {units[name]} | " + " | ".join(cells) + " |")

    print(f"\nPer-layer medians of {args.traced_runs} traced runs:\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for name in layers[workloads[0]]:
        cells = [f"{layers[w][name]['median']:.4g}" for w in workloads]
        print(f"| `{name}` | {units[name]} | " + " | ".join(cells) + " |")

    print("\nDifferential vs monolithic advance of the same committed changes "
          "(sampled commits, fattree-k8, 992 invariants):\n")
    print("| workload | changes | differential ms | monolithic ms | speed-up |")
    print("|---|---|---|---|---|")
    for w in workloads:
        diff = layers[w]["engine.advance_ms"]["median"]
        mono = layers[w]["engine.mono_advance_ms"]["median"]
        print(f"| {w} | {PER_WORKLOAD_NOTE.get(w, '')} | {diff:.3g} | "
              f"{mono:.3g} | {mono / diff:.1f}x |")

    print("\nTracing overhead (traced run's median minus the untraced median):\n")
    print("| workload | commit p50 ms | what-if p50 ms | read p50 us |")
    print("|---|---|---|---|")
    for w in workloads:
        cells = []
        for traced, plain in (("traced.commit_p50_ms", "commit_p50_ms"),
                              ("traced.whatif_p50_ms", "whatif_p50_ms"),
                              ("traced.read_p50_us", "read_p50_us")):
            plain_median = e2e[w][plain]["median"]
            delta = layers[w][traced]["median"] - plain_median
            cells.append(f"{delta:+.3g} ({delta / plain_median:+.0%})")
        print(f"| {w} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

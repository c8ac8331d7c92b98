"""Run workloads over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]

Without --workload it runs every workload of BENCHMARK.json, so
``--seeds 7`` runs all three for seed 7. Each run is ``perfbench/run.py``
with the ``run_seconds`` of BENCHMARK.json, one after another; its table
(every metric by name and unit, with its sample count) is printed as it
comes. After the last seed of a workload, every gated metric gets the
median, quartiles and spread (q3 - q1) / median of its per-run values:
the figures the benchmark's bounds are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("results ")))
            result = json.loads(lines[-1])
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if len(args.seeds) < 2:
            continue
        print(f"{workload}: {len(args.seeds)} seeds")
        print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}", flush=True)


if __name__ == "__main__":
    main()

"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload field-maps --runs 10 [--first-seed 1] [--seconds 30]

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric the median and the quartile spread (Q3 - Q1) / median over the
runs, as ``statistics.quantiles(values, n=4)`` gives the quartiles,
next to the metric's bound in BENCHMARK.json. The raw results go to
``.bench_results/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        values = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {values}",
              flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_results", f"spread-{args.workload}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f" bound {bound}" if bound is not None else ""
        print(f"{name:40s} median {med:12.5g}  spread {spread:.4f}{limit}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share over runs: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

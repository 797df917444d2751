"""Benchmark of the cqed_fom CLI on three seeded workloads.

    python3 bench/run.py --workload emission-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run starts fresh worker processes with BLAS and OpenMP pinned to
one thread. ``SETUP_PROBES`` of them only set up (import ``cqed_fom.cli``
and run one tiny operation of every command kind) so that ``setup_s``
is a median; the last one also runs the workload's fixed operation list
``rounds`` times, where ``rounds`` follows from ``--seconds``. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``). ``--smoke`` runs every workload on tiny
inputs with the same checks and exits non-zero if any check fails.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("emission-sweep", "readout-contrast", "field-maps")
# nominal seconds of one round of each workload's operation list
ROUND_SECONDS = {"emission-sweep": 10, "readout-contrast": 10, "field-maps": 15}
SETUP_PROBES = 4  # set-up-only processes; the workload process adds one more sample
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the three operations that fail on every run: two in readout, one in field maps
EXPECTED_FAILED_PER_ROUND = {"emission-sweep": 0, "readout-contrast": 2, "field-maps": 1}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ, **PINNED)
    env.pop("CQED_FOM_LOG", None)
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, deadline):
    """Start a worker and wait for READY; (process, seconds from start to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _, err = finish(proc, deadline)
        raise BenchError(f"worker did not set up: {line.strip()} {err.strip()}")
    return proc, ready


def finish(proc, deadline):
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    return out, err


def run_workload(workload, seed, rounds, trace, size, work, setup_probes):
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size, "--work", work]
    samples = []
    for _ in range(setup_probes):
        proc, ready = start_worker([*base, "--setup-only"], deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited {proc.returncode}")
        samples.append(ready)
    proc, ready = start_worker([*base, "--rounds", str(rounds), "--trace", str(trace)], deadline)
    samples.append(ready)
    out, err = finish(proc, deadline)
    if err.strip():
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    summary["setup_s"] = statistics.median(samples)
    return summary


def end_to_end(s):
    return {
        "setup_s": {"value": s["setup_s"], "unit": "s"},
        "wall_s": {"value": s["wall_s"], "unit": "s"},
        "items_per_s": {"value": s["items"] / s["wall_s"], "unit": "1/s"},
        "cpu_s": {"value": s["cpu_s"], "unit": "s"},
        "peak_rss_mb": {"value": s["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(s):
    metrics = dict(s["layers"])
    metrics["cli.rows_written"] = {"value": s["items"], "unit": "count"}
    metrics["cli.output_bytes"] = {"value": s["output_bytes"], "unit": "B"}
    metrics["trace.wall_s"] = {"value": s["wall_s"], "unit": "s"}
    return metrics


def smoke(work):
    """Every workload on tiny inputs, traced, with all checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        s = run_workload(workload, 0, 1, 1, "smoke", os.path.join(work, workload), 0)
        expected = EXPECTED_FAILED_PER_ROUND[workload]
        missing = declared - set(per_layer(s))
        if missing:
            print(f"{workload}: per-layer metrics not reported: {sorted(missing)}")
        good = s["correct"] and s["failed"] == expected and not missing
        ok &= good
        print(f"{workload}: {'ok' if good else 'FAILED'} ({s['attempted']} ops,"
              f" {s['failed']} failed, expected {expected}) in {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(ROOT, "src", "cqed_fom", "cli.py")):
        print(f"no cqed_fom sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.smoke:
            return smoke(work)
        rounds = max(1, args.seconds // ROUND_SECONDS[args.workload])
        s = run_workload(args.workload, args.seed, rounds, args.trace, "full", work, SETUP_PROBES)
        result = {
            "correct": s["correct"],
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": per_layer(s) if args.trace else end_to_end(s),
        }
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


if __name__ == "__main__":
    sys.exit(main())

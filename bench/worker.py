"""One workload process: set up, run the operation list, check outputs.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread. It imports
``cqed_fom`` from the checkout's ``src`` once, runs one tiny operation
of every command kind, prints ``READY`` (the parent's set-up clock stops
there), then calls ``cqed_fom.cli.main`` in-process on every operation
of the workload, ``--rounds`` times. Each operation writes into a
scratch directory that is checked and then emptied. The last stdout
line is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_cli():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cqed_fom.cli

    if not os.path.abspath(cqed_fom.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"cqed_fom imported from {cqed_fom.cli.__file__}, not from {src}")
    return cqed_fom.cli


def call_main(argv):
    """Run the CLI in-process; (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = sys.modules["cqed_fom.cli"].main(argv)
    return rc, err.getvalue()


def warm_up(work):
    """One tiny operation of each command kind."""
    from workloads import q, qs

    d = os.path.join(work, "warmup")
    os.makedirs(d, exist_ok=True)
    tiny_system = {"g": q(10, "GHz"), "kappa_wg": q(10, "GHz"), "gamma": q(100, "MHz")}
    grid = os.path.join(d, "tiny.fgrd")
    synth = {"size": qs([80, 40, 40], "nm"), "shape": [8, 4, 4], "period": q(100, "nm"),
             "sigma": q(30, "nm"), "bridge_half_width": q(5, "nm"), "output": "tiny.fgrd"}
    steps = [
        ("fom-sweep", {"system": tiny_system, "sweep": {"g": qs([10], "GHz")}}),
        ("spectrum", {"system": tiny_system,
                      "probe": {"start": q(-1, "GHz"), "stop": q(1, "GHz"), "points": 11}}),
        ("contrast", {"system": tiny_system, "spin": {"zeeman_split": q(1, "GHz")},
                      "contrast": {"start": q(0, "GHz"), "stop": q(10, "GHz"), "points": 2}}),
        ("synth-field", {"synth": synth}),
        ("modevol", {"grid": {"path": grid}}),
        ("gmap", {"grid": {"path": grid}}),
        ("implant-stats", {"grid": {"path": grid},
                           "implant": {"diameters": qs([0, 20], "nm"), "bins": 8}}),
    ]
    cfg_path = os.path.join(d, "config.json")
    for command, cfg in steps:
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        rc, err = call_main([command, "--config", cfg_path, "--out", d])
        if rc != 0:
            raise RuntimeError(f"warm-up {command} exited {rc}: {err.strip()}")
    shutil.rmtree(d)


def empty_dir(path):
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


def table_rows(out):
    """Data rows of the CSV tables an operation wrote."""
    rows = 0
    for name in os.listdir(out):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                rows += sum(c.count(b"\n") for c in iter(lambda: fh.read(1 << 24), b"")) - 1
    return rows


def output_bytes(op, out):
    if op.command == "synth-field":  # the grids directory keeps earlier grids
        return os.path.getsize(os.path.join(out, op.info["grid"]))
    return sum(os.path.getsize(os.path.join(out, n)) for n in os.listdir(out))


def materialize(ops, work, grids):
    """Write each operation's config, with grid paths made absolute."""
    paths = {}
    cfg_dir = os.path.join(work, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    for op in ops:
        cfg = dict(op.config)
        if "grid" in cfg:
            cfg["grid"] = dict(cfg["grid"], path=os.path.join(grids, cfg["grid"]["path"]))
        paths[op.name] = os.path.join(cfg_dir, op.name + ".json")
        with open(paths[op.name], "w") as fh:
            json.dump(cfg, fh, indent=1)
    return paths


def digests(op, out):
    names = [op.info["grid"]] if op.command == "synth-field" else sorted(os.listdir(out))
    result = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return result


def check_op(op, out, ctx, first, tracer):
    """None if the outputs pass, else the fault text.

    The first round runs the full checks; later rounds only confirm that
    every output file is byte-identical to the first round's.
    """
    import checks

    seen = first.get(op.name)
    if seen is not None:
        if digests(op, out) != seen[0]:
            return "check failed: outputs differ from the first round"
        return seen[1]
    if tracer is not None:
        tracer.enabled = False
    try:
        checks.CHECKS[op.kind](op, out, ctx)
        fault = None
    except checks.KnownFault as exc:
        fault = str(exc)
    except checks.CheckFailed as exc:
        fault = f"check failed: {exc}"
    except Exception as exc:  # a check that cannot read an output fails that output
        traceback.print_exc()
        fault = f"check error: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.enabled = True
    first[op.name] = (digests(op, out), fault)
    return fault


def run_round(ops, cfg_paths, dirs, ctx, first, tracer, log):
    """Run every operation once; per-operation times and the round's tallies."""
    import checks

    times, cpus = [], []
    rows = out_bytes = failed = 0
    correct = True
    scratch, grids = dirs
    for op in ops:
        out = grids if op.out_dir == "grids" else scratch
        argv = [op.command, "--config", cfg_paths[op.name], "--out", out, "--threads", str(op.threads)]
        if tracer is not None:
            tracer.op = op.name
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc, err = call_main(argv)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        times.append(t1 - t0)
        cpus.append((ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime))

        fault = None
        if rc != 0:
            try:
                fault = json.loads(err.strip().splitlines()[-1])["error"]["message"]
            except (ValueError, KeyError, IndexError):
                fault = err.strip()
            fault = f"exit {rc}: {fault}"
        else:
            fault = check_op(op, out, ctx, first, tracer)
        if fault is None:
            rows += table_rows(out)
            out_bytes += output_bytes(op, out)
        else:
            failed += 1
            if not (op.expect_fault and op.expect_fault in fault):
                correct = False
                log(f"{op.name}: {fault}")
        if out == scratch:
            empty_dir(scratch)
    finish = checks.FINISH.get(ctx["workload"])
    if finish is not None and ctx.get("round") == 0:
        try:
            finish(ctx)
        except checks.CheckFailed as exc:
            correct = False
            log(f"round check failed: {exc}")
    empty_dir(grids)
    return {"times": times, "cpus": cpus, "rows": rows, "bytes": out_bytes,
            "failed": failed, "correct": correct}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_cli()
    warm_up(args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy as np

    import workloads
    from spans import Tracer, layer_metrics

    nproc = len(os.sched_getaffinity(0))
    ops = workloads.build(args.workload, args.seed, args.size, nproc)
    scratch = os.path.join(args.work, "out")
    grids = os.path.join(args.work, "grids")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(grids, exist_ok=True)
    cfg_paths = materialize(ops, args.work, grids)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    per_round, first = [], {}
    ctx = {"workload": args.workload, "rng": np.random.default_rng([args.seed, 99]),
           "grids": grids, "scratch": scratch}
    for r in range(args.rounds):
        ctx["round"] = r
        per_round.append(run_round(ops, cfg_paths, (scratch, grids), ctx, first, tracer, log))

    def med(key):
        return statistics.median(r[key] for r in per_round)

    def op_medians(key):
        """Sum over operations of each operation's median over rounds."""
        return sum(statistics.median(r[key][i] for r in per_round) for i in range(len(ops)))

    summary = {
        "correct": all(r["correct"] for r in per_round),
        "attempted": len(ops) * args.rounds,
        "failed": sum(r["failed"] for r in per_round),
        "wall_s": op_medians("times"),
        "cpu_s": op_medians("cpus"),
        "items": med("rows"),
        "output_bytes": med("bytes"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer.spans, args.rounds)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

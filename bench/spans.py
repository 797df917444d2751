"""Spans around the public functions of each cqed_fom layer.

``Tracer.install`` replaces each listed function with a wrapper in
every place the package looks it up: the defining module, every module
that imported it by name, and module-level dispatch tables such as
``cli.COMMANDS``. The program's files are not touched. Each call
records a span with its start, end, parent span (the innermost open
span of the same thread) and counts read from its arguments and
result. Spans stay in memory; ``layer_metrics`` reduces them at the end.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

# layer -> public functions that get a span
LAYERS = {
    "config": ("parse_config",),
    "core": ("build_liouvillian", "evolve", "two_time_correlation", "propagate_integrals"),
    "fom": ("cavity_efficiency", "indistinguishability", "fom_sweep"),
    "reflection": ("reflectivity", "apply_drift", "spin_spectra", "contrast_curve"),
    "fieldgrid": ("synth_mode", "save_grid", "load_grid", "mode_volume", "g_field"),
    "implant": ("implant_distribution", "median_vs_D_curve", "violin_export"),
    "cli": (
        "main",
        "cmd_fom_sweep",
        "cmd_spectrum",
        "cmd_contrast",
        "cmd_modevol",
        "cmd_gmap",
        "cmd_implant_stats",
        "cmd_synth_field",
    ),
}


@dataclass
class Span:
    id: int
    key: str
    parent: int | None
    op: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _size(x):
    return 0 if x is None else int(getattr(x, "size", len(x)))


def _counts(key, args, kwargs):
    """Work counts read from one call's arguments and result."""
    if key == "core.two_time_correlation":
        return {"cells": _size(_arg(args, kwargs, 4, "t_grid")) * _size(_arg(args, kwargs, 5, "tau_grid"))}
    if key == "reflection.reflectivity":
        return {"probe_points": _size(_arg(args, kwargs, 2, "probe_grid"))}
    if key == "reflection.contrast_curve":
        return {"detunings": _size(_arg(args, kwargs, 2, "cavity_detunings"))}
    if key in ("fieldgrid.save_grid", "fieldgrid.load_grid"):
        path = _arg(args, kwargs, 1 if key.endswith("save_grid") else 0, "path")
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self.op = ""
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key, fn):
        measure_alloc = key == "fieldgrid.load_grid"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(next(self._ids), key, stack[-1].id if stack else None, self.op,
                        time.perf_counter())
            stack.append(span)
            if measure_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure_alloc:
                    span.counts["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            span.counts.update(_counts(key, args, kwargs))
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever the package holds a reference to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cqed_fom" or name.startswith("cqed_fom.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cqed_fom.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    value[k] = wrapped


def layer_metrics(spans: list[Span], rounds: int) -> dict:
    """Per-layer numbers, per round, from the recorded spans.

    busy_s sums a function's span durations (over threads, so it can
    exceed wall time); self_s subtracts the time of its child spans.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def busy(key, op_suffix=""):
        return sum(s.duration for s in spans if s.key == key and s.op.endswith(op_suffix))

    def self_time(key):
        return sum(s.duration - child_time.get(s.id, 0.0) for s in spans if s.key == key)

    def total(key, count):
        return sum(s.counts.get(count, 0) for s in spans if s.key == key)

    def calls(key):
        return sum(1 for s in spans if s.key == key)

    def under(span, key):
        p = span.parent
        while p is not None:
            parent = by_id[p]
            if parent.key == key:
                return True
            p = parent.parent
        return False

    cells = total("core.two_time_correlation", "cells")
    i_calls = calls("fom.indistinguishability")
    # the same sweep at --threads 1 and at --threads min(2, nproc)
    serial = busy("fom.fom_sweep", "-t1")
    threaded = busy("fom.fom_sweep", "-threaded")
    contrast_points = sum(s.counts["probe_points"] for s in spans
                          if s.key == "reflection.reflectivity" and under(s, "reflection.contrast_curve"))
    detunings = total("reflection.contrast_curve", "detunings")
    loads = [s.counts["alloc_peak"] for s in spans if s.key == "fieldgrid.load_grid"]

    per_round = {
        "config.parse_config.busy_s": (busy("config.parse_config"), "s"),
        "core.build_liouvillian.busy_s": (busy("core.build_liouvillian"), "s"),
        "core.evolve.busy_s": (busy("core.evolve"), "s"),
        "core.two_time_correlation.busy_s": (busy("core.two_time_correlation"), "s"),
        "core.two_time_correlation.cells": (cells, "count"),
        "core.propagate_integrals.busy_s": (busy("core.propagate_integrals"), "s"),
        "fom.cavity_efficiency.self_s": (self_time("fom.cavity_efficiency"), "s"),
        "fom.indistinguishability.self_s": (self_time("fom.indistinguishability"), "s"),
        "fom.indistinguishability.calls": (i_calls, "count"),
        "fom.fom_sweep.busy_s": (busy("fom.fom_sweep"), "s"),
        "reflection.reflectivity.busy_s": (busy("reflection.reflectivity"), "s"),
        "reflection.reflectivity.probe_points": (total("reflection.reflectivity", "probe_points"), "count"),
        "reflection.apply_drift.busy_s": (busy("reflection.apply_drift"), "s"),
        "reflection.spin_spectra.busy_s": (busy("reflection.spin_spectra"), "s"),
        "reflection.contrast_curve.self_s": (self_time("reflection.contrast_curve"), "s"),
        "fieldgrid.synth_mode.busy_s": (busy("fieldgrid.synth_mode"), "s"),
        "fieldgrid.save_grid.busy_s": (busy("fieldgrid.save_grid"), "s"),
        "fieldgrid.save_grid.bytes": (total("fieldgrid.save_grid", "bytes"), "B"),
        "fieldgrid.load_grid.busy_s": (busy("fieldgrid.load_grid"), "s"),
        "fieldgrid.load_grid.bytes": (total("fieldgrid.load_grid", "bytes"), "B"),
        "fieldgrid.mode_volume.busy_s": (busy("fieldgrid.mode_volume"), "s"),
        "fieldgrid.g_field.self_s": (self_time("fieldgrid.g_field"), "s"),
        "implant.implant_distribution.busy_s": (busy("implant.implant_distribution"), "s"),
        "implant.median_vs_D_curve.self_s": (self_time("implant.median_vs_D_curve"), "s"),
        "implant.violin_export.busy_s": (busy("implant.violin_export"), "s"),
        "cli.cmd_gmap.self_s": (self_time("cli.cmd_gmap"), "s"),
        "cli.main.self_s": (self_time("cli.main"), "s"),
    }
    out = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in per_round.items()}
    # ratios and peaks are per call, so rounds do not divide them
    out["fom.cells_per_point"] = {"value": cells / i_calls if i_calls else 0.0, "unit": "count"}
    out["fom.fom_sweep.parallel_speedup"] = {
        "value": serial / threaded if threaded else 0.0, "unit": "ratio"}
    out["reflection.probe_points_per_detuning"] = {
        "value": contrast_points / detunings if detunings else 0.0, "unit": "count"}
    out["fieldgrid.load_grid.rss_growth_mb"] = {
        "value": max(loads) / 2**20 if loads else 0.0, "unit": "MB"}
    return out

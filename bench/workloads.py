"""Seeded operation lists for the three benchmark workloads.

Every operation is one CLI command with a generated JSON config. The
same seed gives the same configs; the seed only moves values inside
fixed ranges, so the amount of work per run stays close to constant.
``size="smoke"`` shrinks every input for the quick self-test while
keeping the same commands and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Fixed physics shared by the workloads (cycle frequencies in GHz).
KAPPA_WG_GHZ = 10.0
GAMMA_MHZ = 100.0
DIPOLE_CM = 2.31 * 3.33564e-30  # given in C*m so no Debye constant is involved
MEDIUM_INDEX = 2.4  # the CLI's default medium when no grid is configured

# The two readout operations that fail on every run because of faults in
# `reflection` (README.md, "Known faults" 1 and 2).
FAULT_NONUNIFORM = "drift convolution requires a uniform probe grid"
FAULT_COARSE = "probe grid too coarse"
# The hole-free field-map operation whose mode volume misses the closed
# form (known fault 3); it is counted as failed by its check.
FAULT_HOLE_FREE = "hole-free grid has air voxels on x = k*period"


@dataclass
class Op:
    """One CLI command of a workload, with what its checks need."""

    name: str
    command: str
    config: dict
    threads: int = 1
    kind: str = ""
    info: dict = field(default_factory=dict)
    expect_fault: str | None = None
    out_dir: str | None = None  # None: the emptied scratch directory


def q(value, unit):
    return {"value": value, "unit": unit}


def qs(values, unit):
    return {"values": [float(v) for v in values], "unit": unit}


def _jittered_log(rng, lo, hi, n, jitter=0.01):
    """n log-spaced values from lo to hi, each scaled by a seeded factor within 1 +- jitter.

    The jitter is kept small because the cost of one emission point grows
    with the square of its time grid, which follows g closely; larger
    moves would make the amount of work depend on the seed.
    """
    base = np.geomspace(lo * np.exp(jitter), hi * np.exp(-jitter), n)
    return [float(v * np.exp(rng.uniform(-jitter, jitter))) for v in base]


# ---------------------------------------------------------------------------
# emission-sweep


def emission_ops(seed: int, size: str = "full", nproc: int = 1) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    smoke = size == "smoke"
    n_pts = 2 if smoke else 3
    g_lo, g_hi = (8.0, 12.0) if smoke else (0.5, 50.0)
    threads = min(2, nproc)
    ops = []

    def system(delta_ghz, gamma_star_mhz):
        return {
            "kappa_wg": q(KAPPA_WG_GHZ, "GHz"),
            "gamma": q(GAMMA_MHZ, "MHz"),
            "gamma_star": q(gamma_star_mhz, "MHz"),
            "delta_ca": q(delta_ghz, "GHz"),
        }

    def g_sweep(name, delta, gstar, n_max=1, g_values=None, threads_=1):
        g_values = g_values or _jittered_log(rng, g_lo, g_hi, n_pts)
        cfg = {
            "system": system(delta, gstar),
            "sweep": {"g": qs(g_values, "GHz")},
            "dipole": {"mu": q(DIPOLE_CM, "C*m")},
            "hilbert": {"n_max": n_max},
        }
        info = {"delta": delta, "gamma_star": gstar, "n_max": n_max, "points": len(g_values)}
        return Op(name, "fom-sweep", cfg, threads=threads_, kind="sweep", info=info)

    ops.append(g_sweep("resonant", 0.0, 0.0))
    resonant_dephased = g_sweep("resonant-dephased", 0.0, 50.0)
    ops.append(resonant_dephased)
    ops.append(g_sweep("detuned", 20.0, 0.0))
    # the sweep run twice; its points are mid-sized so that running two at
    # once never sets the peak RSS, which the serial 0.5 GHz points set
    detuned = g_sweep("detuned-dephased-t1", 20.0, 50.0,
                      g_values=_jittered_log(rng, 10.0, 20.0, 2))
    ops.append(detuned)
    twin = g_sweep(
        "detuned-dephased-threaded", 20.0, 50.0,
        g_values=detuned.config["sweep"]["g"]["values"], threads_=threads,
    )
    twin.info["twin_of"] = detuned.name
    ops.append(twin)

    v_lo, v_hi = (0.5, 1.0) if smoke else (0.03, 30.0)
    volumes = _jittered_log(rng, v_lo, v_hi, n_pts)
    vol = Op(
        "volume-dephased",
        "fom-sweep",
        {
            "system": system(0.0, 50.0),
            "sweep": {"volume": qs(volumes, "lambda_n3")},
            "dipole": {"mu": q(DIPOLE_CM, "C*m")},
        },
        kind="sweep",
        info={"delta": 0.0, "gamma_star": 50.0, "n_max": 1, "points": n_pts, "volumes": volumes},
    )
    ops.append(vol)

    # n_max = 2 on the middle point of the dephased resonant sweep
    mid = n_pts // 2
    sub = resonant_dephased.config["sweep"]["g"]["values"][mid : mid + 1]
    nmax2 = g_sweep("resonant-dephased-nmax2", 0.0, 50.0, n_max=2, g_values=list(sub))
    nmax2.info["same_as"] = (resonant_dephased.name, mid)
    ops.append(nmax2)
    return ops


# ---------------------------------------------------------------------------
# readout-contrast


def _readout_system(g, delta_ca=None):
    sysd = {"g": q(g, "GHz"), "kappa_wg": q(KAPPA_WG_GHZ, "GHz"), "gamma": q(GAMMA_MHZ, "MHz")}
    if delta_ca is not None:
        sysd["delta_ca"] = q(delta_ca, "GHz")
    return sysd


def _atom_like_root(g, delta_a):
    """Lossless dressed resonance nearest the bare transition, GHz."""
    half = 0.5 * delta_a
    root = math.sqrt(g * g + half * half)
    return half + root if delta_a >= 0.0 else half - root


def readout_ops(seed: int, size: str = "full") -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    smoke = size == "smoke"
    gs = (3.0, 10.0) if smoke else (1.0, 3.0, 10.0, 30.0)
    drifts = (0.0, 50.0) if smoke else (0.0, 50.0, 200.0)
    n_det = 5 if smoke else 61
    split = float(rng.uniform(0.8, 1.2))
    spin_base = {"zeeman_split": q(split, "GHz")}
    ops = []

    for drift in drifts:
        for g in gs:
            spin = dict(spin_base, drift=q(drift, "MHz"))
            cfg = {
                "system": _readout_system(g),
                "spin": spin,
                "contrast": {"start": q(0.0, "GHz"), "stop": q(1500.0, "GHz"), "points": n_det},
            }
            info = {"g": g, "drift": drift, "split": split, "policy": "max-contrast"}
            ops.append(Op(f"contrast-g{g:g}-d{drift:g}", "contrast", cfg, kind="contrast", info=info))

    fixed_probe = float(rng.uniform(-30.0, 0.0))
    for drift in drifts:
        spin = dict(spin_base, drift=q(drift, "MHz"))
        cfg = {
            "system": _readout_system(10.0),
            "spin": spin,
            "contrast": {
                "start": q(0.0, "GHz"),
                "stop": q(1500.0, "GHz"),
                "points": n_det,
                "probe_policy": q(fixed_probe, "GHz"),
            },
        }
        info = {"g": 10.0, "drift": drift, "split": split, "policy": fixed_probe}
        ops.append(Op(f"contrast-fixed-d{drift:g}", "contrast", cfg, kind="contrast", info=info))

    # spin spectra around the atom-like dip of a seeded cavity detuning
    for drift in drifts:
        for g in gs:
            delta_ca = float(rng.uniform(50.0, 1500.0))
            sigma = drift * 1e-3
            centre = _atom_like_root(g, -delta_ca)
            half = max(2.0, 20.0 * sigma) + 1.0  # holds both dips; fixed so rows do not vary
            points = int(round(2.0 * half / 0.01)) + 1  # 10 MHz steps
            cfg = {
                "system": _readout_system(g, delta_ca),
                "spin": dict(spin_base, drift=q(drift, "MHz")),
                "probe": {
                    "start": q(centre - half, "GHz"),
                    "stop": q(centre + half, "GHz"),
                    "points": points,
                },
            }
            info = {"g": g, "drift": drift, "split": split, "delta_ca": delta_ca}
            ops.append(Op(f"spectrum-g{g:g}-d{drift:g}", "spectrum", cfg, kind="spectrum", info=info))

    # bare-cavity spectrum without a spin block: plain R(delta)
    g = float(rng.uniform(1.0, 30.0))
    delta_ca = float(rng.uniform(0.0, 100.0))
    cfg = {
        "system": _readout_system(g, delta_ca),
        "probe": {"start": q(-delta_ca - 40.0, "GHz"), "stop": q(40.0, "GHz"), "points": 2001},
    }
    info = {"g": g, "drift": 0.0, "split": None, "delta_ca": delta_ca}
    ops.append(Op("spectrum-nospin", "spectrum", cfg, kind="spectrum", info=info))

    # the README reflection config at 40001 points (known fault 1)
    cfg = {
        "system": _readout_system(10.0, 1500.0),
        "spin": {"zeeman_split": q(1, "GHz"), "drift": q(50, "MHz")},
        "probe": {"start": q(-1502, "GHz"), "stop": q(-1498, "GHz"), "points": 40001},
    }
    ops.append(Op("readme-spectrum-40001", "spectrum", cfg, kind="spectrum",
                  info={"g": 10.0, "drift": 50.0, "split": 1.0, "delta_ca": 1500.0},
                  expect_fault=FAULT_NONUNIFORM))
    # large detuning with a narrow drift hits the silent probe-grid cap (known fault 2)
    cfg = {
        "system": _readout_system(10.0),
        "spin": {"zeeman_split": q(1, "GHz"), "drift": q(10, "MHz")},
        "contrast": {"start": q(1400, "GHz"), "stop": q(1500, "GHz"), "points": 3},
    }
    ops.append(Op("contrast-1400-1500-d10", "contrast", cfg, kind="contrast",
                  info={"g": 10.0, "drift": 10.0, "split": 1.0, "policy": "max-contrast"},
                  expect_fault=FAULT_COARSE))
    return ops


# ---------------------------------------------------------------------------
# field-maps


def field_ops(seed: int, size: str = "full") -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    smoke = size == "smoke"
    shape = [40, 20, 12] if smoke else [200, 100, 60]
    size_nm = [400.0, 200.0, 120.0]
    specs = [("default", {"preset": "default"}), ("ultra", {"preset": "ultra-confined"})]
    for k in range(1 if smoke else 3):
        specs.append(
            (
                f"seeded{k}",
                {
                    "size": qs(size_nm, "nm"),
                    "shape": shape,
                    "period": q(100.0, "nm"),
                    "sigma": q(float(rng.uniform(25.0, 60.0)), "nm"),
                    "bridge_half_width": q(float(rng.uniform(4.0, 10.0)), "nm"),
                    "hole_half_length": q(float(rng.uniform(25.0, 40.0)), "nm"),
                },
            )
        )
    dipole = {"mu": q(DIPOLE_CM, "C*m")}
    ops = []
    for name, synth in specs:
        if smoke:
            synth = dict(synth, shape=shape, size=qs(size_nm, "nm"))
        grid_file = f"{name}.fgrd"
        ops.append(Op(f"synth-{name}", "synth-field", {"synth": dict(synth, output=grid_file)},
                      kind="synth", info={"grid": grid_file}, out_dir="grids"))
        grid = {"grid": {"path": grid_file}}  # resolved against the grids dir
        ops.append(Op(f"modevol-{name}", "modevol", dict(grid), kind="modevol",
                      info={"grid": grid_file}))
        diameters = [0.0] + sorted(float(d) for d in rng.uniform(5.0, 100.0, 4))
        implant = {"diameters": qs(diameters, "nm"), "bins": int(rng.integers(32, 97))}
        ops.append(Op(f"implant-{name}", "implant-stats", dict(grid, dipole=dipole, implant=implant),
                      kind="implant", info={"grid": grid_file, "diameters": diameters}))
        if name == "default":
            ops.append(Op(f"gmap-{name}", "gmap", dict(grid, dipole=dipole), kind="gmap",
                          info={"grid": grid_file}))

    # hole-free Gaussian-cosine mode with a closed-form volume (known fault 3)
    n = 31 if smoke else 91
    sigma_nm, period_nm = 30.0, 100.0
    box = 12.0 * sigma_nm
    hole_free = {
        "size": qs([box, box, box], "nm"),
        "shape": [n, n, n],
        "period": q(period_nm, "nm"),
        "sigma": q(sigma_nm, "nm"),
        "bridge_half_width": q(0.0, "nm"),
        "hole_half_length": q(0.0, "nm"),
        "output": "hole_free.fgrd",
    }
    ops.append(Op("synth-hole-free", "synth-field", {"synth": hole_free}, kind="synth",
                  info={"grid": "hole_free.fgrd"}, out_dir="grids"))
    ops.append(Op("modevol-hole-free", "modevol", {"grid": {"path": "hole_free.fgrd"}},
                  kind="modevol-closed-form",
                  info={"grid": "hole_free.fgrd", "sigma": sigma_nm * 1e-9,
                        "period": period_nm * 1e-9},
                  expect_fault=FAULT_HOLE_FREE))
    return ops


WORKLOADS = {
    "emission-sweep": emission_ops,
    "readout-contrast": readout_ops,
    "field-maps": field_ops,
}


def build(workload: str, seed: int, size: str = "full", nproc: int = 1) -> list[Op]:
    if workload == "emission-sweep":
        return emission_ops(seed, size, nproc)
    return WORKLOADS[workload](seed, size)

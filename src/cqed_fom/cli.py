"""Command-line front end emitting plot-ready tables.

Commands
--------
    fom-sweep      efficiency/indistinguishability over g or mode volume
    spectrum       reflection spectrum (spin-resolved when configured)
    contrast       spin contrast against cavity-emitter detuning
    modevol        mode volume of a stored or synthesized field grid
    gmap           per-voxel coupling-rate map
    implant-stats  median/percentile tables over implantation disks
    synth-field    write the analytic test mode to a grid file

Shared flags: ``--config`` (JSON, unit-tagged), ``--out`` output
directory, ``--threads`` (validated, >= 1; every command runs serially),
``--format`` csv or json for tables. Exit codes: 0 success, 2 config
error, 3 numerical non-convergence, 4 I/O error; failures print a
machine-readable JSON object to stderr. ``CQED_FOM_LOG`` sets the log
level.

Outputs are deterministic: floats print as shortest round-trip decimals
(``repr``), JSON keys are sorted, tables carry no timestamps, and row
order never depends on ``--threads``. Numeric CSV cells are never quoted;
text cells are quoted by the ``csv`` module, as ``csv.writer`` with
``lineterminator="\n"`` quotes them.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from . import fieldgrid
from .config import RunConfig, parse_config
from .errors import ConfigError, GridFormatError, NonConvergedError
from .fom import fom_sweep
from .implant import ImplantRegion, implant_distribution, median_vs_D_curve, violin_export
from .params import DipoleSpec, SystemParams
from .reflection import contrast_curve, reflectivity, spin_spectra
from .units import debye, to_ghz

log = logging.getLogger("cqed_fom")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

DEFAULT_DIPOLE = DipoleSpec(mu=debye(2.31))
DEFAULT_MEDIUM_INDEX = 2.4
# rows per CSV write: large enough to amortise the call, small enough that
# the joined text stays a fraction of a megabyte
CSV_CHUNK_ROWS = 4096


def _json_safe(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _column_text(values: np.ndarray):
    """Shortest round-trip text of every number in a numeric column."""
    return map(repr, values.tolist())


def _column_json(values: np.ndarray) -> list:
    """JSON cells of a numeric column; non-finite floats become null."""
    cells = values.tolist()
    if values.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = None
    return cells


def _column_formatter(fmt: str):
    return _column_text if fmt == "csv" else _column_json


def _csv_text_column(cells, n_columns: int):
    """Cells of a text column as they appear in a CSV row of ``n_columns`` fields.

    The csv module itself quotes each distinct cell once: its rules differ
    across Python versions (a bare CR) and with the row (a lone empty
    field), so they are not restated here. ``cells`` is read twice.
    """
    if not isinstance(cells, Sequence):
        raise TypeError(f"text column must be a sequence, got {type(cells).__name__}")
    distinct = list(set(cells))
    pad = ("",) if n_columns > 1 else ()
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerows((cell,) + pad for cell in distinct)
    # cut the newline and, with a pad field, the comma before it
    cut = len(pad) + 1
    text = {cell: line[:-cut] for cell, line in zip(distinct, lines)}
    if all(cell == quoted for cell, quoted in text.items()):
        return cells
    return map(text.__getitem__, cells)


def _write_table(path: str, columns: dict, fmt: str) -> None:
    """Write named columns as a CSV or JSON table, formatting per column.

    A numpy array column is numeric and formatted in one lazy pass; any
    other column is a sequence (it is read twice for CSV) of ready cells:
    text for CSV, JSON values for JSON. CSV never quotes a numeric cell,
    since ``repr`` of a number holds no comma, quote or line break; text
    cells are quoted by the csv module, once per distinct cell. Rows are
    joined and written in chunks of ``CSV_CHUNK_ROWS``, so the text of
    the whole table is never held at once.
    """
    if fmt == "csv":
        cells = [
            _column_text(col) if isinstance(col, np.ndarray) else _csv_text_column(col, len(columns))
            for col in columns.values()
        ]
        rows = map(",".join, zip(*cells))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(columns)
            while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
                fh.write("\n".join(chunk))
                fh.write("\n")
    else:
        cells = [
            _column_json(col) if isinstance(col, np.ndarray) else col for col in columns.values()
        ]
        doc = {"columns": list(columns), "rows": list(zip(*cells))}
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    log.info("wrote %s", path)


def _table_name(stem: str, fmt: str) -> str:
    return f"{stem}.{'json' if fmt == 'json' else 'csv'}"


def _reduced_field(cfg: RunConfig, command: str, axis=None) -> fieldgrid._Reduced:
    """Float reductions of the grid file when configured, else of the synthetic mode."""
    if cfg.grid is not None:
        g = cfg.grid
        source = fieldgrid._grid_source(g.path, g.fmt, g.wavelength, g.n_ref)
    elif cfg.synth is not None:
        source = fieldgrid._synth_source(cfg.synth)
    else:
        raise ConfigError(f"command {command!r} needs a 'grid' or 'synth' block")
    return fieldgrid._reduce(*source, axis)


def _medium_index(cfg: RunConfig) -> float:
    if cfg.grid is not None:
        return cfg.grid.n_ref
    if cfg.synth is not None:
        return cfg.synth.n_ref
    return DEFAULT_MEDIUM_INDEX


def cmd_fom_sweep(cfg: RunConfig, out: str, fmt: str) -> None:
    base = cfg.require("system", "fom-sweep")
    sweep = cfg.require("sweep", "fom-sweep")
    dipole = cfg.dipole or DEFAULT_DIPOLE
    medium = _medium_index(cfg)
    results = fom_sweep(
        base,
        g_values=sweep.g_values,
        volumes=sweep.volumes,
        volume_units=sweep.volume_units,
        dipole=dipole,
        medium_index=medium,
    )
    columns = {
        "g_GHz": to_ghz(np.array([r.g for r in results])),
        # v_norm is None only where g = 0, which maps to no finite volume
        "V_lambda_n3": np.array([math.nan if r.v_norm is None else r.v_norm for r in results]),
        "beta": np.array([r.beta for r in results]),
        "beta_wg": np.array([r.beta_wg for r in results]),
        "indist": np.array([r.indist for r in results]),
        "cooperativity": np.array([r.cooperativity for r in results]),
        "status": [r.status for r in results],
    }
    _write_table(os.path.join(out, _table_name("fom_sweep", fmt)), columns, fmt)


def _reflection_system(cfg: RunConfig, command: str) -> SystemParams:
    params = cfg.require("system", command)
    if params.kappa_wg <= 0.0:
        raise ConfigError("system.kappa_wg: must be > 0 for reflection (no waveguide port)")
    return params


def cmd_spectrum(cfg: RunConfig, out: str, fmt: str) -> None:
    params = _reflection_system(cfg, "spectrum")
    probe = cfg.require("probe", "spectrum")
    if cfg.spin is not None:
        down, up = spin_spectra(params, cfg.spin, probe)
        columns = {"detuning_GHz": to_ghz(probe), "R_down": down.values, "R_up": up.values}
    else:
        spec = reflectivity(params, -params.delta_ca, probe)
        columns = {"detuning_GHz": to_ghz(probe), "R": spec.values}
    _write_table(os.path.join(out, _table_name("spectrum", fmt)), columns, fmt)


def cmd_contrast(cfg: RunConfig, out: str, fmt: str) -> None:
    params = _reflection_system(cfg, "contrast")
    spin = cfg.require("spin", "contrast")
    detunings = cfg.require("contrast_detunings", "contrast")
    curve = contrast_curve(params, spin, detunings, probe_policy=cfg.probe_policy)
    columns = {
        "cavity_detuning_GHz": to_ghz(curve.cavity_detunings),
        "probe_GHz": to_ghz(curve.best_probe),
        "contrast": curve.contrast,
        "abs_diff": curve.abs_diff,
    }
    _write_table(os.path.join(out, _table_name("contrast", fmt)), columns, fmt)


def cmd_modevol(cfg: RunConfig, out: str, fmt: str) -> None:
    res = fieldgrid._mode_volume(_reduced_field(cfg, "modevol"))
    row = {
        "V_m3": res.v_m3,
        "V_lambda_n3": res.v_norm,
        "argmax_ix": res.argmax_index[0],
        "argmax_iy": res.argmax_index[1],
        "argmax_iz": res.argmax_index[2],
        "argmax_x_m": res.argmax_position[0],
        "argmax_y_m": res.argmax_position[1],
        "argmax_z_m": res.argmax_position[2],
        "max_energy_density": res.max_energy_density,
    }
    columns = {name: np.array([value]) for name, value in row.items()}
    _write_table(os.path.join(out, _table_name("modevol", fmt)), columns, fmt)


def cmd_gmap(cfg: RunConfig, out: str, fmt: str) -> None:
    dipole = cfg.dipole or DEFAULT_DIPOLE
    field = fieldgrid._g_field(_reduced_field(cfg, "gmap", dipole.axis), dipole)
    nx, ny, nz = field.shape
    # only nx + ny + nz coordinates and two flags are distinct: format each
    # once, then tile
    format_column = _column_formatter(fmt)
    xs, ys, zs = (list(format_column(a)) for a in field.axes())
    flags = list(format_column(np.array([0, 1])))
    dielectric = field.dielectric_mask.ravel(order="F")
    columns = {
        "x_m": xs * (ny * nz),
        "y_m": [y for y in ys for _ in range(nx)] * nz,
        "z_m": [z for z in zs for _ in range(nx * ny)],
        "g_GHz": to_ghz(1.0) * field.values.ravel(order="F"),
        "dielectric": list(map(flags.__getitem__, dielectric.tolist())),
    }
    _write_table(os.path.join(out, _table_name("gmap", fmt)), columns, fmt)


def cmd_implant_stats(cfg: RunConfig, out: str, fmt: str) -> None:
    settings = cfg.require("implant", "implant-stats")
    dipole = cfg.dipole or DEFAULT_DIPOLE
    field = fieldgrid._g_field(_reduced_field(cfg, "implant-stats", dipole.axis), dipole)
    curve = median_vs_D_curve(
        field, settings.diameters, center=settings.center, plane=settings.plane
    )
    columns = {
        "D_nm": curve[:, 0] * 1e9,
        "median_GHz": to_ghz(curve[:, 1]),
        "p40_GHz": to_ghz(curve[:, 2]),
        "p60_GHz": to_ghz(curve[:, 3]),
    }
    _write_table(os.path.join(out, _table_name("implant_median", fmt)), columns, fmt)
    violin_d = settings.violin_diameter
    if violin_d is None:
        violin_d = float(settings.diameters.max())
    dist = implant_distribution(
        field,
        ImplantRegion(diameter=violin_d, center=settings.center, plane=settings.plane),
    )
    violin = violin_export(dist, n_bins=settings.bins)
    columns = {
        "bin_center_GHz": to_ghz(violin.bin_centers),
        "density": violin.density / to_ghz(1.0),
    }
    _write_table(os.path.join(out, _table_name("implant_violin", fmt)), columns, fmt)
    summary = {
        "D_nm": violin_d * 1e9,
        "center_x_m": dist.center[0],
        "center_y_m": dist.center[1],
        "center_ix": dist.center_index[0],
        "center_iy": dist.center_index[1],
        "plane_index": dist.plane_index,
        "median_GHz": to_ghz(dist.median),
        "p25_GHz": to_ghz(dist.p25),
        "p40_GHz": to_ghz(dist.p40),
        "p60_GHz": to_ghz(dist.p60),
        "p75_GHz": to_ghz(dist.p75),
        "whisker_low_GHz": to_ghz(violin.whisker_low),
        "whisker_high_GHz": to_ghz(violin.whisker_high),
        "min_GHz": to_ghz(dist.min),
        "max_GHz": to_ghz(dist.max),
    }
    path = os.path.join(out, "implant_summary.json")
    with open(path, "w") as fh:
        json.dump({k: _json_safe(v) for k, v in summary.items()}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    log.info("wrote %s", path)


def cmd_synth_field(cfg: RunConfig, out: str, fmt: str) -> None:
    spec = cfg.require("synth", "synth-field")
    path = os.path.join(out, cfg.synth_output)
    fieldgrid._save_checked(*fieldgrid._synth_source(spec), path)
    log.info("wrote %s", path)


COMMANDS = {
    "fom-sweep": cmd_fom_sweep,
    "spectrum": cmd_spectrum,
    "contrast": cmd_contrast,
    "modevol": cmd_modevol,
    "gmap": cmd_gmap,
    "implant-stats": cmd_implant_stats,
    "synth-field": cmd_synth_field,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqed-fom",
        description="Cavity QED figure-of-merit tables from unit-tagged JSON configs.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted (>= 1); commands run serially"
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    return parser


def _emit_error(kind: str, message: str, code: int) -> None:
    doc = {"error": {"type": kind, "message": message, "exit_code": code}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    level = os.environ.get("CQED_FOM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        _emit_error("ConfigError", "--threads must be >= 1", EXIT_CONFIG)
        return EXIT_CONFIG
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](cfg, args.out, args.fmt)
    except ConfigError as exc:
        _emit_error("ConfigError", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except ValueError as exc:
        _emit_error("ValueError", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except NonConvergedError as exc:
        _emit_error("NonConvergedError", str(exc), EXIT_NONCONVERGED)
        return EXIT_NONCONVERGED
    except GridFormatError as exc:
        _emit_error("GridFormatError", str(exc), EXIT_IO)
        return EXIT_IO
    except OSError as exc:
        _emit_error("IOError", str(exc), EXIT_IO)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

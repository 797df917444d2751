"""Field commands reduce grids one z-slab at a time: memory, output parity, error parity."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from cqed_fom import cli, fieldgrid
from cqed_fom.config import parse_config
from cqed_fom.constants import DEBYE, SPEED_OF_LIGHT
from cqed_fom.fieldgrid import FieldGrid, g_field, load_grid, mode_volume, save_grid, synth_mode
from cqed_fom.fom import g_from_mode_volume
from cqed_fom.params import DipoleSpec
from cqed_fom.units import to_ghz

ALIGNED = {"mu": {"value": 2.31, "unit": "Debye"}}
FIXED = {"mu": {"value": 2.31, "unit": "Debye"}, "orientation": [0.6, 0.0, 0.8]}
IMPLANT = {"diameters": {"values": [0, 10, 30, 60], "unit": "nm"}, "bins": 12}
# a small default-preset grid: it keeps the preset's holes and bridge
SMALL_SYNTH = {"preset": "default", "shape": [30, 16, 10]}
OUTPUTS = {
    "modevol": ["modevol"],
    "gmap": ["gmap"],
    "implant-stats": ["implant_median", "implant_violin"],
}


def _run(tmp_path, command, payload, *extra, name="cfg.json", out="out"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(payload))
    out = tmp_path / out
    return cli.main([command, "--config", str(cfg), "--out", str(out), *extra]), out


def _outputs(out, command, fmt):
    names = [f"{stem}.{fmt}" for stem in OUTPUTS[command]]
    if command == "implant-stats":
        names.append("implant_summary.json")
    return {name: (out / name).read_bytes() for name in names}


# --- memory ---------------------------------------------------------------------


@pytest.mark.parametrize("command", ["synth-field", "modevol", "implant-stats"])
def test_field_commands_never_hold_the_complex_field(tmp_path, command):
    # a FieldGrid alone is 56 B per voxel; the reductions need eps and at
    # most two float arrays, 24 B per voxel, plus one z-slab at a time
    shape = [60, 40, 30]
    grid = tmp_path / "m.fgrd"
    assert _run(tmp_path, "synth-field", {"synth": {"preset": "default", "shape": shape,
                                                    "output": str(grid)}})[0] == 0
    payload = {
        "synth-field": {"synth": {"preset": "default", "shape": shape, "output": "again.fgrd"}},
        "modevol": {"grid": {"path": str(grid)}},
        "implant-stats": {"grid": {"path": str(grid)}, "implant": IMPLANT},
    }[command]
    tracemalloc.start()
    try:
        rc, _ = _run(tmp_path, command, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak / math.prod(shape) < 40.0


# --- output parity with the FieldGrid path ----------------------------------------


def _fieldgrid_path(cfg, command, axis=None):
    """The reduction of the FieldGrid that load_grid or synth_mode builds."""
    if cfg.grid is not None:
        g = cfg.grid
        grid = load_grid(g.path, fmt=g.fmt, wavelength=g.wavelength, n_ref=g.n_ref)
    else:
        grid = synth_mode(cfg.synth)
    return fieldgrid._reduce(*fieldgrid._grid_slabs(grid), axis)


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("grids")
    for name in ("small.fgrd", "small.csv"):
        cfg = root / "synth.json"
        cfg.write_text(json.dumps({"synth": dict(SMALL_SYNTH, output=name)}))
        assert cli.main(["synth-field", "--config", str(cfg), "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dipole", [ALIGNED, FIXED], ids=["aligned", "fixed-axis"])
@pytest.mark.parametrize("source", ["fgrd", "csv", "synth"])
@pytest.mark.parametrize("command", ["modevol", "gmap", "implant-stats"])
def test_field_command_output_matches_the_fieldgrid_path(
    tmp_path, monkeypatch, grid_files, command, source, dipole, fmt
):
    if source == "synth":
        payload = {"synth": SMALL_SYNTH}
    else:
        payload = {"grid": {"path": str(grid_files / f"small.{source}")}}
    payload = dict(payload, dipole=dipole, implant=IMPLANT)
    rc, out = _run(tmp_path, command, payload, "--format", fmt)
    assert rc == 0
    sliced = _outputs(out, command, fmt)

    monkeypatch.setattr(cli, "_reduced_field", _fieldgrid_path)
    rc, out = _run(tmp_path, command, payload, "--format", fmt, out="ref")
    assert rc == 0
    assert sliced == _outputs(out, command, fmt)


@pytest.mark.parametrize("source", ["fgrd", "csv"])
def test_modevol_and_gmap_match_the_public_functions(tmp_path, grid_files, source):
    path = grid_files / f"small.{source}"
    grid = load_grid(path, wavelength=737e-9, n_ref=2.4)
    rc, out = _run(tmp_path, "modevol", {"grid": {"path": str(path)}}, "--format", "json")
    assert rc == 0
    doc = json.loads((out / "modevol.json").read_text())
    row = dict(zip(doc["columns"], doc["rows"][0]))
    expected = mode_volume(grid)
    assert (row["V_m3"], row["V_lambda_n3"]) == (expected.v_m3, expected.v_norm)
    assert row["max_energy_density"] == expected.max_energy_density

    dipole = DipoleSpec(mu=2.31 * DEBYE, orientation=(0.6, 0.0, 0.8))
    rc, out = _run(tmp_path, "gmap", {"grid": {"path": str(path)}, "dipole": FIXED}, out="g")
    assert rc == 0
    g_col = np.loadtxt(out / "gmap.csv", delimiter=",", skiprows=1, usecols=3)
    field = g_field(grid, dipole)
    np.testing.assert_array_equal(g_col, to_ghz(1.0) * field.values.ravel(order="F"))


def test_in_memory_reductions_match_whole_grid_arithmetic():
    # whole-grid arithmetic on a random field with three non-zero components
    rng = np.random.default_rng(11)
    shape = (9, 7, 5)
    grid = FieldGrid(
        eps=1.0 + 4.0 * rng.random(shape),
        efield=rng.standard_normal(shape + (3,)) + 1j * rng.standard_normal(shape + (3,)),
        dx=1e-9, dy=2e-9, dz=3e-9, origin=np.zeros(3), wavelength=737e-9, n_ref=2.4,
    )
    intensity = np.sum(np.abs(grid.efield) ** 2, axis=-1)
    u = grid.eps * intensity
    v_m3 = float(u.sum() * grid.voxel_volume / u.max())
    assert mode_volume(grid).v_m3 == v_m3
    axis = (0.6, 0.0, 0.8)
    dipole = DipoleSpec(mu=2.31 * DEBYE, orientation=axis)
    amplitude = np.abs(np.tensordot(grid.efield, np.array(axis, dtype=complex), axes=([3], [0])))
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / grid.wavelength
    expected = g_from_mode_volume(v_m3, dipole, omega) * amplitude / math.sqrt(intensity.max())
    np.testing.assert_array_equal(g_field(grid, dipole).values, expected)


# --- error parity -------------------------------------------------------------------


def _small_grid():
    rng = np.random.default_rng(3)
    shape = (5, 4, 3)
    return FieldGrid(
        eps=1.0 + rng.random(shape),
        efield=rng.standard_normal(shape + (3,)) + 0j,
        dx=1e-9, dy=1e-9, dz=1e-9, origin=np.zeros(3), wavelength=737e-9, n_ref=2.4,
    )


# byte offsets of the eps and field payloads of the 5x4x3 grid's .fgrd file
EPS_AT = 4 + 2 + 11 * 8
FIELD_AT = EPS_AT + 8 * 60


def _bad_magic(raw):
    raw[:4] = b"NOPE"


def _truncated(raw):
    del raw[-17:]


def _nan_eps(raw):
    struct.pack_into("<d", raw, EPS_AT + 8 * 7, math.nan)


def _inf_last_slab(raw):
    struct.pack_into("<d", raw, FIELD_AT + 48 * (2 + 5 * (1 + 4 * 2)) + 24, math.inf)


def _eps_below_one(raw):
    struct.pack_into("<d", raw, EPS_AT + 8 * 11, 0.5)


def _zero_field(raw):
    raw[FIELD_AT:] = bytes(len(raw) - FIELD_AT)


def _header(index, value):
    def edit(raw):
        struct.pack_into("<d", raw, 6 + 8 * index, value)

    return edit


@pytest.mark.parametrize("command", ["modevol", "gmap", "implant-stats"])
@pytest.mark.parametrize(
    "edit,kind,code,message",
    [
        (_bad_magic, "GridFormatError", 4, "{path}: bad magic b'NOPE', expected b'FGRD'"),
        (_truncated, "GridFormatError", 4,
         "{path}: payload size mismatch, expected 3454 bytes for 5x4x3 voxels, found 3437"),
        (_nan_eps, "GridFormatError", 4, "{path}: non-finite values in payload"),
        (_inf_last_slab, "GridFormatError", 4, "{path}: non-finite values in payload"),
        (_eps_below_one, "ValueError", 2, "relative permittivity below 1: min eps = 0.5"),
        (_zero_field, "ValueError", 2, "mode field is identically zero"),
        (_header(9, 0.0), "ValueError", 2, "wavelength must be finite and > 0"),
        (_header(9, -737e-9), "ValueError", 2, "wavelength must be finite and > 0"),
        (_header(10, 0.0), "ValueError", 2, "n_ref must be finite and > 0"),
        (_header(10, -2.4), "ValueError", 2, "n_ref must be finite and > 0"),
        (_header(3, 0.0), "ValueError", 2, "dx must be finite and > 0, got 0.0"),
    ],
    ids=["bad-magic", "truncated", "nan-eps", "inf-last-slab", "eps-below-1", "zero-field",
         "wavelength-0", "wavelength-negative", "n_ref-0", "n_ref-negative", "dx-0"],
)
def test_grid_errors_keep_their_type_text_and_exit_code(
    tmp_path, capsys, command, edit, kind, code, message
):
    path = tmp_path / "m.fgrd"
    save_grid(_small_grid(), path)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    rc, out = _run(tmp_path, command, {"grid": {"path": str(path)}, "implant": IMPLANT})
    assert rc == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": kind, "message": message.format(path=path), "exit_code": code}
    assert not out.exists() or not list(out.iterdir())


def test_csv_grid_with_non_finite_field_is_a_value_error(tmp_path, capsys):
    path = tmp_path / "m.csv"
    save_grid(_small_grid(), path)
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[6] = "nan"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    rc, _ = _run(tmp_path, "modevol", {"grid": {"path": str(path)}})
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {
        "type": "ValueError", "message": "efield contains non-finite values", "exit_code": 2
    }


def test_synth_field_with_a_vanishing_mode_fails_and_keeps_the_old_file(tmp_path, capsys):
    # a 1 pm envelope underflows to zero at every voxel centre
    payload = {"synth": dict(SMALL_SYNTH, sigma={"value": 1e-3, "unit": "nm"}, output="m.fgrd")}
    old = tmp_path / "out" / "m.fgrd"
    old.parent.mkdir()
    old.write_bytes(b"earlier grid")
    rc, out = _run(tmp_path, "synth-field", payload)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {
        "type": "ValueError", "message": "mode field is identically zero", "exit_code": 2
    }
    assert sorted(p.name for p in out.iterdir()) == ["m.fgrd"]
    assert old.read_bytes() == b"earlier grid"


@pytest.mark.parametrize("output", ["m.fgrd", "m.csv"])
def test_synth_field_writes_what_save_grid_writes(tmp_path, output):
    rc, out = _run(tmp_path, "synth-field", {"synth": dict(SMALL_SYNTH, output=output)})
    assert rc == 0
    save_grid(synth_mode(parse_config(json.dumps({"synth": SMALL_SYNTH})).synth), tmp_path / output)
    assert (out / output).read_bytes() == (tmp_path / output).read_bytes()

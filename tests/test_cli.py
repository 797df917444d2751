"""End-to-end command line runs against temporary workspaces."""

import csv
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqed_fom import cli
from cqed_fom.errors import NonConvergedError
from cqed_fom.fieldgrid import g_field, load_grid_binary, mode_volume, synth_mode
from cqed_fom.config import parse_config
from cqed_fom.units import to_ghz

SWEEP_CFG = {
    "system": {
        "kappa_wg": {"value": 10, "unit": "GHz"},
        "gamma": {"value": 100, "unit": "MHz"},
        "gamma_star": {"value": 50, "unit": "MHz"},
    },
    "sweep": {"g": {"values": [2, 5, 10], "unit": "GHz"}},
}

SPECTRUM_CFG = {
    "system": {
        "g": {"value": 10, "unit": "GHz"},
        "kappa_wg": {"value": 10, "unit": "GHz"},
        "gamma": {"value": 100, "unit": "MHz"},
        "delta_ca": {"value": 1500, "unit": "GHz"},
    },
    "spin": {
        "zeeman_split": {"value": 1, "unit": "GHz"},
        "drift": {"value": 50, "unit": "MHz"},
    },
    "probe": {
        "start": {"value": -1502, "unit": "GHz"},
        "stop": {"value": -1498, "unit": "GHz"},
        "points": 321,
    },
}

CONTRAST_CFG = {
    "system": {
        "g": {"value": 10, "unit": "GHz"},
        "kappa_wg": {"value": 10, "unit": "GHz"},
        "gamma": {"value": 100, "unit": "MHz"},
    },
    "spin": {"zeeman_split": {"value": 1, "unit": "GHz"}},
    "contrast": {
        "start": {"value": 5, "unit": "GHz"},
        "stop": {"value": 300, "unit": "GHz"},
        "points": 12,
    },
}

FIELD_CFG = {
    "synth": {"preset": "default", "shape": [60, 30, 20], "output": "mode.fgrd"},
    "implant": {
        "diameters": {"values": [0, 20, 50, 100], "unit": "nm"},
        "bins": 16,
    },
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command, payload, *extra):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out), *extra])
    return rc, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fom_sweep_writes_expected_table(tmp_path):
    rc, out = run_cli(tmp_path, "fom-sweep", SWEEP_CFG)
    assert rc == 0
    rows = read_rows(out / "fom_sweep.csv")
    assert rows[0] == [
        "g_GHz",
        "V_lambda_n3",
        "beta",
        "beta_wg",
        "indist",
        "cooperativity",
        "status",
    ]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["2.0", "5.0", "10.0"]
    assert all(r[-1] == "ok" for r in rows[1:])
    betas = [float(r[2]) for r in rows[1:]]
    assert betas == sorted(betas)


def test_fom_sweep_json_format(tmp_path):
    rc, out = run_cli(tmp_path, "fom-sweep", SWEEP_CFG, "--format", "json")
    assert rc == 0
    payload = json.loads((out / "fom_sweep.json").read_text())
    assert payload["columns"][0] == "g_GHz"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0][-1] == "ok"


def test_fom_sweep_row_failure_marks_status_and_null(tmp_path):
    cfg = {
        "system": SWEEP_CFG["system"],
        "sweep": {"g": {"values": [0, 5], "unit": "GHz"}},
    }
    rc, out = run_cli(tmp_path, "fom-sweep", cfg, "--format", "json")
    assert rc == 0
    payload = json.loads((out / "fom_sweep.json").read_text())
    first = payload["rows"][0]
    assert first[-1] != "ok"
    assert first[4] is None


@pytest.mark.parametrize(
    "system,values,cause",
    [
        # g^2 underflows, and so does the volume's denominator
        ({}, {"g": {"values": [1e-170, 5], "unit": "GHz"}}, "ValueError: no finite mode volume"),
        # g**2 overflows
        (
            {"kappa_wg": {"value": 1e150, "unit": "GHz"}},
            {"g": {"values": [1e150, 1e130], "unit": "GHz"}},
            "ValueError: no finite mode volume",
        ),
        # the coupling of this volume overflows
        ({}, {"volume": {"values": [1e-300, 1e-21], "unit": "m3"}}, "ValueError: mode volume"),
    ],
    ids=["g-underflow", "g-overflow", "volume-underflow"],
)
def test_fom_sweep_extreme_value_fails_only_its_row(tmp_path, system, values, cause):
    cfg = {"system": {**SWEEP_CFG["system"], **system}, "sweep": values}
    rc, out = run_cli(tmp_path, "fom-sweep", cfg)
    assert rc == 0
    bad, good = read_rows(out / "fom_sweep.csv")[1:]
    assert bad[-1].startswith(cause)
    (kind, axis), = values.items()
    alone = tmp_path / "alone"
    alone.mkdir()
    cfg["sweep"] = {kind: {**axis, "values": axis["values"][1:]}}
    rc, out = run_cli(alone, "fom-sweep", cfg)
    assert rc == 0
    assert read_rows(out / "fom_sweep.csv")[1:] == [good]
    assert good[-1] == "ok"


def test_fom_sweep_at_rates_near_1e130_ghz_gives_numbers(tmp_path):
    # SWEEP_CFG with every rate times 1e130: beta and I are scale free
    huge = {
        "system": {
            key: {**node, "value": node["value"] * 1e130}
            for key, node in SWEEP_CFG["system"].items()
        },
        "sweep": {"g": {"values": [2e130, 5e130, 1e131], "unit": "GHz"}},
    }
    rc, out = run_cli(tmp_path, "fom-sweep", SWEEP_CFG)
    assert rc == 0
    plain = read_rows(out / "fom_sweep.csv")[1:]
    rc, out = run_cli(tmp_path, "fom-sweep", huge)
    assert rc == 0
    rows = read_rows(out / "fom_sweep.csv")[1:]
    assert [r[-1] for r in rows] == ["ok"] * 3
    for row, ref in zip(rows, plain):
        # beta, beta_wg, indist, cooperativity
        assert [float(c) for c in row[2:6]] == pytest.approx(
            [float(c) for c in ref[2:6]], rel=1e-14, abs=0.0
        )


def test_spectrum_emits_two_spin_branches(tmp_path):
    rc, out = run_cli(tmp_path, "spectrum", SPECTRUM_CFG)
    assert rc == 0
    rows = read_rows(out / "spectrum.csv")
    assert rows[0] == ["detuning_GHz", "R_down", "R_up"]
    assert len(rows) == 322
    det = np.array([float(r[0]) for r in rows[1:]])
    r_down = np.array([float(r[1]) for r in rows[1:]])
    r_up = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(r_down <= 1.0 + 1e-9)
    assert np.all(r_up <= 1.0 + 1e-9)
    # dispersive spin dips sit one Zeeman split apart
    step = det[1] - det[0]
    sep = abs(det[r_up.argmin()] - det[r_down.argmin()])
    assert abs(sep - 1.0) <= step + 1e-12
    assert r_down.min() < 1.0 - 1e-3
    assert r_up.min() < 1.0 - 1e-3


def test_spectrum_without_spin_is_single_branch(tmp_path):
    cfg = {
        "system": SPECTRUM_CFG["system"],
        "probe": SPECTRUM_CFG["probe"],
    }
    rc, out = run_cli(tmp_path, "spectrum", cfg)
    assert rc == 0
    rows = read_rows(out / "spectrum.csv")
    assert rows[0] == ["detuning_GHz", "R"]
    assert len(rows) == 322


def test_contrast_outputs_bounded_column(tmp_path):
    rc, out = run_cli(tmp_path, "contrast", CONTRAST_CFG)
    assert rc == 0
    rows = read_rows(out / "contrast.csv")
    assert rows[0] == ["cavity_detuning_GHz", "probe_GHz", "contrast", "abs_diff"]
    assert len(rows) == 13
    values = [float(r[2]) for r in rows[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_synth_field_then_modevol_matches_library(tmp_path):
    rc, out = run_cli(tmp_path, "synth-field", FIELD_CFG)
    assert rc == 0
    grid_path = out / "mode.fgrd"
    assert grid_path.exists()

    cfg2 = dict(FIELD_CFG)
    cfg2["grid"] = {"path": str(grid_path)}
    rc2, out2 = run_cli(tmp_path, "modevol", cfg2, "--format", "json")
    assert rc2 == 0
    payload = json.loads((out2 / "modevol.json").read_text())
    row = dict(zip(payload["columns"], payload["rows"][0]))

    spec = parse_config(json.dumps(FIELD_CFG)).synth
    expected = mode_volume(synth_mode(spec))
    assert row["V_m3"] == expected.v_m3
    assert row["V_lambda_n3"] == expected.v_norm

    grid = load_grid_binary(grid_path)
    np.testing.assert_array_equal(grid.eps, synth_mode(spec).eps)


def test_gmap_covers_every_voxel(tmp_path):
    cfg = {
        "synth": {"preset": "default", "shape": [24, 12, 8], "output": "g.fgrd"},
        "dipole": {"mu": {"value": 2.31, "unit": "Debye"}},
    }
    rc, out = run_cli(tmp_path, "synth-field", cfg)
    assert rc == 0
    cfg["grid"] = {"path": str(out / "g.fgrd")}
    rc2, out2 = run_cli(tmp_path, "gmap", cfg)
    assert rc2 == 0
    rows = read_rows(out2 / "gmap.csv")
    assert rows[0] == ["x_m", "y_m", "z_m", "g_GHz", "dielectric"]
    assert len(rows) == 1 + 24 * 12 * 8
    g_col = np.array([float(r[3]) for r in rows[1:]])
    assert g_col.max() > 0.0


def test_implant_stats_outputs(tmp_path):
    rc, out = run_cli(tmp_path, "implant-stats", FIELD_CFG)
    assert rc == 0
    median_rows = read_rows(out / "implant_median.csv")
    assert median_rows[0] == ["D_nm", "median_GHz", "p40_GHz", "p60_GHz"]
    assert len(median_rows) == 5
    medians = [float(r[1]) for r in median_rows[1:]]
    assert medians == sorted(medians, reverse=True)

    violin_rows = read_rows(out / "implant_violin.csv")
    assert violin_rows[0] == ["bin_center_GHz", "density"]
    assert len(violin_rows) == 17

    summary = json.loads((out / "implant_summary.json").read_text())
    assert summary["median_GHz"] >= summary["p25_GHz"]
    assert summary["max_GHz"] >= summary["median_GHz"]


def test_missing_config_file_is_io_error(tmp_path, capsys):
    rc = cli.main(["fom-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 4
    assert err["error"]["type"] == "IOError"


def test_unknown_key_is_config_error_with_suggestion(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"system": {"kapa_wg": {"value": 1, "unit": "GHz"}}})
    rc = cli.main(["fom-sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 2
    assert "kappa_wg" in err["error"]["message"]


def test_missing_required_block_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"system": SWEEP_CFG["system"]})
    rc = cli.main(["fom-sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "sweep" in err["error"]["message"]


@pytest.mark.parametrize(
    "block,message",
    [
        ({"grid": {"path": "mode.fgrd", "n_ref": 0}}, "grid.n_ref: must be positive"),
        ({"grid": {"path": "mode.fgrd", "n_ref": -2.4}}, "grid.n_ref: must be positive"),
        ({"synth": {"preset": "default", "n_ref": 0}}, "synth.n_ref: must be positive"),
    ],
)
def test_fom_sweep_rejects_non_positive_medium_index(tmp_path, capsys, block, message):
    # the medium index sets V_lambda_n3: 0 divided by zero, -2.4 gave a negative volume
    rc, out = run_cli(tmp_path, "fom-sweep", {**SWEEP_CFG, **block})
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "ConfigError", "message": message, "exit_code": 2}
    assert not (out / "fom_sweep.csv").exists()


@pytest.mark.parametrize("command,payload", [("spectrum", SPECTRUM_CFG), ("contrast", CONTRAST_CFG)])
def test_reflection_without_waveguide_port_names_its_key(tmp_path, capsys, monkeypatch, command,
                                                         payload):
    def never(*args, **kwargs):
        raise AssertionError("a probe grid was built")

    for name in ("reflectivity", "spin_spectra", "contrast_curve"):
        monkeypatch.setattr(cli, name, never)
    system = {**payload["system"], "kappa_wg": {"value": 0, "unit": "GHz"}}
    rc, out = run_cli(tmp_path, command, {**payload, "system": system})
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {
        "type": "ConfigError",
        "message": "system.kappa_wg: must be > 0 for reflection (no waveguide port)",
        "exit_code": 2,
    }


def test_spectrum_at_extreme_rates_is_finite(tmp_path):
    # g^2 of these rates overflows a float: the reflection scales the rates first
    huge = {"value": 1e150, "unit": "GHz"}
    cfg = {
        "system": {"g": huge, "kappa_wg": huge},
        "probe": {"start": {"value": -1e150, "unit": "GHz"}, "stop": huge, "points": 101},
    }
    rc, out = run_cli(tmp_path, "spectrum", cfg)
    assert rc == 0
    values = np.array([float(row[1]) for row in read_rows(out / "spectrum.csv")[1:]])
    assert values.size == 101
    assert np.all(np.isfinite(values)) and values.max() <= 1.0


def _contrast_at(g, kappa_wg, split, detunings, gamma=0.0):
    return {
        "system": {"g": g, "kappa_wg": kappa_wg, "gamma": {"value": gamma, "unit": "GHz"}},
        "spin": {"zeeman_split": split},
        "contrast": {"start": detunings[0], "stop": detunings[1], "points": 3},
    }


def test_contrast_at_extreme_coupling_is_finite(tmp_path):
    # g^2 of these rates overflows a float: the auto probe grid scales the rates first
    huge = {"value": 1e150, "unit": "GHz"}
    cfg = _contrast_at(huge, huge, huge, ({"value": -1e150, "unit": "GHz"}, huge))
    rc, out = run_cli(tmp_path, "contrast", cfg)
    assert rc == 0
    rows = np.array([[float(v) for v in row] for row in read_rows(out / "contrast.csv")[1:]])
    assert rows.shape == (3, 4) and np.all(np.isfinite(rows))
    assert np.all((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0))


@pytest.mark.parametrize(
    "cfg,message",
    [
        # 5 kappa alone exceeds the largest double, so no probe grid can hold the line
        (_contrast_at({"value": 10, "unit": "GHz"}, {"value": 1e298, "unit": "GHz"},
                      {"value": 1, "unit": "GHz"},
                      ({"value": 5, "unit": "GHz"}, {"value": 300, "unit": "GHz"}), gamma=0.1),
         "reflection out of double range: the rates are too large for a probe grid"
         " (its width overflows)"),
        # kappa 320 decades below g: the grid step is subnormal, |P|^2 underflows
        (_contrast_at({"value": 1e200, "unit": "GHz"}, {"value": 1e-120, "unit": "GHz"},
                      {"value": 1, "unit": "GHz"},
                      ({"value": 5, "unit": "GHz"}, {"value": 300, "unit": "GHz"})),
         "reflection out of double range: the rates and probe span too many decades"
         " (|P|^2 underflows)"),
    ],
    ids=["kappa-1e298", "g-1e200-kappa-1e-120"],
)
def test_contrast_beyond_double_range_is_a_config_error(tmp_path, capsys, cfg, message):
    rc, out = run_cli(tmp_path, "contrast", cfg)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "ValueError", "message": message, "exit_code": 2}
    assert not (out / "contrast.csv").exists()


def test_bad_grid_payload_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.fgrd"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    cfg = write_cfg(tmp_path, {"grid": {"path": str(bad)}})
    rc = cli.main(["modevol", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "GridFormatError"


def test_nonconverged_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    def boom(cfg, out, fmt):
        raise NonConvergedError("emission integral did not settle")

    monkeypatch.setitem(cli.COMMANDS, "fom-sweep", boom)
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    rc = cli.main(["fom-sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3
    assert err["error"]["type"] == "NonConvergedError"


@pytest.mark.parametrize(
    "command,payload,outputs",
    [
        ("fom-sweep", SWEEP_CFG, ["fom_sweep.csv"]),
        ("spectrum", SPECTRUM_CFG, ["spectrum.csv"]),
        ("contrast", CONTRAST_CFG, ["contrast.csv"]),
        (
            "implant-stats",
            FIELD_CFG,
            ["implant_median.csv", "implant_violin.csv", "implant_summary.json"],
        ),
    ],
)
def test_outputs_are_deterministic_across_runs_and_threads(tmp_path, command, payload, outputs):
    cfg = write_cfg(tmp_path, payload)
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / tag
        rc = cli.main([command, "--config", cfg, "--out", str(out), "--threads", threads])
        assert rc == 0
        blobs.append([(out / name).read_bytes() for name in outputs])
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


def test_synth_field_binary_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, FIELD_CFG)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli.main(["synth-field", "--config", cfg, "--out", str(out)])
        assert rc == 0
        blobs.append((out / "mode.fgrd").read_bytes())
    assert blobs[0] == blobs[1]


def test_emitted_csv_reparses_as_floats(tmp_path):
    rc, out = run_cli(tmp_path, "fom-sweep", SWEEP_CFG)
    assert rc == 0
    rows = read_rows(out / "fom_sweep.csv")
    for row in rows[1:]:
        for cell in row[:-1]:
            float(cell)


def _gmap_reference_csv(cfg_payload):
    """Row-wise gmap table: one csv.writer row per voxel, repr per cell."""
    cfg = parse_config(json.dumps(cfg_payload))
    field = g_field(synth_mode(cfg.synth), cfg.dipole)
    xs, ys, zs = field.axes()
    nx, ny, nz = field.shape
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x_m", "y_m", "z_m", "g_GHz", "dielectric"])
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                writer.writerow(
                    [
                        repr(float(xs[i])),
                        repr(float(ys[j])),
                        repr(float(zs[k])),
                        repr(float(to_ghz(1.0) * field.values[i, j, k])),
                        repr(int(field.dielectric_mask[i, j, k])),
                    ]
                )
    return buf.getvalue()


@pytest.mark.parametrize("orientation", ["aligned", [0.6, 0.0, 0.8]])
def test_gmap_csv_matches_row_wise_reference(tmp_path, orientation):
    cfg = {
        "synth": {"preset": "ultra-confined", "shape": [14, 9, 6]},
        "dipole": {"mu": {"value": 2.31, "unit": "Debye"}, "orientation": orientation},
    }
    reference = _gmap_reference_csv(cfg)
    rc, out = run_cli(tmp_path, "gmap", cfg)
    assert rc == 0
    assert (out / "gmap.csv").read_text() == reference
    rc, out = run_cli(tmp_path, "gmap", cfg, "--format", "json")
    assert rc == 0
    rows = json.loads((out / "gmap.json").read_text())["rows"]
    expected = list(csv.reader(io.StringIO(reference)))[1:]
    assert rows == [[float(c) for c in r[:4]] + [int(r[4])] for r in expected]


def test_fom_sweep_failed_status_round_trips_through_csv(tmp_path):
    cfg = {
        "system": SWEEP_CFG["system"],
        "sweep": {"g": {"values": [0, 5], "unit": "GHz"}},
    }
    rc, out = run_cli(tmp_path, "fom-sweep", cfg)
    assert rc == 0
    rc, out_json = run_cli(tmp_path, "fom-sweep", cfg, "--format", "json")
    assert rc == 0
    csv_status = read_rows(out / "fom_sweep.csv")[1][-1]
    json_status = json.loads((out_json / "fom_sweep.json").read_text())["rows"][0][-1]
    assert csv_status == json_status
    assert csv_status.startswith("ValueError:")


def test_fom_sweep_status_with_comma_and_quote_is_quoted(tmp_path, monkeypatch):
    status = 'ValueError: bad point, "g" too small'
    row = SimpleNamespace(
        g=0.0, v_norm=None, beta=math.nan, beta_wg=math.nan, indist=math.nan,
        cooperativity=math.nan, status=status,
    )
    monkeypatch.setattr(cli, "fom_sweep", lambda *args, **kwargs: [row])
    rc, out = run_cli(tmp_path, "fom-sweep", SWEEP_CFG)
    assert rc == 0
    lines = (out / "fom_sweep.csv").read_text().splitlines()
    assert lines[1] == '0.0,nan,nan,nan,nan,nan,"ValueError: bad point, ""g"" too small"'
    assert read_rows(out / "fom_sweep.csv")[1][-1] == status


# --- CSV writer against csv.writer --------------------------------------------

TEXT_CELLS = [
    "ok",
    "a,b",
    'say "hi"',
    "cr\rhere",
    "lf\nhere",
    "crlf\r\n",
    "",
    '""',
    " leading space",
    "naïve µ ✓",
]
NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 0.1, 1.7976931348623157e308]


def _csv_writer_reference(columns):
    """The table as one csv.writer row per table row, repr per numeric cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    cells = [
        [repr(v) for v in col.tolist()] if isinstance(col, np.ndarray) else col
        for col in columns.values()
    ]
    writer.writerows(zip(*cells))
    return buf.getvalue()


def _written_csv(path, columns):
    cli._write_table(str(path), columns, "csv")
    with open(path, newline="") as fh:
        return fh.read()


def test_write_table_csv_matches_csv_writer_across_chunks(tmp_path):
    n = 2 * cli.CSV_CHUNK_ROWS + 1
    i = np.arange(n)
    columns = {
        "status": [TEXT_CELLS[k % len(TEXT_CELLS)] for k in range(n)],
        "x": np.array(NUMBERS)[i % len(NUMBERS)],
        "count": i - cli.CSV_CHUNK_ROWS,
        "note": tuple(TEXT_CELLS[(3 * k) % len(TEXT_CELLS)] for k in range(n)),
    }
    assert _written_csv(tmp_path / "t.csv", columns) == _csv_writer_reference(columns)


@pytest.mark.parametrize(
    "columns",
    [
        {"s": ["", "x", "", " "]},
        {"s": TEXT_CELLS},
        {"v": np.array([0.5, -0.0, math.nan])},
        {"v": np.array([], dtype=float), "s": []},
        {"a": ["", ""], "b": ["", "c"]},
    ],
    ids=["one-text-column", "one-text-column-special", "one-numeric-column", "no-rows", "empty-cells"],
)
def test_write_table_csv_small_tables_match_csv_writer(tmp_path, columns):
    assert _written_csv(tmp_path / "t.csv", columns) == _csv_writer_reference(columns)


def test_write_table_csv_rejects_one_shot_text_column(tmp_path):
    with pytest.raises(TypeError, match="sequence"):
        cli._write_table(str(tmp_path / "t.csv"), {"s": map(str, range(3))}, "csv")


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.text(max_size=8), st.floats(), st.text(max_size=8)), max_size=12),
    one_column=st.booleans(),
)
def test_write_table_csv_random_text_matches_csv_writer(tmp_path_factory, rows, one_column):
    first = [r[0] for r in rows]
    columns = {"a": first} if one_column else {
        "a": first,
        "x": np.array([r[1] for r in rows], dtype=float),
        "b": [r[2] for r in rows],
    }
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert _written_csv(path, columns) == _csv_writer_reference(columns)


def test_spectrum_at_subnormal_rates_is_finite(tmp_path):
    # 2^-exponent of a subnormal maximum is above the largest double
    tiny = {"value": 1e-320, "unit": "GHz"}
    cfg = {
        "system": {"g": tiny, "kappa_wg": tiny},
        "probe": {"start": {"value": -1e-320, "unit": "GHz"}, "stop": tiny, "points": 5},
    }
    rc, out = run_cli(tmp_path, "spectrum", cfg)
    assert rc == 0
    values = np.array([float(row[1]) for row in read_rows(out / "spectrum.csv")[1:]])
    assert values.size == 5
    assert np.all((values >= 0.0) & (values <= 1.0))

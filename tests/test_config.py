"""Unit-tagged JSON config parsing and validation."""

import numpy as np
import pytest

from cqed_fom.config import parse_config
from cqed_fom.errors import ConfigError
from cqed_fom.units import ghz, mhz, nm


def test_empty_config_parses_to_all_defaults():
    cfg = parse_config("{}")
    assert cfg.system is None
    assert cfg.sweep is None
    assert cfg.probe_policy == "max-contrast"


def test_frequency_tag_converts_to_angular_rate():
    cfg = parse_config(
        '{"system": {"g": {"value": 10, "unit": "GHz"},'
        ' "kappa_wg": {"value": 10, "unit": "GHz"},'
        ' "gamma": {"value": 100, "unit": "MHz"}}}'
    )
    assert cfg.system.g == pytest.approx(2.0 * np.pi * 10e9, rel=1e-15, abs=0.0)
    assert cfg.system.gamma == pytest.approx(mhz(100), rel=1e-15, abs=0.0)


def test_rad_per_second_passes_through():
    cfg = parse_config(
        '{"system": {"g": {"value": 1.0, "unit": "rad/s"},'
        ' "kappa_wg": {"value": 2.0, "unit": "rad/s"},'
        ' "gamma": {"value": 0.5, "unit": "rad/s"}}}'
    )
    assert cfg.system.g == 1.0


def test_missing_unit_tag_names_the_path():
    with pytest.raises(ConfigError, match="system.g"):
        parse_config('{"system": {"g": {"value": 10}}}')


def test_unknown_unit_suggests_nearest():
    with pytest.raises(ConfigError, match="GHz"):
        parse_config('{"system": {"g": {"value": 10, "unit": "Ghz"}}}')


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigError, match="kappa_wg"):
        parse_config('{"system": {"kapa_wg": {"value": 1, "unit": "GHz"}}}')


def test_unknown_top_level_block_rejected():
    with pytest.raises(ConfigError, match="sweep"):
        parse_config('{"sweeep": {}}')


def test_invalid_json_reports_config_error():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_wavelength_sets_the_carrier():
    cfg = parse_config(
        '{"system": {"g": {"value": 1, "unit": "GHz"},'
        ' "kappa_wg": {"value": 1, "unit": "GHz"},'
        ' "gamma": {"value": 1, "unit": "MHz"},'
        ' "wavelength": {"value": 737, "unit": "nm"}}}'
    )
    assert cfg.system.wavelength == pytest.approx(nm(737), rel=1e-12, abs=0.0)


def test_sweep_accepts_g_list():
    cfg = parse_config('{"sweep": {"g": {"values": [1, 2, 5], "unit": "GHz"}}}')
    np.testing.assert_allclose(cfg.sweep.g_values, [ghz(1), ghz(2), ghz(5)], rtol=1e-15)
    assert cfg.sweep.volumes is None


def test_sweep_accepts_normalized_volumes():
    cfg = parse_config('{"sweep": {"volume": {"values": [0.5, 0.05], "unit": "lambda_n3"}}}')
    np.testing.assert_allclose(cfg.sweep.volumes, [0.5, 0.05])
    assert cfg.sweep.volume_units == "lambda_n3"


def test_sweep_converts_absolute_volumes():
    cfg = parse_config('{"sweep": {"volume": {"values": [2.0], "unit": "nm3"}}}')
    assert cfg.sweep.volumes[0] == pytest.approx(2e-27, rel=1e-15, abs=0.0)
    assert cfg.sweep.volume_units == "m3"


def test_sweep_rejects_both_axes():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(
            '{"sweep": {"g": {"values": [1], "unit": "GHz"},'
            ' "volume": {"values": [1], "unit": "nm3"}}}'
        )


def test_volume_unit_suggestion():
    with pytest.raises(ConfigError, match="nm3"):
        parse_config('{"sweep": {"volume": {"values": [1], "unit": "nm^3"}}}')


def test_spin_block_with_fwhm_drift():
    cfg = parse_config(
        '{"spin": {"zeeman_split": {"value": 1, "unit": "GHz"},'
        ' "drift": {"value": 100, "unit": "MHz"},'
        ' "drift_interpretation": "fwhm"}}'
    )
    assert cfg.spin.drift == pytest.approx(mhz(100), rel=1e-15, abs=0.0)
    assert cfg.spin.drift_sigma < cfg.spin.drift


def test_probe_axis_validation():
    with pytest.raises(ConfigError, match="points"):
        parse_config(
            '{"probe": {"start": {"value": 0, "unit": "GHz"},'
            ' "stop": {"value": 1, "unit": "GHz"}, "points": 1}}'
        )
    with pytest.raises(ConfigError, match="stop"):
        parse_config(
            '{"probe": {"start": {"value": 1, "unit": "GHz"},'
            ' "stop": {"value": 0, "unit": "GHz"}, "points": 5}}'
        )


def test_numerics_block_is_an_unknown_key():
    # the emission figures of merit have no discretization left to tune
    with pytest.raises(ConfigError, match="config: unknown key 'numerics'"):
        parse_config('{"numerics": {"points_per_period": 96}}')


def test_synth_preset_with_override():
    cfg = parse_config('{"synth": {"preset": "ultra-confined", "shape": [50, 25, 15]}}')
    assert cfg.synth.shape == (50, 25, 15)
    assert cfg.synth.sigma == pytest.approx(25e-9, abs=0.0)
    assert cfg.synth_output == "synth_mode.fgrd"


def test_synth_without_preset_requires_geometry():
    with pytest.raises(ConfigError, match="preset"):
        parse_config('{"synth": {"sigma": {"value": 30, "unit": "nm"}}}')


def test_synth_unknown_preset():
    with pytest.raises(ConfigError, match="ultra-confined"):
        parse_config('{"synth": {"preset": "bowtie"}}')


def test_implant_block_parsing():
    cfg = parse_config(
        '{"implant": {"diameters": {"values": [0, 50, 100], "unit": "nm"},'
        ' "bins": 32, "plane": "max-projection"}}'
    )
    np.testing.assert_allclose(cfg.implant.diameters, [0.0, 50e-9, 100e-9])
    assert cfg.implant.bins == 32
    assert cfg.implant.plane == "max-projection"
    assert cfg.implant.center is None


def test_implant_rejects_negative_diameters():
    with pytest.raises(ConfigError, match="diameters"):
        parse_config('{"implant": {"diameters": {"values": [-1], "unit": "nm"}}}')


def test_dipole_block_with_axis():
    cfg = parse_config(
        '{"dipole": {"mu": {"value": 2.31, "unit": "Debye"},'
        ' "orientation": [0, 1, 0], "overlap_xi": 0.9}}'
    )
    np.testing.assert_allclose(cfg.dipole.axis, [0.0, 1.0, 0.0])
    assert cfg.dipole.overlap_xi == 0.9


def test_contrast_block_with_fixed_probe():
    cfg = parse_config(
        '{"contrast": {"start": {"value": 10, "unit": "GHz"},'
        ' "stop": {"value": 100, "unit": "GHz"}, "points": 4,'
        ' "probe_policy": {"value": -50, "unit": "GHz"}}}'
    )
    assert cfg.contrast_detunings.size == 4
    assert cfg.probe_policy == pytest.approx(-ghz(50), rel=1e-15, abs=0.0)
    with pytest.raises(ConfigError, match="max-contrast"):
        parse_config(
            '{"contrast": {"start": {"value": 1, "unit": "GHz"},'
            ' "stop": {"value": 2, "unit": "GHz"}, "points": 3,'
            ' "probe_policy": "sweep"}}'
        )


def test_grid_block_defaults():
    cfg = parse_config('{"grid": {"path": "mode.fgrd"}}')
    assert cfg.grid.path == "mode.fgrd"
    assert cfg.grid.fmt is None
    assert cfg.grid.n_ref == 2.4


def test_require_names_missing_block():
    cfg = parse_config("{}")
    with pytest.raises(ConfigError, match="fom-sweep"):
        cfg.require("sweep", "fom-sweep")

"""Unit-tagged JSON config parsing and validation."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqed_fom.config import parse_config
from cqed_fom.errors import ConfigError
from cqed_fom.fieldgrid import DEFAULT_SYNTH_SPEC
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


def test_sweep_accepts_a_single_normalized_volume():
    cfg = parse_config('{"sweep": {"volume": {"value": 0.5, "unit": "lambda_n3"}}}')
    np.testing.assert_array_equal(cfg.sweep.volumes, [0.5])
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


def test_synth_preset_override_keeps_other_preset_fields():
    cfg = parse_config(
        '{"synth": {"preset": "default", "n_ref": 3.0, "beam_half_width": null,'
        ' "wavelength": {"value": 0.9, "unit": "um"}}}'
    )
    assert cfg.synth == dataclasses.replace(
        DEFAULT_SYNTH_SPEC, n_ref=3.0, beam_half_width=None, wavelength=0.9e-6
    )


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


# One bad config for every ConfigError the reader raises, with the full
# message: the texts are part of the CLI contract (exit-2 stderr JSON).
_GHZ = '{"value": 1, "unit": "GHz"}'
_AXIS = f'"start": {_GHZ}, "stop": {{"value": 2, "unit": "GHz"}}'
_MU = '"mu": {"value": 2.31, "unit": "Debye"}'
ERROR_TEXTS = [
    ("[1,", "config is not valid JSON: Expecting value: line 1 column 4 (char 3)"),
    ("[]", "config: expected an object, got list"),
    ('{"sweeep": {}}', "config: unknown key 'sweeep', did you mean 'sweep'?"),
    ('{"system": 5}', "system: expected an object, got int"),
    (
        f'{{"system": {{"kapa_wg": {_GHZ}}}}}',
        "system: unknown key 'kapa_wg', did you mean 'kappa_wg'?",
    ),
    ('{"system": {"zzz": 1}}', "system: unknown key 'zzz'"),
    (
        '{"system": {"g": {"value": 1, "unit": "GHz", "tag": 1}}}',
        "system.g: unknown key 'tag'",
    ),
    (
        '{"system": {"g": {"value": "1", "unit": "GHz"}}}',
        "system.g.value: expected a number, got '1'",
    ),
    (
        '{"system": {"g": {"value": Infinity, "unit": "GHz"}}}',
        "system.g.value: value must be finite, got inf",
    ),
    (
        '{"system": {"g": {"value": 10}}}',
        "system.g: physical quantity needs an explicit 'unit' tag",
    ),
    (
        '{"system": {"g": {"value": 10, "unit": "Ghz"}}}',
        "system.g.unit: 'Ghz' is not a frequency unit"
        " (known: Hz, kHz, MHz, GHz, THz, rad/s), did you mean 'GHz'?",
    ),
    ('{"system": {"g": {"unit": "GHz"}}}', "system.g: missing 'value'"),
    (
        '{"sweep": {"g": {"value": 1, "values": [1], "unit": "GHz"}}}',
        "sweep.g: give either 'value' or 'values', not both",
    ),
    (
        '{"sweep": {"g": {"values": [], "unit": "GHz"}}}',
        "sweep.g.values: expected a non-empty list",
    ),
    (
        '{"system": {"wavelength": {"value": 0, "unit": "nm"}}}',
        "system.wavelength: must be positive",
    ),
    (
        '{"system": {"g": {"value": -1, "unit": "rad/s"}}}',
        "system: g must be finite and >= 0, got -1.0",
    ),
    ('{"dipole": {}}', "dipole: missing 'mu'"),
    (
        f'{{"dipole": {{{_MU}, "overlap_xi": 2}}}}',
        "dipole: overlap_xi must be in (0, 1], got 2.0",
    ),
    (
        f'{{"dipole": {{{_MU}, "orientation": [1, "y", 0]}}}}',
        "dipole.orientation[1]: expected a number, got 'y'",
    ),
    (
        f'{{"dipole": {{{_MU}, "orientation": {{"x": 1}}}}}}',
        "dipole.orientation: expected 'aligned' or a list of three numbers, got {'x': 1}",
    ),
    (
        f'{{"dipole": {{{_MU}, "orientation": "along-x"}}}}',
        "dipole: unknown orientation 'along-x'",
    ),
    ('{"hilbert": {"n_max": 1.5}}', "hilbert.n_max: expected an integer, got 1.5"),
    ('{"hilbert": {"n_max": 0}}', "hilbert: n_max must be an integer >= 1, got 0"),
    ('{"spin": {}}', "spin: missing 'zeeman_split'"),
    (
        f'{{"spin": {{"zeeman_split": {_GHZ}, "drift_interpretation": "hwhm"}}}}',
        "spin: drift_interpretation must be 'sigma' or 'fwhm'",
    ),
    (f'{{"probe": {{{_AXIS}}}}}', "probe: missing 'points'"),
    (f'{{"probe": {{{_AXIS}, "points": 1}}}}', "probe.points: need at least 2 points"),
    (
        f'{{"probe": {{"start": {_GHZ}, "stop": {_GHZ}, "points": 3}}}}',
        "probe: stop must exceed start",
    ),
    (f'{{"contrast": {{"stop": {_GHZ}, "points": 3}}}}', "contrast: missing 'start'"),
    (
        f'{{"contrast": {{{_AXIS}, "points": 3, "probe_policy": "sweep"}}}}',
        "contrast.probe_policy: must be 'max-contrast' or a tagged frequency",
    ),
    ('{"sweep": {}}', "sweep: give exactly one of 'g' or 'volume'"),
    (
        '{"sweep": {"volume": {"values": [1], "unit": "nm^3"}}}',
        "sweep.volume.unit: 'nm^3' is not a volume unit"
        " (known: m3, um3, nm3, lambda_n3), did you mean 'nm3'?",
    ),
    # sweep.volume is an ordinary tagged quantity: its messages are the shared ones
    (
        '{"sweep": {"volume": {"values": [1]}}}',
        "sweep.volume: physical quantity needs an explicit 'unit' tag",
    ),
    (
        '{"sweep": {"volume": {"values": [], "unit": "nm3"}}}',
        "sweep.volume.values: expected a non-empty list",
    ),
    ('{"sweep": {"volume": {"unit": "nm3"}}}', "sweep.volume: missing 'value'"),
    (
        '{"sweep": {"volume": {"value": "x", "unit": "nm3"}}}',
        "sweep.volume.value: expected a number, got 'x'",
    ),
    (
        '{"sweep": {"volume": {"value": 1, "values": [2], "unit": "nm3"}}}',
        "sweep.volume: give either 'value' or 'values', not both",
    ),
    (
        '{"sweep": {"volume": {"values": [0.5, -0.2], "unit": "lambda_n3"}}}',
        "sweep.volume: must be positive",
    ),
    ('{"sweep": {"volume": {"value": 0, "unit": "nm3"}}}', "sweep.volume: must be positive"),
    ('{"grid": {}}', "grid: missing grid file 'path'"),
    ('{"grid": {"path": 5}}', "grid: missing grid file 'path'"),
    ('{"grid": {"path": "m.fgrd", "format": "vtk"}}', "grid.format: must be 'fgrd' or 'csv'"),
    ('{"grid": {"path": "m.fgrd", "n_ref": 0}}', "grid.n_ref: must be positive"),
    ('{"grid": {"path": "m.fgrd", "n_ref": -2.4}}', "grid.n_ref: must be positive"),
    (
        '{"grid": {"path": "m.fgrd", "wavelength": {"value": -737, "unit": "nm"}}}',
        "grid.wavelength: must be positive",
    ),
    ('{"synth": {"preset": "default", "n_ref": 0}}', "synth.n_ref: must be positive"),
    (
        '{"synth": {"preset": "default", "wavelength": {"value": 0, "unit": "nm"}}}',
        "synth.wavelength: must be positive",
    ),
    (
        '{"synth": {"preset": "bowtie"}}',
        "synth.preset: unknown preset 'bowtie' (known: default, ultra-confined)",
    ),
    (
        '{"synth": {"preset": []}}',
        "synth.preset: unknown preset [] (known: default, ultra-confined)",
    ),
    (
        '{"synth": {"preset": "default", "size": {"values": [1, 2], "unit": "nm"}}}',
        "synth.size: need exactly three lengths",
    ),
    (
        '{"synth": {"preset": "default", "shape": [1, 2]}}',
        "synth.shape: need a list of three integers",
    ),
    ('{"synth": {"preset": "default", "output": ""}}', "synth.output: expected a file name"),
    (
        '{"synth": {"sigma": {"value": 30, "unit": "nm"}}}',
        "synth: missing 'size' (or use a 'preset')",
    ),
    (
        '{"synth": {"preset": "default", "eps_dielectric": 1.0}}',
        "synth: eps_dielectric must exceed 1",
    ),
    ('{"implant": {}}', "implant: missing 'diameters'"),
    (
        '{"implant": {"diameters": {"values": [0, -1], "unit": "nm"}}}',
        "implant.diameters: must be >= 0",
    ),
    (
        '{"implant": {"diameters": {"value": 0, "unit": "nm"},'
        ' "center": {"values": [1, 2, 3], "unit": "nm"}}}',
        "implant.center: need exactly (x, y)",
    ),
    (
        '{"implant": {"diameters": {"value": 0, "unit": "nm"}, "plane": true}}',
        "implant.plane: expected an index or plane policy string",
    ),
    (
        '{"implant": {"diameters": {"value": 0, "unit": "nm"}, "plane": "gmax-dept"}}',
        "implant.plane: unknown plane policy 'gmax-dept'"
        " (known: gmax-depth, max-projection), did you mean 'gmax-depth'?",
    ),
    (
        '{"implant": {"diameters": {"value": 0, "unit": "nm"}, "bins": 1}}',
        "implant.bins: must be >= 2",
    ),
    (
        '{"implant": {"diameters": {"value": 0, "unit": "nm"},'
        ' "violin_diameter": {"value": -1, "unit": "nm"}}}',
        "implant.violin_diameter: must be >= 0",
    ),
]


@pytest.mark.parametrize("text,message", ERROR_TEXTS)
def test_config_error_texts(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_require_error_text():
    with pytest.raises(ConfigError) as info:
        parse_config("{}").require("sweep", "fom-sweep")
    assert str(info.value) == "command 'fom-sweep' needs the config block 'sweep'"


README_JSON = re.findall(
    r"^```json\n(.*?)^```", (Path(__file__).parents[1] / "README.md").read_text(), re.M | re.S
)


def test_readme_has_config_examples():
    assert len(README_JSON) >= 3


@pytest.mark.parametrize("text", README_JSON)
def test_readme_config_examples_parse(text):
    parse_config(text)


# every key of every block, with a valid config to drop a wrong value into
CONFIG_KEYS = {
    "system": ["g", "kappa_wg", "kappa_sc", "gamma", "gamma_star", "delta_ca", "wavelength"],
    "dipole": ["mu", "orientation", "overlap_xi"],
    "hilbert": ["n_max"],
    "spin": ["zeeman_split", "spin_down_offset", "drift", "drift_interpretation"],
    "probe": ["start", "stop", "points"],
    "contrast": ["start", "stop", "points", "probe_policy"],
    "sweep": ["g", "volume"],
    "grid": ["path", "format", "wavelength", "n_ref"],
    "synth": [
        "preset", "size", "shape", "period", "sigma", "bridge_half_width", "hole_half_length",
        "beam_half_width", "beam_half_height", "eps_dielectric", "wavelength", "n_ref", "output",
    ],
    "implant": ["diameters", "center", "plane", "bins", "violin_diameter"],
}
_AXIS_CFG = {"start": {"value": 1, "unit": "GHz"}, "stop": {"value": 2, "unit": "GHz"}, "points": 3}
VALID_BLOCKS = {
    "system": {},
    "dipole": {"mu": {"value": 2.31, "unit": "Debye"}},
    "hilbert": {},
    "spin": {"zeeman_split": {"value": 1, "unit": "GHz"}},
    "probe": _AXIS_CFG,
    "contrast": _AXIS_CFG,
    "sweep": {},
    "grid": {"path": "mode.fgrd"},
    "synth": {"preset": "default"},
    "implant": {"diameters": {"value": 0, "unit": "nm"}},
}
_UNITS = st.sampled_from(["GHz", "nm", "Debye", "nm3", "lambda_n3", "Ghz", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.fixed_dictionaries({"value": st.floats(-1e3, 1e3), "unit": _UNITS}),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    slot=st.sampled_from([(block, key) for block, keys in CONFIG_KEYS.items() for key in keys]),
    value=JSON_VALUES,
)
def test_any_value_in_any_key_parses_or_raises_config_error(slot, value):
    block, key = slot
    text = json.dumps({block: {**VALID_BLOCKS[block], key: value}})
    try:
        parse_config(text)
    except ConfigError as exc:
        assert str(exc).startswith(block)

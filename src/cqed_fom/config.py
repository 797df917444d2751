"""JSON run configuration with mandatory unit tags.

Every physical quantity in a config is an object ``{"value": x, "unit":
"GHz"}`` (``"values": [...]`` where a list is allowed); bare numbers are
accepted only for dimensionless fields. Frequencies convert to angular
rad/s on read, lengths to metres, dipole moments to C*m and absolute
volumes to m^3, so downstream code never sees a unit ambiguity.

Each block is a key table plus a builder, applied by one reader that
rejects unknown keys with a nearest-match suggestion; every error names
the offending config path. README.md lists each key with its unit,
default and constraint. Blocks (all optional at parse time; each
command checks for the blocks it needs):

    system    SystemParams fields (g, kappa_wg, kappa_sc, gamma,
              gamma_star, delta_ca, wavelength)
    dipole    mu, orientation ("aligned" or a 3-vector), overlap_xi
    hilbert   n_max (validated; no command's output depends on it)
    spin      zeeman_split, spin_down_offset, drift, drift_interpretation
    probe     start, stop, points: probe-detuning grid for spectra
    contrast  start, stop, points (cavity detunings) and probe_policy
    sweep     one of g {values, unit} or volume {values, unit}
    grid      path, format, wavelength, n_ref for an input field grid
    synth     synthetic-mode parameters or a named preset, plus output
    implant   diameters, center, plane, bins, violin_diameter
"""

from __future__ import annotations

import difflib
import json
import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError
from .fieldgrid import DEFAULT_SYNTH_SPEC, ULTRA_CONFINED_SYNTH_SPEC, SynthModeSpec
from .implant import PLANE_POLICIES
from .params import DEFAULT_WAVELENGTH, DipoleSpec, HilbertSpec, SystemParams
from .reflection import SpinConfig
from .units import DIPOLE_UNITS, FREQUENCY_UNITS, LENGTH_UNITS, TWO_PI, VOLUME_UNITS

_DIMENSIONS = {
    "frequency": FREQUENCY_UNITS,
    "length": LENGTH_UNITS,
    "dipole": DIPOLE_UNITS,
    # lambda_n3 values are kept as given: they need the wavelength context
    "volume": {**VOLUME_UNITS, "lambda_n3": float},
}
_PRESETS = {"default": DEFAULT_SYNTH_SPEC, "ultra-confined": ULTRA_CONFINED_SYNTH_SPEC}


def _suggest(word, known) -> str:
    """The ", did you mean ...?" tail for the known word nearest ``word``, if any."""
    hint = difflib.get_close_matches(str(word), list(known), n=1)
    return f", did you mean {hint[0]!r}?" if hint else ""


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}{_suggest(key, allowed)}")


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {node!r}")
    if not math.isfinite(node):
        raise ConfigError(f"{path}: value must be finite, got {node!r}")
    return float(node)


def _integer(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{path}: expected an integer, got {node!r}")
    return node


def quantity(node, path: str, dimension: str, allow_list: bool = False):
    """Convert a tagged quantity ``{"value": x, "unit": u}`` to internal units."""
    node = _require_mapping(node, path)
    _reject_unknown(node, ("value", "values", "unit"), path)
    if "unit" not in node:
        raise ConfigError(f"{path}: physical quantity needs an explicit 'unit' tag")
    unit = node["unit"]
    table = _DIMENSIONS[dimension]
    if unit not in table:
        raise ConfigError(
            f"{path}.unit: {unit!r} is not a {dimension} unit"
            f" (known: {', '.join(table)}){_suggest(unit, table)}"
        )
    convert = table[unit]
    if allow_list and "values" in node:
        if "value" in node:
            raise ConfigError(f"{path}: give either 'value' or 'values', not both")
        raw = node["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values: expected a non-empty list")
        return np.array([convert(_number(v, f"{path}.values[{i}]")) for i, v in enumerate(raw)])
    if "value" not in node:
        raise ConfigError(f"{path}: missing 'value'")
    return convert(_number(node["value"], f"{path}.value"))


@dataclass(frozen=True)
class SweepSpec:
    """Either couplings (rad/s) or mode volumes with their unit name."""

    g_values: np.ndarray | None = None
    volumes: np.ndarray | None = None
    volume_units: str = "m3"


@dataclass(frozen=True)
class GridSource:
    path: str
    fmt: str | None
    wavelength: float
    n_ref: float


@dataclass(frozen=True)
class ImplantSettings:
    diameters: np.ndarray
    center: tuple[float, float] | None
    plane: int | str
    bins: int
    violin_diameter: float | None


@dataclass(frozen=True)
class RunConfig:
    """Validated, unit-converted run configuration."""

    system: SystemParams | None = None
    dipole: DipoleSpec | None = None
    hilbert: HilbertSpec | None = None
    spin: SpinConfig | None = None
    probe: np.ndarray | None = None
    contrast_detunings: np.ndarray | None = None
    probe_policy: str | float = "max-contrast"
    sweep: SweepSpec | None = None
    grid: GridSource | None = None
    synth: SynthModeSpec | None = None
    synth_output: str = "synth_mode.fgrd"
    implant: ImplantSettings | None = None

    def require(self, attr: str, command: str):
        value = getattr(self, attr)
        if value is None:
            raise ConfigError(f"command {command!r} needs the config block {attr!r}")
        return value


# ---------------------------------------------------------------------------
# key tables and builders: one pair per block, read by ``_read_block``


@dataclass(frozen=True)
class _Key:
    """How one config key is read.

    ``read`` is a unit dimension (a tagged quantity; with ``many`` also a
    list, read as an array) or a reader ``(node, path) -> value``. A value
    failing ``check = (test, message)`` is the error ``"<path>: <message>"``;
    a ``nullable`` key reads null as None.
    """

    read: str | Callable
    check: tuple[Callable, str] | None = None
    required: bool = False
    nullable: bool = False
    many: bool = False

    def __call__(self, node, path: str):
        if node is None and self.nullable:
            return None
        if callable(self.read):
            value = self.read(node, path)
        elif self.many:
            value = np.atleast_1d(quantity(node, path, self.read, allow_list=True))
        else:
            value = quantity(node, path, self.read)
        if self.check is not None and not self.check[0](value):
            raise ConfigError(f"{path}: {self.check[1]}")
        return value


def _read_block(node, path: str, table: dict, build: Callable, prefix: str | None = None):
    """Check and read the keys of one config object in table order, then build it.

    A key's path is ``prefix + key`` (default ``path + "."``); a ValueError
    of ``build`` is reported against ``path``.
    """
    node = _require_mapping(node, path)
    _reject_unknown(node, table, path)
    for key, spec in table.items():
        if spec.required and key not in node:
            raise ConfigError(f"{path}: missing {key!r}")
    prefix = f"{path}." if prefix is None else prefix
    values = {key: spec(node[key], prefix + key) for key, spec in table.items() if key in node}
    try:
        return build(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _as_given(node, path: str):
    """A value that a check or the block's builder validates."""
    return node


def _orientation(node, path: str):
    if isinstance(node, list):
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(node))
    if not isinstance(node, str):
        raise ConfigError(f"{path}: expected 'aligned' or a list of three numbers, got {node!r}")
    return node


def _probe_policy(node, path: str):
    if isinstance(node, dict):
        return quantity(node, path, "frequency")
    if node != "max-contrast":
        raise ConfigError(f"{path}: must be 'max-contrast' or a tagged frequency")
    return node


def _volumes(node, path: str) -> tuple[np.ndarray, str]:
    """Volumes in m^3, or as given in units of (lambda/n)^3."""
    volumes = np.atleast_1d(quantity(node, path, "volume", allow_list=True))
    if not np.all(volumes > 0.0):
        raise ConfigError(f"{path}: must be positive")
    return volumes, "lambda_n3" if node["unit"] == "lambda_n3" else "m3"


def _plane(node, path: str) -> int | str:
    if isinstance(node, str):
        if node not in PLANE_POLICIES:
            raise ConfigError(
                f"{path}: unknown plane policy {node!r}"
                f" (known: {', '.join(PLANE_POLICIES)}){_suggest(node, PLANE_POLICIES)}"
            )
    elif isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{path}: expected an index or plane policy string")
    return node


def _preset(node, path: str) -> SynthModeSpec:
    if not isinstance(node, str) or node not in _PRESETS:
        raise ConfigError(f"{path}: unknown preset {node!r} (known: {', '.join(_PRESETS)})")
    return _PRESETS[node]


def _shape(node, path: str) -> tuple[int, int, int]:
    if not isinstance(node, list) or len(node) != 3:
        raise ConfigError(f"{path}: need a list of three integers")
    return tuple(_integer(v, f"{path}[{i}]") for i, v in enumerate(node))


_POSITIVE = (lambda v: np.all(v > 0.0), "must be positive")
_NON_NEGATIVE = (lambda v: np.all(v >= 0.0), "must be >= 0")
_FORMAT = (lambda v: v in ("fgrd", "csv"), "must be 'fgrd' or 'csv'")
_FILE_NAME = (lambda v: isinstance(v, str) and v != "", "expected a file name")

_SYSTEM = {
    **dict.fromkeys(
        ("g", "kappa_wg", "kappa_sc", "gamma", "gamma_star", "delta_ca"), _Key("frequency")
    ),
    "wavelength": _Key("length", _POSITIVE),
}
_DIPOLE = {
    "mu": _Key("dipole", required=True),
    "orientation": _Key(_orientation),
    "overlap_xi": _Key(_number),
}
_HILBERT = {"n_max": _Key(_integer)}
_SPIN = {
    "zeeman_split": _Key("frequency", required=True),
    "spin_down_offset": _Key("frequency"),
    "drift": _Key("frequency"),
    "drift_interpretation": _Key(_as_given),
}
_AXIS = {
    "start": _Key("frequency", required=True),
    "stop": _Key("frequency", required=True),
    "points": _Key(_integer, (lambda n: n >= 2, "need at least 2 points"), required=True),
}
_CONTRAST = {**_AXIS, "probe_policy": _Key(_probe_policy)}
_SWEEP = {"g": _Key("frequency", many=True), "volume": _Key(_volumes)}
_GRID = {
    "path": _Key(_as_given),
    "format": _Key(_as_given, _FORMAT, nullable=True),
    "wavelength": _Key("length", _POSITIVE),
    "n_ref": _Key(_number, _POSITIVE),
}
_SYNTH = {
    "preset": _Key(_preset),
    "size": _Key("length", (lambda v: v.size == 3, "need exactly three lengths"), many=True),
    "shape": _Key(_shape),
    "period": _Key("length"),
    "sigma": _Key("length"),
    "bridge_half_width": _Key("length"),
    "hole_half_length": _Key("length"),
    "beam_half_width": _Key("length", nullable=True),
    "beam_half_height": _Key("length", nullable=True),
    "eps_dielectric": _Key(_number),
    "wavelength": _Key("length", _POSITIVE),
    "n_ref": _Key(_number, _POSITIVE),
    "output": _Key(_as_given, _FILE_NAME),
}
_IMPLANT = {
    "diameters": _Key("length", _NON_NEGATIVE, required=True, many=True),
    "center": _Key(
        "length", (lambda v: v.size == 2, "need exactly (x, y)"), nullable=True, many=True
    ),
    "plane": _Key(_plane),
    "bins": _Key(_integer, (lambda n: n >= 2, "must be >= 2")),
    "violin_diameter": _Key("length", _NON_NEGATIVE),
}


def _system(wavelength: float | None = None, **rates) -> SystemParams:
    if wavelength is not None:
        rates["omega"] = TWO_PI * SPEED_OF_LIGHT / wavelength
    return SystemParams(**{"g": 0.0, "kappa_wg": 0.0, "gamma": 0.0, **rates})


def _axis(start: float, stop: float, points: int) -> np.ndarray:
    """A uniform scan axis."""
    if stop <= start:
        raise ValueError("stop must exceed start")
    return np.linspace(start, stop, points)


def _contrast(probe_policy="max-contrast", **axis) -> tuple[np.ndarray, str | float]:
    return _axis(**axis), probe_policy


def _sweep(g=None, volume=None) -> SweepSpec:
    if (g is None) == (volume is None):
        raise ValueError("give exactly one of 'g' or 'volume'")
    if g is not None:
        return SweepSpec(g_values=g)
    return SweepSpec(volumes=volume[0], volume_units=volume[1])


def _grid(path=None, format=None, wavelength=DEFAULT_WAVELENGTH, n_ref=2.4) -> GridSource:
    if not isinstance(path, str):
        raise ValueError("missing grid file 'path'")
    return GridSource(path=path, fmt=format, wavelength=wavelength, n_ref=n_ref)


def _synth(preset=None, output="synth_mode.fgrd", **spec) -> tuple[SynthModeSpec, str]:
    if "size" in spec:
        spec["size"] = tuple(spec["size"].tolist())
    if preset is not None:
        return replace(preset, **spec), output
    for field in fields(SynthModeSpec):
        if field.default is MISSING and field.name not in spec:
            raise ValueError(f"missing {field.name!r} (or use a 'preset')")
    return SynthModeSpec(**spec), output


def _implant(diameters, center=None, plane="gmax-depth", bins=64, violin_diameter=None):
    center = None if center is None else tuple(center.tolist())
    return ImplantSettings(diameters, center, plane, bins, violin_diameter)


def _block(table: dict, build: Callable) -> _Key:
    return _Key(lambda node, path: _read_block(node, path, table, build))


_CONFIG = {
    "system": _block(_SYSTEM, _system),
    "dipole": _block(_DIPOLE, DipoleSpec),
    "hilbert": _block(_HILBERT, HilbertSpec),
    "spin": _block(_SPIN, SpinConfig),
    "probe": _block(_AXIS, _axis),
    "contrast": _block(_CONTRAST, _contrast),
    "sweep": _block(_SWEEP, _sweep),
    "grid": _block(_GRID, _grid),
    "synth": _block(_SYNTH, _synth),
    "implant": _block(_IMPLANT, _implant),
}


def _run_config(contrast=None, synth=None, **blocks) -> RunConfig:
    if contrast is not None:
        blocks["contrast_detunings"], blocks["probe_policy"] = contrast
    if synth is not None:
        blocks["synth"], blocks["synth_output"] = synth
    return RunConfig(**blocks)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _read_block(doc, "config", _CONFIG, _run_config, prefix="")


__all__ = [
    "RunConfig",
    "SweepSpec",
    "GridSource",
    "ImplantSettings",
    "parse_config",
    "quantity",
]

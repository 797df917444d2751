"""JSON run configuration with mandatory unit tags.

Every physical quantity in a config is an object ``{"value": x, "unit":
"GHz"}`` (lists allowed where noted); bare numbers are accepted only for
dimensionless fields. All frequencies convert to angular rad/s on read,
lengths to metres, dipole moments to C*m, so downstream code never sees
a unit ambiguity. Unknown keys are rejected with a nearest-match
suggestion, and every error names the offending config path.

Recognized blocks (all optional at parse time; each command checks for
the blocks it needs):

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fieldgrid import DEFAULT_SYNTH_SPEC, ULTRA_CONFINED_SYNTH_SPEC, SynthModeSpec
from .params import DEFAULT_WAVELENGTH, DipoleSpec, HilbertSpec, SystemParams
from .reflection import SpinConfig
from .units import DIPOLE_UNITS, FREQUENCY_UNITS, LENGTH_UNITS, TWO_PI, VOLUME_UNITS

from .constants import SPEED_OF_LIGHT

_DIMENSIONS = {
    "frequency": FREQUENCY_UNITS,
    "length": LENGTH_UNITS,
    "dipole": DIPOLE_UNITS,
}


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            hint = difflib.get_close_matches(key, list(allowed), n=1)
            suggestion = f", did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"{path}: unknown key {key!r}{suggestion}")


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


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
        hint = difflib.get_close_matches(str(unit), list(table), n=1)
        suggestion = f", did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(
            f"{path}.unit: {unit!r} is not a {dimension} unit"
            f" (known: {', '.join(table)}){suggestion}"
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


def _parse_system(node, path: str) -> SystemParams:
    node = _require_mapping(node, path)
    fields = ("g", "kappa_wg", "kappa_sc", "gamma", "gamma_star", "delta_ca", "wavelength")
    _reject_unknown(node, fields, path)
    rates = {}
    for name in fields[:-1]:
        if name in node:
            rates[name] = quantity(node[name], f"{path}.{name}", "frequency")
    kwargs = dict(rates)
    kwargs.setdefault("g", 0.0)
    kwargs.setdefault("kappa_wg", 0.0)
    kwargs.setdefault("gamma", 0.0)
    if "wavelength" in node:
        wl = quantity(node["wavelength"], f"{path}.wavelength", "length")
        if wl <= 0.0:
            raise ConfigError(f"{path}.wavelength: must be positive")
        kwargs["omega"] = TWO_PI * SPEED_OF_LIGHT / wl
    try:
        return SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_dipole(node, path: str) -> DipoleSpec:
    node = _require_mapping(node, path)
    _reject_unknown(node, ("mu", "orientation", "overlap_xi"), path)
    if "mu" not in node:
        raise ConfigError(f"{path}: missing 'mu'")
    mu = quantity(node["mu"], f"{path}.mu", "dipole")
    orientation = node.get("orientation", "aligned")
    if isinstance(orientation, list):
        orientation = tuple(
            _number(v, f"{path}.orientation[{i}]") for i, v in enumerate(orientation)
        )
    xi = _number(node.get("overlap_xi", 1.0), f"{path}.overlap_xi")
    try:
        return DipoleSpec(mu=mu, orientation=orientation, overlap_xi=xi)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_hilbert(node, path: str) -> HilbertSpec:
    node = _require_mapping(node, path)
    _reject_unknown(node, ("n_max",), path)
    try:
        return HilbertSpec(n_max=_integer(node.get("n_max", 1), f"{path}.n_max"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_spin(node, path: str) -> SpinConfig:
    node = _require_mapping(node, path)
    _reject_unknown(
        node, ("zeeman_split", "spin_down_offset", "drift", "drift_interpretation"), path
    )
    if "zeeman_split" not in node:
        raise ConfigError(f"{path}: missing 'zeeman_split'")
    kwargs = {"zeeman_split": quantity(node["zeeman_split"], f"{path}.zeeman_split", "frequency")}
    if "spin_down_offset" in node:
        kwargs["spin_down_offset"] = quantity(
            node["spin_down_offset"], f"{path}.spin_down_offset", "frequency"
        )
    if "drift" in node:
        kwargs["drift"] = quantity(node["drift"], f"{path}.drift", "frequency")
    if "drift_interpretation" in node:
        kwargs["drift_interpretation"] = node["drift_interpretation"]
    try:
        return SpinConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_axis(node, path: str) -> np.ndarray:
    """A uniform scan axis: start/stop quantities plus a point count."""
    node = _require_mapping(node, path)
    _reject_unknown(node, ("start", "stop", "points"), path)
    for key in ("start", "stop", "points"):
        if key not in node:
            raise ConfigError(f"{path}: missing {key!r}")
    start = quantity(node["start"], f"{path}.start", "frequency")
    stop = quantity(node["stop"], f"{path}.stop", "frequency")
    points = _integer(node["points"], f"{path}.points")
    if points < 2:
        raise ConfigError(f"{path}.points: need at least 2 points")
    if stop <= start:
        raise ConfigError(f"{path}: stop must exceed start")
    return np.linspace(start, stop, points)


def _parse_sweep(node, path: str) -> SweepSpec:
    node = _require_mapping(node, path)
    _reject_unknown(node, ("g", "volume"), path)
    if ("g" in node) == ("volume" in node):
        raise ConfigError(f"{path}: give exactly one of 'g' or 'volume'")
    if "g" in node:
        values = quantity(node["g"], f"{path}.g", "frequency", allow_list=True)
        values = np.atleast_1d(values)
        return SweepSpec(g_values=values)
    vnode = _require_mapping(node["volume"], f"{path}.volume")
    _reject_unknown(vnode, ("value", "values", "unit"), f"{path}.volume")
    unit = vnode.get("unit")
    if unit not in VOLUME_UNITS:
        hint = difflib.get_close_matches(str(unit), list(VOLUME_UNITS), n=1)
        suggestion = f", did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(
            f"{path}.volume.unit: {unit!r} is not a volume unit"
            f" (known: {', '.join(VOLUME_UNITS)}){suggestion}"
        )
    raw = vnode.get("values", [vnode["value"]] if "value" in vnode else None)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}.volume: expected 'value' or a non-empty 'values' list")
    values = np.array([_number(v, f"{path}.volume.values[{i}]") for i, v in enumerate(raw)])
    if unit == "lambda_n3":
        return SweepSpec(volumes=values, volume_units="lambda_n3")
    return SweepSpec(volumes=np.array([VOLUME_UNITS[unit](v) for v in values]))


def _parse_grid(node, path: str) -> GridSource:
    node = _require_mapping(node, path)
    _reject_unknown(node, ("path", "format", "wavelength", "n_ref"), path)
    if "path" not in node or not isinstance(node["path"], str):
        raise ConfigError(f"{path}: missing grid file 'path'")
    fmt = node.get("format")
    if fmt is not None and fmt not in ("fgrd", "csv"):
        raise ConfigError(f"{path}.format: must be 'fgrd' or 'csv'")
    wavelength = DEFAULT_WAVELENGTH
    if "wavelength" in node:
        wavelength = quantity(node["wavelength"], f"{path}.wavelength", "length")
    n_ref = _number(node.get("n_ref", 2.4), f"{path}.n_ref")
    return GridSource(path=node["path"], fmt=fmt, wavelength=wavelength, n_ref=n_ref)


def _parse_synth(node, path: str) -> tuple[SynthModeSpec, str]:
    node = _require_mapping(node, path)
    fields = (
        "preset",
        "size",
        "shape",
        "period",
        "sigma",
        "bridge_half_width",
        "hole_half_length",
        "beam_half_width",
        "beam_half_height",
        "eps_dielectric",
        "wavelength",
        "n_ref",
        "output",
    )
    _reject_unknown(node, fields, path)
    presets = {"default": DEFAULT_SYNTH_SPEC, "ultra-confined": ULTRA_CONFINED_SYNTH_SPEC}
    base = None
    if "preset" in node:
        if node["preset"] not in presets:
            raise ConfigError(
                f"{path}.preset: unknown preset {node['preset']!r}"
                f" (known: {', '.join(presets)})"
            )
        base = presets[node["preset"]]
    kwargs = {}
    if "size" in node:
        size = quantity(node["size"], f"{path}.size", "length", allow_list=True)
        size = np.atleast_1d(size)
        if size.size != 3:
            raise ConfigError(f"{path}.size: need exactly three lengths")
        kwargs["size"] = tuple(float(v) for v in size)
    if "shape" in node:
        shape = node["shape"]
        if not isinstance(shape, list) or len(shape) != 3:
            raise ConfigError(f"{path}.shape: need a list of three integers")
        kwargs["shape"] = tuple(_integer(v, f"{path}.shape[{i}]") for i, v in enumerate(shape))
    for name in ("period", "sigma", "bridge_half_width", "hole_half_length", "wavelength"):
        if name in node:
            kwargs[name] = quantity(node[name], f"{path}.{name}", "length")
    for name in ("beam_half_width", "beam_half_height"):
        if name in node:
            if node[name] is None:
                kwargs[name] = None
            else:
                kwargs[name] = quantity(node[name], f"{path}.{name}", "length")
    if "eps_dielectric" in node:
        kwargs["eps_dielectric"] = _number(node["eps_dielectric"], f"{path}.eps_dielectric")
    if "n_ref" in node:
        kwargs["n_ref"] = _number(node["n_ref"], f"{path}.n_ref")
    output = node.get("output", "synth_mode.fgrd")
    if not isinstance(output, str) or not output:
        raise ConfigError(f"{path}.output: expected a file name")
    if base is not None:
        merged = {
            "size": base.size,
            "shape": base.shape,
            "period": base.period,
            "sigma": base.sigma,
            "bridge_half_width": base.bridge_half_width,
            "hole_half_length": base.hole_half_length,
            "beam_half_width": base.beam_half_width,
            "beam_half_height": base.beam_half_height,
            "eps_dielectric": base.eps_dielectric,
            "wavelength": base.wavelength,
            "n_ref": base.n_ref,
        }
        merged.update(kwargs)
        kwargs = merged
    else:
        for required in ("size", "shape", "period", "sigma", "bridge_half_width"):
            if required not in kwargs:
                raise ConfigError(f"{path}: missing {required!r} (or use a 'preset')")
    try:
        return SynthModeSpec(**kwargs), output
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_implant(node, path: str) -> ImplantSettings:
    node = _require_mapping(node, path)
    _reject_unknown(node, ("diameters", "center", "plane", "bins", "violin_diameter"), path)
    if "diameters" not in node:
        raise ConfigError(f"{path}: missing 'diameters'")
    diameters = quantity(node["diameters"], f"{path}.diameters", "length", allow_list=True)
    diameters = np.atleast_1d(diameters)
    if np.any(diameters < 0.0):
        raise ConfigError(f"{path}.diameters: must be >= 0")
    center = None
    if node.get("center") is not None:
        c = quantity(node["center"], f"{path}.center", "length", allow_list=True)
        c = np.atleast_1d(c)
        if c.size != 2:
            raise ConfigError(f"{path}.center: need exactly (x, y)")
        center = (float(c[0]), float(c[1]))
    plane = node.get("plane", "gmax-depth")
    if not isinstance(plane, (int, str)) or isinstance(plane, bool):
        raise ConfigError(f"{path}.plane: expected an index or plane policy string")
    bins = _integer(node.get("bins", 64), f"{path}.bins")
    if bins < 2:
        raise ConfigError(f"{path}.bins: must be >= 2")
    violin = None
    if "violin_diameter" in node:
        violin = quantity(node["violin_diameter"], f"{path}.violin_diameter", "length")
        if violin < 0.0:
            raise ConfigError(f"{path}.violin_diameter: must be >= 0")
    return ImplantSettings(
        diameters=diameters, center=center, plane=plane, bins=bins, violin_diameter=violin
    )


_BLOCKS = (
    "system",
    "dipole",
    "hilbert",
    "spin",
    "probe",
    "contrast",
    "sweep",
    "grid",
    "synth",
    "implant",
)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    doc = _require_mapping(doc, "config")
    _reject_unknown(doc, _BLOCKS, "config")
    kwargs = {}
    if "system" in doc:
        kwargs["system"] = _parse_system(doc["system"], "system")
    if "dipole" in doc:
        kwargs["dipole"] = _parse_dipole(doc["dipole"], "dipole")
    if "hilbert" in doc:
        kwargs["hilbert"] = _parse_hilbert(doc["hilbert"], "hilbert")
    if "spin" in doc:
        kwargs["spin"] = _parse_spin(doc["spin"], "spin")
    if "probe" in doc:
        kwargs["probe"] = _parse_axis(doc["probe"], "probe")
    if "contrast" in doc:
        cnode = _require_mapping(doc["contrast"], "contrast")
        _reject_unknown(cnode, ("start", "stop", "points", "probe_policy"), "contrast")
        axis_node = {k: cnode[k] for k in ("start", "stop", "points") if k in cnode}
        kwargs["contrast_detunings"] = _parse_axis(axis_node, "contrast")
        policy = cnode.get("probe_policy", "max-contrast")
        if isinstance(policy, dict):
            policy = quantity(policy, "contrast.probe_policy", "frequency")
        elif policy != "max-contrast":
            raise ConfigError(
                "contrast.probe_policy: must be 'max-contrast' or a tagged frequency"
            )
        kwargs["probe_policy"] = policy
    if "sweep" in doc:
        kwargs["sweep"] = _parse_sweep(doc["sweep"], "sweep")
    if "grid" in doc:
        kwargs["grid"] = _parse_grid(doc["grid"], "grid")
    if "synth" in doc:
        kwargs["synth"], kwargs["synth_output"] = _parse_synth(doc["synth"], "synth")
    if "implant" in doc:
        kwargs["implant"] = _parse_implant(doc["implant"], "implant")
    return RunConfig(**kwargs)


__all__ = [
    "RunConfig",
    "SweepSpec",
    "GridSource",
    "ImplantSettings",
    "parse_config",
    "quantity",
]

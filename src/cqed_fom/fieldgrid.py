"""Voxel grids of cavity eigenmodes: I/O, mode volume and coupling maps.

A ``FieldGrid`` stores the relative permittivity and the complex mode
field E on a regular grid of voxel centres,
``x_i = origin_x + (i + 1/2) dx`` and so on. The energy-density mode
volume is

    V = sum eps |E|^2 dV / max(eps |E|^2)

(midpoint Riemann sum over voxel centres, voxel-wise maximum), and the
position-dependent coupling rate follows from the field ratio,

    g(r) = xi * mu * sqrt(omega / (2 eps0 hbar V)) * |u . E(r)| / max|E|.

Every grid source yields its field one z-slab at a time: a ``.fgrd`` or
CSV file, an in-memory ``FieldGrid`` and the synthetic mode alike. One
reducer keeps only float arrays of it, |E|^2 per voxel and, for a fixed
dipole axis, |u . E|, and runs the ``FieldGrid`` checks on them; the
mode volume and the coupling map are computed from those arrays. So the
field commands hold eps and at most three float arrays, never the
complex (nx, ny, nz, 3) field: only ``load_grid`` (and ``synth_mode``)
build that, for library callers who want a ``FieldGrid``.

Binary format (extension ``.fgrd``, little endian)
--------------------------------------------------
    bytes 0-3   magic "FGRD"
    bytes 4-5   version, uint16 (currently 1)
    11 float64  nx, ny, nz, dx, dy, dz, origin_x, origin_y, origin_z,
                wavelength, n_ref
    nx*ny*nz float64           eps, x-fastest voxel order
    nx*ny*nz * 3 complex128    Ex, Ey, Ez per voxel, x-fastest voxel order

The field payload is byte for byte little-endian complex128 (each value
is its real then its imaginary float64), so it is read and written one
z-slab at a time; the reader checks the file size against the header
before it reads any payload.

CSV format
----------
Header row ``x,y,z,eps,Ex_re,Ex_im,Ey_re,Ey_im,Ez_re,Ez_im``, one voxel
per row in strictly x-fastest order, coordinates are voxel centres in
metres. The text encoding carries no wavelength/n_ref metadata; supply
those to the loader when they matter.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import GridFormatError
from .fom import g_from_mode_volume
from .params import DipoleSpec

MAGIC = b"FGRD"
VERSION = 1
DIELECTRIC_EPS_THRESHOLD = 1.0 + 1e-6
# what a grid holds besides its field: the "head" of every slab source
_HEAD = ("eps", "dx", "dy", "dz", "origin", "wavelength", "n_ref")


def _check_geometry(dx: float, dy: float, dz: float, origin) -> np.ndarray:
    for name, v in (("dx", dx), ("dy", dy), ("dz", dz)):
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    origin = np.asarray(origin, dtype=float)
    if origin.shape != (3,) or not np.all(np.isfinite(origin)):
        raise ValueError("origin must be a finite 3-vector")
    return origin


def _check_grid(head, field_is_finite, field_is_nonzero) -> np.ndarray:
    """The ``FieldGrid`` checks after its shape checks, in order; the checked origin.

    ``head`` maps the names of ``_HEAD`` to values. The field enters only
    through the two callables, each called when its check is reached.
    """
    origin = _check_geometry(head["dx"], head["dy"], head["dz"], head["origin"])
    eps = head["eps"]
    if not np.all(np.isfinite(eps)):
        raise ValueError("eps contains non-finite values")
    if not field_is_finite():
        raise ValueError("efield contains non-finite values")
    if eps.min() < 1.0 - 1e-9:
        raise ValueError(f"relative permittivity below 1: min eps = {eps.min()}")
    if not np.isfinite(head["wavelength"]) or head["wavelength"] <= 0.0:
        raise ValueError("wavelength must be finite and > 0")
    if not np.isfinite(head["n_ref"]) or head["n_ref"] <= 0.0:
        raise ValueError("n_ref must be finite and > 0")
    if not field_is_nonzero():
        raise ValueError("mode field is identically zero")
    return origin


def _voxel_axes(origin, steps, shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voxel-centre coordinates ``origin + (i + 1/2) step`` along each axis."""
    return tuple(o + (np.arange(n) + 0.5) * d for o, d, n in zip(origin, steps, shape))


def _intensity(efield: np.ndarray) -> np.ndarray:
    """|E|^2 per voxel; every caller shares this expression, so bits agree.

    The sum is (|Ex|^2 + |Ey|^2) + |Ez|^2, the order that ``np.sum`` over
    the last axis takes, without its slow reduction over three elements.
    """
    power = np.abs(efield)
    power *= power
    return power[..., 0] + power[..., 1] + power[..., 2]


class _Voxels:
    """Geometry of a grid that has ``eps``, ``dx``, ``dy``, ``dz`` and ``origin``."""

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.eps.shape

    @property
    def voxel_volume(self) -> float:
        return self.dx * self.dy * self.dz

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel-centre coordinates along each axis."""
        return _voxel_axes(self.origin, (self.dx, self.dy, self.dz), self.shape)

    def dielectric_mask(self) -> np.ndarray:
        return self.eps > DIELECTRIC_EPS_THRESHOLD


@dataclass
class FieldGrid(_Voxels):
    """Permittivity and complex mode field on a regular voxel grid."""

    eps: np.ndarray  # (nx, ny, nz) float
    efield: np.ndarray  # (nx, ny, nz, 3) complex
    dx: float
    dy: float
    dz: float
    origin: np.ndarray  # (3,) low corner of the box, metres
    wavelength: float
    n_ref: float

    def __post_init__(self) -> None:
        self.eps = np.asarray(self.eps, dtype=float)
        self.efield = np.asarray(self.efield, dtype=complex)
        if self.eps.ndim != 3:
            raise ValueError(f"eps must be 3-d, got shape {self.eps.shape}")
        if self.efield.shape != self.eps.shape + (3,):
            raise ValueError(
                f"efield shape {self.efield.shape} does not match eps shape {self.eps.shape}"
            )
        # x-slabs are contiguous in C order and keep every temporary small
        self.origin = _check_grid(
            vars(self),
            lambda: all(np.isfinite(e).all() for e in self.efield),
            lambda: any(np.any(eps * _intensity(e) > 0.0) for eps, e in zip(self.eps, self.efield)),
        )

    def energy_density(self) -> np.ndarray:
        """eps(r) |E(r)|^2 per voxel (unnormalized)."""
        return self.eps * _intensity(self.efield)


@dataclass
class ScalarField:
    """A real scalar per voxel (e.g. a coupling-rate map) plus geometry."""

    values: np.ndarray  # (nx, ny, nz) float
    dielectric_mask: np.ndarray  # (nx, ny, nz) bool
    dx: float
    dy: float
    dz: float
    origin: np.ndarray
    wavelength: float
    n_ref: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.dielectric_mask = np.asarray(self.dielectric_mask, dtype=bool)
        if self.values.ndim != 3 or self.dielectric_mask.shape != self.values.shape:
            raise ValueError("values and dielectric_mask must share a 3-d shape")
        self.origin = _check_geometry(self.dx, self.dy, self.dz, self.origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel-centre coordinates along each axis."""
        return _voxel_axes(self.origin, (self.dx, self.dy, self.dz), self.shape)


# ---------------------------------------------------------------------------
# slab sources and the reducer
#
# A slab source is a pair (head, slabs): ``head`` maps the names of
# ``_HEAD`` to the grid's eps (C order) and metadata, and ``slabs`` yields
# the field of z-slab k = 0 .. nz-1 as an (nx, ny, 3) complex array, which
# may be a view that the next slab overwrites.


def _grid_slabs(grid: FieldGrid):
    """The slab source of an in-memory grid; each slab is a view into it."""
    head = {name: getattr(grid, name) for name in _HEAD}
    return head, (grid.efield[:, :, k] for k in range(grid.shape[2]))


def _build(head, slabs) -> FieldGrid:
    """The ``FieldGrid`` of a slab source, checked on construction."""
    efield = np.empty(head["eps"].shape + (3,), dtype=complex)
    for k, slab in enumerate(slabs):
        efield[:, :, k] = slab
    return FieldGrid(efield=efield, **head)


def _checked(head, slabs):
    """Yield every slab, then run the ``FieldGrid`` checks on what was yielded."""
    finite, nonzero = True, False
    for slab in slabs:
        finite = finite and bool(np.isfinite(slab).all())
        # eps >= 1 - 1e-9 when this is asked, so eps |E|^2 > 0 wherever |E|^2 > 0
        nonzero = nonzero or bool(_intensity(slab).max() > 0.0)
        yield slab
    _check_grid(head, lambda: finite, lambda: nonzero)


@dataclass
class _Reduced(_Voxels):
    """A checked grid reduced to floats: eps, |E|^2 and, for a fixed dipole axis, |u . E|."""

    eps: np.ndarray
    intensity: np.ndarray
    amplitude: np.ndarray | None
    dx: float
    dy: float
    dz: float
    origin: np.ndarray
    wavelength: float
    n_ref: float


def _reduce(head, slabs, axis: np.ndarray | None = None) -> _Reduced:
    """Reduce a slab source to C-order (nx, ny, nz) float arrays, one slab at a time.

    The arrays keep the layout and expressions of whole-grid arithmetic,
    so every sum and maximum taken from them has the same bits.
    """
    shape = head["eps"].shape
    intensity = np.empty(shape)
    amplitude = None if axis is None else np.empty(shape)
    for k, slab in enumerate(_checked(head, slabs)):
        intensity[:, :, k] = _intensity(slab)
        if amplitude is not None:
            amplitude[:, :, k] = np.abs(np.tensordot(slab, axis.astype(complex), axes=([2], [0])))
    return _Reduced(intensity=intensity, amplitude=amplitude, **head)


# ---------------------------------------------------------------------------
# binary I/O

_HEADER = struct.Struct("<11d")
_PREFIX_SIZE = 4 + 2 + _HEADER.size  # magic, version, header


def _read_fgrd(path):
    """The slab source of a ``.fgrd`` file: the one reader of the binary format.

    The header and the file size are checked before any payload is read,
    and eps is read whole. The field is read on demand, one z-slab at a
    time, into a single buffer whose (nx, ny, 3) view is the slab; the
    file stays open until the last slab has been read.
    """
    reader = _fgrd_reader(path)
    return next(reader), reader


def _fgrd_reader(path):
    """Yield the head of a ``.fgrd`` file, then the field of each z-slab."""
    with open(path, "rb") as fh:
        raw = fh.read(_PREFIX_SIZE)
        if len(raw) < _PREFIX_SIZE:
            raise GridFormatError(f"{path}: file shorter than the fixed header")
        if raw[:4] != MAGIC:
            raise GridFormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
        (version,) = struct.unpack_from("<H", raw, 4)
        if version != VERSION:
            raise GridFormatError(f"{path}: unsupported format version {version}")
        header = _HEADER.unpack_from(raw, 6)
        fnx, fny, fnz, dx, dy, dz, ox, oy, oz, wavelength, n_ref = header
        dims = []
        for name, value in (("nx", fnx), ("ny", fny), ("nz", fnz)):
            if not value.is_integer() or value < 1:
                raise GridFormatError(f"{path}: non-integral dimension {name}={value}")
            dims.append(int(value))
        nx, ny, nz = dims
        n_vox = nx * ny * nz
        expected = _PREFIX_SIZE + 8 * n_vox + 48 * n_vox
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise GridFormatError(
                f"{path}: payload size mismatch, expected {expected} bytes for"
                f" {nx}x{ny}x{nz} voxels, found {size}"
            )
        eps = np.fromfile(fh, dtype="<f8", count=n_vox)
        if eps.size != n_vox:
            raise GridFormatError(f"{path}: file shrank while reading")
        if not np.all(np.isfinite(eps)):
            raise GridFormatError(f"{path}: non-finite values in payload")
        # C-contiguous arrays keep reductions bit-identical to freshly built grids.
        eps = np.ascontiguousarray(eps.reshape((nx, ny, nz), order="F"))
        yield {
            "eps": eps,
            "dx": dx,
            "dy": dy,
            "dz": dz,
            "origin": np.array([ox, oy, oz]),
            "wavelength": wavelength,
            "n_ref": n_ref,
        }
        slab = np.empty((ny, nx, 3), dtype="<c16")  # file order: x fastest
        for _ in range(nz):
            if fh.readinto(slab) != slab.nbytes:
                raise GridFormatError(f"{path}: file shrank while reading")
            if not np.all(np.isfinite(slab)):
                raise GridFormatError(f"{path}: non-finite values in payload")
            yield slab.transpose(1, 0, 2)


def _write_fgrd(head, slabs, path) -> None:
    eps = head["eps"]
    nx, ny, nz = eps.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(
            _HEADER.pack(
                float(nx),
                float(ny),
                float(nz),
                head["dx"],
                head["dy"],
                head["dz"],
                *head["origin"],
                head["wavelength"],
                head["n_ref"],
            )
        )
        # x-fastest order is z-slab after z-slab, each (ny, nx) in C order
        for k in range(nz):
            fh.write(np.ascontiguousarray(eps[:, :, k].T, dtype="<f8"))
        for slab in slabs:
            fh.write(np.ascontiguousarray(slab.transpose(1, 0, 2), dtype="<c16"))


# ---------------------------------------------------------------------------
# CSV I/O

CSV_COLUMNS = ["x", "y", "z", "eps", "Ex_re", "Ex_im", "Ey_re", "Ey_im", "Ez_re", "Ez_im"]


def _write_csv(head, slabs, path) -> None:
    eps = head["eps"]
    nx, ny, nz = eps.shape
    xs, ys, zs = _voxel_axes(head["origin"], (head["dx"], head["dy"], head["dz"]), eps.shape)
    table = np.empty((nx * ny, len(CSV_COLUMNS)))
    table[:, 0] = np.tile(xs, ny)
    table[:, 1] = np.repeat(ys, nx)
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for k, slab in enumerate(slabs):
            table[:, 2] = zs[k]
            table[:, 3] = eps[:, :, k].ravel(order="F")
            e_flat = slab.reshape(-1, 3, order="F")
            table[:, 4::2] = e_flat.real
            table[:, 5::2] = e_flat.imag
            np.savetxt(fh, table, fmt="%.17g", delimiter=",")


def _infer_axis(values: np.ndarray, name: str, path) -> tuple[int, float, float]:
    """(count, step, first) for one strictly ordered coordinate column."""
    unique = np.unique(values)
    n = unique.size
    if n == 1:
        return 1, math.nan, float(unique[0])
    # end to end: a first difference of two centres is off by a few ulp
    step = float((unique[-1] - unique[0]) / (n - 1))
    if not np.allclose(np.diff(unique), step, rtol=1e-9, atol=0.0):
        raise GridFormatError(f"{path}: non-uniform spacing along {name}")
    return n, step, float(unique[0])


def _read_csv(path, wavelength: float, n_ref: float):
    """The slab source of a CSV grid; the table is parsed and checked whole."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise GridFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_COLUMNS:
            raise GridFormatError(
                f"{path}: bad header {header!r}, expected {','.join(CSV_COLUMNS)}"
            )
        try:
            data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise GridFormatError(f"{path}: malformed numeric row ({exc})") from None
    if data.size == 0:
        raise GridFormatError(f"{path}: no voxel rows")
    if data.shape[1] != len(CSV_COLUMNS):
        raise GridFormatError(f"{path}: expected {len(CSV_COLUMNS)} columns, got {data.shape[1]}")

    nx, dx, x0 = _infer_axis(data[:, 0], "x", path)
    ny, dy, y0 = _infer_axis(data[:, 1], "y", path)
    nz, dz, z0 = _infer_axis(data[:, 2], "z", path)
    if nx * ny * nz != data.shape[0]:
        raise GridFormatError(
            f"{path}: {data.shape[0]} rows do not fill a {nx}x{ny}x{nz} grid"
        )
    # single-plane grids carry no spacing information along that axis
    for step, name in ((dx, "x"), (dy, "y"), (dz, "z")):
        if math.isnan(step):
            raise GridFormatError(f"{path}: degenerate grid (single {name} plane)")
    xs = x0 + np.arange(nx) * dx
    ys = y0 + np.arange(ny) * dy
    zs = z0 + np.arange(nz) * dz
    expect = np.empty((data.shape[0], 3))
    expect[:, 0] = np.tile(xs, ny * nz)
    expect[:, 1] = np.tile(np.repeat(ys, nx), nz)
    expect[:, 2] = np.repeat(zs, nx * ny)
    if not np.allclose(data[:, :3], expect, rtol=1e-9, atol=1e-12 * max(dx, dy, dz)):
        raise GridFormatError(f"{path}: voxel rows are not in x-fastest order")

    head = {
        "eps": np.ascontiguousarray(data[:, 3].reshape((nx, ny, nz), order="F")),
        "dx": dx,
        "dy": dy,
        "dz": dz,
        "origin": np.array([x0 - 0.5 * dx, y0 - 0.5 * dy, z0 - 0.5 * dz]),
        "wavelength": wavelength,
        "n_ref": n_ref,
    }
    rows = data.reshape((nz, nx * ny, len(CSV_COLUMNS)))
    return head, ((r[:, 4::2] + 1j * r[:, 5::2]).reshape((nx, ny, 3), order="F") for r in rows)


def _grid_format(path, fmt: str | None) -> str:
    return fmt or ("csv" if str(path).endswith(".csv") else "fgrd")


def _write_grid(head, slabs, path, fmt: str | None = None) -> None:
    fmt = _grid_format(path, fmt)
    if fmt == "fgrd":
        _write_fgrd(head, slabs, path)
    elif fmt == "csv":
        _write_csv(head, slabs, path)
    else:
        raise ValueError(f"unknown grid format {fmt!r}")


def save_grid(grid: FieldGrid, path, fmt: str | None = None) -> None:
    _write_grid(*_grid_slabs(grid), path, fmt)


def _grid_source(
    path,
    fmt: str | None = None,
    wavelength: float | None = None,
    n_ref: float | None = None,
):
    """The slab source of a grid file, given ``load_grid``'s arguments."""
    fmt = _grid_format(path, fmt)
    if fmt == "fgrd":
        return _read_fgrd(path)
    if fmt == "csv":
        if wavelength is None or n_ref is None:
            raise ValueError("loading a CSV grid requires wavelength and n_ref")
        return _read_csv(path, wavelength, n_ref)
    raise ValueError(f"unknown grid format {fmt!r}")


def load_grid(
    path,
    fmt: str | None = None,
    wavelength: float | None = None,
    n_ref: float | None = None,
) -> FieldGrid:
    return _build(*_grid_source(path, fmt, wavelength, n_ref))


def _save_checked(head, slabs, path) -> None:
    """Write a slab source that no ``FieldGrid`` has checked, checking it on the way.

    The file goes to ``path + ".part"`` and replaces ``path`` only once
    every check has passed, so a source that fails leaves ``path`` as it was.
    """
    part = f"{path}.part"
    try:
        _write_grid(head, _checked(head, slabs), part, _grid_format(path, None))
        os.replace(part, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)


# ---------------------------------------------------------------------------
# mode volume and coupling map


@dataclass(frozen=True)
class ModeVolumeResult:
    v_m3: float
    v_norm: float  # in units of (wavelength / n_ref)^3
    argmax_index: tuple[int, int, int]
    argmax_position: tuple[float, float, float]
    max_energy_density: float


def mode_volume(grid: FieldGrid) -> ModeVolumeResult:
    """Energy-density mode volume of the stored field.

    Midpoint Riemann sum over voxel centres divided by the voxel-wise
    maximum of eps |E|^2; ties in the maximum resolve to the first voxel
    in C order, and the numpy pairwise summation keeps the result
    independent of threading and evaluation order.
    """
    return _mode_volume(_reduce(*_grid_slabs(grid)))


def _mode_volume(red: _Reduced) -> ModeVolumeResult:
    u = red.intensity
    u *= red.eps  # eps |E|^2 in place: the intensity is spent
    flat_idx = int(np.argmax(u))
    peak = float(u.ravel()[flat_idx])
    idx = np.unravel_index(flat_idx, u.shape)
    v_m3 = float(u.sum() * red.voxel_volume / peak)
    xs, ys, zs = red.axes()
    pos = (float(xs[idx[0]]), float(ys[idx[1]]), float(zs[idx[2]]))
    unit = (red.wavelength / red.n_ref) ** 3
    return ModeVolumeResult(
        v_m3=v_m3,
        v_norm=v_m3 / unit,
        argmax_index=(int(idx[0]), int(idx[1]), int(idx[2])),
        argmax_position=pos,
        max_energy_density=peak,
    )


def g_field(
    grid: FieldGrid, dipole: DipoleSpec, omega: float | None = None
) -> ScalarField:
    """Position-dependent coupling rate map g(r) in rad/s.

    ``omega`` defaults to the grid's carrier ``2 pi c / wavelength``. The
    map scales with the local field against the global field maximum, so
    its peak over the whole grid equals ``g_from_mode_volume`` for an
    aligned dipole; a fixed dipole axis only lowers it.
    """
    return _g_field(_reduce(*_grid_slabs(grid), dipole.axis), dipole, omega)


def _g_field(red: _Reduced, dipole: DipoleSpec, omega: float | None = None) -> ScalarField:
    """``g_field`` of a grid reduced for ``dipole.axis``."""
    if omega is None:
        omega = 2.0 * math.pi * SPEED_OF_LIGHT / red.wavelength
    # sqrt is monotone, so this equals the maximum of sqrt(intensity) exactly
    e_max = math.sqrt(float(red.intensity.max()))
    values = np.sqrt(red.intensity) if red.amplitude is None else red.amplitude
    # after e_max and the map: _mode_volume overwrites the intensity
    values *= g_from_mode_volume(_mode_volume(red).v_m3, dipole, omega)
    values /= e_max
    return ScalarField(
        values=values,
        dielectric_mask=red.dielectric_mask(),
        dx=red.dx,
        dy=red.dy,
        dz=red.dz,
        origin=red.origin.copy(),
        wavelength=red.wavelength,
        n_ref=red.n_ref,
    )


# ---------------------------------------------------------------------------
# deterministic synthetic mode


@dataclass(frozen=True)
class SynthModeSpec:
    """Closed-form stand-in for a periodically patterned nanobeam mode.

    The box spans ``[-L/2, L/2]`` per axis with ``shape`` voxels. The
    analytic field is y-polarized,

        E_y(x, y, z) = cos(pi x / period) * exp(-(x^2+y^2+z^2) / (2 sigma^2)),

    divided by ``eps_dielectric`` on air voxels to mimic the
    boundary-condition field jump. The dielectric is a beam of half
    extents ``beam_half_width``/``beam_half_height`` (default: the full
    box) with air holes of half length ``hole_half_length`` centred at
    every lattice site x = k*period; a bridge of half width
    ``bridge_half_width`` survives through the holes, concentrating the
    mode the way a bowtie constriction does.
    """

    size: tuple[float, float, float]
    shape: tuple[int, int, int]
    period: float
    sigma: float
    bridge_half_width: float
    hole_half_length: float = 0.0
    beam_half_width: float | None = None
    beam_half_height: float | None = None
    eps_dielectric: float = 5.76  # n = 2.4
    wavelength: float = 737e-9
    n_ref: float = 2.4

    def __post_init__(self) -> None:
        if len(self.size) != 3 or any(s <= 0.0 for s in self.size):
            raise ValueError("size must be three positive lengths")
        if len(self.shape) != 3 or any(int(n) != n or n < 2 for n in self.shape):
            raise ValueError("shape must be three integers >= 2")
        if self.period <= 0.0 or self.sigma <= 0.0:
            raise ValueError("period and sigma must be positive")
        if self.bridge_half_width < 0.0 or self.hole_half_length < 0.0:
            raise ValueError("bridge_half_width and hole_half_length must be >= 0")
        if self.hole_half_length >= 0.5 * self.period:
            raise ValueError("hole_half_length must be below period/2")
        if self.eps_dielectric <= 1.0:
            raise ValueError("eps_dielectric must exceed 1")


# stock presets, both converged to <1% mode-volume error against a
# 2x-per-axis refinement at their 2 nm voxel pitch
DEFAULT_SYNTH_SPEC = SynthModeSpec(
    size=(400e-9, 200e-9, 120e-9),
    shape=(200, 100, 60),
    period=100e-9,
    sigma=60e-9,
    bridge_half_width=10e-9,
    hole_half_length=30e-9,
)
# tighter envelope and narrower bridge: the deep-subwavelength regime
# where the coupling collapses within tens of nanometres of the maximum
ULTRA_CONFINED_SYNTH_SPEC = SynthModeSpec(
    size=(400e-9, 200e-9, 120e-9),
    shape=(200, 100, 60),
    period=100e-9,
    sigma=25e-9,
    bridge_half_width=4e-9,
    hole_half_length=38e-9,
)


def _synth_source(spec: SynthModeSpec):
    """The slab source of the synthetic mode of ``spec``; each slab is fresh."""
    lx, ly, lz = spec.size
    nx, ny, nz = (int(n) for n in spec.shape)
    dx, dy, dz = lx / nx, ly / ny, lz / nz
    origin = np.array([-0.5 * lx, -0.5 * ly, -0.5 * lz])
    xs, ys, zs = _voxel_axes(origin, (dx, dy, dz), (nx, ny, nz))
    # broadcast axes: each elementwise expression below sees the same operands,
    # in the same order, as on full meshgrid arrays, so the bits do not change
    x, y, z = xs[:, None, None], ys[None, :, None], zs[None, None, :]

    bhw = spec.beam_half_width if spec.beam_half_width is not None else 0.5 * ly
    bhh = spec.beam_half_height if spec.beam_half_height is not None else 0.5 * lz
    beam = (np.abs(y) <= bhw) & (np.abs(z) <= bhh)
    # hole windows centred on lattice sites x = k * period
    folded = np.abs(np.mod(x + 0.5 * spec.period, spec.period) - 0.5 * spec.period)
    in_hole_window = folded <= spec.hole_half_length
    hole = beam & in_hole_window & (np.abs(y) > spec.bridge_half_width)
    dielectric = beam & ~hole
    head = {
        "eps": np.where(dielectric, spec.eps_dielectric, 1.0),
        "dx": dx,
        "dy": dy,
        "dz": dz,
        "origin": origin,
        "wavelength": spec.wavelength,
        "n_ref": spec.n_ref,
    }

    def slabs():
        # the same expressions, one z-plane at a time, on (y, x) axes: a slab
        # is then built in file order, and writing it needs no transpose
        x_t, y_t = xs[None, :], ys[:, None]
        cos_x = np.cos(np.pi * x_t / spec.period)
        r2_xy = x_t**2 + y_t**2
        for k in range(nz):
            z_k = zs[None, k : k + 1]
            ey = cos_x * np.exp(-(r2_xy + z_k**2) / (2.0 * spec.sigma**2))
            ey = np.where(dielectric[:, :, k].T, ey, ey / spec.eps_dielectric)
            slab = np.zeros((ny, nx, 3), dtype=complex)
            slab[..., 1] = ey
            yield slab.transpose(1, 0, 2)

    return head, slabs()


def synth_mode(spec: SynthModeSpec) -> FieldGrid:
    """Evaluate the synthetic mode of ``SynthModeSpec`` on its voxel grid."""
    return _build(*_synth_source(spec))


__all__ = [
    "FieldGrid",
    "ScalarField",
    "ModeVolumeResult",
    "SynthModeSpec",
    "DEFAULT_SYNTH_SPEC",
    "ULTRA_CONFINED_SYNTH_SPEC",
    "MAGIC",
    "VERSION",
    "CSV_COLUMNS",
    "DIELECTRIC_EPS_THRESHOLD",
    "save_grid",
    "load_grid",
    "mode_volume",
    "g_field",
    "synth_mode",
]

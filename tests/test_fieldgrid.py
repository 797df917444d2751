"""Grid I/O round-trips, mode volume and coupling maps."""

import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cqed_fom.config import parse_config
from cqed_fom.constants import DEBYE
from cqed_fom.errors import GridFormatError
from cqed_fom.fieldgrid import (
    DEFAULT_SYNTH_SPEC,
    ULTRA_CONFINED_SYNTH_SPEC,
    FieldGrid,
    SynthModeSpec,
    g_field,
    load_grid,
    mode_volume,
    save_grid,
    synth_mode,
)
from cqed_fom.fom import g_from_mode_volume
from cqed_fom.params import DipoleSpec

DIPOLE = DipoleSpec(mu=2.31 * DEBYE)


def _random_grid(rng, shape=(6, 5, 4)):
    eps = 1.0 + 4.0 * rng.random(shape)
    e = rng.standard_normal(shape + (3,)) + 1j * rng.standard_normal(shape + (3,))
    return FieldGrid(
        eps=eps,
        efield=e,
        dx=1.5e-9,
        dy=2.5e-9,
        dz=0.5e-9,
        origin=np.array([-1e-8, 2e-9, 0.0]),
        wavelength=737e-9,
        n_ref=2.4,
    )


def _uniform_grid(value=2.0 + 1.0j, shape=(6, 5, 4)):
    e = np.zeros(shape + (3,), dtype=complex)
    e[..., 1] = value
    return FieldGrid(
        eps=np.full(shape, 5.76),
        efield=e,
        dx=1e-9,
        dy=2e-9,
        dz=3e-9,
        origin=np.zeros(3),
        wavelength=737e-9,
        n_ref=2.4,
    )


# --- validation --------------------------------------------------------------


def test_grid_rejects_subunity_permittivity():
    g = _uniform_grid()
    eps = g.eps.copy()
    eps[0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="permittivity"):
        FieldGrid(
            eps=eps, efield=g.efield, dx=g.dx, dy=g.dy, dz=g.dz,
            origin=g.origin, wavelength=g.wavelength, n_ref=g.n_ref,
        )


def test_grid_rejects_identically_zero_field():
    with pytest.raises(ValueError, match="zero"):
        FieldGrid(
            eps=np.ones((3, 3, 3)),
            efield=np.zeros((3, 3, 3, 3), dtype=complex),
            dx=1e-9, dy=1e-9, dz=1e-9,
            origin=np.zeros(3), wavelength=737e-9, n_ref=2.4,
        )


def test_grid_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        FieldGrid(
            eps=np.ones((3, 3, 3)),
            efield=np.ones((3, 3, 2, 3), dtype=complex),
            dx=1e-9, dy=1e-9, dz=1e-9,
            origin=np.zeros(3), wavelength=737e-9, n_ref=2.4,
        )


def test_axes_are_voxel_centres():
    g = _uniform_grid()
    xs, ys, zs = g.axes()
    assert xs[0] == pytest.approx(0.5e-9, abs=0.0)
    assert ys[0] == pytest.approx(1e-9, abs=0.0)
    assert zs[-1] == pytest.approx((4 - 0.5) * 3e-9, abs=0.0)


# --- I/O round-trips ----------------------------------------------------------


def test_binary_round_trip_is_exact(tmp_path):
    g = _random_grid(np.random.default_rng(1))
    path = tmp_path / "mode.fgrd"
    save_grid(g, path)
    back = load_grid(path)
    np.testing.assert_array_equal(back.eps, g.eps)
    np.testing.assert_array_equal(back.efield, g.efield)
    assert (back.dx, back.dy, back.dz) == (g.dx, g.dy, g.dz)
    np.testing.assert_array_equal(back.origin, g.origin)
    assert back.wavelength == g.wavelength
    assert back.n_ref == g.n_ref


def test_csv_round_trip_matches_binary(tmp_path):
    g = _random_grid(np.random.default_rng(2))
    pb, pc = tmp_path / "m.fgrd", tmp_path / "m.csv"
    save_grid(g, pb)
    save_grid(g, pc)
    gb = load_grid(pb)
    gc = load_grid(pc, wavelength=g.wavelength, n_ref=g.n_ref)
    # %.17g text encoding round-trips float64 exactly
    np.testing.assert_allclose(gc.eps, gb.eps, atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(gc.efield, gb.efield, atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(gc.origin, gb.origin, atol=1e-12 * abs(gb.origin).max())
    assert gc.dx == pytest.approx(gb.dx, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "spec",
    [DEFAULT_SYNTH_SPEC, ULTRA_CONFINED_SYNTH_SPEC, replace(DEFAULT_SYNTH_SPEC, shape=(50, 25, 15))],
    ids=["default", "ultra-confined", "50x25x15"],
)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_csv_round_trip_keeps_voxel_steps_exact(tmp_path, spec, axis):
    # the voxel centres of ``spec`` along ``axis``, two planes across it
    steps = tuple(length / n for length, n in zip(spec.size, spec.shape))
    shape = tuple(n if k == axis else 2 for k, n in enumerate(spec.shape))
    grid = FieldGrid(
        eps=np.ones(shape),
        efield=np.ones(shape + (3,), dtype=complex),
        dx=steps[0],
        dy=steps[1],
        dz=steps[2],
        origin=-0.5 * np.array(spec.size),
        wavelength=spec.wavelength,
        n_ref=spec.n_ref,
    )
    path = tmp_path / "m.csv"
    save_grid(grid, path, fmt="csv")
    back = load_grid(path, fmt="csv", wavelength=spec.wavelength, n_ref=spec.n_ref)
    assert (back.dx, back.dy, back.dz)[axis] == steps[axis]


def test_csv_loader_requires_metadata(tmp_path):
    g = _uniform_grid()
    path = tmp_path / "m.csv"
    save_grid(g, path, fmt="csv")
    with pytest.raises(ValueError, match="wavelength"):
        load_grid(path)


def test_binary_loader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fgrd"
    path.write_bytes(b"NOPE" + bytes(200))
    with pytest.raises(GridFormatError, match="magic"):
        load_grid(path)


def test_binary_loader_rejects_truncation(tmp_path):
    g = _uniform_grid()
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(GridFormatError, match="expected"):
        load_grid(path)


def test_binary_loader_rejects_unknown_version(tmp_path):
    g = _uniform_grid()
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="version"):
        load_grid(path)


def test_csv_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(GridFormatError, match="header"):
        load_grid(path, fmt="csv", wavelength=737e-9, n_ref=2.4)


def test_csv_loader_rejects_shuffled_rows(tmp_path):
    g = _uniform_grid()
    path = tmp_path / "m.csv"
    save_grid(g, path, fmt="csv")
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError, match="order"):
        load_grid(path, fmt="csv", wavelength=737e-9, n_ref=2.4)


def test_save_grid_rejects_unknown_format(tmp_path):
    g = _uniform_grid()
    with pytest.raises(ValueError, match="format"):
        save_grid(g, tmp_path / "m.dat", fmt="hdf5")


# --- mode volume --------------------------------------------------------------


def test_uniform_field_volume_equals_box():
    g = _uniform_grid()
    res = mode_volume(g)
    box = 6 * 1e-9 * 5 * 2e-9 * 4 * 3e-9
    assert res.v_m3 == pytest.approx(box, rel=1e-14, abs=0.0)
    assert res.argmax_index == (0, 0, 0)  # first voxel on exact ties


def test_mode_volume_locates_the_peak():
    g = _uniform_grid()
    e = g.efield.copy()
    e[3, 2, 1, 1] *= 5.0
    g2 = FieldGrid(
        eps=g.eps, efield=e, dx=g.dx, dy=g.dy, dz=g.dz,
        origin=g.origin, wavelength=g.wavelength, n_ref=g.n_ref,
    )
    res = mode_volume(g2)
    assert res.argmax_index == (3, 2, 1)
    xs, ys, zs = g2.axes()
    assert res.argmax_position == (xs[3], ys[2], zs[1])


def test_mode_volume_scale_invariance():
    # scaling every length by s multiplies V by s^3 exactly
    rng = np.random.default_rng(3)
    g = _random_grid(rng)
    s = 250.0
    scaled = FieldGrid(
        eps=g.eps, efield=g.efield, dx=g.dx * s, dy=g.dy * s, dz=g.dz * s,
        origin=g.origin * s, wavelength=g.wavelength, n_ref=g.n_ref,
    )
    r1, r2 = mode_volume(g), mode_volume(scaled)
    assert r2.v_m3 == pytest.approx(r1.v_m3 * s**3, rel=1e-12, abs=0.0)


def test_normalized_volume_uses_wavelength_over_index():
    g = _uniform_grid()
    res = mode_volume(g)
    assert res.v_norm == pytest.approx(res.v_m3 / (737e-9 / 2.4) ** 3, rel=1e-14, abs=0.0)


def test_synthetic_volume_converges_first_order():
    spec_h = SynthModeSpec(
        size=(200e-9, 100e-9, 60e-9), shape=(50, 25, 15),
        period=100e-9, sigma=40e-9, bridge_half_width=10e-9, hole_half_length=30e-9,
    )
    spec_h2 = SynthModeSpec(
        size=spec_h.size, shape=(100, 50, 30),
        period=spec_h.period, sigma=spec_h.sigma,
        bridge_half_width=spec_h.bridge_half_width,
        hole_half_length=spec_h.hole_half_length,
    )
    spec_h4 = SynthModeSpec(
        size=spec_h.size, shape=(200, 100, 60),
        period=spec_h.period, sigma=spec_h.sigma,
        bridge_half_width=spec_h.bridge_half_width,
        hole_half_length=spec_h.hole_half_length,
    )
    v_h = mode_volume(synth_mode(spec_h)).v_m3
    v_h2 = mode_volume(synth_mode(spec_h2)).v_m3
    v_h4 = mode_volume(synth_mode(spec_h4)).v_m3
    # successive refinements shrink the change (first-order Riemann)
    assert abs(v_h2 - v_h4) < abs(v_h - v_h2)
    assert abs(v_h - v_h2) / v_h2 < 0.05


def test_narrower_bridge_concentrates_the_mode():
    volumes = []
    for bhw in (12e-9, 8e-9, 4e-9):
        spec = SynthModeSpec(
            size=(300e-9, 150e-9, 90e-9), shape=(100, 50, 30),
            period=100e-9, sigma=40e-9, bridge_half_width=bhw,
            hole_half_length=35e-9,
        )
        volumes.append(mode_volume(synth_mode(spec)).v_m3)
    assert volumes[0] > volumes[1] > volumes[2]


# --- coupling map --------------------------------------------------------------


def test_gmap_peak_equals_closed_form_conversion():
    grid = synth_mode(DEFAULT_SYNTH_SPEC)
    res = mode_volume(grid)
    field = g_field(grid, DIPOLE)
    expected = g_from_mode_volume(res.v_m3, DIPOLE)
    assert float(field.values.max()) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_gmap_fixed_axis_never_exceeds_aligned():
    grid = synth_mode(DEFAULT_SYNTH_SPEC)
    aligned = g_field(grid, DIPOLE)
    for axis in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
        fixed = g_field(grid, DipoleSpec(mu=2.31 * DEBYE, orientation=axis))
        assert np.all(fixed.values <= aligned.values + 1e-12)
    # the synthetic mode is y-polarized, so the y axis recovers it fully
    y_axis = g_field(grid, DipoleSpec(mu=2.31 * DEBYE, orientation=(0.0, 1.0, 0.0)))
    np.testing.assert_array_equal(y_axis.values, aligned.values)


def test_gmap_mask_tracks_dielectric():
    grid = synth_mode(DEFAULT_SYNTH_SPEC)
    field = g_field(grid, DIPOLE)
    np.testing.assert_array_equal(field.dielectric_mask, grid.eps > 1.0 + 1e-6)


# --- synthetic mode geometry ----------------------------------------------------


def test_synth_mode_bridge_survives_inside_holes():
    spec = SynthModeSpec(
        size=(200e-9, 100e-9, 60e-9), shape=(50, 25, 15),
        period=100e-9, sigma=40e-9, bridge_half_width=8e-9, hole_half_length=30e-9,
    )
    grid = synth_mode(spec)
    xs, ys, zs = grid.axes()
    ix = int(np.argmin(np.abs(xs)))  # hole window centre
    iy = int(np.argmin(np.abs(ys)))  # on the bridge
    iy_off = int(np.argmin(np.abs(ys - 20e-9)))  # inside the hole
    assert grid.eps[ix, iy, :].max() == spec.eps_dielectric
    assert grid.eps[ix, iy_off, :].max() == 1.0


def test_synth_mode_field_is_y_polarized_and_suppressed_in_air():
    spec = SynthModeSpec(
        size=(200e-9, 100e-9, 60e-9), shape=(50, 25, 15),
        period=100e-9, sigma=40e-9, bridge_half_width=8e-9, hole_half_length=30e-9,
    )
    grid = synth_mode(spec)
    assert np.all(grid.efield[..., 0] == 0.0)
    assert np.all(grid.efield[..., 2] == 0.0)
    xs, ys, zs = grid.axes()
    ix = int(np.argmin(np.abs(xs)))
    iy_air = int(np.argmin(np.abs(ys - 20e-9)))
    iz = int(np.argmin(np.abs(zs)))
    x, y, z = xs[ix], ys[iy_air], zs[iz]
    envelope = np.cos(np.pi * x / spec.period) * np.exp(
        -(x**2 + y**2 + z**2) / (2.0 * spec.sigma**2)
    )
    assert grid.efield[ix, iy_air, iz, 1].real == pytest.approx(
        envelope / spec.eps_dielectric, rel=1e-12, abs=0.0
    )


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="period"):
        SynthModeSpec(size=(1e-7, 1e-7, 1e-7), shape=(4, 4, 4), period=0.0,
                      sigma=1e-8, bridge_half_width=1e-9)
    with pytest.raises(ValueError, match="hole_half_length"):
        SynthModeSpec(size=(1e-7, 1e-7, 1e-7), shape=(4, 4, 4), period=1e-7,
                      sigma=1e-8, bridge_half_width=1e-9, hole_half_length=6e-8)


# --- binary loader guards -------------------------------------------------------


def _fgrd_offsets(shape):
    """Byte offsets of the eps and field payloads in a .fgrd file."""
    n_vox = shape[0] * shape[1] * shape[2]
    eps_at = 4 + 2 + 11 * 8
    return eps_at, eps_at + 8 * n_vox


def test_binary_loader_checks_size_before_allocating(tmp_path):
    g = _uniform_grid()
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    raw = bytearray(path.read_bytes())
    # declare 10^4 x 10^4 x 10^4 voxels: 56 TB of payload on a tiny file
    struct.pack_into("<3d", raw, 6, 1e4, 1e4, 1e4)
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(GridFormatError, match="expected"):
            load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_binary_loader_rejects_nan_in_eps(tmp_path):
    g = _random_grid(np.random.default_rng(4))
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    raw = bytearray(path.read_bytes())
    eps_at, _ = _fgrd_offsets(g.shape)
    struct.pack_into("<d", raw, eps_at + 8 * 7, math.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="non-finite"):
        load_grid(path)


def test_binary_loader_rejects_inf_in_last_field_slab(tmp_path):
    g = _random_grid(np.random.default_rng(5))
    nx, ny, nz = g.shape
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    raw = bytearray(path.read_bytes())
    _, field_at = _fgrd_offsets(g.shape)
    voxel = 2 + nx * (1 + ny * (nz - 1))  # x-fastest index of (2, 1, nz-1)
    struct.pack_into("<d", raw, field_at + 48 * voxel + 8 * 3, math.inf)  # Ey imag
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="non-finite"):
        load_grid(path)


def test_binary_layout_is_little_endian_complex128(tmp_path):
    g = _random_grid(np.random.default_rng(6))
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    raw = path.read_bytes()
    eps_at, field_at = _fgrd_offsets(g.shape)
    n_vox = g.eps.size
    eps = np.frombuffer(raw, dtype="<f8", count=n_vox, offset=eps_at)
    field = np.frombuffer(raw, dtype="<c16", offset=field_at)
    np.testing.assert_array_equal(eps, g.eps.ravel(order="F"))
    np.testing.assert_array_equal(field, g.efield.reshape(-1, 3, order="F").ravel())


def test_binary_loader_peak_memory_is_bounded(tmp_path):
    g = _random_grid(np.random.default_rng(7), shape=(24, 20, 16))
    path = tmp_path / "m.fgrd"
    save_grid(g, path)
    tracemalloc.start()
    try:
        back = load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.efield, g.efield)
    assert peak <= 2 * (back.eps.nbytes + back.efield.nbytes)


def _hole_free_spec(n):
    """Hole-free, bridge-free beam in a 360 nm box, n voxels per axis, via the config."""
    cfg = parse_config(
        json.dumps(
            {
                "synth": {
                    "size": {"values": [360, 360, 360], "unit": "nm"},
                    "shape": [n, n, n],
                    "period": {"value": 100, "unit": "nm"},
                    "sigma": {"value": 30, "unit": "nm"},
                    "hole_half_length": {"value": 0, "unit": "nm"},
                    "bridge_half_width": {"value": 0, "unit": "nm"},
                }
            }
        )
    )
    return cfg.synth


def _synth_mode_on_meshgrid(spec):
    """eps and efield of the synthetic mode, evaluated on full meshgrid arrays."""
    lx, ly, lz = spec.size
    nx, ny, nz = (int(n) for n in spec.shape)
    dx, dy, dz = lx / nx, ly / ny, lz / nz
    origin = np.array([-0.5 * lx, -0.5 * ly, -0.5 * lz])
    xs = origin[0] + (np.arange(nx) + 0.5) * dx
    ys = origin[1] + (np.arange(ny) + 0.5) * dy
    zs = origin[2] + (np.arange(nz) + 0.5) * dz
    x, y, z = np.meshgrid(xs, ys, zs, indexing="ij")
    bhw = spec.beam_half_width if spec.beam_half_width is not None else 0.5 * ly
    bhh = spec.beam_half_height if spec.beam_half_height is not None else 0.5 * lz
    beam = (np.abs(y) <= bhw) & (np.abs(z) <= bhh)
    folded = np.abs(np.mod(x + 0.5 * spec.period, spec.period) - 0.5 * spec.period)
    hole = beam & (folded <= spec.hole_half_length) & (np.abs(y) > spec.bridge_half_width)
    dielectric = beam & ~hole
    ey = np.cos(np.pi * x / spec.period) * np.exp(-(x**2 + y**2 + z**2) / (2.0 * spec.sigma**2))
    ey = np.where(dielectric, ey, ey / spec.eps_dielectric)
    efield = np.zeros((nx, ny, nz, 3), dtype=complex)
    efield[..., 1] = ey
    return np.where(dielectric, spec.eps_dielectric, 1.0), efield


def _same_bits(a, b):
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64))
    )


@pytest.mark.parametrize(
    "spec",
    [DEFAULT_SYNTH_SPEC, ULTRA_CONFINED_SYNTH_SPEC, _hole_free_spec(91), _hole_free_spec(90)],
    ids=["default", "ultra-confined", "hole-free-odd", "hole-free-even"],
)
def test_synth_mode_matches_meshgrid_formula_bit_for_bit(spec):
    grid = synth_mode(spec)
    eps, efield = _synth_mode_on_meshgrid(spec)
    assert grid.eps.flags.c_contiguous and grid.efield.flags.c_contiguous
    assert _same_bits(grid.eps, eps)
    assert _same_bits(grid.efield, efield)


# --- known fault: air voxels on lattice sites of a hole-free beam -----------------


@pytest.mark.xfail(
    strict=True,
    reason="synth_mode tests folded <= hole_half_length, so a zero hole half length"
    " still makes air of the voxels centred on x = k * period",
)
def test_hole_free_volume_matches_closed_form_through_config():
    sigma, period, box = 30e-9, 100e-9, 360e-9
    spec = _hole_free_spec(91)
    assert spec.size == pytest.approx((box, box, box), rel=1e-15, abs=0.0)
    v = mode_volume(synth_mode(spec)).v_m3
    closed = math.pi**1.5 * sigma**3 * (1.0 + math.exp(-((math.pi * sigma / period) ** 2))) / 2.0
    assert v == pytest.approx(closed, rel=1e-6, abs=0.0)

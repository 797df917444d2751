"""Implantation-disk statistics against enumeration and sort oracles."""

import numpy as np
import pytest

from cqed_fom.constants import DEBYE
from cqed_fom.fieldgrid import ScalarField, SynthModeSpec, g_field, synth_mode
from cqed_fom.implant import (
    GDistribution,
    ImplantRegion,
    implant_distribution,
    median_vs_D_curve,
    percentile_stats,
    violin_export,
    weighted_percentile,
)
from cqed_fom.params import DipoleSpec

DIPOLE = DipoleSpec(mu=2.31 * DEBYE)

SMALL_SPEC = SynthModeSpec(
    size=(240e-9, 120e-9, 72e-9),
    shape=(120, 60, 36),
    period=100e-9,
    sigma=30e-9,
    bridge_half_width=8e-9,
    hole_half_length=35e-9,
)


def _small_gmap():
    return g_field(synth_mode(SMALL_SPEC), DIPOLE)


def _radial_field(shape=(41, 41, 3), dx=2e-9):
    nx, ny, nz = shape
    xs = (np.arange(nx) - nx // 2) * dx
    ys = (np.arange(ny) - ny // 2) * dx
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2
    values = np.exp(-r2 / (2 * (20e-9) ** 2)) * np.ones((1, 1, nz))
    return ScalarField(
        values=values,
        dielectric_mask=np.ones(shape, bool),
        dx=dx, dy=dx, dz=dx,
        origin=np.array([-nx / 2 * dx, -ny / 2 * dx, 0.0]),
        wavelength=737e-9, n_ref=2.4,
    )


# --- weighted percentiles ------------------------------------------------------


def test_two_sample_median_interpolates_linearly():
    assert weighted_percentile([1.0, 3.0], [1.0, 1.0], 50.0) == pytest.approx(2.0, abs=0.0)


def test_single_sample_dominates_every_percentile():
    out = weighted_percentile([4.2], [2.0], [0.0, 37.0, 100.0])
    np.testing.assert_array_equal(out, [4.2, 4.2, 4.2])


def test_percentiles_match_sort_based_oracle():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1000)
    weights = rng.random(1000) + 0.1

    def oracle(q):
        order = np.argsort(values, kind="stable")
        sv, sw = values[order], weights[order]
        pos = (np.cumsum(sw) - 0.5 * sw) / sw.sum()
        t = q / 100.0
        if t <= pos[0]:
            return sv[0]
        if t >= pos[-1]:
            return sv[-1]
        j = int(np.searchsorted(pos, t)) - 1
        frac = (t - pos[j]) / (pos[j + 1] - pos[j])
        return sv[j] * (1.0 - frac) + frac * sv[j + 1]

    for q in (0.0, 7.3, 25.0, 40.0, 50.0, 60.0, 75.0, 99.1, 100.0):
        assert weighted_percentile(values, weights, q) == pytest.approx(
            oracle(q), abs=1e-12
        )


def test_percentiles_reject_bad_queries():
    with pytest.raises(ValueError):
        weighted_percentile([1.0], [1.0], -5.0)
    with pytest.raises(ValueError):
        weighted_percentile([1.0], [1.0], 101.0)
    with pytest.raises(ValueError, match="empty"):
        weighted_percentile([], [], 50.0)


def test_distribution_summary_is_monotone():
    rng = np.random.default_rng(8)
    dist = GDistribution(
        values=rng.random(200),
        weights=rng.random(200) + 0.01,
        center=(0.0, 0.0),
        center_index=(0, 0),
        plane_index=0,
        diameter=1.0,
    )
    assert dist.min <= dist.p25 <= dist.p40 <= dist.median <= dist.p60 <= dist.p75 <= dist.max
    assert percentile_stats(dist, [50.0])[0] == dist.median


def test_distribution_rejects_bad_weights():
    with pytest.raises(ValueError, match="weights"):
        GDistribution(
            values=np.array([1.0, 2.0]),
            weights=np.array([1.0, -1.0]),
            center=(0.0, 0.0),
            center_index=(0, 0),
            plane_index=0,
            diameter=0.0,
        )


# --- implantation disks ----------------------------------------------------------


def test_zero_diameter_returns_the_centre_voxel():
    gmap = _small_gmap()
    dist = implant_distribution(gmap, ImplantRegion(diameter=0.0))
    assert dist.values.size == 1
    shielded = np.where(gmap.dielectric_mask, gmap.values, -np.inf)
    assert dist.median == float(shielded.max())


def test_uniform_field_median_is_diameter_independent():
    field = ScalarField(
        values=np.full((20, 20, 3), 5.0),
        dielectric_mask=np.ones((20, 20, 3), bool),
        dx=1e-9, dy=1e-9, dz=1e-9,
        origin=np.zeros(3), wavelength=737e-9, n_ref=2.4,
    )
    for d in (0.0, 4e-9, 10e-9):
        dist = implant_distribution(field, ImplantRegion(diameter=d))
        assert dist.median == 5.0


def test_disk_membership_matches_dense_enumeration():
    # brute-force voxel loop with the documented centre-in-disk rule
    gmap = _small_gmap()
    sigma = SMALL_SPEC.sigma
    region = ImplantRegion(diameter=2.0 * sigma)
    dist = implant_distribution(gmap, region)

    mask = gmap.dielectric_mask
    shielded = np.where(mask, gmap.values, -np.inf)
    k = int(np.unravel_index(np.argmax(shielded), shielded.shape)[2])
    plane_vals = gmap.values[:, :, k]
    plane_mask = mask[:, :, k]
    xs, ys, _ = gmap.axes()
    ic, jc = np.unravel_index(np.argmax(np.where(plane_mask, plane_vals, -np.inf)),
                              plane_vals.shape)
    picked = []
    for i in range(plane_vals.shape[0]):
        for j in range(plane_vals.shape[1]):
            if not plane_mask[i, j]:
                continue
            if (xs[i] - xs[ic]) ** 2 + (ys[j] - ys[jc]) ** 2 <= sigma**2:
                picked.append(plane_vals[i, j])
    picked = np.array(picked)
    assert picked.size == dist.values.size
    np.testing.assert_array_equal(np.sort(picked), np.sort(dist.values))
    oracle_median = weighted_percentile(picked, np.ones(picked.size), 50.0)
    assert dist.median == pytest.approx(oracle_median, abs=1e-12 * dist.median)
    assert dist.median < dist.max


def test_support_grows_with_diameter():
    gmap = _small_gmap()
    sizes = [
        implant_distribution(gmap, ImplantRegion(diameter=d)).values.size
        for d in (0.0, 10e-9, 30e-9, 60e-9)
    ]
    assert sizes == sorted(sizes)
    assert sizes[0] == 1


def test_hole_voxels_are_excluded():
    gmap = _small_gmap()
    dist = implant_distribution(gmap, ImplantRegion(diameter=80e-9))
    flat_mask = gmap.dielectric_mask
    # every sampled g value must exist among dielectric voxels
    assert np.all(np.isin(dist.values, gmap.values[flat_mask]))


def test_non_dielectric_centre_is_rejected():
    gmap = _small_gmap()
    xs, ys, _ = gmap.axes()
    # inside a hole: x at a lattice site, y far off the bridge
    with pytest.raises(ValueError, match="dielectric"):
        implant_distribution(
            gmap, ImplantRegion(diameter=10e-9, center=(0.0, 25e-9))
        )


def test_empty_disk_is_rejected():
    field = _radial_field()
    xs, ys, _ = field.axes()
    off_centre = (float(xs[5]) + 0.4 * field.dx, float(ys[5]))
    with pytest.raises(ValueError, match="no dielectric"):
        implant_distribution(field, ImplantRegion(diameter=0.1 * field.dx, center=off_centre))


def test_fixed_plane_index_selects_that_plane():
    field = _radial_field(shape=(21, 21, 4))
    field.values[:, :, 2] *= 2.0  # make plane 2 the global maximum
    auto = implant_distribution(field, ImplantRegion(diameter=8e-9))
    fixed = implant_distribution(field, ImplantRegion(diameter=8e-9, plane=1))
    assert auto.plane_index == 2
    assert fixed.plane_index == 1
    assert auto.median == pytest.approx(2.0 * fixed.median, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError, match="plane"):
        implant_distribution(field, ImplantRegion(diameter=8e-9, plane=9))


def test_depth_max_projection_dominates_any_plane():
    field = _radial_field(shape=(21, 21, 4))
    field.values[:, :, 2] *= 2.0
    proj = implant_distribution(field, ImplantRegion(diameter=8e-9, plane="max-projection"))
    fixed = implant_distribution(field, ImplantRegion(diameter=8e-9, plane=0))
    assert proj.plane_index is None
    assert proj.median >= fixed.median


# --- violin and median curves ------------------------------------------------------


def test_violin_density_integrates_to_one():
    gmap = _small_gmap()
    dist = implant_distribution(gmap, ImplantRegion(diameter=50e-9))
    violin = violin_export(dist, n_bins=32)
    integral = float(np.sum(violin.density * np.diff(violin.bin_edges)))
    assert integral == pytest.approx(1.0, abs=1e-9)
    assert violin.whisker_low <= violin.p25 <= violin.median <= violin.p75 <= violin.whisker_high


def test_single_valued_violin_concentrates_in_one_bin():
    dist = GDistribution(
        values=np.array([3.0, 3.0]),
        weights=np.array([1.0, 2.0]),
        center=(0.0, 0.0),
        center_index=(0, 0),
        plane_index=0,
        diameter=0.0,
    )
    violin = violin_export(dist, n_bins=8)
    assert int(np.count_nonzero(violin.density)) == 1
    integral = float(np.sum(violin.density * np.diff(violin.bin_edges)))
    assert integral == pytest.approx(1.0, abs=1e-9)


def test_violin_requires_two_bins():
    gmap = _small_gmap()
    dist = implant_distribution(gmap, ImplantRegion(diameter=20e-9))
    with pytest.raises(ValueError, match="n_bins"):
        violin_export(dist, n_bins=1)


def test_larger_disk_shifts_mass_below_smaller_disk_median():
    gmap = _small_gmap()
    d10 = implant_distribution(gmap, ImplantRegion(diameter=10e-9))
    d30 = implant_distribution(gmap, ImplantRegion(diameter=30e-9))
    w = d30.weights / d30.weights.sum()
    mass_below = float(w[d30.values < d10.median].sum())
    assert mass_below > 0.5


def test_median_curve_rows_and_monotonicity():
    field = _radial_field()
    diameters = np.array([0.0, 8e-9, 16e-9, 32e-9, 64e-9])
    rows = median_vs_D_curve(field, diameters)
    assert rows.shape == (5, 4)
    np.testing.assert_array_equal(rows[:, 0], diameters)
    assert rows[0, 1] == 1.0  # centre voxel of the unit-peak Gaussian
    assert np.all(np.diff(rows[:, 1]) <= 1e-15)  # radially decreasing field
    assert np.all(rows[:, 2] <= rows[:, 1] + 1e-15)
    assert np.all(rows[:, 1] <= rows[:, 3] + 1e-15)


def test_median_curve_requires_diameters():
    with pytest.raises(ValueError, match="diameter"):
        median_vs_D_curve(_radial_field(), [])

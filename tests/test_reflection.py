"""Waveguide reflection spectra, drift convolution and spin contrast."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cqed_fom.params import SystemParams
from cqed_fom.reflection import (
    SpinConfig,
    Spectrum,
    apply_drift,
    contrast_curve,
    reflection_amplitude,
    reflectivity,
    spin_contrast,
    spin_spectra,
)
from cqed_fom.units import ghz, mhz


def _bare_cavity(kappa_wg, kappa_sc=0.0):
    return SystemParams(g=0.0, kappa_wg=kappa_wg, kappa_sc=kappa_sc, gamma=0.0)


def test_far_detuned_probe_reflects_fully():
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    r = reflection_amplitude(params, 0.0, np.array([ghz(1e6)]))
    assert abs(r[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_critically_coupled_cavity_dip_vanishes():
    # kappa_wg = kappa_sc: the waveguide rate matches all other loss
    params = _bare_cavity(ghz(5), ghz(5))
    r = reflection_amplitude(params, 0.0, np.array([0.0]))
    assert abs(r[0]) ** 2 <= 1e-12


def test_overcoupled_cavity_reflects_with_pi_phase():
    params = _bare_cavity(ghz(10))
    r = reflection_amplitude(params, 0.0, np.array([0.0]))
    assert abs(r[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert np.angle(r[0]) == pytest.approx(np.pi, abs=1e-12)


def test_amplitude_matches_inline_formula():
    # independent transcription of the input-output expression
    rng = np.random.default_rng(5)
    params = SystemParams(
        g=ghz(7), kappa_wg=ghz(6), kappa_sc=ghz(2), gamma=mhz(150), gamma_star=mhz(40)
    )
    delta_a = ghz(0.8)
    probe = ghz(40) * (rng.random(16) - 0.5)
    probe.sort()
    r = reflection_amplitude(params, delta_a, probe)
    kappa = params.kappa_wg + params.kappa_sc
    gamma_tot = params.gamma + 2.0 * params.gamma_star
    expected = 1.0 - params.kappa_wg / (
        1j * probe + kappa / 2.0 + params.g**2 / (1j * (probe - delta_a) + gamma_tot / 2.0)
    )
    np.testing.assert_allclose(r, expected, rtol=1e-12)


def test_resonant_spectrum_is_symmetric():
    params = SystemParams(g=ghz(5), kappa_wg=ghz(10), gamma=mhz(100))
    probe = np.linspace(-ghz(30), ghz(30), 401)
    spec = reflectivity(params, 0.0, probe)
    np.testing.assert_allclose(spec.values, spec.values[::-1], atol=1e-12)


def test_reflectivity_never_exceeds_unity():
    params = SystemParams(
        g=ghz(12), kappa_wg=ghz(4), kappa_sc=ghz(6), gamma=mhz(500), gamma_star=ghz(2)
    )
    probe = np.linspace(-ghz(100), ghz(100), 2001)
    spec = reflectivity(params, ghz(3), probe)
    assert spec.values.max() <= 1.0 + 1e-9
    assert spec.values.min() >= 0.0


def test_reflection_requires_waveguide_port():
    params = SystemParams(g=ghz(1), kappa_wg=0.0, kappa_sc=ghz(1), gamma=mhz(1))
    with pytest.raises(ValueError, match="kappa_wg"):
        reflection_amplitude(params, 0.0, np.array([0.0]))


def test_power_of_two_scaled_inputs_give_identical_reflectivity():
    params = SystemParams(
        g=ghz(7), kappa_wg=ghz(6), kappa_sc=ghz(2), gamma=mhz(150), gamma_star=mhz(40)
    )
    probe = np.linspace(-ghz(40), ghz(40), 801)
    base = reflectivity(params, ghz(0.8), probe).values
    for k in (-900, -60, 60, 400):
        scaled = SystemParams(
            **{name: math.ldexp(getattr(params, name), k)
               for name in ("g", "kappa_wg", "kappa_sc", "gamma", "gamma_star")}
        )
        values = reflectivity(scaled, math.ldexp(ghz(0.8), k), np.ldexp(probe, k)).values
        np.testing.assert_array_equal(values, base)


def test_reflectivity_refuses_rates_beyond_double_range():
    # kappa is 400 decades below the probe: |P|^2 = (kappa/2)^2 at delta = 0 underflows
    params = _bare_cavity(1e-200)
    with pytest.raises(ValueError, match=r"too many decades \(\|P\|\^2 underflows\)"):
        reflectivity(params, 0.0, np.array([0.0, 1e200]))


def _exact_reflectivity(params, delta_a, delta):
    """|r|^2 of the module's complex input-output formula, in rational arithmetic.

    r = 1 - kappa_wg / (kappa/2 + i delta + g^2 / (gamma_tot/2 + i (delta - delta_a))),
    each complex number kept as a (real, imaginary) pair of Fractions; r = 1 where the
    dipole term is a pole (g > 0, gamma_tot = 0, delta = delta_a).
    """
    g, kappa_wg, kappa_sc, gamma, gamma_star, delta_a, delta = map(
        Fraction,
        (params.g, params.kappa_wg, params.kappa_sc, params.gamma, params.gamma_star,
         delta_a, delta),
    )
    re, im = (kappa_wg + kappa_sc) / 2, delta
    if g > 0:
        dip_re, dip_im = (gamma + 2 * gamma_star) / 2, delta - delta_a
        size = dip_re**2 + dip_im**2
        if size == 0:
            return Fraction(1)
        re, im = re + g**2 * dip_re / size, im - g**2 * dip_im / size
    size = re**2 + im**2
    r_re, r_im = 1 - kappa_wg * re / size, kappa_wg * im / size
    return r_re**2 + r_im**2


_RATE = st.floats(min_value=1e6, max_value=1e12)  # rad/s


@st.composite
def _reflection_points(draw):
    """Rates with g = 0 and kappa_sc = kappa_wg among them, and a probe that is
    free or within a relative 1e-6 of a polariton dip, delta (delta - delta_a) = g^2."""
    g = draw(st.one_of(st.just(0.0), _RATE))
    kappa_wg = draw(_RATE)
    kappa_sc = draw(st.one_of(st.just(kappa_wg), st.just(0.0), _RATE))
    gamma = draw(st.one_of(st.just(0.0), _RATE))
    gamma_star = draw(st.one_of(st.just(0.0), _RATE))
    delta_a = draw(st.one_of(st.just(0.0), st.floats(min_value=-1e12, max_value=1e12)))
    if draw(st.booleans()):
        root = math.sqrt(0.25 * delta_a**2 + g**2)
        dip = 0.5 * delta_a + draw(st.sampled_from((-1.0, 1.0))) * root
        delta = dip * (1.0 + draw(st.floats(min_value=-1e-6, max_value=1e-6)))
    else:
        delta = draw(st.floats(min_value=-1e13, max_value=1e13))
    params = SystemParams(
        g=g, kappa_wg=kappa_wg, kappa_sc=kappa_sc, gamma=gamma, gamma_star=gamma_star
    )
    return params, delta_a, delta


@settings(max_examples=300, deadline=None)
@given(_reflection_points())
def test_reflectivity_matches_exact_oracle(point):
    # Rounding of g^2 - delta (delta - delta_a) sets the error near a dip, so the
    # tolerance is 1e-6 relative with a 1e-11 absolute floor. Over 20,000 examples
    # of this strategy the worst error was 3.7e-4 of the tolerance (9.0e-11 at
    # R = 0.43, kappa = gamma = 1e6 rad/s next to g = 8.7e11 rad/s); the complex-
    # arithmetic form that the real one replaced reached 4.5e-3 of it.
    params, delta_a, delta = point
    value = reflectivity(params, delta_a, np.array([delta])).values[0]
    exact = _exact_reflectivity(params, delta_a, delta)
    assert value <= 1.0 + 4 * np.finfo(float).eps  # far off resonance, R rounds to 1
    assert abs(Fraction(value) - exact) <= Fraction(1e-6) * exact + Fraction(1e-11)


def test_dip_location_takes_first_minimum_on_ties():
    spec = Spectrum(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.5, 0.1, 0.1, 0.9]))
    assert spec.dip_location() == 1.0


# --- drift convolution ------------------------------------------------------


def test_drift_of_constant_spectrum_is_identity():
    grid = np.linspace(-10.0, 10.0, 201)
    spec = Spectrum(grid, np.full(grid.size, 0.7))
    out = apply_drift(spec, drift_sigma=0.5)
    np.testing.assert_allclose(out.values, 0.7, atol=1e-14)


def test_zero_drift_returns_copy():
    grid = np.linspace(0.0, 1.0, 11)
    spec = Spectrum(grid, np.sin(grid))
    out = apply_drift(spec, 0.0)
    np.testing.assert_array_equal(out.values, spec.values)
    assert out.values is not spec.values


def test_drift_rejects_coarse_grids():
    grid = np.linspace(0.0, 10.0, 11)
    spec = Spectrum(grid, np.ones(11))
    with pytest.raises(ValueError, match="coarse"):
        apply_drift(spec, drift_sigma=1.5)  # sigma < 2*dx = 2


def test_drift_rejects_nonuniform_grids():
    grid = np.array([0.0, 1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="uniform"):
        apply_drift(Spectrum(grid, np.ones(4)), 2.5)


def test_drift_matches_fine_resolution_oracle():
    # oracle: same convolution evaluated at 10x resolution, subsampled;
    # interior points only, away from the nearest-padding boundary
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    sigma = mhz(50)
    h = sigma / 2.5
    n = 1200
    grid = (np.arange(n) - n // 2) * h
    coarse = apply_drift(reflectivity(params, 0.0, grid), sigma)

    fine_grid = (np.arange(10 * n) - (10 * n) // 2) * (h / 10.0)
    fine = apply_drift(reflectivity(params, 0.0, fine_grid), sigma)
    oracle = fine.values[::10]
    interior = slice(50, n - 50)
    np.testing.assert_allclose(
        coarse.values[interior], oracle[interior], atol=1e-4
    )


def test_drift_preserves_dip_area():
    # convolution redistributes but does not create or destroy absorption
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    sigma = mhz(80)
    h = sigma / 4.0
    grid = (np.arange(4000) - 2000) * h
    raw = reflectivity(params, 0.0, grid)
    blurred = apply_drift(raw, sigma)
    missing_raw = np.sum(1.0 - raw.values) * h
    missing_blurred = np.sum(1.0 - blurred.values) * h
    assert missing_blurred == pytest.approx(missing_raw, rel=1e-6, abs=0.0)


# --- spin spectra and contrast ----------------------------------------------


def test_spin_spectra_swap_under_offset_exchange():
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100), delta_ca=ghz(100))
    probe = np.linspace(-ghz(110), -ghz(90), 1501)
    split = ghz(1)
    spin = SpinConfig(zeeman_split=split, drift=mhz(50))
    down, up = spin_spectra(params, spin, probe)
    # moving the pair down by one splitting maps up onto down
    shifted = SpinConfig(
        zeeman_split=split, spin_down_offset=spin.down_offset - split, drift=mhz(50)
    )
    down2, up2 = spin_spectra(params, shifted, probe)
    np.testing.assert_allclose(up2.values, down.values, atol=1e-12)


def test_fwhm_drift_interpretation_matches_sigma():
    fwhm = mhz(100)
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    a = SpinConfig(zeeman_split=ghz(1), drift=fwhm, drift_interpretation="fwhm")
    b = SpinConfig(zeeman_split=ghz(1), drift=sigma)
    assert a.drift_sigma == pytest.approx(b.drift_sigma, rel=1e-12, abs=0.0)


def test_contrast_bounds_and_zero_guard():
    down = Spectrum(np.arange(3.0), np.array([0.0, 0.4, 1.0]))
    up = Spectrum(np.arange(3.0), np.array([0.0, 0.2, 0.5]))
    c = spin_contrast(down, up)
    assert c[0] == 0.0  # both dark
    assert np.all((c >= 0.0) & (c <= 1.0))


def test_dispersive_dips_track_spin_splitting():
    # deep dispersive regime: two reflection dips separated by the
    # differential Zeeman splitting, resolved to one grid step
    split = ghz(1)
    delta_ca = ghz(1500)
    params = SystemParams(
        g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100), delta_ca=delta_ca
    )
    spin = SpinConfig(zeeman_split=split, drift=mhz(50))
    step = ghz(0.0125)
    probe = -delta_ca + np.arange(-160, 161) * step
    down, up = spin_spectra(params, spin, probe)
    separation = abs(down.dip_location() - up.dip_location())
    assert separation == pytest.approx(split, abs=step)


def test_contrast_curve_scans_cavity_detuning():
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    spin = SpinConfig(zeeman_split=ghz(1), drift=mhz(50))
    detunings = np.linspace(ghz(20), ghz(200), 7)
    curve = contrast_curve(params, spin, detunings)
    assert np.all((curve.contrast >= 0.0) & (curve.contrast <= 1.0))
    assert curve.optimal_detuning() == curve.cavity_detunings[np.argmax(curve.contrast)]


def test_contrast_curve_fixed_probe_policy():
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    spin = SpinConfig(zeeman_split=ghz(1), drift=mhz(50))
    detunings = np.linspace(ghz(50), ghz(100), 3)
    probe = -ghz(75)
    curve = contrast_curve(params, spin, detunings, probe_policy=probe)
    np.testing.assert_allclose(curve.best_probe, probe, atol=1e-6)
    # optimizing the probe can only help
    free = contrast_curve(params, spin, detunings)
    assert np.all(free.contrast >= curve.contrast - 1e-9)


def test_contrast_curve_fixed_probe_without_drift_is_two_reflectivities():
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    spin = SpinConfig(zeeman_split=ghz(1))
    detunings = np.linspace(ghz(95), ghz(105), 3)
    probe = -ghz(101.5)
    curve = contrast_curve(params, spin, detunings, probe_policy=probe)
    for k, delta in enumerate(detunings):
        here = replace(params, delta_ca=delta)
        down = reflectivity(here, spin.down_offset - delta, np.array([probe]))
        up = reflectivity(here, spin.up_offset - delta, np.array([probe]))
        assert curve.best_probe[k] == probe
        assert curve.contrast[k] == spin_contrast(down, up)[0]
        assert curve.abs_diff[k] == abs(down.values[0] - up.values[0])
    assert curve.contrast.max() > 0.1  # the probe sits on a spin-dependent dip


def _drifted_reflectivity(params, delta_a, probe, sigma):
    """Gaussian average of the closed-form |r|^2 around ``probe`` by adaptive quadrature."""
    def weighted(x):
        delta = probe + x
        dipole = 0.5 * params.gamma_coherence + 1j * (delta - delta_a)
        r = 1.0 - params.kappa_wg / (1j * delta + 0.5 * params.kappa + params.g**2 / dipole)
        return abs(r) ** 2 * math.exp(-0.5 * (x / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)

    dip = delta_a - probe
    breaks = sorted(b for b in {-sigma, 0.0, sigma, dip} if abs(b) < 10.0 * sigma)
    value, _ = quad(weighted, -10.0 * sigma, 10.0 * sigma, points=breaks, limit=400,
                    epsabs=1e-13, epsrel=1e-11)
    return value


def test_contrast_curve_fixed_probe_with_drift_matches_gaussian_average():
    # the 65-point window sigma/4 apart against quadrature of the closed form;
    # 1e-4 is the benchmark's contrast tolerance; the measured error is 1.8e-10
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    spin = SpinConfig(zeeman_split=ghz(1), drift=mhz(50))
    detunings = np.linspace(ghz(95), ghz(105), 3)
    probe = -ghz(101.5)
    curve = contrast_curve(params, spin, detunings, probe_policy=probe)
    for k, delta in enumerate(detunings):
        here = replace(params, delta_ca=delta)
        down, up = (
            _drifted_reflectivity(here, offset - delta, probe, spin.drift_sigma)
            for offset in (spin.down_offset, spin.up_offset)
        )
        assert curve.best_probe[k] == probe
        assert curve.abs_diff[k] == pytest.approx(abs(down - up), rel=0.0, abs=1e-4)
        assert curve.contrast[k] == pytest.approx(abs(down - up) / (down + up), rel=0.0, abs=1e-4)
    assert curve.contrast.max() > 0.1


@pytest.mark.parametrize("drift", [0.0, mhz(50)])
def test_contrast_curve_reports_fixed_probe_as_given(drift):
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    curve = contrast_curve(params, SpinConfig(zeeman_split=ghz(1), drift=drift),
                           np.array([ghz(20), ghz(40)]), probe_policy=-0.0)
    assert np.all(curve.best_probe == 0.0) and np.all(np.signbit(curve.best_probe))


def test_contrast_curve_is_exact_under_power_of_two_scaling():
    # the auto probe grid is built on scaled rates, so 2^k-scaled inputs give
    # bit-identical contrast, also where g^2 of the raw rates leaves the float range
    params = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    spin = SpinConfig(zeeman_split=ghz(1), drift=mhz(50))
    detunings = np.linspace(ghz(20), ghz(200), 4)
    base = contrast_curve(params, spin, detunings)
    for k in (-600, 600):
        scaled = contrast_curve(
            SystemParams(g=math.ldexp(ghz(10), k), kappa_wg=math.ldexp(ghz(10), k),
                         gamma=math.ldexp(mhz(100), k)),
            SpinConfig(zeeman_split=math.ldexp(ghz(1), k), drift=math.ldexp(mhz(50), k)),
            np.ldexp(detunings, k),
        )
        np.testing.assert_array_equal(scaled.contrast, base.contrast)
        np.testing.assert_array_equal(scaled.abs_diff, base.abs_diff)
        np.testing.assert_array_equal(scaled.best_probe, np.ldexp(base.best_probe, k))


@pytest.mark.parametrize("probe_policy", ["max-contrast", 0.0])
def test_contrast_curve_without_waveguide_port_is_a_value_error(probe_policy):
    # the auto probe grid steps by kappa / 50, which is 0 here
    params = SystemParams(g=6e10, kappa_wg=0.0, gamma=6e8)
    with pytest.raises(ValueError) as info:
        contrast_curve(params, SpinConfig(zeeman_split=ghz(1)), np.array([0.0, ghz(1)]),
                       probe_policy=probe_policy)
    assert str(info.value) == "reflection requires kappa_wg > 0 (no waveguide port)"

"""Validation and derived quantities of the parameter containers."""

import math

import numpy as np
import pytest

from cqed_fom.params import DipoleSpec, HilbertSpec, SystemParams
from cqed_fom.units import ghz, mhz


def test_kappa_is_the_sum_of_loss_channels():
    p = SystemParams(g=ghz(5), kappa_wg=ghz(8), kappa_sc=ghz(2), gamma=mhz(100))
    assert p.kappa == pytest.approx(ghz(10), rel=1e-15, abs=0.0)


def test_rates_must_be_nonnegative_and_finite():
    with pytest.raises(ValueError, match="g"):
        SystemParams(g=-1.0, kappa_wg=ghz(1), gamma=mhz(1))
    with pytest.raises(ValueError, match="kappa_sc"):
        SystemParams(g=ghz(1), kappa_wg=ghz(1), kappa_sc=-ghz(1), gamma=mhz(1))
    with pytest.raises(ValueError):
        SystemParams(g=math.inf, kappa_wg=ghz(1), gamma=mhz(1))


def test_detuning_may_be_signed():
    p = SystemParams(g=ghz(1), kappa_wg=ghz(1), gamma=mhz(1), delta_ca=-ghz(150))
    assert p.delta_ca < 0.0


def test_cooperativity_definition():
    p = SystemParams(g=ghz(2), kappa_wg=ghz(4), gamma=ghz(1))
    assert p.cooperativity() == pytest.approx(
        4 * ghz(2) ** 2 / (ghz(4) * ghz(1)), rel=1e-15, abs=0.0
    )


def test_quality_factor_convention():
    # omega/kappa with the default 737 nm carrier; the reference design
    # quotes Q near 40,000 for a 10 GHz linewidth
    p = SystemParams(g=ghz(10), kappa_wg=ghz(10), gamma=mhz(100))
    assert 40_000 <= p.quality_factor <= 41_000


def test_quality_factor_requires_loss():
    p = SystemParams(g=ghz(1), kappa_wg=0.0, gamma=mhz(1))
    with pytest.raises(ValueError, match="kappa"):
        _ = p.quality_factor


def test_coherence_rate_includes_double_dephasing():
    p = SystemParams(g=ghz(1), kappa_wg=ghz(1), gamma=mhz(100), gamma_star=mhz(50))
    assert p.gamma_coherence == pytest.approx(mhz(100) + 2 * mhz(50), rel=1e-15, abs=0.0)


def test_hilbert_indexing_is_emitter_major():
    spec = HilbertSpec(n_max=2)
    assert spec.dimension == 6
    assert spec.index(0, 0) == 0
    assert spec.index(0, 2) == 2
    assert spec.index(1, 0) == 3
    assert spec.index(1, 2) == 5


def test_hilbert_requires_at_least_one_photon_level():
    with pytest.raises(ValueError):
        HilbertSpec(n_max=0)


def test_dipole_orientation_normalization():
    d = DipoleSpec(mu=1e-29, orientation=(0.0, 1.0, 0.0))
    np.testing.assert_allclose(d.axis, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="unit"):
        DipoleSpec(mu=1e-29, orientation=(0.0, 2.0, 0.0))
    assert DipoleSpec(mu=1e-29).axis is None


def test_dipole_overlap_bounds():
    with pytest.raises(ValueError):
        DipoleSpec(mu=1e-29, overlap_xi=0.0)
    with pytest.raises(ValueError):
        DipoleSpec(mu=1e-29, overlap_xi=1.2)
    assert DipoleSpec(mu=1e-29, overlap_xi=0.5).overlap_xi == 0.5

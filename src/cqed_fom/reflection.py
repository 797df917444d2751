"""Single-sided cavity reflection and spin-contrast spectra.

Input-output treatment of a single-sided cavity (waveguide coupling
``kappa_wg``, residual loss ``kappa_sc``) dressed by one emitter
transition. With the probe detuning ``delta = omega_probe - omega_cavity``
and the transition detuning ``delta_a = omega_transition - omega_cavity``
(both rad/s) the amplitude reflection coefficient is

    r(delta) = 1 - kappa_wg / [ i delta + kappa/2
                                + g^2 / (i (delta - delta_a) + gamma_tot/2) ]

with ``gamma_tot = gamma + 2 gamma_star``: reflection damps the dipole at
(gamma + 2 gamma_star)/2, while beta and I in ``fom`` damp it at
(gamma + gamma_star)/2 (the printed excited-state projector jump). Limits:
|r| -> 1 far off resonance, r = 0 at critical coupling (kappa_wg =
kappa/2, g = 0, delta = 0) and r = -1 for the overcoupled bare cavity
(kappa_wg = kappa).

Multiplied out, r = N / P with Q = gamma_tot/2 + i (delta - delta_a),

    P = (kappa/2 + i delta) Q + g^2,    N = P - kappa_wg Q,

and with c = g^2 - delta (delta - delta_a) the four real parts are

    Re P = c + kappa gamma_tot / 4,
    Im P = (kappa/2) (delta - delta_a) + delta gamma_tot / 2,
    Re N = c + (kappa/2 - kappa_wg) gamma_tot / 2,
    Im N = (kappa/2 - kappa_wg) (delta - delta_a) + delta gamma_tot / 2.

R = |r|^2 = (Re N^2 + Im N^2) / (Re P^2 + Im P^2) is evaluated in real
arithmetic, in a few float buffers, with no complex temporary. For
g = 0, Q cancels: P = kappa/2 + i delta and N = P - kappa_wg. For g > 0
and kappa > 0, P has no zero. R is homogeneous of degree 0 in the probe,
delta_a and the rates, so it is computed on them scaled by
``params._power_of_two_scaled``, where g^2 cannot overflow.

Spectral drift of the emitter is modelled as a Gaussian convolution of
the reflectivity spectrum on a uniform probe grid. A caller's probe grid
is checked once, where it enters (``reflectivity``, ``spin_spectra``,
``apply_drift``); ``contrast_curve`` trusts the grids that it builds.

Spin readout: the two optical transitions of a spin-1/2 emitter sit at
``spin_down_offset`` and ``spin_down_offset + zeeman_split`` relative to
the emitter reference line; the cavity is at ``delta_ca`` above that
reference, so the transition detunings from the cavity are
``spin_down_offset - delta_ca`` and that plus the splitting.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .params import SystemParams, _power_of_two_scaled

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class SpinConfig:
    """Spin-dependent transition layout and drift model.

    ``zeeman_split`` is the differential optical Zeeman splitting between
    the spin-up and spin-down transitions (rad/s). ``spin_down_offset``
    places the spin-down transition relative to the emitter reference
    line; None centres the pair symmetrically at -split/2. ``drift``
    is the Gaussian drift width, interpreted as a standard deviation or
    as a FWHM depending on ``drift_interpretation``.
    """

    zeeman_split: float
    spin_down_offset: float | None = None
    drift: float = 0.0
    drift_interpretation: str = "sigma"

    def __post_init__(self) -> None:
        if not np.isfinite(self.zeeman_split) or self.zeeman_split < 0.0:
            raise ValueError("zeeman_split must be finite and >= 0")
        if self.drift < 0.0 or not np.isfinite(self.drift):
            raise ValueError("drift must be finite and >= 0")
        if self.drift_interpretation not in ("sigma", "fwhm"):
            raise ValueError("drift_interpretation must be 'sigma' or 'fwhm'")

    @property
    def drift_sigma(self) -> float:
        if self.drift_interpretation == "fwhm":
            return self.drift * FWHM_TO_SIGMA
        return self.drift

    @property
    def down_offset(self) -> float:
        if self.spin_down_offset is None:
            return -0.5 * self.zeeman_split
        return self.spin_down_offset

    @property
    def up_offset(self) -> float:
        return self.down_offset + self.zeeman_split


@dataclass
class Spectrum:
    """Real reflectivity R(delta) sampled on a probe-detuning grid (rad/s)."""

    detunings: np.ndarray
    values: np.ndarray

    def dip_location(self) -> float:
        """Probe detuning of the global reflectivity minimum (first on ties)."""
        return float(self.detunings[int(np.argmin(self.values))])


def _parts(
    params: SystemParams, atom_detuning: float, probe: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, float | np.ndarray, np.ndarray]:
    """(Re N, Im N, Re P, Im P) of the module docstring on ``probe``, all scaled.

    Each array is fresh; for g = 0 the real parts are floats.
    """
    probe = np.asarray(probe, dtype=float)
    if params.kappa_wg <= 0.0:
        raise ValueError("reflection requires kappa_wg > 0 (no waveguide port)")
    exponent, (g, kappa, kappa_wg, gamma_tot, delta_a, *_) = _power_of_two_scaled((
        params.g, params.kappa, params.kappa_wg, params.gamma_coherence, atom_detuning,
        probe.min(initial=0.0), probe.max(initial=0.0),
    ))
    half_kappa, half_gamma = 0.5 * kappa, 0.5 * gamma_tot
    leak = half_kappa - kappa_wg
    # np.ldexp, not a multiply by 2^-exponent: that factor overflows for subnormal rates
    delta = np.ldexp(probe, -exponent)
    if g == 0.0:
        return leak, delta, half_kappa, delta.copy()
    # delta - delta_a first: exact near delta_a, where it sets Im P and Im N
    shared = np.subtract(delta, delta_a)
    im_p = np.multiply(shared, half_kappa)
    im_n = np.multiply(shared, leak)
    shared *= delta
    delta *= half_gamma
    im_p += delta
    im_n += delta
    re_p = np.subtract(g * g + half_kappa * half_gamma, shared, out=delta)
    re_n = np.subtract(g * g + leak * half_gamma, shared, out=shared)
    return re_n, im_n, re_p, im_p


def _normal(squared_modulus: np.ndarray) -> np.ndarray:
    # |P|^2 > 0 in exact arithmetic; below the normal range it has lost bits
    if squared_modulus.min(initial=math.inf) < sys.float_info.min:
        raise ValueError(
            "reflection out of double range: the rates and probe span too many decades"
            " (|P|^2 underflows)"
        )
    return squared_modulus


def reflection_amplitude(
    params: SystemParams, atom_detuning: float, probe: np.ndarray
) -> np.ndarray:
    """Complex r(delta) = N / P on the probe grid; see the module docstring."""
    re_n, im_n, re_p, im_p = _parts(params, atom_detuning, probe)
    _normal(re_p * re_p + im_p * im_p)
    return (re_n + 1j * im_n) / (re_p + 1j * im_p)


def _squared_modulus(re: float | np.ndarray, im: np.ndarray) -> np.ndarray:
    """re^2 + im^2 into ``im``; ``re`` is overwritten too unless it is a float."""
    re *= re
    im *= im
    im += re
    return im


def _checked_grid(probe_grid: np.ndarray, drift_sigma: float = 0.0) -> np.ndarray:
    """A caller's probe grid as floats: 1-d, non-empty, strictly increasing, uniform with drift."""
    probe_grid = np.asarray(probe_grid, dtype=float)
    if probe_grid.ndim != 1 or probe_grid.size < 1:
        raise ValueError("probe_grid must be a non-empty 1-d array")
    if not np.all(probe_grid[1:] > probe_grid[:-1]):
        raise ValueError("probe_grid must be strictly increasing")
    if drift_sigma > 0.0:
        _check_uniform(probe_grid)
    return probe_grid


def _check_uniform(grid: np.ndarray) -> None:
    if grid.size < 2:
        raise ValueError("cannot convolve a single-point spectrum")
    steps = grid[1:] - grid[:-1]
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("drift convolution requires a uniform probe grid")


def _reflectivity(params: SystemParams, atom_detuning: float, grid: np.ndarray) -> np.ndarray:
    """R = |N|^2 / |P|^2 on a checked grid; passive, so R <= 1 always."""
    re_n, im_n, re_p, im_p = _parts(params, atom_detuning, grid)
    values = _squared_modulus(re_n, im_n)
    values /= _normal(_squared_modulus(re_p, im_p))
    if values.max() > 1.0 + 1e-9:
        raise ValueError(f"reflectivity {values.max()} exceeds 1 beyond numerical slack")
    return values


def reflectivity(params: SystemParams, atom_detuning: float, probe_grid: np.ndarray) -> Spectrum:
    """Power reflectivity R = |N|^2 / |P|^2 on a probe grid that is checked here."""
    probe_grid = _checked_grid(probe_grid)
    return Spectrum(probe_grid, _reflectivity(params, atom_detuning, probe_grid))


def _drift(drift_sigma: float, dx: float, *values: np.ndarray) -> list[np.ndarray]:
    """Each of ``values`` convolved with one kernel; scipy is imported on the first call."""
    from scipy.ndimage import convolve1d

    if drift_sigma < 2.0 * dx:
        raise ValueError(
            f"probe grid too coarse for drift convolution: sigma={drift_sigma:.3e}"
            f" < 2*dx={2.0 * dx:.3e}"
        )
    half = int(math.ceil(6.0 * drift_sigma / dx))
    offsets = np.arange(-half, half + 1) * dx
    kernel = np.exp(-0.5 * (offsets / drift_sigma) ** 2)
    kernel /= kernel.sum()
    return [convolve1d(v, kernel, mode="nearest") for v in values]


def apply_drift(spectrum: Spectrum, drift_sigma: float) -> Spectrum:
    """Convolve a spectrum with a renormalized Gaussian of width drift_sigma.

    The grid must be uniform and fine enough (drift_sigma >= 2 grid steps)
    for the sampled kernel to be meaningful; it is checked here, on every
    call. The kernel is truncated at +-6 sigma and renormalized on the
    discrete grid, so a constant spectrum passes through unchanged. Edge
    handling extends the boundary values, which is exact when the grid
    spans at least ~8 sigma beyond the last spectral feature.
    drift_sigma = 0 returns a copy. scipy is imported on first use.
    """
    if drift_sigma < 0.0 or not np.isfinite(drift_sigma):
        raise ValueError("drift_sigma must be finite and >= 0")
    if drift_sigma == 0.0:
        return Spectrum(spectrum.detunings.copy(), spectrum.values.copy())
    grid = np.asarray(spectrum.detunings, dtype=float)
    _check_uniform(grid)
    return Spectrum(grid.copy(), *_drift(drift_sigma, grid[1] - grid[0], spectrum.values))


def _spin_pair(
    params: SystemParams, spin: SpinConfig, grid: np.ndarray
) -> tuple[Spectrum, Spectrum]:
    """``spin_spectra`` on a grid it does not check again; one drift kernel serves both states."""
    down = _reflectivity(params, spin.down_offset - params.delta_ca, grid)
    up = _reflectivity(params, spin.up_offset - params.delta_ca, grid)
    if spin.drift_sigma > 0.0:
        down, up = _drift(spin.drift_sigma, grid[1] - grid[0], down, up)
    return Spectrum(grid, down), Spectrum(grid, up)


def spin_spectra(
    params: SystemParams, spin: SpinConfig, probe_grid: np.ndarray
) -> tuple[Spectrum, Spectrum]:
    """Drift-convolved reflectivity spectra for the two spin states.

    Returns ``(down, up)``; the two spectra differ only in the transition
    detuning, which changes by the differential Zeeman splitting. The
    probe grid is checked once, here: as in ``reflectivity`` and, with
    drift, for at least two points and uniform steps.
    """
    return _spin_pair(params, spin, _checked_grid(probe_grid, spin.drift_sigma))


def spin_contrast(down: Spectrum, up: Spectrum) -> np.ndarray:
    """|R_down - R_up| / (R_down + R_up), zero where both reflectivities vanish."""
    total = down.values + up.values
    diff = np.abs(down.values - up.values)
    return np.divide(diff, total, out=np.zeros_like(total), where=total >= 1e-12)


# ---------------------------------------------------------------------------
# contrast optimization over cavity detuning


@dataclass
class ContrastCurve:
    """Best-probe readout contrast per cavity-emitter detuning."""

    cavity_detunings: np.ndarray
    best_probe: np.ndarray
    contrast: np.ndarray
    abs_diff: np.ndarray  # |R_down - R_up| at the best probe

    def optimal_detuning(self) -> float:
        """Cavity detuning with the highest best-probe contrast (first on ties)."""
        return float(self.cavity_detunings[int(np.argmax(self.contrast))])


def _auto_probe_grid(params: SystemParams, spin: SpinConfig) -> np.ndarray:
    """Uniform probe grid wide and fine enough for both spin spectra.

    Span covers the polariton excursions of both transitions plus loss,
    splitting and drift margins; the step resolves the splitting, the
    drift kernel (sigma >= 2.5 steps) and the cavity linewidth. Both are
    worked out on rates scaled by ``params._power_of_two_scaled``, and the
    grid has at most 500_000 points. Raises ValueError when the grid
    would be wider than the largest double.
    """
    exponent, (kappa, g, gamma_tot, sigma, split, *transitions) = _power_of_two_scaled((
        params.kappa, params.g, params.gamma_coherence, spin.drift_sigma, spin.zeeman_split,
        spin.down_offset - params.delta_ca, spin.up_offset - params.delta_ca,
    ))
    reach = max(0.5 * abs(d) + math.sqrt(g**2 + 0.25 * d**2) for d in transitions)
    span = reach + (5.0 * (kappa + gamma_tot) + 8.0 * sigma + split)
    steps = [kappa / 50.0]
    if sigma > 0.0:
        steps.append(sigma / 2.5)
    if split > 0.0:
        steps.append(split / 25.0)
    if gamma_tot > 0.0:
        steps.append(max(gamma_tot, sigma) / 6.0)
    # the cap comes before int(), which an unbounded ratio would overflow
    n = int(min(2.0 * span / min(steps), 500_000 - 1)) + 1
    try:
        width = math.ldexp(span, exponent + 1)  # linspace forms stop - start = 2 span
    except OverflowError:
        raise ValueError(
            "reflection out of double range: the rates are too large for a probe grid"
            " (its width overflows)"
        ) from None
    grid = np.linspace(-0.5 * width, 0.5 * width, n)
    # uniform to within 1e-9 relative, unless its steps are subnormal
    return grid if width >= n * sys.float_info.min else _checked_grid(grid, spin.drift_sigma)


def contrast_curve(
    params: SystemParams,
    spin: SpinConfig,
    cavity_detunings: np.ndarray,
    probe_policy: str | float = "max-contrast",
) -> ContrastCurve:
    """Scan the cavity-emitter detuning and report the achievable contrast.

    For every detuning the two drift-convolved spin spectra are computed
    and the probe either optimized ("max-contrast", over the
    ``_auto_probe_grid`` of that detuning) or held at a fixed detuning (a
    float, rad/s, reported as given). A fixed probe, at any distance from
    0, is evaluated alone without drift, and with drift at the centre of a
    65-point window sigma/4 apart, where the convolution has converged.
    Neither grid is checked per detuning. Points where both spin states
    reflect less than 1e-12 are excluded from the probe optimization.
    """
    if params.kappa_wg <= 0.0:
        raise ValueError("reflection requires kappa_wg > 0 (no waveguide port)")
    cavity_detunings = np.asarray(cavity_detunings, dtype=float)
    if cavity_detunings.ndim != 1 or cavity_detunings.size < 1:
        raise ValueError("cavity_detunings must be a non-empty 1-d array")
    fixed_grid = None
    if not isinstance(probe_policy, str):
        fixed_probe, sigma = float(probe_policy), spin.drift_sigma
        centre = 32 if sigma > 0.0 else 0  # +-8 sigma: the convolution converges at the centre
        fixed_grid = fixed_probe + np.arange(-centre, centre + 1) * (sigma / 4.0)
        fixed_grid[centre] = fixed_probe  # the probe as given: -0.0 + 0.0 would be +0.0
        _checked_grid(fixed_grid)  # once: a drift below the probe's float resolution collapses it
    elif probe_policy != "max-contrast":
        raise ValueError(f"unknown probe policy {probe_policy!r}")

    best_probe = np.empty(cavity_detunings.size)
    contrast = np.empty(cavity_detunings.size)
    abs_diff = np.empty(cavity_detunings.size)
    for k, delta in enumerate(cavity_detunings):
        here = replace(params, delta_ca=float(delta))
        grid = _auto_probe_grid(here, spin) if fixed_grid is None else fixed_grid
        down, up = _spin_pair(here, spin, grid)
        c = spin_contrast(down, up)
        j = int(np.argmax(c)) if fixed_grid is None else centre
        best_probe[k], contrast[k] = grid[j], c[j]
        abs_diff[k] = abs(down.values[j] - up.values[j])
    return ContrastCurve(cavity_detunings, best_probe, contrast, abs_diff)


__all__ = [
    "SpinConfig",
    "Spectrum",
    "reflection_amplitude",
    "reflectivity",
    "apply_drift",
    "spin_spectra",
    "spin_contrast",
    "ContrastCurve",
    "contrast_curve",
    "FWHM_TO_SIGMA",
]

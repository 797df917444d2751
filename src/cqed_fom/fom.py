"""Single-photon figures of merit of the emitter-cavity system.

Everything here starts from the emission problem: the emitter is
prepared in ``|e, 0>`` and the undriven master equation runs until the
excitation is gone. From that flow we compute

* ``cavity_efficiency``: beta = kappa * int_0^inf <a^dag a> dt, the
  probability that the excitation leaves through the cavity,
* ``indistinguishability``: the normalized two-photon overlap
  I = int int |<a^dag(t+tau) a(t)>|^2 / int int <n(t+tau)><n(t)>,
* ``cooperativity``: C = 4 g^2 / (kappa gamma),
* the conversion between mode volume and coupling rate,
  g = xi * mu * sqrt(omega / (2 eps0 hbar V)).

The undriven flow never leaves the one-excitation manifold {|e,0>,
|g,1>}: H conserves the excitation number, ``a`` and ``sigma_-`` lower
it and dephasing keeps it. Both figures are therefore exact closed forms
for every n_max >= 1, with no time grid and no linear solve. With
Gamma = kappa + gamma + gamma_star and Delta = ``delta_ca``,

    int n dt = 4 g^2 Gamma / N1,  N1 = 4 g^2 (kappa + gamma) Gamma
                                       + kappa gamma (Gamma^2 + 4 Delta^2),

beta = kappa int n dt, and I = N1 N2 / (Gamma D2 D3), where N2, D2 and D3
(``_overlap_ratio``) are polynomials in the rates with positive
coefficients. They come from the two Lyapunov equations of the
one-excitation blocks (the Gramian of rho on {|e,0>, |g,1>}, and that of
the coherences |g,0><j| that ``a`` maps it to) solved symbolically, with
the denominator (int n dt)^2 / 2 of I folded in. As every rate is >= 0,
no sum cancels and both figures hold to a few ulp; at gamma_star = 0,
I = 1 to round-off.

Both figures are homogeneous of degree 0 in the rates, so they are
computed on the rates scaled by ``params._power_of_two_scaled``, and the
degree-11 terms stay in float range at any rate scale. Only rates that
span some hundred decades can still underflow a denominator below the
normal float range, which raises NonConvergedError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .constants import HBAR, SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .errors import NonConvergedError
from .params import DEFAULT_OMEGA, DipoleSpec, SystemParams, _power_of_two_scaled


def _scaled_rates(params: SystemParams) -> tuple[float, ...]:
    """(g, kappa, kappa_wg, gamma, gamma_star, delta_ca), scaled (module docstring)."""
    return _power_of_two_scaled((params.g, params.kappa, params.kappa_wg, params.gamma,
                                 params.gamma_star, params.delta_ca))[1]


def _normal(denominator: float) -> float:
    # below the normal range a denominator has lost bits, or is 0
    if denominator < sys.float_info.min:
        raise NonConvergedError(
            "non-converged integral: the rates span too many decades for double precision"
            " (a denominator underflows)"
        )
    return denominator


def _photon_number_denominator(rates: tuple[float, ...]) -> float:
    """N1 of the module docstring from the scaled ``rates``; NonConvergedError when
    part of the excitation never decays (kappa = gamma = 0, or g = gamma = 0) or N1 underflows."""
    g, kappa, _, gamma, gamma_star, delta = rates
    if kappa == 0.0 and gamma == 0.0:
        raise NonConvergedError(
            "non-converged integral: no energy decay channel (kappa and gamma both zero)"
        )
    total = kappa + gamma + gamma_star
    denominator = 4.0 * g**2 * (kappa + gamma) * total + kappa * gamma * (
        total**2 + 4.0 * delta**2
    )
    if denominator == 0.0 and g == 0.0:
        raise NonConvergedError(
            "non-converged integral: the excitation never leaves |e,0> (g and gamma both zero)"
        )
    return _normal(denominator)


def _form(degree: int, coefficients: tuple[int, ...], x: float, y: float, z: float) -> float:
    """sum c x^i y^j z^k over i + j + k = n = ``degree``, the ``coefficients`` taken
    by falling i, then falling j: x^n, x^(n-1) y, x^(n-1) z, x^(n-2) y^2, ..., z^n."""
    exponents = [(i, j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)]
    return sum(
        c * x**i * y**j * z ** (degree - i - j)
        for c, (i, j) in zip(coefficients, exponents, strict=True)
    )


def _overlap_ratio(rates: tuple[float, ...], n1: float) -> float:
    """I = N1 N2 / (Gamma D2 D3) from the scaled ``rates`` (module docstring).

    With h = g^2, d = Delta^2, u = Gamma + gamma + kappa, and p1..p6
    homogeneous in (gamma, gamma_star, kappa).
    """
    g, kappa, _, gamma, gs, delta = rates
    h, d = g * g, delta * delta
    total = kappa + gamma + gs
    u = total + gamma + kappa
    ck, cg = total + 2.0 * kappa, total + 2.0 * gamma
    p1, p2, p3, p4, p5, p6 = (
        _form(n, c, gamma, gs, kappa)
        for n, c in (
            (2, (3, 4, 4, 1, 3, 1)),
            (3, (24, 41, 56, 20, 64, 40, 3, 16, 23, 8)),
            (5, (5, 19, 21, 28, 63, 38, 20, 69, 77, 38, 7, 33, 50, 35, 21, 1, 6, 11, 7, 6, 5)),
            (3, (8, 17, 24, 12, 22, 24, 3, 6, 5, 8)),
            (3, (1, 3, 3, 3, 1, 3, 1, 0, 0, 1)),
            (2, (5, 4, 6, 1, 4, 5)),
        )
    )
    d2 = 4 * h * total**2 + kappa * (gamma + gs) * (total**2 + 4 * d)
    n2 = (
        total**2 * ck**2 * cg * p1 + 4 * h * total * ck * p2
        + 32 * h**2 * total * u * (4 * gamma + gs + 4 * kappa)
        + 8 * d * p3 + 16 * d * h * p4 + 16 * d**2 * p5
    )
    d3 = (
        (gamma + kappa) * total * ck**2 * cg**2 + 8 * h * ck * u**2 * cg + 64 * h**2 * u**2
        + 8 * d * (gamma + kappa) * total * p6 + 32 * d * h * u**2
        + 16 * d**2 * (gamma + kappa) * total
    )
    # a product of two ratios, so no product of small terms underflows; d2 >= n1 is normal
    return (n1 / d2) * (n2 / _normal(total * d3))


def _clamp_unit(value: float, name: str) -> float:
    if not math.isfinite(value) or value < -1e-6 or value > 1.0 + 1e-6:
        raise NonConvergedError(f"{name} = {value!r} outside [0, 1] beyond numerical slack")
    return min(max(value, 0.0), 1.0)


def cooperativity(params: SystemParams) -> float:
    """C = 4 g^2 / (kappa gamma) with the total kappa."""
    return params.cooperativity()


def cavity_efficiency(params: SystemParams, channel: str = "total") -> float:
    """Probability that the initial excitation is emitted by the cavity.

    ``channel="total"`` returns beta = kappa * int <a^dag a> dt; with
    ``channel="waveguide"`` only the waveguide share kappa_wg enters, i.e.
    beta_wg = (kappa_wg / kappa) * beta.

    Closed form (module docstring), no solve; 0 for g = 0 and gamma > 0,
    whatever kappa. Raises NonConvergedError("non-converged integral...")
    if part of the excitation never decays (kappa = gamma = 0, or g =
    gamma = 0), or if the rates span too many decades for double precision.
    """
    if channel not in ("total", "waveguide"):
        raise ValueError(f"unknown channel {channel!r}")
    rates = _scaled_rates(params)
    g, kappa, kappa_wg, gamma, gamma_star, _ = rates
    if g == 0.0 and gamma > 0.0:
        return 0.0  # no photon reaches the cavity
    n1 = _photon_number_denominator(rates)
    integral_n = 4.0 * g**2 * (kappa + gamma + gamma_star) / n1
    return _clamp_unit((kappa if channel == "total" else kappa_wg) * integral_n, "beta")


def indistinguishability(params: SystemParams) -> float:
    """Two-photon interference visibility of successive cavity emissions.

    Normalized first-order coherence of the emitted field,

        I = int dt int dtau |<a^dag(t+tau) a(t)>|^2
            -----------------------------------------
            int dt int dtau <n(t+tau)> <n(t)>

    as the closed-form ratio of positive polynomials of the module
    docstring; the dephasing-free limit is 1 to round-off. Without
    coupling there is no cavity photon and the ratio is undefined:
    g == 0 raises ValueError. Raises NonConvergedError as
    ``cavity_efficiency`` does.
    """
    if params.g <= 0.0:
        raise ValueError("indistinguishability undefined for g == 0 (no cavity emission)")
    rates = _scaled_rates(params)
    return _clamp_unit(
        _overlap_ratio(rates, _photon_number_denominator(rates)), "indistinguishability"
    )


# ---------------------------------------------------------------------------
# mode volume <-> coupling


def _lambda_n3(omega: float, medium_index: float | None) -> float:
    """(lambda/n)^3 in m^3 for the carrier ``omega`` in a medium of index n."""
    if medium_index is None or medium_index <= 0.0:
        raise ValueError("units='lambda_n3' needs a positive medium_index")
    lam = 2.0 * math.pi * SPEED_OF_LIGHT / omega
    return (lam / medium_index) ** 3


def _volume_to_m3(
    volume: float, omega: float, units: str, medium_index: float | None
) -> float:
    if units == "m3":
        return volume
    if units == "lambda_n3":
        return volume * _lambda_n3(omega, medium_index)
    raise ValueError(f"unknown volume units {units!r}")


def g_from_mode_volume(
    volume: float,
    dipole: DipoleSpec,
    omega: float = DEFAULT_OMEGA,
    units: str = "m3",
    medium_index: float | None = None,
) -> float:
    """Coupling rate g = xi * mu * sqrt(omega / (2 eps0 hbar V)) in rad/s.

    ``volume`` is the energy-density mode volume, in m^3 or in units of
    (lambda/n)^3 when ``units="lambda_n3"`` (requires ``medium_index``).
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    v_m3 = float(_volume_to_m3(volume, omega, units, medium_index))
    if not 0.0 < v_m3 < math.inf:
        raise ValueError(f"mode volume must be finite and positive, got {v_m3!r} m^3")
    denominator = 2.0 * VACUUM_PERMITTIVITY * HBAR * v_m3
    g = dipole.overlap_xi * dipole.mu * math.sqrt(omega / denominator) if denominator else math.inf
    if g == math.inf:
        raise ValueError(f"mode volume {v_m3!r} m^3 too small: g overflows")
    return g


def mode_volume_from_coupling(
    g: float,
    dipole: DipoleSpec,
    omega: float = DEFAULT_OMEGA,
    units: str = "m3",
    medium_index: float | None = None,
) -> float:
    """Inverse of ``g_from_mode_volume``: V = omega (xi mu)^2 / (2 eps0 hbar g^2)."""
    if g <= 0.0:
        raise ValueError("g must be positive")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    # g**2 raises OverflowError from 2^512 up
    denominator = 2.0 * VACUUM_PERMITTIVITY * HBAR * g**2 if g < 2.0**512 else math.inf
    if not 0.0 < denominator < math.inf:
        raise ValueError(f"no finite mode volume for g = {g!r} rad/s: g^2 leaves the float range")
    v_m3 = omega * (dipole.overlap_xi * dipole.mu) ** 2 / denominator
    if units == "m3":
        return v_m3
    if units == "lambda_n3":
        return v_m3 / _lambda_n3(omega, medium_index)
    raise ValueError(f"unknown volume units {units!r}")


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class FomResult:
    """One row of a figure-of-merit sweep. ``status`` is "ok" or the error."""

    g: float
    beta: float
    beta_wg: float
    indist: float
    cooperativity: float
    v_m3: float | None
    v_norm: float | None
    status: str


def _sweep_point(
    base: SystemParams,
    g: float | None,
    volume_m3: float | None,
    dipole: DipoleSpec | None,
    lambda_n3: float | None,
) -> FomResult:
    """One sweep row, from g or (g is None) from ``volume_m3`` through ``dipole``."""
    v_m3 = v_norm = None
    try:
        if g is None:
            g = g_from_mode_volume(volume_m3, dipole, base.omega)
        params = replace(base, g=g)
        # g = 0 maps to infinite volume; leave both fields unset for that row.
        if dipole is not None and g > 0.0:
            v_m3 = mode_volume_from_coupling(g, dipole, params.omega)
            if lambda_n3 is not None:
                v_norm = v_m3 / lambda_n3
        beta = cavity_efficiency(params, channel="total")
        beta_wg = beta * (params.kappa_wg / params.kappa) if params.kappa > 0.0 else 0.0
        indist = indistinguishability(params)
        coop = cooperativity(params)
        status = "ok"
    except (NonConvergedError, ValueError) as exc:
        beta = beta_wg = indist = coop = math.nan
        status = f"{type(exc).__name__}: {exc}"
    return FomResult(
        g=math.nan if g is None else g,
        beta=beta,
        beta_wg=beta_wg,
        indist=indist,
        cooperativity=coop,
        v_m3=v_m3,
        v_norm=v_norm,
        status=status,
    )


def fom_sweep(
    base: SystemParams,
    g_values=None,
    *,
    volumes=None,
    volume_units: str = "m3",
    dipole: DipoleSpec | None = None,
    medium_index: float | None = None,
) -> list[FomResult]:
    """Evaluate beta, I and C over couplings or mode volumes.

    Exactly one of ``g_values`` (rad/s) and ``volumes`` must be given;
    volumes are converted through the dipole context first. Points are
    independent: a failure, the conversion of an out-of-range volume or
    coupling included, is recorded in the row status instead of aborting
    the sweep.
    """
    if (g_values is None) == (volumes is None):
        raise ValueError("provide exactly one of g_values or volumes")
    if volumes is not None and dipole is None:
        raise ValueError("a dipole context is required to sweep over volumes")
    lambda_n3 = None if medium_index is None else _lambda_n3(base.omega, medium_index)
    if volumes is None:
        return [_sweep_point(base, float(g), None, dipole, lambda_n3) for g in g_values]
    volumes_m3 = [_volume_to_m3(float(v), base.omega, volume_units, medium_index) for v in volumes]
    return [_sweep_point(base, None, v, dipole, lambda_n3) for v in volumes_m3]


__all__ = [
    "cooperativity",
    "cavity_efficiency",
    "indistinguishability",
    "g_from_mode_volume",
    "mode_volume_from_coupling",
    "FomResult",
    "fom_sweep",
]

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
it and dephasing keeps it. Both figures are therefore exact and hold for
every n_max >= 1. With Gamma = kappa + gamma + gamma_star and Delta =
``delta_ca``, the photon-number integral has the closed form

    int n dt = 4 g^2 Gamma / (4 g^2 (kappa + gamma) Gamma
                              + kappa gamma (Gamma^2 + 4 Delta^2)),

so beta = kappa int n dt, and the denominator of I is (int n dt)^2 / 2.
The numerator of I comes from two blocks of ``core.build_liouvillian``
at n_max = 1: A, the block of rho on that manifold, and B, the block of
the coherences |g,0><j| that ``a`` maps it to. With x0 = vec |e,0><e,0|,

    int x x^H dt   = Z,  A Z + Z A^H = -x0 x0^H,
    numerator of I = w^T Y w*,  B Y + Y B^H = -S Z S^H,

each Lyapunov equation solved as the Kronecker system
(1 (x) A + conj(A) (x) 1) vec X = vec Q. No time grid is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .core import annihilation, build_liouvillian, excited_emitter_state, vec
from .errors import NonConvergedError
from .params import DEFAULT_OMEGA, DipoleSpec, HilbertSpec, SystemParams


def _photon_number_integral(params: SystemParams) -> float:
    """int_0^inf <a^dag a> dt of the emission problem (closed form, module docstring).

    Raises NonConvergedError("non-converged integral...") when part of the
    excitation never decays (kappa = gamma = 0, or g = gamma = 0).
    """
    g2, kappa, gamma = params.g**2, params.kappa, params.gamma
    if kappa == 0.0 and gamma == 0.0:
        raise NonConvergedError(
            "non-converged integral: no energy decay channel (kappa and gamma both zero)"
        )
    total = kappa + gamma + params.gamma_star
    denominator = 4.0 * g2 * (kappa + gamma) * total + kappa * gamma * (
        total**2 + 4.0 * params.delta_ca**2
    )
    if denominator == 0.0:
        raise NonConvergedError(
            "non-converged integral: the excitation never leaves |e,0> (g and gamma both zero)"
        )
    return 4.0 * g2 * total / denominator


def _photon_overlap(params: SystemParams) -> float:
    """int int |<a^dag(t+tau) a(t)>|^2 dt dtau of the emission problem.

    Raises NonConvergedError("non-converged integral...") when the slowest
    decay is below double precision relative to the fastest rate.
    """
    spec = HilbertSpec(1)
    d = spec.dimension
    liou = build_liouvillian(params, spec)
    one = [spec.index(1, 0), spec.index(0, 1)]
    rho_idx = [i + d * j for j in one for i in one]  # vec(rho) on {|e,0>, |g,1>}^2
    coh_idx = [spec.index(0, 0) + d * j for j in one]  # vec of |g,0><j|
    a_blk = liou[np.ix_(rho_idx, rho_idx)]
    b_blk = liou[np.ix_(coh_idx, coh_idx)]
    a = annihilation(spec)
    s_map = np.kron(np.eye(d), a)[np.ix_(coh_idx, rho_idx)]  # rho -> a rho
    x0 = vec(excited_emitter_state(spec))[rho_idx]
    w = vec(a.conj())[coh_idx]  # tr(a^dag X)

    cond = np.linalg.cond(a_blk)
    if not cond * np.finfo(float).eps < 1.0:
        raise NonConvergedError(
            f"non-converged integral: one-excitation block singular to working precision"
            f" (condition number {cond:.1e})"
        )
    z = _lyapunov(a_blk, -np.outer(x0, x0.conj()))
    y = _lyapunov(b_blk, -s_map @ z @ s_map.conj().T)
    return float((w @ y @ w.conj()).real)


def _lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X with a X + X a^H = q, refined twice against its own residual.

    Solves the Kronecker form (1 (x) a + conj(a) (x) 1) vec X = vec q,
    which is at most 16 x 16 here. The photon entries of the emission
    Gramians can sit many orders below the largest entry (weak coupling,
    far detuning); each refinement step solves for the correction from
    the residual, which brings those entries to round-off.
    """
    n = a.shape[0]
    eye = np.eye(n)
    kron = np.kron(eye, a) + np.kron(a.conj(), eye)
    x = np.linalg.solve(kron, vec(q)).reshape((n, n), order="F")
    for _ in range(2):
        residual = q - a @ x - x @ a.conj().T
        x = x + np.linalg.solve(kron, vec(residual)).reshape((n, n), order="F")
    return x


def _clamp_unit(value: float, name: str) -> float:
    if not np.isfinite(value) or value < -1e-6 or value > 1.0 + 1e-6:
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

    Closed form (module docstring), no solve. Raises
    NonConvergedError("non-converged integral...") if part of the
    excitation never decays (kappa = gamma = 0, or g = gamma = 0).
    """
    if channel not in ("total", "waveguide"):
        raise ValueError(f"unknown channel {channel!r}")
    integral_n = _photon_number_integral(params)
    scale = params.kappa if channel == "total" else params.kappa_wg
    return _clamp_unit(scale * integral_n, "beta")


def indistinguishability(params: SystemParams) -> float:
    """Two-photon interference visibility of successive cavity emissions.

    Normalized first-order coherence of the emitted field,

        I = int dt int dtau |<a^dag(t+tau) a(t)>|^2
            -----------------------------------------
            int dt int dtau <n(t+tau)> <n(t)>

    from the closed-form int n dt and two Lyapunov solves on the
    one-excitation blocks (module docstring); the dephasing-free limit is
    1 to round-off. Without coupling there is no cavity photon and the
    ratio is undefined: g == 0 raises ValueError.
    """
    if params.g <= 0.0:
        raise ValueError("indistinguishability undefined for g == 0 (no cavity emission)")
    integral_n = _photon_number_integral(params)
    if not integral_n > 0.0:
        raise ValueError("indistinguishability undefined: no cavity emission recorded")
    return _clamp_unit(_photon_overlap(params) / (0.5 * integral_n**2), "indistinguishability")


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
    v_m3 = _volume_to_m3(volume, omega, units, medium_index)
    if v_m3 <= 0.0 or not np.isfinite(v_m3):
        raise ValueError(f"mode volume must be finite and positive, got {v_m3!r} m^3")
    return (
        dipole.overlap_xi
        * dipole.mu
        * math.sqrt(omega / (2.0 * VACUUM_PERMITTIVITY * HBAR * v_m3))
    )


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
    v_m3 = omega * (dipole.overlap_xi * dipole.mu) ** 2 / (
        2.0 * VACUUM_PERMITTIVITY * HBAR * g**2
    )
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
    params: SystemParams


def _sweep_point(
    base: SystemParams,
    g: float,
    dipole: DipoleSpec | None,
    medium_index: float | None,
) -> FomResult:
    params = replace(base, g=g)
    v_m3 = v_norm = None
    # g = 0 maps to infinite volume; leave both fields unset for that row.
    if dipole is not None and g > 0.0:
        v_m3 = mode_volume_from_coupling(g, dipole, params.omega)
        if medium_index is not None:
            v_norm = v_m3 / _lambda_n3(params.omega, medium_index)
    try:
        beta = cavity_efficiency(params, channel="total")
        beta_wg = beta * (params.kappa_wg / params.kappa) if params.kappa > 0.0 else 0.0
        indist = indistinguishability(params)
        coop = cooperativity(params)
        status = "ok"
    except (NonConvergedError, ValueError) as exc:
        beta = beta_wg = indist = coop = float("nan")
        status = f"{type(exc).__name__}: {exc}"
    return FomResult(
        g=g,
        beta=beta,
        beta_wg=beta_wg,
        indist=indist,
        cooperativity=coop,
        v_m3=v_m3,
        v_norm=v_norm,
        status=status,
        params=params,
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
    independent: a failure is recorded in the row status instead of
    aborting the sweep.
    """
    if (g_values is None) == (volumes is None):
        raise ValueError("provide exactly one of g_values or volumes")
    if volumes is not None:
        if dipole is None:
            raise ValueError("a dipole context is required to sweep over volumes")
        g_values = [
            g_from_mode_volume(v, dipole, base.omega, volume_units, medium_index)
            for v in volumes
        ]
    return [_sweep_point(base, float(g), dipole, medium_index) for g in g_values]


__all__ = [
    "cooperativity",
    "cavity_efficiency",
    "indistinguishability",
    "g_from_mode_volume",
    "mode_volume_from_coupling",
    "FomResult",
    "fom_sweep",
]

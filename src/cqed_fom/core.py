"""Lindblad dynamics of a two-level emitter coupled to a single cavity mode.

The model is the driven-free Jaynes-Cummings system in the frame rotating
at the emitter frequency,

    H / hbar = g (sigma_- a^dag + sigma_+ a) + delta_ca a^dag a,

with three dissipation channels: photon loss at rate ``kappa`` (jump
operator ``a``), emitter decay into non-cavity modes at rate ``gamma``
(jump operator ``sigma_-``) and pure dephasing at rate ``gamma_star``
whose jump operator is the excited-state projector ``sigma_+ sigma_-``.

Basis ordering is fixed package-wide: ``|s, n>`` at flat index
``s*(n_max+1) + n`` with s=0 ground, s=1 excited.

Superoperators act on column-stacked density matrices,
``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``; ``vec`` is
``X.reshape(-1, order="F")``.

Propagation (``evolve``, ``two_time_correlation``, ``propagate_integrals``)
steps with exact matrix exponentials; it is the reference dynamics that
the closed forms of ``fom`` are tested against, and the only part of
this module that needs scipy (``scipy.linalg.expm``, imported on first
use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergedError
from .params import HilbertSpec, SystemParams


# ---------------------------------------------------------------------------
# operators


def annihilation(spec: HilbertSpec) -> np.ndarray:
    """Cavity annihilation operator on the truncated product space."""
    a_fock = np.diag(np.sqrt(np.arange(1, spec.n_fock)), 1)
    return np.kron(np.eye(2), a_fock).astype(complex)


def sigma_minus(spec: HilbertSpec) -> np.ndarray:
    """Emitter lowering operator |g><e| on the product space."""
    sm = np.zeros((2, 2))
    sm[0, 1] = 1.0
    return np.kron(sm, np.eye(spec.n_fock)).astype(complex)


def number_operator(spec: HilbertSpec) -> np.ndarray:
    """Photon number a^dag a."""
    return np.kron(np.eye(2), np.diag(np.arange(spec.n_fock))).astype(complex)


def excited_projector(spec: HilbertSpec) -> np.ndarray:
    """Emitter excited-state population sigma_+ sigma_-."""
    return np.kron(np.diag([0.0, 1.0]), np.eye(spec.n_fock)).astype(complex)


def excitation_operator(spec: HilbertSpec) -> np.ndarray:
    """Total excitation number a^dag a + sigma_+ sigma_-."""
    return number_operator(spec) + excited_projector(spec)


def identity(spec: HilbertSpec) -> np.ndarray:
    return np.eye(spec.dimension, dtype=complex)


def basis_state(spec: HilbertSpec, excited: int, n: int) -> np.ndarray:
    """Density matrix of the pure basis state ``|s, n>``."""
    rho = np.zeros((spec.dimension, spec.dimension), dtype=complex)
    k = spec.index(excited, n)
    rho[k, k] = 1.0
    return rho


def excited_emitter_state(spec: HilbertSpec) -> np.ndarray:
    """Initial condition of the emission problem: ``|e, 0><e, 0|``."""
    return basis_state(spec, 1, 0)


# ---------------------------------------------------------------------------
# vectorization (column stacking)


def vec(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def _spre_spost(a_left: np.ndarray, b_right: np.ndarray) -> np.ndarray:
    """Superoperator of X -> a_left @ X @ b_right."""
    return np.kron(b_right.T, a_left)


def dissipator(op: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[op] as a superoperator (unit rate)."""
    op = np.asarray(op, dtype=complex)
    opdop = op.conj().T @ op
    eye = np.eye(op.shape[0], dtype=complex)
    return (
        _spre_spost(op, op.conj().T)
        - 0.5 * _spre_spost(opdop, eye)
        - 0.5 * _spre_spost(eye, opdop)
    )


def hamiltonian_superoperator(h_over_hbar: np.ndarray) -> np.ndarray:
    """Coherent part -i [H, .] for H given in rad/s."""
    eye = np.eye(h_over_hbar.shape[0], dtype=complex)
    return -1j * (_spre_spost(h_over_hbar, eye) - _spre_spost(eye, h_over_hbar))


def build_hamiltonian(params: SystemParams, spec: HilbertSpec) -> np.ndarray:
    """Jaynes-Cummings Hamiltonian divided by hbar (units of rad/s).

    Rotating frame at the emitter frequency: the cavity-emitter detuning
    ``delta_ca`` multiplies the photon number operator.
    """
    a = annihilation(spec)
    sm = sigma_minus(spec)
    h = params.g * (sm @ a.conj().T + sm.conj().T @ a)
    h += params.delta_ca * (a.conj().T @ a)
    return h


def build_liouvillian(params: SystemParams, spec: HilbertSpec) -> np.ndarray:
    """Generator of the master equation acting on vec(rho), in rad/s."""
    h = build_hamiltonian(params, spec)
    liou = hamiltonian_superoperator(h)
    a = annihilation(spec)
    sm = sigma_minus(spec)
    if params.kappa > 0.0:
        liou += params.kappa * dissipator(a)
    if params.gamma > 0.0:
        liou += params.gamma * dissipator(sm)
    if params.gamma_star > 0.0:
        liou += params.gamma_star * dissipator(sm.conj().T @ sm)
    return liou


# ---------------------------------------------------------------------------
# density-matrix checks


def validate_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-9,
    eig_floor: float = -1e-8,
    context: str = "density matrix",
) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and positive.

    Tolerances: Hermiticity deviation max|rho - rho^dag| <= herm_tol,
    |tr rho - 1| <= trace_tol, smallest eigenvalue >= eig_floor.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{context}: expected a square matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError(f"{context}: non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise ValueError(f"{context}: Hermiticity violation {herm:.3e} > {herm_tol:.1e}")
    tr = abs(rho.trace() - 1.0)
    if tr > trace_tol:
        raise ValueError(f"{context}: trace deviation {tr:.3e} > {trace_tol:.1e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < eig_floor:
        raise ValueError(f"{context}: negative eigenvalue {lo:.3e} < {eig_floor:.1e}")


# ---------------------------------------------------------------------------
# propagation


@dataclass
class Trajectory:
    """Density matrices rho(t) on a monotone time grid."""

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d)

    def expect(self, op: np.ndarray) -> np.ndarray:
        """tr(op @ rho(t)) for every stored state."""
        return np.einsum("ij,tji->t", np.asarray(op, dtype=complex), self.states)


@dataclass
class CorrGrid:
    """Two-time correlation values G(t, tau) on a product grid."""

    t: np.ndarray
    tau: np.ndarray
    values: np.ndarray  # (n_t, n_tau), complex


def _validate_grid(times: np.ndarray, name: str, require_zero_start: bool = False) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{name} contains non-finite entries")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    if times[0] < 0.0:
        raise ValueError(f"{name} must start at t >= 0")
    if require_zero_start and times[0] != 0.0:
        raise ValueError(f"{name} must start at 0")
    return times


def _step_propagators(liouvillian: np.ndarray, dts: np.ndarray) -> list[np.ndarray]:
    """expm(L*dt) per step, cached over repeated step sizes.

    Grids are piecewise uniform in this package, so the cache typically
    holds a handful of entries.
    """
    from scipy.linalg import expm

    cache: dict[float, np.ndarray] = {}
    out = []
    for dt in dts:
        key = float(f"{dt:.15e}")
        if key not in cache:
            cache[key] = expm(liouvillian * dt)
        out.append(cache[key])
    return out


def evolve(liouvillian: np.ndarray, rho0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Propagate rho0 along ``times`` with cached exact step exponentials.

    Parameters
    ----------
    liouvillian : (d^2, d^2) ndarray
        Master-equation generator in rad/s.
    rho0 : (d, d) ndarray
        Initial density matrix at ``times[0]``; validated on entry.
    times : array
        Strictly increasing, non-negative output grid.

    Raises
    ------
    NonConvergedError
        If a propagated state violates the trace/Hermiticity/positivity
        invariants by more than 10x their tolerance (1e-9, 1e-10 and 1e-8
        respectively).
    """
    times = _validate_grid(times, "times")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, context="rho0")
    d = rho0.shape[0]
    if liouvillian.shape != (d * d, d * d):
        raise ValueError(
            f"liouvillian shape {liouvillian.shape} does not match state dimension {d}"
        )

    vecs = np.empty((times.size, d * d), dtype=complex)
    vecs[0] = v = vec(rho0)
    for k, p in enumerate(_step_propagators(liouvillian, np.diff(times))):
        vecs[k + 1] = v = p @ v
    states = vecs.reshape(times.size, d, d).transpose(0, 2, 1)  # undo column stacking
    _check_trajectory_invariants(states)
    return Trajectory(times=times, states=states)


def _check_trajectory_invariants(states: np.ndarray) -> None:
    # Hard failure only beyond 10x the advertised invariant tolerances.
    tr = np.abs(np.einsum("tii->t", states) - 1.0).max()
    if tr > 1e-8:
        raise NonConvergedError(f"trace drift {tr:.3e} exceeds 10x tolerance 1e-9")
    herm = np.abs(states - states.conj().transpose(0, 2, 1)).max()
    if herm > 1e-9:
        raise NonConvergedError(f"Hermiticity drift {herm:.3e} exceeds 10x tolerance 1e-10")
    lo = float(np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1))).min())
    if lo < -1e-7:
        raise NonConvergedError(f"negative population {lo:.3e} exceeds 10x tolerance 1e-8")


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """tr(op @ rho)."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape:
        raise ValueError(f"operator shape {op.shape} != state shape {rho.shape}")
    return complex(np.einsum("ij,ji->", op, rho))


def two_time_correlation(
    liouvillian: np.ndarray,
    rho0: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    t_grid: np.ndarray,
    tau_grid: np.ndarray,
) -> CorrGrid:
    """Quantum-regression correlator G(t, tau) = tr[left e^{L tau}(right rho(t))].

    Both grids must be monotone and start at 0. The tau propagation is
    carried for all t columns at once, so the cost is one trajectory plus
    ``len(tau_grid)`` matrix products. ``G(t, 0) = tr[left right rho(t)]``
    by construction.
    """
    t_grid = _validate_grid(t_grid, "t_grid", require_zero_start=True)
    tau_grid = _validate_grid(tau_grid, "tau_grid", require_zero_start=True)
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, context="rho0")
    d = rho0.shape[0]
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.shape != (d, d) or right.shape != (d, d):
        raise ValueError("left/right operator shapes must match the state dimension")

    traj = evolve(liouvillian, rho0, t_grid)
    # seed X(t, 0) = right @ rho(t), one column-stacked column per t
    seeds = np.einsum("ij,tjk->tik", right, traj.states)
    cols = np.ascontiguousarray(seeds.transpose(0, 2, 1).reshape(t_grid.size, d * d)).T

    w = vec(left.T)  # tr(left @ M) = vec(left.T) . vec(M)

    values = np.empty((t_grid.size, tau_grid.size), dtype=complex)
    values[:, 0] = w @ cols
    props = _step_propagators(liouvillian, np.diff(tau_grid))
    x = cols
    for j, p in enumerate(props):
        x = p @ x
        values[:, j + 1] = w @ x
    return CorrGrid(t=t_grid, tau=tau_grid, values=values)


# ---------------------------------------------------------------------------
# exact observable integrals along the flow


def propagate_integrals(
    liouvillian: np.ndarray,
    rho0_vec: np.ndarray,
    t_final: float,
    observable_vecs: list[np.ndarray],
    n_steps: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate observables exactly along the Lindblad flow.

    Returns ``(integrals, v_final)`` with
    ``integrals[k] = int_0^T tr(O_k rho(t)) dt`` where ``observable_vecs[k]``
    is ``vec(O_k.T)``. Uses the augmented-generator identity

        expm([[L, 1], [0, 0]] h) = [[P, Phi], [0, 1]],  Phi = int_0^h e^{L s} ds,

    so the result carries no quadrature error, only expm round-off.
    """
    from scipy.linalg import expm

    if t_final <= 0.0:
        return np.zeros(len(observable_vecs), dtype=complex), rho0_vec.copy()
    n = rho0_vec.size
    h = t_final / n_steps
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n] = liouvillian * h
    aug[:n, n:] = np.eye(n) * h
    e = expm(aug)
    prop, phi = e[:n, :n], e[:n, n:]

    acc = np.zeros(n, dtype=complex)
    v = rho0_vec
    for _ in range(n_steps):
        acc += phi @ v
        v = prop @ v
    integrals = np.array([w @ acc for w in observable_vecs])
    return integrals, v


__all__ = [
    "annihilation",
    "sigma_minus",
    "number_operator",
    "excited_projector",
    "excitation_operator",
    "identity",
    "basis_state",
    "excited_emitter_state",
    "vec",
    "unvec",
    "dissipator",
    "hamiltonian_superoperator",
    "build_hamiltonian",
    "build_liouvillian",
    "validate_density_matrix",
    "Trajectory",
    "CorrGrid",
    "evolve",
    "expectation",
    "two_time_correlation",
    "propagate_integrals",
]

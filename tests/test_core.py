"""Lindblad propagation against closed-form and brute-force oracles.

The oracle here uses row-stacking vectorization (vec(AXB) = kron(A, B^T)
on C-order reshapes) and direct dense matrix exponentials per evaluation
time, so it shares no conventions or code paths with the library's
column-stacking chained propagator.
"""

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.linalg import expm

from cqed_fom.core import (
    annihilation,
    basis_state,
    build_hamiltonian,
    build_liouvillian,
    dissipator,
    evolve,
    excitation_operator,
    excited_emitter_state,
    excited_projector,
    expectation,
    identity,
    number_operator,
    propagate_integrals,
    sigma_minus,
    two_time_correlation,
    unvec,
    vec,
)
from cqed_fom.params import HilbertSpec, SystemParams
from cqed_fom.units import ghz, mhz

SPEC1 = HilbertSpec(n_max=1)
SPEC2 = HilbertSpec(n_max=2)


# --- independent oracle: row-stacking convention -------------------------


def _oracle_liouvillian(params, spec):
    """Row-stacked Liouvillian built directly from jump operators."""
    d = spec.dimension
    eye = np.eye(d)
    h = build_hamiltonian(params, spec)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    def add_jump(op, rate):
        nonlocal lv
        opd = op.conj().T @ op
        lv = lv + rate * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(opd, eye)
            - 0.5 * np.kron(eye, opd.T)
        )

    add_jump(annihilation(spec), params.kappa)
    add_jump(sigma_minus(spec), params.gamma)
    add_jump(excited_projector(spec), params.gamma_star)
    return lv


def _oracle_propagate(lv_row, rho0, t):
    return expm(lv_row * t) @ rho0.reshape(-1)


def _oracle_two_time(params, spec, rho0, left, right, t_grid, tau_grid):
    lv = _oracle_liouvillian(params, spec)
    d = spec.dimension
    out = np.empty((t_grid.size, tau_grid.size), dtype=complex)
    for i, t in enumerate(t_grid):
        rho_t = _oracle_propagate(lv, rho0, t).reshape(d, d)
        seed = right @ rho_t
        for j, tau in enumerate(tau_grid):
            mat = _oracle_propagate(lv, seed, tau).reshape(d, d)
            out[i, j] = np.trace(left @ mat)
    return out


# --- closed-form checks ---------------------------------------------------


def test_pure_emitter_decay_matches_exponential():
    params = SystemParams(g=0.0, kappa_wg=0.0, gamma=1.0)
    lv = build_liouvillian(params, SPEC1)
    rho0 = excited_emitter_state(SPEC1)
    times = np.linspace(0.0, 8.0, 30)
    traj = evolve(lv, rho0, times)
    pop = traj.expect(excited_projector(SPEC1)).real
    np.testing.assert_allclose(pop, np.exp(-times), atol=1e-8)


def test_lossless_vacuum_rabi_oscillation():
    g = 1.0
    params = SystemParams(g=g, kappa_wg=0.0, gamma=0.0)
    lv = build_liouvillian(params, SPEC1)
    rho0 = excited_emitter_state(SPEC1)
    times = np.linspace(0.0, 6.0, 40)
    traj = evolve(lv, rho0, times)
    photon = traj.expect(number_operator(SPEC1)).real
    np.testing.assert_allclose(photon, np.sin(g * times) ** 2, atol=1e-8)


def test_detuned_rabi_has_reduced_contrast():
    # generalized Rabi: peak transfer g^2 / (g^2 + delta^2/4)
    g, delta = 1.0, 1.5
    params = SystemParams(g=g, kappa_wg=0.0, gamma=0.0, delta_ca=delta)
    lv = build_liouvillian(params, SPEC1)
    omega = np.sqrt(g**2 + 0.25 * delta**2)
    times = np.linspace(0.0, 2.0 * np.pi / omega, 60)
    traj = evolve(lv, excited_emitter_state(SPEC1), times)
    photon = traj.expect(number_operator(SPEC1)).real
    expected = (g**2 / omega**2) * np.sin(omega * times) ** 2
    np.testing.assert_allclose(photon, expected, atol=1e-8)


# --- structural properties ------------------------------------------------


def test_liouvillian_preserves_trace_of_arbitrary_operators():
    rng = np.random.default_rng(11)
    params = SystemParams(g=1.3, kappa_wg=0.8, kappa_sc=0.2, gamma=0.4, gamma_star=0.6)
    lv = build_liouvillian(params, SPEC2)
    d = SPEC2.dimension
    for _ in range(5):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tr = np.trace(unvec(lv @ vec(x)))
        assert abs(tr) <= 1e-9 * np.linalg.norm(x)


def test_dissipator_annihilates_identity_trace():
    op = np.array([[0.0, 1.0], [0.5, 0.0]])
    dd = dissipator(op)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert abs(np.trace(unvec(dd @ vec(x)))) < 1e-12 * np.linalg.norm(x)


def test_evolved_states_stay_physical_at_laboratory_rates():
    params = SystemParams(
        g=ghz(12), kappa_wg=ghz(9), kappa_sc=ghz(1), gamma=mhz(100), gamma_star=ghz(1)
    )
    lv = build_liouvillian(params, SPEC1)
    times = np.linspace(0.0, 30.0 / params.kappa, 50)
    traj = evolve(lv, excited_emitter_state(SPEC1), times)
    for state in traj.states:
        assert abs(np.trace(state) - 1.0) <= 1e-9
        assert np.max(np.abs(state - state.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(state).min() >= -1e-8


def test_chained_propagation_equals_direct_exponential():
    # library chains step propagators; oracle exponentiates from t=0
    params = SystemParams(g=0.9, kappa_wg=0.4, gamma=0.1, gamma_star=0.3)
    lv = build_liouvillian(params, SPEC2)
    lv_row = _oracle_liouvillian(params, SPEC2)
    rho0 = excited_emitter_state(SPEC2)
    times = np.array([0.0, 0.31, 0.9, 2.7, 5.0])
    traj = evolve(lv, rho0, times)
    for t, state in zip(times, traj.states):
        direct = _oracle_propagate(lv_row, rho0, t).reshape(SPEC2.dimension, -1)
        assert np.max(np.abs(state - direct)) < 1e-10


def test_grid_validation_rejects_nonmonotone_times():
    params = SystemParams(g=1.0, kappa_wg=1.0, gamma=0.1)
    lv = build_liouvillian(params, SPEC1)
    rho0 = excited_emitter_state(SPEC1)
    with pytest.raises(ValueError, match="increasing"):
        evolve(lv, rho0, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        evolve(lv, rho0, np.array([-1.0, 0.0, 1.0]))


def test_initial_state_validation():
    params = SystemParams(g=1.0, kappa_wg=1.0, gamma=0.1)
    lv = build_liouvillian(params, SPEC1)
    bad = np.eye(SPEC1.dimension, dtype=complex)  # trace 4
    with pytest.raises(ValueError, match="trace"):
        evolve(lv, bad, np.linspace(0.0, 1.0, 5))


# --- two-time correlations -------------------------------------------------


def test_two_time_zero_delay_equals_population():
    params = SystemParams(g=1.1, kappa_wg=0.5, gamma=0.08, gamma_star=0.04)
    lv = build_liouvillian(params, SPEC1)
    rho0 = excited_emitter_state(SPEC1)
    t_grid = np.linspace(0.0, 4.0, 9)
    a = annihilation(SPEC1)
    corr = two_time_correlation(lv, rho0, a.conj().T, a, t_grid, np.array([0.0]))
    traj = evolve(lv, rho0, t_grid)
    pop = traj.expect(number_operator(SPEC1))
    np.testing.assert_allclose(corr.values[:, 0], pop, atol=1e-12)


def test_regression_correlator_matches_brute_force_oracle():
    params = SystemParams(
        g=ghz(5), kappa_wg=ghz(10), gamma=mhz(100), gamma_star=mhz(50)
    )
    lv = build_liouvillian(params, SPEC2)
    rho0 = excited_emitter_state(SPEC2)
    scale = 1.0 / params.kappa
    t_grid = np.linspace(0.0, 12.0, 7) * scale
    tau_grid = np.linspace(0.0, 8.0, 9) * scale
    a = annihilation(SPEC2)
    corr = two_time_correlation(lv, rho0, a.conj().T, a, t_grid, tau_grid)
    oracle = _oracle_two_time(params, SPEC2, rho0, a.conj().T, a, t_grid, tau_grid)
    norm = np.abs(oracle).max()
    assert np.max(np.abs(corr.values - oracle)) / norm < 1e-7


def test_truncation_is_adequate_for_single_excitation():
    # one excitation never populates n=2, so n_max=1 and n_max=2 agree
    params = SystemParams(g=ghz(8), kappa_wg=ghz(3), gamma=mhz(200), gamma_star=mhz(80))
    times = np.linspace(0.0, 20.0 / params.kappa, 40)
    pops = []
    for spec in (SPEC1, SPEC2):
        lv = build_liouvillian(params, spec)
        traj = evolve(lv, excited_emitter_state(spec), times)
        pops.append(traj.expect(number_operator(spec)).real)
    np.testing.assert_allclose(pops[0], pops[1], atol=1e-8)


# --- exact integrals -------------------------------------------------------


def test_propagated_integrals_match_dense_quadrature():
    params = SystemParams(g=1.2, kappa_wg=0.9, gamma=0.15, gamma_star=0.05)
    lv = build_liouvillian(params, SPEC1)
    rho0 = excited_emitter_state(SPEC1)
    n_op = number_operator(SPEC1)
    t_final = 14.0
    integrals, v_final = propagate_integrals(lv, vec(rho0), t_final, [vec(n_op.T)])
    # Richardson-refined trapezoid on a dense grid as the oracle
    fine = np.linspace(0.0, t_final, 4001)
    traj = evolve(lv, rho0, fine)
    pop = traj.expect(n_op).real
    quad = trapezoid(pop, fine)
    assert integrals[0].real == pytest.approx(quad, abs=5e-8)
    final_direct = traj.states[-1]
    assert np.max(np.abs(unvec(v_final) - final_direct)) < 1e-10


def test_excitation_is_conserved_in_the_decay_ledger():
    # kappa * integral<n> + gamma * integral<sigma+sigma-> accounts for
    # the single initial excitation exactly
    params = SystemParams(g=ghz(4), kappa_wg=ghz(6), gamma=mhz(300), gamma_star=ghz(2))
    lv = build_liouvillian(params, SPEC1)
    rho0 = excited_emitter_state(SPEC1)
    t_final = 60.0 / params.kappa
    integrals, _ = propagate_integrals(
        lv,
        vec(rho0),
        t_final,
        [vec(number_operator(SPEC1).T), vec(excited_projector(SPEC1).T)],
    )
    total = params.kappa * integrals[0].real + params.gamma * integrals[1].real
    assert total == pytest.approx(1.0, abs=1e-6)


def test_basis_state_layout():
    rho = basis_state(SPEC2, 1, 0)
    k = SPEC2.index(1, 0)
    assert rho[k, k] == 1.0
    assert np.count_nonzero(rho) == 1
    eye = identity(SPEC2)
    exc = excitation_operator(SPEC2)
    rho = excited_emitter_state(SPEC2)
    assert expectation(exc, rho).real == pytest.approx(1.0, abs=0.0)
    assert expectation(eye, rho).real == pytest.approx(1.0, abs=0.0)

"""Gibbs states, constrained max entropy, and the scalar entropy functions."""

import math

import numpy as np
import pytest

from conftest import ginibre_density, simplex_max_entropy
from ecdnorm.operators import DEGENERACY_GAP
from ecdnorm import (
    Hamiltonian,
    InfeasibleProblemError,
    OscillatorEntropyBound,
    ShiftedGibbsEntropyBound,
    TruncatedOscillator,
    energy,
    entropy,
    g,
    gibbs_multiplier,
    h2,
    max_entropy,
    max_entropy_state,
    solve_gibbs,
)

LN2 = math.log(2.0)


def test_h2_values():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert abs(h2(0.5) - LN2) < 1e-15
    assert abs(h2(0.25) - 0.5623351446188083) < 1e-15
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            h2(bad)


def test_g_values_and_dual_form():
    assert g(0.0) == 0.0
    assert abs(g(1.0) - 2.0 * LN2) < 1e-15
    with pytest.raises(ValueError):
        g(-1e-9)
    # (1+x) h2(x/(1+x)) is the same function
    for x in np.linspace(1e-6, 100.0, 400):
        alt = (1.0 + x) * h2(x / (1.0 + x))
        assert abs(g(x) - alt) < 1e-12 * max(1.0, alt)


def test_qubit_gibbs_closed_form():
    h = Hamiltonian([0.0, 1.0])
    sol = solve_gibbs(h, 0.25)
    assert abs(sol.lam - math.log(3.0)) < 1e-8
    assert abs(sol.entropy - h2(0.25)) < 1e-9
    np.testing.assert_allclose(sol.state.matrix, np.diag([0.75, 0.25]), atol=1e-9)
    sol = solve_gibbs(h, 0.5)
    assert abs(sol.lam) < 1e-8
    assert abs(sol.entropy - LN2) < 1e-10
    np.testing.assert_allclose(sol.state.matrix, 0.5 * np.eye(2), atol=1e-9)


def test_gibbs_solution_invariants():
    rng = np.random.default_rng(20)
    for _ in range(8):
        ev = np.sort(rng.uniform(0.0, 4.0, size=5))
        ev[0] = 0.0
        h = Hamiltonian(ev)
        e = rng.uniform(0.05, 0.95) * ev.mean()
        if e <= ev[0]:
            continue
        sol = solve_gibbs(h, e)
        assert abs(sol.mean_energy - e) < 1e-7
        assert abs(energy(sol.state, h) - e) < 1e-7
        assert abs(entropy(sol.state) - sol.entropy) < 1e-9
        # state is exp(-lam H)/Z in the energy eigenbasis
        z = np.exp(-sol.lam * ev).sum()
        np.testing.assert_allclose(
            np.diag(sol.state.matrix).real, np.exp(-sol.lam * ev) / z, atol=1e-8
        )


def test_gibbs_infeasible_energies():
    h = Hamiltonian([0.5, 1.0, 2.0])
    with pytest.raises(InfeasibleProblemError):
        solve_gibbs(h, 0.4)  # below the ground energy
    with pytest.raises(InfeasibleProblemError):
        solve_gibbs(h, 2.5)  # above the top level


def test_max_entropy_edge_cases():
    h = Hamiltonian([0.0, 0.0, 1.0])
    assert abs(max_entropy(h, 0.0) - math.log(2.0)) < 1e-12
    # at or above the maximally mixed energy the cap is log(dim)
    h3 = Hamiltonian([0.0, 1.0, 2.0])
    assert abs(max_entropy(h3, 1.0) - math.log(3.0)) < 1e-12
    assert abs(max_entropy(h3, 1.7) - math.log(3.0)) < 1e-12


def _scalar_bisection(ev, energy):
    """The Gibbs multiplier by a bisection on one energy, step for step."""

    def mean_energy(lam):
        a = -lam * ev
        a -= a.max()
        w = np.exp(a)
        return float((ev * w).sum() / w.sum())

    scale = 50.0 / (float(ev[-1]) - float(ev[0]))
    lo, hi = -scale, scale
    for _ in range(200):
        if mean_energy(lo) >= energy:
            break
        lo *= 2.0
    for _ in range(200):
        if mean_energy(hi) <= energy:
            break
        hi *= 2.0
    tol = 1e-9 * max(1.0, abs(energy))
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        m = mean_energy(lam)
        if m > energy:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 5e-14 * max(1.0, abs(lam)) and abs(m - energy) <= tol:
            break
    return lam


ARRAY_HAMILTONIANS = (
    Hamiltonian([0.0, 0.0, 1.0, 2.5]),  # degenerate ground
    Hamiltonian([0.3, 0.8, 1.5, 2.9, 2.9]),
    TruncatedOscillator(9).hamiltonian,
    TruncatedOscillator(16).hamiltonian,
    Hamiltonian([0.0, 1e-3, 40.0]),  # wide spectrum: the bracket must grow
)


def test_batched_multiplier_matches_scalar_bisection():
    rng = np.random.default_rng(23)
    for h in ARRAY_HAMILTONIANS:
        ev = h.eigenvalues
        energies = np.concatenate(
            [rng.uniform(ev[0], ev[-1], 12), [ev[0] + 1e-6, ev[-1] - 1e-6, h.mean_eigenvalue]]
        )
        for e in energies:
            lam = gibbs_multiplier(h, float(e))
            assert lam == _scalar_bisection(ev, float(e))
            assert solve_gibbs(h, float(e)).lam == lam


def test_max_entropy_array_equals_scalar_calls():
    rng = np.random.default_rng(24)
    for h in ARRAY_HAMILTONIANS:
        ev = h.eigenvalues
        e0, mean = h.ground_energy, h.mean_eigenvalue
        energies = np.concatenate(
            [
                [e0, e0 + 1e-10, e0 + 2e-9],  # at the ground, inside the degeneracy gap
                rng.uniform(e0, mean, 10),  # interior
                [mean, 0.5 * (mean + ev[-1]), ev[-1], ev[-1] + 3.0],  # saturated
            ]
        )
        values = max_entropy(h, energies)
        assert values.shape == energies.shape
        for e, v in zip(energies, values):
            assert v == max_entropy(h, float(e))
        grid = max_entropy(h, energies[:16].reshape(4, 4))
        assert grid.shape == (4, 4)
        assert np.array_equal(grid.ravel(), values[:16])
    assert max_entropy(ARRAY_HAMILTONIANS[0], np.array([0.0]))[0] == math.log(2.0)


def test_max_entropy_array_rejects_infeasible_and_nan():
    h = Hamiltonian([0.5, 1.0, 2.0])
    with pytest.raises(InfeasibleProblemError):
        max_entropy(h, np.array([0.6, 0.4, 1.2]))  # one energy below the ground
    with pytest.raises(ValueError):
        max_entropy(h, np.array([0.6, np.nan]))
    with pytest.raises(ValueError):
        max_entropy(h, math.nan)


def test_max_entropy_monotone_and_concave():
    h = Hamiltonian([0.0, 0.3, 1.1, 2.4])
    es = np.linspace(0.01, 1.2, 40)
    vals = np.array([max_entropy(h, e) for e in es])
    assert np.all(np.diff(vals) >= -1e-10)
    second = np.diff(vals, 2)
    assert np.all(second <= 1e-8)


def test_max_entropy_dominates_feasible_states():
    rng = np.random.default_rng(21)
    ev = np.array([0.0, 0.4, 1.3, 2.2])
    h = Hamiltonian(ev)
    budget = 0.9
    cap = max_entropy(h, budget)
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    violations = 0
    for _ in range(10000):
        rho = ginibre_density(rng, 4).matrix
        e = float(np.trace(h.matrix @ rho).real)
        if e > budget:
            # mix toward the ground state until feasible
            s = (e - budget) / e
            rho = (1.0 - s) * rho + s * ground
        if entropy(rho) > cap + 1e-9:
            violations += 1
    assert violations == 0


def test_max_entropy_matches_simplex_grid():
    rng = np.random.default_rng(22)
    for _ in range(6):
        ev = np.sort(np.concatenate([[0.0], rng.uniform(0.3, 3.0, size=2)]))
        h = Hamiltonian(ev)
        e = rng.uniform(0.05, 1.2) * ev.mean()
        a = max_entropy(h, e)
        b = simplex_max_entropy(ev, e)
        assert b <= a + 1e-9
        assert abs(a - b) < 1e-4


def test_max_entropy_state_attains_max_entropy():
    """The state has entropy max_entropy(h, E) in each regime, meets the
    budget, and inside is the state solve_gibbs builds, bit for bit."""
    rng = np.random.default_rng(31)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    basis = np.linalg.qr(z)[0]
    for h in (TruncatedOscillator(6).hamiltonian, Hamiltonian([0.4, 0.4, 1.1, 2.0, 3.5], basis)):
        e0, mean = h.ground_energy, h.mean_eigenvalue
        inner = 0.5 * (e0 + mean)
        for e in (e0, e0 + 0.5 * DEGENERACY_GAP, inner, mean, mean + 0.7):
            rho = max_entropy_state(h, e)
            assert abs(entropy(rho) - max_entropy(h, e)) < 1e-9
            assert energy(rho, h) <= e + DEGENERACY_GAP
        gibbs = solve_gibbs(h, inner).state.matrix
        assert np.array_equal(max_entropy_state(h, inner).matrix, gibbs)
        uniform = np.eye(h.dimension) / h.dimension
        assert np.array_equal(max_entropy_state(h, mean).matrix, uniform)
        with pytest.raises(InfeasibleProblemError):
            max_entropy_state(h, e0 - 0.1)


def test_oscillator_entropy_bound_values():
    osc = OscillatorEntropyBound((1.0,))
    # at E = 0.5 = E₀ the argument of the log is 1
    assert abs(osc.at(0.5) - 1.0) < 1e-15
    assert abs(osc.at(1.0) - 1.4054651081081644) < 1e-14
    with pytest.raises(ValueError):
        osc.at(0.0)
    with pytest.raises(ValueError):
        OscillatorEntropyBound(())
    with pytest.raises(ValueError):
        OscillatorEntropyBound((0.0,))


def test_oscillator_bound_dominates_truncations():
    osc = OscillatorEntropyBound((1.0,))
    for levels in (4, 8, 16):
        h = TruncatedOscillator(levels).hamiltonian
        for e in (0.8, 1.5, 3.0):
            if e <= h.eigenvalues[0]:
                continue
            assert osc.at(e) >= max_entropy(h, e) - 1e-10


def test_oscillator_bound_shape_and_log_shift_rule():
    osc = OscillatorEntropyBound((1.0, 2.0))
    es = np.linspace(0.2, 12.0, 50)
    vals = np.array([osc.at(e) for e in es])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(np.diff(vals, 2) <= 1e-10)
    # fhat(E/x) <= fhat(E) - l*log(x) for scales x in (0, 1]
    ell = 2
    for e in (0.5, 2.0, 9.0):
        for x in (1.0, 0.7, 0.2, 0.01):
            lhs = osc.at(e / x)
            rhs = osc.at(e) - ell * math.log(x)
            assert lhs <= rhs + 1e-12


def test_harmonic_modes_frequency_scale():
    """Modes (1, 4): E₀ = ½(1 + 4) = 2.5 and E* = √(1·4) = 2 in the closed
    form 2 ln((E + E₀)/(2E*)) + 2."""
    osc = OscillatorEntropyBound((1.0, 4.0))
    for e in (0.5, 1.5, 6.0):
        assert abs(osc.at(e) - (2.0 * math.log((e + 2.5) / (2.0 * 2.0)) + 2.0)) < 1e-14


def test_shifted_entropy_bound():
    ev = np.array([0.3, 0.8, 1.5, 2.9])
    h = Hamiltonian(ev)
    cap = ShiftedGibbsEntropyBound(h)
    for e in np.linspace(0.05, 3.0, 25):
        b = cap.at(e)
        shifted = e + ev[0]
        if shifted > ev[0]:
            assert b >= max_entropy(h, min(shifted, ev[-1] - 1e-9)) - 1e-9
    sat = cap.saturation_energy
    assert h.mean_eigenvalue == float(ev.mean())
    assert abs(sat - (ev.mean() - ev[0])) < 1e-12
    assert abs(cap.at(sat + 0.5) - math.log(4.0)) < 1e-12
    with pytest.raises(ValueError):
        cap.at(0.0)

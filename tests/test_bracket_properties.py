"""Properties of whole energy-constrained brackets under Hypothesis: the
witness rechecked by the Kraus route, monotonicity in the budget,
homogeneity under `scaled(c)` and invariance under reference unitaries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel, random_spectrum, svd_trace_norm
from ecdnorm import EcdProblem, Hamiltonian, HermitianPreservingMap, ecd_objective, estimate_ecd_norm

PROPERTY = settings(derandomize=True, database=None, max_examples=10, deadline=None)
CASES = {
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(2, 3),
    "r_dim": st.integers(1, 2),
    "complex_basis": st.booleans(),
}


def _case(seed, d, complex_basis):
    """A random channel pair, its difference and a Hamiltonian, with a budget
    between the ground energy and the mean energy."""
    rng = np.random.default_rng(seed)
    phi, psi = random_channel(rng, d, d, 2), random_channel(rng, d, d, 2)
    ev = random_spectrum(rng, d, 0.3)
    basis = None
    if complex_basis:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis = np.linalg.qr(z)[0]
    h = Hamiltonian(ev, basis)
    budget = float(ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0]))
    return rng, phi, psi, HermitianPreservingMap.difference(phi, psi), h, budget


def _estimate(the_map, h, budget, r_dim, seed):
    problem = EcdProblem(the_map, h, budget, r_dim=r_dim)
    return estimate_ecd_norm(problem, restarts=2, seed=seed % 1000, max_iter=20)


def _energy(h, psi, r_dim):
    m = psi.reshape(h.dimension, r_dim)
    return float(np.trace(m.conj().T @ h.matrix @ m).real)


@PROPERTY
@given(**CASES)
def test_witness_value_and_energy_by_the_kraus_route(seed, d, r_dim, complex_basis):
    _, phi, psi, the_map, h, budget = _case(seed, d, complex_basis)
    est = _estimate(the_map, h, budget, r_dim, seed)
    m = est.witness.reshape(d, r_dim)
    out = sum(np.outer(k @ m, (k @ m).conj()) for k in phi.kraus) - sum(
        np.outer(k @ m, (k @ m).conj()) for k in psi.kraus
    )
    assert abs(svd_trace_norm(out) - est.lower) <= 1e-9 * max(1.0, est.lower)
    assert _energy(h, est.witness, r_dim) <= budget + 1e-9


@PROPERTY
@given(**CASES, share=st.floats(0.1, 0.9))
def test_lower_at_a_smaller_budget_stays_below_upper_at_a_larger_one(
    seed, d, r_dim, complex_basis, share
):
    _, _, _, the_map, h, budget = _case(seed, d, complex_basis)
    smaller = h.ground_energy + share * (budget - h.ground_energy)
    low = _estimate(the_map, h, smaller, r_dim, seed)
    high = _estimate(the_map, h, budget, r_dim, seed)
    assert low.lower <= high.upper + 1e-9


@PROPERTY
@given(**CASES, c=st.floats(0.1, 3.0))
def test_scaled_map_bracket_meets_the_scaled_bracket(seed, d, r_dim, complex_basis, c):
    """`scaled(c)` drops the Kraus pair, so its bracket comes from the Choi route."""
    _, _, _, the_map, h, budget = _case(seed, d, complex_basis)
    scaled_map = the_map.scaled(c)
    est = _estimate(the_map, h, budget, r_dim, seed)
    scaled = _estimate(scaled_map, h, budget, r_dim, seed)
    tol = 1e-9 * max(1.0, c * est.upper)
    assert c * est.lower <= scaled.upper + tol
    assert scaled.lower <= c * est.upper + tol
    at_witness = ecd_objective(EcdProblem(scaled_map, h, budget, r_dim=r_dim), est.witness)
    assert abs(at_witness - c * est.lower) <= 1e-10 * max(1.0, c * est.lower)


@PROPERTY
@given(**CASES)
def test_reference_unitary_keeps_the_witness_value_and_energy(seed, d, r_dim, complex_basis):
    """(I ⊗ U)ψ has coefficient matrix M Uᵀ, with the same input state M M†."""
    rng, _, _, the_map, h, budget = _case(seed, d, complex_basis)
    problem = EcdProblem(the_map, h, budget, r_dim=r_dim)
    est = _estimate(the_map, h, budget, r_dim, seed)
    z = rng.standard_normal((r_dim, r_dim)) + 1j * rng.standard_normal((r_dim, r_dim))
    u = np.linalg.qr(z)[0]
    turned = (est.witness.reshape(d, r_dim) @ u.T).reshape(-1)
    scale = max(1.0, est.lower)
    assert abs(ecd_objective(problem, turned) - ecd_objective(problem, est.witness)) <= 1e-10 * scale
    assert abs(_energy(h, turned, r_dim) - _energy(h, est.witness, r_dim)) <= 1e-10 * max(1.0, budget)

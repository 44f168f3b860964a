"""The dual certificate from an input state, `TraceNormObjective.dual_bound`:
rechecked by the independent checker, and its properties under Hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_dual_bound, haar_vector, random_channel
from ecdnorm import (
    EcdProblem,
    EnergyCap,
    Hamiltonian,
    HermitianPreservingMap,
    estimate_ecd_norm,
    solve_gibbs,
)
from ecdnorm import ecd

PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _random_hamiltonian(rng, d, complex_basis):
    ev = np.concatenate([[rng.uniform(0.0, 0.3)], np.sort(rng.uniform(0.3, 3.0, size=d - 1))])
    if not complex_basis:
        return Hamiltonian(ev)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Hamiltonian(ev, eigenbasis=np.linalg.qr(z)[0])


def _random_map(rng, d, scale=None):
    diff = HermitianPreservingMap.difference(random_channel(rng, d, d, 2), random_channel(rng, d, d, 2))
    return diff if scale is None else diff.scaled(scale)


def _objective(the_map):
    """As `_estimate` builds it: from the Kraus pair of a channel difference,
    from `eigh` of the Choi matrix for a `scaled` one."""
    return ecd._objective(the_map, the_map.in_dim)


def _budget(rng, h):
    ev = h.eigenvalues
    return float(ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0]))


def _states(rng, h, budget):
    """I/d, the Gibbs state at the budget, a random full-rank state and a pure one."""
    d = h.dimension
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    full = z @ z.conj().T
    v = haar_vector(rng, d)
    return {
        "mixed": np.eye(d) / d,
        "gibbs": solve_gibbs(h, budget).state.matrix,
        "full-rank": full / np.trace(full).real,
        "pure": np.outer(v, v.conj()),
    }


def test_dual_bound_passes_the_independent_checker():
    """Channel differences and `scaled` maps at d = 2…4, Hamiltonians in a real
    and in a complex eigenbasis, four input states, with and without a cap."""
    rng = np.random.default_rng(1207)
    cases = 0
    for d in (2, 3, 4):
        for scale in (None, -0.7, 1.3):
            for complex_basis in (False, True):
                the_map = _random_map(rng, d, scale)
                h = _random_hamiltonian(rng, d, complex_basis)
                budget = _budget(rng, h)
                obj = _objective(the_map)
                cap = EnergyCap(h, 1, budget)
                for rho in _states(rng, h, budget).values():
                    check_dual_bound(the_map, rho, None, None, obj.dual_bound(rho))
                    check_dual_bound(the_map, rho, h, budget, obj.dual_bound(rho, cap))
                    cases += 2
    assert cases == 144


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), complex_basis=st.booleans())
def test_dual_bound_dominates_the_objective_at_capped_states(seed, d, complex_basis):
    """Weak duality: every capped pure input scores at most the bound, for any state."""
    rng = np.random.default_rng(seed)
    the_map = _random_map(rng, d)
    h = _random_hamiltonian(rng, d, complex_basis)
    budget = _budget(rng, h)
    obj = _objective(the_map)
    bound = min(obj.dual_bound(rho, EnergyCap(h, 1, budget)) for rho in _states(rng, h, budget).values())
    psi_cap = EnergyCap(h, d, budget)
    for _ in range(8):
        psi = psi_cap(haar_vector(rng, d * d))
        assert obj.value(psi) <= bound + 1e-9 * max(1.0, bound)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    c=st.floats(0.05, 20.0) | st.floats(-20.0, -0.05),
)
def test_dual_bound_scales_with_the_map(seed, d, c):
    """The bound of `scaled(c)` is |c| times the bound, for c of either sign."""
    rng = np.random.default_rng(seed)
    the_map = _random_map(rng, d)
    h = _random_hamiltonian(rng, d, True)
    budget = _budget(rng, h)
    cap = EnergyCap(h, 1, budget)
    rho = _states(rng, h, budget)["full-rank"]
    base = _objective(the_map).dual_bound(rho, cap)
    scaled = _objective(the_map.scaled(c)).dual_bound(rho, cap)
    assert abs(scaled - abs(c) * base) <= 1e-9 * max(1.0, abs(c) * base)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), complex_basis=st.booleans())
def test_dual_bound_is_monotone_in_the_budget(seed, d, complex_basis):
    """At a fixed state the bound does not fall as the budget grows."""
    rng = np.random.default_rng(seed)
    the_map = _random_map(rng, d)
    h = _random_hamiltonian(rng, d, complex_basis)
    obj = _objective(the_map)
    rho = _states(rng, h, _budget(rng, h))["full-rank"]
    ev = h.eigenvalues
    values = [
        obj.dual_bound(rho, EnergyCap(h, 1, float(e)))
        for e in np.linspace(ev[0] + 0.05 * (ev[-1] - ev[0]), ev[-1], 5)
    ]
    values.append(obj.dual_bound(rho))
    for a, b in zip(values, values[1:]):
        assert a <= b + 1e-9 * max(1.0, abs(b))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 3),
    r_dim=st.integers(1, 3),
    complex_basis=st.booleans(),
)
def test_tiny_estimates_bracket(seed, d, r_dim, complex_basis):
    """lower ≤ upper for one short ascent, so no certificate cuts below a witness."""
    rng = np.random.default_rng(seed)
    h = _random_hamiltonian(rng, d, complex_basis)
    problem = EcdProblem(_random_map(rng, d), h, _budget(rng, h), r_dim=r_dim)
    est = estimate_ecd_norm(problem, restarts=2, seed=seed % 1000, max_iter=20)
    assert est.lower <= est.upper + 1e-12

"""Energy-constrained norm estimation, level-restricted seminorms, and
truncation error bounds."""

import math

import numpy as np
import pytest

from conftest import (
    batch_difference_norms,
    ecd_bruteforce,
    ginibre_density,
    haar_vector,
    random_channel,
    random_spectrum,
    svd_trace_norm,
)
from ecdnorm import (
    BoundInputs,
    Channel,
    DensityOperator,
    EcdEstimate,
    EcdProblem,
    EnergyCap,
    Hamiltonian,
    HermitianPreservingMap,
    InfeasibleProblemError,
    OscillatorEntropyBound,
    TruncatedOscillator,
    attenuator,
    diamond_upper_bound,
    ecd_objective,
    energy,
    energy_constrained_sup,
    estimate_diamond_norm,
    estimate_ecd_norm,
    holevo_capacity_estimate,
    identity_channel,
    phase_rotation,
    solve_gibbs,
    state_truncation_bound,
    subspace_seminorm,
    trace_norm,
    truncation_norm_bound,
)
from ecdnorm import ecd


def _random_difference(rng, d, n_kraus=2):
    phi = random_channel(rng, d, d, n_kraus)
    psi = random_channel(rng, d, d, n_kraus)
    return HermitianPreservingMap.difference(phi, psi), phi, psi


def _random_problem(rng, d, r_dim, n_kraus=2):
    the_map, phi, psi = _random_difference(rng, d, n_kraus)
    ev = random_spectrum(rng, d, 0.3)
    h = Hamiltonian(ev)
    budget = ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0])
    return EcdProblem(the_map, h, budget, r_dim=r_dim), phi, psi


def test_zero_map_norm_is_zero():
    rng = np.random.default_rng(40)
    phi = random_channel(rng, 3, 3, 2)
    zero = HermitianPreservingMap.difference(phi, phi)
    h = Hamiltonian([0.0, 1.0, 2.0])
    est = estimate_ecd_norm(EcdProblem(zero, h, 1.0), restarts=2, max_iter=50)
    assert est.lower < 1e-12
    assert est.upper < 1e-12


@pytest.mark.parametrize(
    "family, d",
    [("attenuator", 2), ("attenuator", 4), ("attenuator", 8), ("attenuator", 16),
     ("random", 3), ("random", 4)],
)
def test_zero_difference_is_exactly_zero(family, d):
    """Φ − Φ from the Kraus pair: the rank cut is relative to ‖R‖₂² of the
    pair's QR, so rounding keeps no rank and the witness scores exactly 0,
    also for a random channel with d² Kraus operators (2d² columns)."""
    phi = attenuator(d, 0.7) if family == "attenuator" else random_channel(
        np.random.default_rng(d), d, d, d * d
    )
    zero = HermitianPreservingMap.difference(phi, phi)
    assert ecd._objective(zero, d)._rank == 0
    h = TruncatedOscillator(d).hamiltonian
    for est in (
        estimate_ecd_norm(EcdProblem(zero, h, 1.0), restarts=2, max_iter=20),
        estimate_diamond_norm(zero, restarts=2, max_iter=20),
    ):
        assert est.lower == 0.0
        assert est.upper <= 1e-12


def test_single_channel_norm_is_one():
    rng = np.random.default_rng(41)
    phi = random_channel(rng, 3, 3, 2)
    m = HermitianPreservingMap.from_channel(phi)
    h = Hamiltonian([0.0, 0.5, 1.5])
    est = estimate_ecd_norm(EcdProblem(m, h, 0.4), restarts=2, max_iter=100)
    # trace-preserving positive maps send feasible states to unit trace norm
    assert abs(est.lower - 1.0) < 1e-9
    assert abs(est.upper - 1.0) < 1e-9


def test_identity_minus_dephasing_at_maximal_entanglement():
    ident = Channel([np.eye(2)])
    dephase = Channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    diff = HermitianPreservingMap.difference(ident, dephase)
    h = Hamiltonian([0.0, 1.0])
    problem = EcdProblem(diff, h, 1.0, r_dim=2)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert abs(ecd_objective(problem, psi) - 1.0) < 1e-12
    est = estimate_ecd_norm(problem, restarts=4, max_iter=200)
    assert abs(est.lower - 1.0) < 1e-9
    # both sides sit at the norm 1 to rounding: lower ends 9e-16 above it and
    # the winning certificate 2e-16 below
    assert abs(est.upper - 1.0) < 1e-9
    assert est.upper >= est.lower - 1e-12


def test_objective_matches_direct_kraus_route():
    rng = np.random.default_rng(42)
    for d, r in [(2, 2), (3, 1), (3, 3), (4, 2)]:
        problem, phi, psi_ch = _random_problem(rng, d, r)
        cap = EnergyCap(problem.h_in, r, problem.energy)
        for _ in range(4):
            v = cap(haar_vector(rng, d * r))
            got = ecd_objective(problem, v)
            want = batch_difference_norms(phi.kraus, psi_ch.kraus, v.reshape(1, d, r))[0]
            assert abs(got - want) < 1e-9


def test_objective_validates_witness():
    rng = np.random.default_rng(43)
    problem, _, _ = _random_problem(rng, 3, 2)
    with pytest.raises(ValueError):
        ecd_objective(problem, np.ones(5))  # wrong length
    with pytest.raises(ValueError):
        ecd_objective(problem, 0.5 * np.ones(6))  # not normalized
    # top-level eigenvector violates any budget below the top eigenvalue
    hot = np.zeros(6)
    hot[-2] = 1.0
    if problem.h_in.eigenvalues[-1] > problem.energy:
        with pytest.raises(ValueError):
            ecd_objective(problem, hot)


def test_problem_validation():
    rng = np.random.default_rng(44)
    the_map, _, _ = _random_difference(rng, 3)
    h = Hamiltonian([0.5, 1.0, 2.0])
    with pytest.raises(InfeasibleProblemError):
        EcdProblem(the_map, h, 0.4)  # below the ground energy
    with pytest.raises(ValueError):
        EcdProblem(the_map, Hamiltonian([0.0, 1.0]), 0.5)  # dim mismatch
    with pytest.raises(ValueError):
        EcdProblem(the_map, h, 1.0, r_dim=0)
    with pytest.raises(ValueError, match="reference dimension"):
        estimate_diamond_norm(the_map, r_dim=0)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_non_finite_budget_is_rejected(budget):
    rng = np.random.default_rng(44)
    the_map, _, _ = _random_difference(rng, 3)
    h = Hamiltonian([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        EcdProblem(the_map, h, budget)
    with pytest.raises(ValueError, match="finite"):
        EnergyCap(h, 3, budget)
    with pytest.raises(ValueError, match="finite"):
        energy_constrained_sup(h.matrix, h, budget)
    with pytest.raises(ValueError, match="finite"):
        holevo_capacity_estimate(identity_channel(3), h, budget, restarts=1, max_iter=1)
    with pytest.raises(ValueError, match="finite"):
        solve_gibbs(h, budget)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("epsilon", "energy_arg", "t") for v in (math.nan, math.inf, -math.inf)],
)
def test_non_finite_bound_inputs_are_rejected(field, value):
    args = {"epsilon": 0.1, "energy_arg": 1.0, "t": 1.0}
    BoundInputs(**args, entropy_bound=OscillatorEntropyBound(1.0))
    args[field] = value
    with pytest.raises(ValueError, match="finite"):
        BoundInputs(**args, entropy_bound=OscillatorEntropyBound(1.0))


def test_first_level_seminorm_is_ground_state_norm():
    rng = np.random.default_rng(45)
    the_map, _, _ = _random_difference(rng, 4)
    ev = np.array([0.1, 0.8, 1.7, 2.5])
    h = Hamiltonian(ev)
    q1 = subspace_seminorm(the_map, h, 1, restarts=2, max_iter=50)
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    assert abs(q1 - trace_norm(the_map.apply(ground))) < 1e-10


def test_full_level_seminorm_matches_diamond_estimate():
    rng = np.random.default_rng(46)
    the_map, _, _ = _random_difference(rng, 3)
    h = Hamiltonian([0.0, 1.0, 2.0])
    qd = subspace_seminorm(the_map, h, 3, restarts=8, seed=1, max_iter=400)
    dia = estimate_diamond_norm(the_map, restarts=8, seed=2, max_iter=400)
    assert abs(qd - dia.lower) < 1e-6
    assert qd <= dia.upper + 1e-9


def test_two_level_seminorm_matches_restricted_search():
    rng = np.random.default_rng(47)
    the_map, phi, psi_ch = _random_difference(rng, 4)
    h = Hamiltonian([0.0, 0.7, 1.9, 3.0])
    q2 = subspace_seminorm(the_map, h, 2, restarts=8, seed=0, max_iter=400)
    # independent search over the two lowest levels with a slack budget
    iso = h.lowest_levels(2)
    ka = [k @ iso for k in phi.kraus]
    kb = [k @ iso for k in psi_ch.kraus]
    oracle = ecd_bruteforce(
        ka, kb, np.zeros(2), 1.0, r_dim=2, seed=3, samples=20000, rounds=200
    )
    assert abs(q2 - oracle) < 1e-4


def test_state_truncation_supported_state():
    rho = DensityOperator(np.diag([0.6, 0.4, 0.0]))
    h = Hamiltonian([0.0, 1.0, 2.0])
    cut = state_truncation_bound(rho, h, 2)
    assert cut.tail_weight < 1e-15
    assert cut.bound < 1e-6
    assert cut.trace_distance < 1e-9
    np.testing.assert_allclose(cut.truncated_state.matrix, rho.matrix, atol=1e-12)


def test_state_truncation_qutrit_tail():
    rho = DensityOperator(np.diag([0.8, 0.16, 0.04]))
    h = Hamiltonian([0.0, 1.0, 2.0])
    cut = state_truncation_bound(rho, h, 2)
    assert abs(cut.tail_weight - 0.04) < 1e-12
    assert abs(cut.bound - 4.0 * math.sqrt(0.04)) < 1e-12
    assert cut.trace_distance <= cut.bound
    assert abs(np.trace(cut.truncated_state.matrix) - 1.0) < 1e-12


def test_state_truncation_energy_controls_tail():
    rng = np.random.default_rng(48)
    ev = np.array([0.0, 0.5, 1.4, 2.6, 4.0])
    h = Hamiltonian(ev)
    budget = 0.9
    ground = np.zeros((5, 5))
    ground[0, 0] = 1.0
    for _ in range(200):
        rho = ginibre_density(rng, 5).matrix
        e = float(np.trace(h.matrix @ rho).real)
        if e > budget:
            s = (e - budget) / e
            rho = (1.0 - s) * rho + s * ground
        state = DensityOperator(rho)
        for n in (1, 2, 3, 4):
            cut = state_truncation_bound(state, h, n)
            assert cut.tail_weight <= budget / ev[n] + 1e-12
            assert cut.trace_distance <= 4.0 * math.sqrt(budget / ev[n]) + 1e-12


def test_state_truncation_rejects_empty_head():
    rho = DensityOperator(np.diag([0.0, 0.0, 1.0]))
    h = Hamiltonian([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        state_truncation_bound(rho, h, 1)


def test_truncation_norm_bound_zero_map():
    rng = np.random.default_rng(49)
    phi = random_channel(rng, 4, 4, 2)
    zero = HermitianPreservingMap.difference(phi, phi)
    ev = np.array([0.0, 1.0, 2.0, 3.0])
    h = Hamiltonian(ev)
    for n in (1, 2, 3):
        got = truncation_norm_bound(zero, h, 0.8, n)
        assert abs(got - 8.0 * math.sqrt(0.8 / ev[n])) < 1e-12


def test_compressed_difference_keeps_its_kraus_pair():
    """Φ − Ψ on the lowest levels is the difference of the compressed
    channels: it keeps a Kraus pair, and its Choi matrix is the compressed
    Choi matrix of the whole map."""
    the_map = HermitianPreservingMap.difference(attenuator(6, 0.70), attenuator(6, 0.69))
    v = TruncatedOscillator(6).hamiltonian.lowest_levels(3)
    small = ecd._compressed_map(the_map, v)
    assert small.kraus_pair is not None
    assert np.abs(small.choi - ecd._compressed_choi(the_map, v)).max() < 1e-14


def test_truncation_norm_bound_validation():
    rng = np.random.default_rng(50)
    the_map, _, _ = _random_difference(rng, 3)
    h = Hamiltonian([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        truncation_norm_bound(the_map, h, 0.5, 0)
    with pytest.raises(ValueError):
        # the first dropped level sits at zero energy, no tail penalty exists
        truncation_norm_bound(the_map, h, 0.5, 1)


def test_truncation_norm_bound_dominates_estimate():
    rng = np.random.default_rng(51)
    for _ in range(3):
        problem, _, _ = _random_problem(rng, 3, None)
        est = estimate_ecd_norm(problem, restarts=4, max_iter=250)
        for n in (2, 3):
            if problem.h_in.eigenvalues[min(n, 2)] <= 0 and n < 3:
                continue
            cap = truncation_norm_bound(problem.map, problem.h_in, problem.energy, n)
            assert cap >= est.lower - 1e-9


def test_slack_budget_reduces_to_diamond_norm():
    rng = np.random.default_rng(52)
    the_map, _, _ = _random_difference(rng, 3)
    h = Hamiltonian([0.0, 0.6, 1.2])
    problem = EcdProblem(the_map, h, 1.2)
    est = estimate_ecd_norm(problem, restarts=6, seed=4, max_iter=400)
    dia = estimate_diamond_norm(the_map, restarts=6, seed=4, max_iter=400)
    assert abs(est.lower - dia.lower) < 1e-6


def test_budget_monotonicity_with_warm_starts():
    rng = np.random.default_rng(53)
    problem, _, _ = _random_problem(rng, 4, 2)
    h = problem.h_in
    budgets = np.linspace(problem.energy, h.eigenvalues[-1], 5)
    prev = None
    values = []
    for e in budgets:
        p = EcdProblem(problem.map, h, float(e), r_dim=2)
        extra = [prev] if prev is not None else None
        est = estimate_ecd_norm(p, restarts=3, max_iter=250, extra_starts=extra)
        values.append(est.lower)
        prev = est.witness
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-10)


def test_objective_homogeneity_and_triangle_at_fixed_witness():
    rng = np.random.default_rng(54)
    map_a, _, _ = _random_difference(rng, 3)
    map_b, _, _ = _random_difference(rng, 3)
    h = Hamiltonian([0.0, 1.0, 2.0])
    psi = EnergyCap(h, 3, 0.8)(haar_vector(rng, 9))
    pa = EcdProblem(map_a, h, 0.8)
    pb = EcdProblem(map_b, h, 0.8)
    pscaled = EcdProblem(map_a.scaled(-2.0), h, 0.8)
    psum = EcdProblem(map_a + map_b, h, 0.8)
    va = ecd_objective(pa, psi)
    vb = ecd_objective(pb, psi)
    assert abs(ecd_objective(pscaled, psi) - 2.0 * va) < 1e-10
    assert ecd_objective(psum, psi) <= va + vb + 1e-10


def test_estimates_bracket_and_witness_feasible():
    rng = np.random.default_rng(55)
    for d, r in [(3, 1), (3, 2), (4, 2)]:
        problem, _, _ = _random_problem(rng, d, r)
        est = estimate_ecd_norm(problem, restarts=4, max_iter=250)
        assert est.lower <= est.upper + 1e-12
        assert est.witness_energy <= problem.energy + 1e-9
        assert abs(np.linalg.norm(est.witness) - 1.0) < 1e-9
        assert abs(ecd_objective(problem, est.witness) - est.lower) < 1e-9


@pytest.mark.parametrize("r_dim", [1, 2, 3])
def test_brackets_under_a_complex_eigenbasis(r_dim):
    """H = U diag(ev) U† with U a random complex unitary, so H differs from Hᵀ.

    The witness ψ = vec(M) has input state ρ = M M†, and the cap is on
    Tr[Hρ], not on Tr[Hᵀρ]; the lower value is the trace norm of the
    witness's output, built from the Kraus operators and summed by an SVD.
    """
    rng = np.random.default_rng([57, r_dim])
    d = 3
    transposed_gaps = []
    for _ in range(3):
        the_map, phi, psi = _random_difference(rng, d)
        ev = random_spectrum(rng, d, 0.3)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = Hamiltonian(ev, np.linalg.qr(z)[0])
        budget = ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0])
        problem = EcdProblem(the_map, h, budget, r_dim=r_dim)
        est = estimate_ecd_norm(problem, restarts=4, max_iter=250)
        m = est.witness.reshape(d, r_dim)
        rho = m @ m.conj().T
        assert energy(rho, h) <= budget + 1e-9
        assert abs(est.witness_energy - energy(rho, h)) <= 1e-12
        transposed_gaps.append(abs(float(np.trace(h.matrix.T @ rho).real) - energy(rho, h)))
        out = sum(np.outer(k @ m, (k @ m).conj()) for k in phi.kraus) - sum(
            np.outer(k @ m, (k @ m).conj()) for k in psi.kraus
        )
        assert abs(svd_trace_norm(out) - est.lower) <= 1e-9 * max(1.0, est.lower)
        assert est.lower <= est.upper
    # the cases tell H from Hᵀ: a cap on Tr[Hᵀρ] would not pass the first assertion
    assert max(transposed_gaps) > 1e-2


def test_diamond_upper_bound_dominates_lower_estimate():
    rng = np.random.default_rng(56)
    for d in (2, 3, 4):
        the_map, _, _ = _random_difference(rng, d)
        dia = estimate_diamond_norm(the_map, restarts=4, max_iter=250)
        assert dia.lower <= dia.upper + 1e-12
        assert diamond_upper_bound(the_map) >= dia.lower - 1e-9


def test_capped_map_without_kraus_pair_gets_an_energy_aware_upper():
    """A capped map with no Kraus pair (here from `scaled`) is certified below
    its Choi diamond bound D by the dual bound at an input state.

    The attenuators agree on the vacuum, so at E = 0.1 on an oscillator the
    Gibbs-state certificate meets the lower value 0.005108 to 2e-4 relative,
    far below D·(2√0.1 + 0.1) ≈ 0.73·D.
    """
    d, budget = 4, 0.1
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    the_map = diff.scaled(1.0)
    assert the_map.kraus_pair is None
    problem = EcdProblem(the_map, Hamiltonian(np.arange(d, dtype=float)), budget)
    est = estimate_ecd_norm(problem, restarts=2, max_iter=100)
    dia = diamond_upper_bound(the_map)
    assert est.upper <= dia * (2.0 * math.sqrt(budget) + budget) + 1e-12
    assert est.upper < 0.75 * dia
    assert est.upper <= 0.0053
    assert est.lower <= est.upper + 1e-12


@pytest.mark.parametrize("d", [8, 16, 24])
def test_attenuator_pair_upper_from_the_gibbs_state(d):
    """The 0.70/0.69 attenuator pair at E = 2 on the oscillator: the dual bound
    at the Gibbs state of the budget brings `upper` to about 0.025309 at 16
    and 24 levels, where the Choi and Stinespring certificates stop at
    0.026602."""
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    problem = EcdProblem(diff, TruncatedOscillator(d, 1.0).hamiltonian, 2.0)
    est = estimate_ecd_norm(problem, restarts=1, max_iter=5)
    assert est.upper <= 0.02532
    assert est.lower <= est.upper


def test_lower_above_certificate_by_rounding_keeps_the_certificate():
    """The ascent may exceed a certificate by rounding; upper stays the certificate.

    The map and ascent settings are the phase-vs-identity task at 10 levels of
    the benchmark's lanczos-zoo pool, where lower ends at 2 + 4e-16.
    """
    d, theta = 10, 0.7597589414844461
    the_map = HermitianPreservingMap.difference(phase_rotation(d, theta), identity_channel(d))
    est = estimate_diamond_norm(the_map, r_dim=d, restarts=1, seed=2, max_iter=15)
    assert est.upper == 2.0
    assert est.lower - est.upper <= 1e-9
    assert est.witness_energy is None
    with pytest.raises(ValueError, match="invalid bracket"):
        EcdEstimate(1.0, 0.5, est.witness, None)

"""Acceptance suite.

One test per acceptance criterion. Each test prints a single summary line
with the observed margin so a verbose run reads as a checklist. Tolerances
are fixed here and must not be loosened to make a failing criterion pass.
"""

import math
import time

import numpy as np

from conftest import (
    ecd_bruteforce,
    ginibre_density,
    random_channel,
    random_spectrum,
    simplex_max_entropy,
)
from ecdnorm import (
    BoundInputs,
    DensityOperator,
    EcdProblem,
    Ensemble,
    Hamiltonian,
    HarmonicModes,
    HermitianPreservingMap,
    OscillatorEntropyBound,
    ShiftedGibbsEntropyBound,
    TruncatedOscillator,
    apply_channel,
    attenuator,
    channel_mutual_information,
    classical_capacity_bound,
    depolarize_to,
    ea_capacity_bound_input,
    ea_capacity_bound_output,
    embed_witness,
    energy,
    estimate_diamond_norm,
    estimate_ecd_norm,
    holevo_capacity_bound,
    holevo_capacity_estimate,
    holevo_quantity,
    holevo_quantity_bound,
    identity_channel,
    max_entropy,
    mutual_info_bound,
    optimize_t,
    phase_rotation,
    solve_gibbs,
    state_truncation_bound,
    truncation_norm_bound,
    vacuum_state,
)

OSC = OscillatorEntropyBound(HarmonicModes((1.0,)))


def test_criterion_1_estimator_matches_bruteforce_oracle():
    """Norm estimates agree with an independent random-search oracle."""
    combos = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (2, 4), (4, 1), (4, 2)]
    start = time.time()
    worst = 0.0
    for trial in range(50):
        d, r_dim = combos[trial % len(combos)]
        rng = np.random.default_rng([11, trial])
        phi = random_channel(rng, d, d, 2)
        psi = random_channel(rng, d, d, 2)
        ev = random_spectrum(rng, d, 0.3)
        budget = ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0])
        problem = EcdProblem(
            HermitianPreservingMap.difference(phi, psi),
            Hamiltonian(ev),
            budget,
            r_dim=r_dim,
        )
        est = estimate_ecd_norm(problem, restarts=16, seed=trial, max_iter=400)
        oracle = ecd_bruteforce(
            phi.kraus, psi.kraus, ev, budget, r_dim, seed=trial + 1000
        )
        gap = abs(est.lower - oracle)
        worst = max(worst, gap)
        assert gap <= 1e-3, f"trial {trial} (d={d}, r={r_dim}): |{est.lower} - {oracle}|"
    elapsed = time.time() - start
    assert elapsed < 300.0, f"oracle comparison took {elapsed:.0f}s"
    print(f"criterion 1: PASS  worst |estimate - oracle| = {worst:.2e} in {elapsed:.0f}s")


def test_criterion_2_truncation_inequalities():
    """Tail weight and truncation distance obey their energy bounds, and the
    truncated-norm bound dominates the constrained estimate."""
    rng = np.random.default_rng(2002)
    d = 5
    ev = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 4.0, size=d - 1))])
    h = Hamiltonian(ev)
    ground = np.zeros((d, d))
    ground[0, 0] = 1.0
    violations = 0
    for _ in range(500):
        budget = rng.uniform(0.1, 0.9) * ev.mean()
        rho = ginibre_density(rng, d).matrix
        e = float(np.trace(h.matrix @ rho).real)
        if e > budget:
            s = (e - budget) / e
            rho = (1.0 - s) * rho + s * ground
        state = DensityOperator(rho)
        for n in range(1, d):
            cut = state_truncation_bound(state, h, n)
            ratio = budget / ev[n]
            if cut.tail_weight > ratio + 1e-12:
                violations += 1
            if cut.trace_distance > 4.0 * math.sqrt(ratio) + 1e-12:
                violations += 1
    assert violations == 0

    worst_margin = np.inf
    for k in range(100):
        rng = np.random.default_rng([22, k])
        phi = random_channel(rng, 3, 3, 2)
        psi = random_channel(rng, 3, 3, 2)
        ev = np.concatenate(
            [[rng.uniform(0.0, 0.2)], np.sort(rng.uniform(0.3, 2.5, size=2))]
        )
        h = Hamiltonian(ev)
        budget = ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0])
        n = int(rng.integers(2, 4))
        diff = HermitianPreservingMap.difference(phi, psi)
        cap = truncation_norm_bound(diff, h, budget, n)
        est = estimate_ecd_norm(EcdProblem(diff, h, budget), restarts=2, max_iter=150)
        worst_margin = min(worst_margin, cap - est.lower)
        assert cap >= est.lower - 1e-9
    print(
        "criterion 2: PASS  0 violations in 2000 state checks;"
        f" min bound margin {worst_margin:.3f} over 100 maps"
    )


def test_criterion_3_continuity_bound_validity():
    """Measured ensemble-quantity differences never exceed the bound, with the
    certified norm bracket supplying epsilon."""
    worst_margin = np.inf
    violations = 0
    for k in range(200):
        rng = np.random.default_rng([33, k])
        d = int(rng.integers(2, 5))
        phi = random_channel(rng, d, d, 2)
        psi = random_channel(rng, d, d, 2)
        h = Hamiltonian(np.sort(rng.uniform(0.1, 2.5, size=d)))
        states = tuple(ginibre_density(rng, d) for _ in range(3))
        probs = rng.uniform(0.2, 1.0, size=3)
        probs /= probs.sum()
        ens = Ensemble(tuple(probs), states)
        rho_bar = DensityOperator(ens.average())

        # the certificate caps the norm at the ensemble's input energy
        e_in = energy(rho_bar, h)
        diff = HermitianPreservingMap.difference(phi, psi)
        est = estimate_ecd_norm(EcdProblem(diff, h, e_in), restarts=1, max_iter=60)
        eps = min(1.0, max(0.5 * est.upper, 1e-9))

        # the entropy bound takes the larger of the two output energies
        e_out = max(
            float(np.trace(h.matrix @ apply_channel(phi, rho_bar)).real),
            float(np.trace(h.matrix @ apply_channel(psi, rho_bar)).real),
        )
        fhat = ShiftedGibbsEntropyBound(h)
        measured = abs(
            holevo_quantity(ens.map_through(phi)) - holevo_quantity(ens.map_through(psi))
        )
        totals = [
            holevo_quantity_bound(BoundInputs(eps, e_out, frac / (2.0 * eps), fhat)).total
            for frac in (0.05, 0.3, 1.0)
        ]
        totals.append(optimize_t("chi", eps, e_out, fhat)[1].total)
        for total in totals:
            if measured > total + 1e-12:
                violations += 1
            worst_margin = min(worst_margin, total - measured)
    assert violations == 0
    print(f"criterion 3: PASS  0 violations in 800 checks; min margin {worst_margin:.3f}")


def test_criterion_4_bound_vanishes_with_epsilon():
    totals = []
    for k in range(1, 7):
        eps = 10.0 ** (-k)
        totals.append(optimize_t("chi", eps, 1.0, OSC)[1].total)
    diffs = np.diff(totals)
    assert np.all(diffs < 0.0), totals
    assert totals[-1] < 1e-3, totals[-1]
    print(f"criterion 4: PASS  totals fall {totals[0]:.3f} -> {totals[-1]:.2e}")


def test_criterion_5_capacity_bound_tightness():
    """The identity/depolarizer capacity gap reproduces the constrained max
    entropy, and the optimized main term tracks eps * fhat at high energy."""
    d, budget = 12, 2.0
    h = TruncatedOscillator(d, 1.0).hamiltonian
    cap_id = holevo_capacity_estimate(identity_channel(d), h, budget, restarts=2, max_iter=300)
    cap_dep = holevo_capacity_estimate(
        depolarize_to(vacuum_state(d), 1.0), h, budget, restarts=1, max_iter=100
    )
    target = max_entropy(h, budget)
    gap = abs(abs(cap_id - cap_dep) - target)
    assert gap <= 0.03, gap

    _, bv = optimize_t("cchi", 1.0, 1e6, OSC)
    ratio = bv.main_term / (1.0 * OSC.at(1e6))
    assert 0.85 <= ratio <= 1.5, ratio
    print(f"criterion 5: PASS  capacity gap {gap:.2e}; main-term ratio {ratio:.3f}")


def test_criterion_6_entanglement_assisted_tightness():
    d, budget = 12, 2.0
    h = TruncatedOscillator(d, 1.0).hamiltonian
    gibbs = solve_gibbs(h, budget).state
    ea_id = channel_mutual_information(identity_channel(d), gibbs)
    target = 2.0 * max_entropy(h, budget)
    gap = abs(ea_id - target)
    assert gap <= 1e-6, gap
    ea_dep = channel_mutual_information(depolarize_to(vacuum_state(d), 1.0), gibbs)
    assert ea_dep <= 1e-9, ea_dep
    print(f"criterion 6: PASS  identity gap {gap:.2e}; depolarizer value {ea_dep:.1e}")


def test_criterion_7_strong_convergence_vs_diamond_rigidity():
    """Phase rotations converge in the constrained norm while staying
    diamond-rigid; the attenuator pair shows the reverse separation."""
    d, budget = 16, 2.0
    h = TruncatedOscillator(d, 1.0).hamiltonian
    ident = identity_channel(d)
    lowers = []
    for theta in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002):
        diff = HermitianPreservingMap.difference(phase_rotation(d, theta), ident)
        est = estimate_ecd_norm(
            EcdProblem(diff, h, budget, r_dim=1), restarts=4, seed=0, max_iter=400
        )
        lowers.append(est.lower)
    assert np.all(np.diff(lowers) < 0.0), lowers
    assert lowers[-1] < 0.05, lowers[-1]

    dia_lowers = []
    ecd_lowers = []
    ecd_upper_max = 0.0
    prev_d = None
    dia_w = ecd_w = None
    for dim in (8, 16, 24):
        hd = TruncatedOscillator(dim, 1.0).hamiltonian
        diff = HermitianPreservingMap.difference(attenuator(dim, 0.70), attenuator(dim, 0.69))
        dia = estimate_diamond_norm(
            diff,
            restarts=2,
            seed=0,
            extra_starts=[embed_witness(dia_w, prev_d, dim)] if prev_d else None,
            max_iter=250,
        )
        est = estimate_ecd_norm(
            EcdProblem(diff, hd, budget),
            restarts=2,
            seed=0,
            extra_starts=[embed_witness(ecd_w, prev_d, dim)] if prev_d else None,
            max_iter=250,
        )
        dia_lowers.append(dia.lower)
        ecd_lowers.append(est.lower)
        ecd_upper_max = max(ecd_upper_max, est.upper)
        dia_w, ecd_w, prev_d = dia.witness, est.witness, dim
    assert np.all(np.diff(dia_lowers) > 0.0), dia_lowers
    assert np.all(np.diff(ecd_lowers) >= -1e-10), ecd_lowers
    assert ecd_upper_max < 0.2, ecd_upper_max
    print(
        f"criterion 7: PASS  phase ladder {lowers[0]:.3f} -> {lowers[-1]:.4f};"
        f" diamond {dia_lowers[0]:.4f} -> {dia_lowers[-1]:.4f},"
        f" constrained bracket <= {ecd_upper_max:.4f}"
    )


def test_criterion_8_thermo_closed_forms():
    h = Hamiltonian([0.0, 1.0])
    worst_lam = 0.0
    for e in np.linspace(0.01, 0.49, 25):
        lam = solve_gibbs(h, float(e)).lam
        worst_lam = max(worst_lam, abs(lam - math.log((1.0 - e) / e)))
    assert worst_lam <= 1e-9, worst_lam

    rng = np.random.default_rng(808)
    worst_f = 0.0
    for _ in range(10):
        ev = np.sort(np.concatenate([[0.0], rng.uniform(0.2, 3.0, size=2)]))
        budget = rng.uniform(0.05, 1.3) * ev.mean()
        a = max_entropy(Hamiltonian(ev), budget)
        b = simplex_max_entropy(ev, budget)
        worst_f = max(worst_f, abs(a - b))
        assert abs(a - b) <= 1e-4
    print(f"criterion 8: PASS  lam error {worst_lam:.1e}; grid gap {worst_f:.1e}")


def test_criterion_9_coefficient_structure():
    """The six bounds share one skeleton: doubling identities are exact and
    the n-copy bound is n times the single-copy one."""
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    for _ in range(1000):
        eps = rng.uniform(0.01, 1.0)
        t = rng.uniform(0.05, 0.95) / (2.0 * eps)
        e_arg = rng.uniform(0.1, 50.0)
        inputs = BoundInputs(eps, e_arg, t, OSC)
        chi = holevo_quantity_bound(inputs)
        cchi = holevo_capacity_bound(inputs)
        ccap = classical_capacity_bound(inputs)
        qmi1 = mutual_info_bound(inputs)
        qmi3 = mutual_info_bound(BoundInputs(eps, e_arg, t, OSC, copies=3))

        # single-copy state bound doubles into the two-state bound exactly
        assert qmi1.main_term == 2.0 * chi.main_term
        assert qmi1.h2_term == 2.0 * chi.h2_term
        assert qmi1.g_term == chi.g_term
        # capacity bound doubles the Holevo-quantity bound exactly
        assert ccap.main_term == 2.0 * cchi.main_term
        assert ccap.h2_term == 2.0 * cchi.h2_term
        assert ccap.g_term == cchi.g_term
        # the capacity-of-ensembles bound reuses the Holevo skeleton verbatim
        assert cchi.total == chi.total
        # both entanglement-assisted variants share the classical-capacity shape
        ea_in = ea_capacity_bound_input(inputs)
        ea_out = ea_capacity_bound_output(inputs)
        assert ea_in.total == ccap.total == ea_out.total
        assert ccap.total >= cchi.total
        # n copies scale every term n-fold, up to floating-point association
        for got, want in (
            (qmi3.main_term, 3.0 * qmi1.main_term),
            (qmi3.g_term, 3.0 * qmi1.g_term),
            (qmi3.h2_term, 3.0 * qmi1.h2_term),
        ):
            rel = abs(got - want) / max(1.0, abs(want))
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-12
    print(f"criterion 9: PASS  1000 grid points; worst n-copy deviation {worst_rel:.1e}")

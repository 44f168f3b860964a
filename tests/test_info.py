"""Entropic quantities: von Neumann entropy, relative entropy, ensembles,
mutual information, and capacity estimates."""

import math

import numpy as np
import pytest

from conftest import (
    ginibre_density,
    haar_vector,
    kraus_apply,
    loop_partial_trace,
    random_channel,
    random_spectrum,
)
from ecdnorm import (
    Channel,
    DensityOperator,
    Ensemble,
    Hamiltonian,
    TruncatedOscillator,
    apply_channel,
    attenuator,
    channel_mutual_information,
    depolarize_to,
    energy_gain,
    entropy,
    g,
    h2,
    holevo_capacity_estimate,
    holevo_quantity,
    identity_channel,
    max_entropy,
    mutual_information,
    output_energy_sup,
    relative_entropy,
    solve_gibbs,
    vacuum_state,
)
from ecdnorm.info import _EnsembleAscent
from ecdnorm.optim import _halving
from ecdnorm.thermo import gibbs_multiplier

LN2 = math.log(2.0)


def test_entropy_reference_values():
    rng = np.random.default_rng(60)
    v = haar_vector(rng, 5)
    assert abs(entropy(DensityOperator.pure(v))) < 1e-10
    for d in (2, 3, 7):
        assert abs(entropy(np.eye(d) / d) - math.log(d)) < 1e-12
    assert abs(entropy(np.diag([0.25, 0.75])) - h2(0.25)) < 1e-14


def test_relative_entropy_basics():
    rng = np.random.default_rng(61)
    rho = ginibre_density(rng, 4)
    assert abs(relative_entropy(rho, rho)) < 1e-9
    # support violation diverges
    pure = DensityOperator.pure(np.array([1.0, 0.0]))
    other = DensityOperator.pure(np.array([0.0, 1.0]))
    assert relative_entropy(pure, other) == math.inf
    # nonnegative on random pairs
    for _ in range(10):
        a = ginibre_density(rng, 3)
        b = ginibre_density(rng, 3)
        assert relative_entropy(a, b) >= -1e-10
    with pytest.raises(ValueError):
        relative_entropy(ginibre_density(rng, 2), ginibre_density(rng, 3))


def test_relative_entropy_commuting_pair():
    # classical KL divergence of (1/2, 1/2) against (1/4, 3/4)
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([0.25, 0.75])
    assert abs(relative_entropy(rho, sigma) - 0.14384103622589042) < 1e-12


def test_holevo_quantity_reference_cases():
    rng = np.random.default_rng(62)
    rho = ginibre_density(rng, 3)
    same = Ensemble((0.3, 0.7), (rho, rho))
    assert abs(holevo_quantity(same)) < 1e-12
    basis = Ensemble(
        (0.5, 0.5),
        (
            DensityOperator.pure(np.array([1.0, 0.0])),
            DensityOperator.pure(np.array([0.0, 1.0])),
        ),
    )
    assert abs(holevo_quantity(basis) - LN2) < 1e-12


def test_holevo_quantity_equals_divergence_form():
    rng = np.random.default_rng(63)
    for _ in range(8):
        states = tuple(ginibre_density(rng, 3) for _ in range(3))
        p = rng.uniform(0.2, 1.0, size=3)
        p /= p.sum()
        ens = Ensemble(tuple(p), states)
        chi = holevo_quantity(ens)
        avg = DensityOperator(ens.average())
        alt = sum(w * relative_entropy(s, avg) for w, s in zip(p, states))
        assert abs(chi - alt) < 1e-9
        assert chi <= entropy(avg) + 1e-12


def test_ensemble_validation():
    rng = np.random.default_rng(64)
    rho = ginibre_density(rng, 2)
    with pytest.raises(ValueError):
        Ensemble((0.5, 0.6), (rho, rho))  # does not sum to one
    with pytest.raises(ValueError):
        Ensemble((1.0, 0.0), (rho, rho))  # zero weight
    with pytest.raises(ValueError):
        Ensemble((math.nan, 1.0), (rho, rho))  # NaN passes both comparisons
    with pytest.raises(ValueError):
        Ensemble((0.5, 0.5), (rho, ginibre_density(rng, 3)))  # mixed dims


def test_mutual_information_reference_cases():
    rng = np.random.default_rng(65)
    a = ginibre_density(rng, 2).matrix
    b = ginibre_density(rng, 3).matrix
    assert abs(mutual_information(np.kron(a, b), (2, 3))) < 1e-10
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert abs(mutual_information(np.outer(bell, bell), (2, 2)) - 2.0 * LN2) < 1e-12


def test_mutual_information_divergence_form_and_cap():
    rng = np.random.default_rng(66)
    for da, db in [(2, 2), (2, 3), (3, 2)]:
        rho = ginibre_density(rng, da * db)
        ra = loop_partial_trace(rho.matrix, (da, db), 0)
        rb = loop_partial_trace(rho.matrix, (da, db), 1)
        alt = relative_entropy(rho, DensityOperator(np.kron(ra, rb)))
        got = mutual_information(rho, (da, db))
        assert abs(got - alt) < 1e-8
        assert got <= 2.0 * min(math.log(da), math.log(db)) + 1e-10


def test_channel_mutual_information_reference_cases():
    ident = identity_channel(2)
    half = DensityOperator(0.5 * np.eye(2))
    assert abs(channel_mutual_information(ident, half) - 2.0 * LN2) < 1e-12
    # a constant channel carries nothing
    rng = np.random.default_rng(67)
    sigma = ginibre_density(rng, 2)
    const = depolarize_to(sigma, 1.0)
    assert channel_mutual_information(const, half) < 1e-9


def test_channel_mutual_information_unitary_doubles_entropy():
    rng = np.random.default_rng(68)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    unitary = Channel([q])
    rho = ginibre_density(rng, 3)
    got = channel_mutual_information(unitary, rho)
    assert abs(got - 2.0 * entropy(rho)) < 1e-9


def test_channel_mutual_information_purification_invariance():
    # recompute with an enlarged, rotated reference; I(B:R) must not move
    rng = np.random.default_rng(69)
    ch = random_channel(rng, 3, 3, 2)
    rho = ginibre_density(rng, 3)
    got = channel_mutual_information(ch, rho)

    w, v = np.linalg.eigh(rho.matrix)
    d, ref = 3, 6
    m = np.zeros((d, ref), dtype=np.complex128)
    m[:, :d] = v * np.sqrt(np.clip(w, 0.0, None))
    q, _ = np.linalg.qr(rng.standard_normal((ref, ref)) + 1j * rng.standard_normal((ref, ref)))
    m = m @ q.T  # rotate the reference side of the purification
    big = np.zeros((d * ref, d * ref), dtype=np.complex128)
    for k in ch.kraus:
        vec = (k @ m).reshape(-1)
        big += np.outer(vec, vec.conj())

    def eig_entropy(mat):
        lam = np.linalg.eigvalsh(mat)
        lam = lam[lam > 1e-12]
        return float(-(lam * np.log(lam)).sum())

    manual = (
        eig_entropy(loop_partial_trace(big, (d, ref), 0))
        + eig_entropy(loop_partial_trace(big, (d, ref), 1))
        - eig_entropy(big)
    )
    assert abs(got - manual) < 1e-9


def _joint_state_mutual_information(channel, rho):
    """I(B:R) of the explicitly built (Φ ⊗ id)(|ψ⟩⟨ψ|), ψ = Σ_i √λ_i |v_i⟩|i⟩."""
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12
    rank = int(keep.sum())
    psi = (v[:, keep] * np.sqrt(w[keep])).reshape(-1)
    joint = 0.0
    for k in channel.kraus:
        vec = np.kron(k, np.eye(rank)) @ psi
        joint = joint + np.outer(vec, vec.conj())
    return mutual_information(joint, (channel.out_dim, rank))


def _joint_cases():
    """(name, channel, input state): Kraus counts on both sides of out·rank,
    rank-deficient inputs, the identity and the vacuum depolarizer."""
    rng = np.random.default_rng(73)
    yield "few-kraus", random_channel(rng, 3, 3, 2), ginibre_density(rng, 3)
    yield "few-kraus-rank1", random_channel(rng, 4, 3, 2), ginibre_density(rng, 4, rank=1)
    yield "many-kraus-pure", random_channel(rng, 3, 2, 5), ginibre_density(rng, 3, rank=1)
    yield "many-kraus-rank2", random_channel(rng, 4, 2, 6), ginibre_density(rng, 4, rank=2)
    yield "wide-output", random_channel(rng, 2, 5, 3), ginibre_density(rng, 2)
    h = TruncatedOscillator(8).hamiltonian
    gibbs = solve_gibbs(h, 2.0).state
    yield "identity", identity_channel(8), gibbs
    yield "identity-rank3", identity_channel(5), ginibre_density(rng, 5, rank=3)
    yield "vacuum-depolarizer", depolarize_to(vacuum_state(8), 1.0), gibbs
    yield "partial-depolarizer", depolarize_to(vacuum_state(5), 0.6), ginibre_density(rng, 5, rank=2)


@pytest.mark.parametrize("case", [c[0] for c in _joint_cases()])
def test_channel_mutual_information_matches_the_joint_state(case):
    """The Gram-matrix route equals the mutual information of the joint output."""
    _, channel, rho = next(c for c in _joint_cases() if c[0] == case)
    want = _joint_state_mutual_information(channel, rho)
    assert abs(channel_mutual_information(channel, rho) - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize(
    "channel",
    [
        identity_channel(16),
        depolarize_to(vacuum_state(16), 1.0),
        random_channel(np.random.default_rng(74), 3, 3, 4),
    ],
    ids=["identity16", "vacuum-depolarizer16", "random-d3k4"],
)
def test_channel_mutual_information_never_diagonalizes_the_joint_output(monkeypatch, channel):
    """No eigensolve is larger than max(out, min(n_kraus, out·rank)), the
    larger of B's marginal and the joint output's Gram matrix."""
    d = channel.in_dim
    h = TruncatedOscillator(d).hamiltonian
    rho = solve_gibbs(h, min(2.0, 0.5 * (h.ground_energy + h.mean_eigenvalue))).state
    sizes = []

    def spy(solver):
        def wrapper(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return solver(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    channel_mutual_information(channel, rho)
    rank = d  # a Gibbs state has full rank
    out = channel.out_dim
    assert sizes and max(sizes) <= max(out, min(len(channel.kraus), out * rank)), sizes


def test_energy_gain_identity_and_replacer():
    h = Hamiltonian([0.0, 1.0, 2.0])
    assert abs(energy_gain(identity_channel(3), h, h, 0.8) - 1.0) < 1e-9
    sigma = DensityOperator(np.diag([0.5, 0.3, 0.2]))
    const = depolarize_to(sigma, 1.0)
    want = (0.3 + 0.4) / 0.8  # Tr[H sigma] / budget
    assert abs(energy_gain(const, h, h, 0.8) - want) < 1e-9


def test_output_energy_sup_dominates_primal_samples():
    rng = np.random.default_rng(70)
    ch = random_channel(rng, 3, 3, 2)
    ev = np.array([0.0, 0.9, 2.1])
    h = Hamiltonian(ev)
    budget = 0.7
    res = output_energy_sup(ch, h, h, budget)
    assert res.attained <= res.value + 1e-9
    assert res.value - res.attained < 1e-6
    ground = np.zeros((3, 3))
    ground[0, 0] = 1.0
    worst = -np.inf
    for _ in range(10000):
        rho = ginibre_density(rng, 3).matrix
        e = float(np.trace(h.matrix @ rho).real)
        if e > budget:
            s = (e - budget) / e
            rho = (1.0 - s) * rho + s * ground
        out = apply_channel(ch, rho)
        worst = max(worst, float(np.trace(h.matrix @ out).real))
    assert worst <= res.value + 1e-9


def _projection_cases():
    rng = np.random.default_rng(74)
    for d, size in [(3, 2), (4, 4), (5, 3), (6, 8)]:
        ev = random_spectrum(rng, d, 0.2)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = Hamiltonian(ev, np.linalg.qr(z)[0])
        tau0 = h.eigenbasis[:, 0]
        budget = float(ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0]))
        for trial in range(12):
            psis = np.stack([haar_vector(rng, d) for _ in range(size)])
            if trial % 3 == 1:
                # states with no weight on the ground level
                psis[::2] -= np.outer(psis[::2] @ tau0.conj(), tau0)
            if trial % 3 == 2:
                # close to the ground state: mostly feasible
                psis = tau0 + 0.2 * psis
            psis /= np.linalg.norm(psis, axis=1, keepdims=True)
            probs = rng.dirichlet(np.ones(size))
            yield h, budget, psis, probs
    # the Gibbs-weighted eigenbasis start of the estimator, over the budget by rounding
    h = TruncatedOscillator(9, 1.0).hamiltonian
    logits = -solve_gibbs(h, 1.5).lam * h.eigenvalues
    probs = np.exp(logits - logits.max())
    yield h, 1.5, h.eigenbasis.T.astype(np.complex128), probs / probs.sum()


def test_ensemble_projection_shares_one_energy_fraction():
    """The ascent's projection mixes each state toward its ground direction,
    and every state keeps the same fraction of its energy above the ground."""
    projected = feasible = 0
    for h, budget, psis, probs in _projection_cases():
        ascent = _EnsembleAscent(identity_channel(h.dimension), h, budget, len(probs))
        out = ascent._project(psis, probs)

        def energies(states):
            return np.einsum("ki,ij,kj->k", states.conj(), h.matrix, states).real

        def mean_energy(states):
            return float(probs @ energies(states))

        if mean_energy(psis) <= budget:
            np.testing.assert_array_equal(out, psis)
            feasible += 1
            continue
        assert budget - 1e-12 * max(1.0, budget) <= mean_energy(out) <= budget
        tau0 = h.eigenbasis[:, 0]
        weights = []
        for psi, o in zip(psis, out):
            overlap = np.vdot(tau0, psi)
            ground = tau0 * (overlap / abs(overlap) if abs(overlap) >= 1e-12 else 1.0)
            assert abs(np.linalg.norm(o) - 1.0) < 1e-12
            basis = np.column_stack([psi, ground])
            coef = np.linalg.lstsq(basis, o, rcond=None)[0]
            assert np.linalg.norm(basis @ coef - o) < 1e-10
            if abs(np.vdot(ground, psi)) < 0.99:
                weights.append(coef[1] / coef[0])
        weights = np.array(weights)
        assert np.all(weights.real > 0.0)
        assert np.abs(weights.imag).max() <= 1e-9 * weights.real.max()
        e0 = h.eigenvalues[0]
        excess = energies(psis) - e0
        hot = excess > 1e-9
        fractions = (energies(out)[hot] - e0) / excess[hot]
        assert np.ptp(fractions) <= 1e-9 * fractions.max()
        projected += 1
    assert projected >= 30 and feasible >= 5


def _softmax(logits):
    p = np.exp(logits - logits.max())
    return p / p.sum()


def _kraus_chi(kraus, probs, states):
    """χ of the output ensemble, by Kraus sums and eigvalsh, with the states taken as given."""

    def h(m):
        w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        w = w[w > 0.0]
        return float(-(w * np.log(w)).sum())

    outs = [kraus_apply(kraus, np.outer(s, s.conj())) for s in states]
    return h(sum(p * o for p, o in zip(probs, outs))) - sum(p * h(o) for p, o in zip(probs, outs))


def _ascent_cases():
    """Multi-Kraus channels with infeasible random starts (d = 5, budget 0.6)."""
    rng = np.random.default_rng(83)
    h = TruncatedOscillator(5, 1.0).hamiltonian
    for channel in (attenuator(5, 0.7), random_channel(rng, 5, 4, 3)):
        size = 4
        logits = rng.standard_normal(size)
        psis = rng.standard_normal((size, 5)) + 1j * rng.standard_normal((size, 5))
        yield _EnsembleAscent(channel, h, 0.6, size), channel, logits, psis


def test_ensemble_ascent_gradients_match_finite_differences():
    """`grads` of a `_forward` pass returns χ of the projected output
    ensemble and its gradients there: in the logits through the softmax, and
    in the complex states (df = Re⟨g, δ⟩), with the projected states held
    fixed. Checked by central differences of an independent Kraus-route χ."""
    step = 1e-6
    for ascent, channel, logits, psis in _ascent_cases():
        probs = _softmax(logits)
        unit = psis / np.linalg.norm(psis, axis=1, keepdims=True)
        states = ascent._project(unit, probs)
        # the start is over the budget, so the projection moved every state
        assert np.abs(states - unit).max(axis=1).min() > 1e-3
        chi, g_logits, g_psis = ascent.grads(ascent._forward(logits, psis))
        ensemble = Ensemble(tuple(probs), tuple(DensityOperator.pure(s) for s in states))
        assert abs(chi - holevo_quantity(ensemble.map_through(channel))) < 1e-12
        assert abs(ascent.value(logits, psis) - chi) < 1e-12
        kraus = channel.kraus
        fd_logits = np.array(
            [
                (
                    _kraus_chi(kraus, _softmax(logits + step * e), states)
                    - _kraus_chi(kraus, _softmax(logits - step * e), states)
                )
                / (2.0 * step)
                for e in np.eye(len(logits))
            ]
        )
        np.testing.assert_allclose(g_logits, fd_logits, atol=1e-8)
        fd_psis = np.zeros_like(g_psis)
        for k in range(len(states)):
            for i in range(states.shape[1]):
                for unit_step in (1.0, 1j):
                    plus, minus = states.copy(), states.copy()
                    plus[k, i] += step * unit_step
                    minus[k, i] -= step * unit_step
                    rise = _kraus_chi(kraus, probs, plus) - _kraus_chi(kraus, probs, minus)
                    fd_psis[k, i] += rise / (2.0 * step) * unit_step
        np.testing.assert_allclose(g_psis, fd_psis, atol=1e-8)
        assert np.abs(g_psis).max() > 1e-2 and np.abs(g_logits).max() > 1e-3


def test_ensemble_ascent_eigensolve_count(monkeypatch):
    """One gradient evaluation makes one stacked eigh of the outputs and one of
    their average; one value evaluation makes at most two eigensolves."""
    calls = 0

    def counted(solver):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return solver(*args, **kwargs)

        return wrapper

    cases = list(_ascent_cases())
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    for ascent, _, logits, psis in cases:
        calls = 0
        ascent.grads(ascent._forward(logits, psis))
        assert calls == 2
        calls = 0
        ascent.value(logits, psis)
        assert calls <= 2


def test_ensemble_ascent_decomposes_the_smaller_side(monkeypatch):
    """A forward pass decomposes the average output and, for the K outputs,
    whichever is smaller: the identity's 1 × 1 Gram matrices A_k†A_k (one
    Kraus operator, 6 levels) or the attenuator's 6 × 6 outputs (6 Kraus
    operators). On the identity, χ read from the Gram spectra is the mapped
    ensemble's Holevo quantity."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    h = TruncatedOscillator(6).hamiltonian
    rng = np.random.default_rng(29)
    size = 4
    logits = rng.standard_normal(size)
    psis = rng.standard_normal((size, 6)) + 1j * rng.standard_normal((size, 6))
    for channel, stack in ((attenuator(6, 0.7), (size, 6, 6)), (identity_channel(6), (size, 1, 1))):
        ascent = _EnsembleAscent(channel, h, 1.5, size)
        shapes.clear()
        ascent._forward(logits, psis)
        assert sorted(shapes) == sorted([stack, (6, 6)])
    probs = _softmax(logits)
    states = ascent._project(psis / np.linalg.norm(psis, axis=1, keepdims=True), probs)
    ensemble = Ensemble(tuple(probs), tuple(DensityOperator.pure(s) for s in states))
    chi = holevo_quantity(ensemble.map_through(channel))
    assert chi > 0.1
    assert abs(ascent.value(logits, psis) - chi) < 1e-12


def test_capacity_estimate_identity_channel():
    h = Hamiltonian([0.0, 0.8, 1.9])
    budget = 0.6
    cap = holevo_capacity_estimate(identity_channel(3), h, budget, restarts=6, max_iter=600)
    target = max_entropy(h, budget)
    assert cap <= target + 1e-9
    assert cap >= target - 0.02


def test_capacity_estimate_constant_channel():
    rng = np.random.default_rng(71)
    sigma = ginibre_density(rng, 3)
    h = Hamiltonian([0.0, 1.0, 2.0])
    cap = holevo_capacity_estimate(depolarize_to(sigma, 1.0), h, 0.5, restarts=2, max_iter=100)
    assert cap < 1e-8


def test_capacity_estimate_attenuator_floor():
    """At mean photon number N = 1 the attenuator's capacity g(ηN) bounds the
    estimate; a short run on 6 levels must still reach 0.9 nats."""
    h = TruncatedOscillator(6).hamiltonian
    cap = holevo_capacity_estimate(attenuator(6, 0.7), h, 1.5, restarts=2, max_iter=25)
    assert 0.9 <= cap <= g(0.7)



def _count_calls(monkeypatch, *names):
    """Count calls of the named `_EnsembleAscent` methods, through the class."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(_EnsembleAscent, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_EnsembleAscent, name, counted)
    return counts


def test_capacity_estimate_ends_a_first_order_search_at_the_optimum(monkeypatch):
    """The Gibbs-weighted eigenbasis start is the identity channel's optimum:
    the capped step cannot gain, and the search ends after a few trials
    whose shortfalls halve, not after halving the step down to 1e-12."""
    counts = _count_calls(monkeypatch, "value")
    h = TruncatedOscillator(6).hamiltonian
    cap = holevo_capacity_estimate(identity_channel(6), h, 1.5, restarts=1, max_iter=25)
    assert abs(cap - max_entropy(h, 1.5)) < 1e-9
    assert counts["value"] <= 6


def test_capacity_estimate_runs_one_forward_pass_per_value(monkeypatch):
    """The gradient step takes the accepted trial's forward pass."""
    counts = _count_calls(monkeypatch, "value", "_forward")
    h = TruncatedOscillator(6).hamiltonian
    holevo_capacity_estimate(attenuator(6, 0.7), h, 1.5, restarts=2, max_iter=25)
    assert counts["value"] > 25
    assert counts["_forward"] == counts["value"]


def test_halving_stop_rule():
    assert _halving([6.3e-3, 3.2e-3, 1.6e-3])
    assert _halving([9.0, 1.0, 0.5, 0.25])
    # a search dominated by curvature goes on (ratios 0.68, 0.80, 0.55)
    shortfalls = [1.0]
    for ratio in (0.68, 0.80, 0.55):
        shortfalls.append(shortfalls[-1] * ratio)
        assert not _halving(shortfalls)
    assert not _halving([4e-3, 2e-3, 0.0])
    assert not _halving([0.0, 0.0, 0.0])
    assert not _halving([4e-3, 2e-3])
    assert not _halving([])


def _full_halving_estimate(channel, h, budget, restarts, max_iter):
    """The estimator with every failing search halved down to 1e-12 and a
    fresh forward pass for each gradient."""
    d = channel.in_dim
    problem = _EnsembleAscent(channel, h, budget, d)
    best = 0.0
    for r in range(restarts):
        if r == 0:
            logits = -gibbs_multiplier(h, budget) * h.eigenvalues
            psis = h.eigenbasis.T.astype(np.complex128)
        else:
            rng = np.random.default_rng([0, r])
            logits = 0.3 * rng.standard_normal(d)
            psis = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        f = problem.value(logits, psis)
        alpha = 0.25
        history = [f]
        for _ in range(max_iter):
            f_cur, g_logits, g_psis = problem.grads(problem._forward(logits, psis))
            f = max(f, f_cur)
            scale = max(np.linalg.norm(g_logits), np.max(np.linalg.norm(g_psis, axis=1)), 1e-30)
            moved = False
            while alpha >= 1e-12:
                cand_logits = logits + alpha * g_logits / scale
                cand_psis = psis + alpha * g_psis / scale
                fc = problem.value(cand_logits, cand_psis)
                if fc > f:
                    moved = True
                    break
                alpha *= 0.5
            if not moved:
                break
            logits, psis, f = cand_logits, cand_psis, fc
            alpha = min(alpha * 1.3, 8.0)
            history.append(f)
            if len(history) > 20 and f - history[-21] <= 1e-9 * max(1.0, f):
                break
        best = max(best, f)
    return best


@pytest.mark.parametrize("levels", [6, 9, 12])
def test_capacity_estimate_equals_the_full_halving_search(levels):
    """Ending first-order searches early and reusing forward passes leaves
    every estimate bit-identical."""
    h = TruncatedOscillator(levels).hamiltonian
    for channel in (
        identity_channel(levels),
        attenuator(levels, 0.7),
        depolarize_to(vacuum_state(levels), 0.6),
    ):
        expected = _full_halving_estimate(channel, h, 1.5, restarts=2, max_iter=25)
        assert holevo_capacity_estimate(channel, h, 1.5, restarts=2, max_iter=25) == expected


@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_capacity_estimate_stops_at_a_vanishing_gradient(monkeypatch, restarts):
    """A constant channel has a zero gradient up to rounding: each restart
    ends at its first gradient instead of halving the step down to 1e-12."""
    counts = _count_calls(monkeypatch, "value")
    h = TruncatedOscillator(6).hamiltonian
    cap = holevo_capacity_estimate(
        depolarize_to(vacuum_state(6), 1.0), h, 1.5, restarts=restarts, max_iter=25
    )
    assert cap < 1e-12
    assert counts["value"] <= 2 * restarts


@pytest.mark.parametrize("restarts", [0, -1])
def test_capacity_estimate_rejects_fewer_than_one_restart(restarts):
    h = TruncatedOscillator(3).hamiltonian
    with pytest.raises(ValueError):
        holevo_capacity_estimate(identity_channel(3), h, 1.0, restarts=restarts)


def test_capacity_estimate_rejects_a_hamiltonian_of_another_dimension():
    h = TruncatedOscillator(5).hamiltonian
    with pytest.raises(ValueError, match="Hamiltonian dimensions do not match the channel"):
        holevo_capacity_estimate(attenuator(4, 0.7), h, 1.5)


def test_data_processing_for_holevo_quantity():
    rng = np.random.default_rng(72)
    for _ in range(6):
        states = tuple(ginibre_density(rng, 3) for _ in range(3))
        p = rng.uniform(0.2, 1.0, size=3)
        p /= p.sum()
        ens = Ensemble(tuple(p), states)
        ch = random_channel(rng, 3, 3, 2)
        assert holevo_quantity(ens.map_through(ch)) <= holevo_quantity(ens) + 1e-9


def test_gibbs_input_attains_identity_capacity():
    # the capacity witness for the identity is the Gibbs state itself
    h = Hamiltonian([0.0, 0.8, 1.9])
    budget = 0.6
    gibbs = solve_gibbs(h, budget)
    assert abs(entropy(gibbs.state) - max_entropy(h, budget)) < 1e-8
    assert abs(entropy(vacuum_state(4).matrix)) < 1e-12

"""Constrained ascent machinery: line search, energy caps, the trace-norm
objective, and the Lagrangian-dual supremum of quadratic forms."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    batch_difference_norms,
    check_energy_sup,
    ginibre_density,
    grid_dual_minimum,
    haar_vector,
    kraus_sign_surrogate,
    loop_partial_trace,
    random_channel,
    random_spectrum,
)
from ecdnorm import (
    Channel,
    EcdProblem,
    EnergyCap,
    Hamiltonian,
    HermitianPreservingMap,
    TraceNormObjective,
    TruncatedOscillator,
    attenuator,
    diamond_upper_bound,
    energy_constrained_sup,
    estimate_diamond_norm,
    estimate_ecd_norm,
    golden_section_min,
    identity_channel,
    multistart_ascend,
    phase_rotation,
    solve_gibbs,
    start_vectors,
)
from ecdnorm import optim
from ecdnorm.optim import CAP_PROPOSAL_MAX_DIM, _best_in_span, _capped_proposal, normalize


def test_golden_section_quadratic():
    x, fx = golden_section_min(lambda x: (x - 1.3) ** 2 + 0.7, -4.0, 6.0, tol=1e-10)
    assert abs(x - 1.3) < 1e-8
    assert abs(fx - 0.7) < 1e-14


def test_golden_section_endpoint_minimum():
    x, fx = golden_section_min(lambda x: np.exp(x), 2.0, 5.0, tol=1e-9)
    assert abs(x - 2.0) < 1e-6
    assert fx <= np.exp(2.0 + 1e-5)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize(np.zeros(4, dtype=np.complex128))


def _random_cap(rng, d, r_dim):
    ev = random_spectrum(rng, d, 0.2)
    h = Hamiltonian(ev)
    budget = ev[0] + rng.uniform(0.2, 0.8) * (ev.mean() - ev[0])
    return EnergyCap(h, r_dim, budget), h, budget


def test_energy_cap_projection():
    rng = np.random.default_rng(30)
    for d, r in [(3, 1), (4, 2), (5, 3)]:
        cap, _, budget = _random_cap(rng, d, r)
        for _ in range(25):
            psi = haar_vector(rng, d * r)
            out = cap(psi)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert cap.energy(out) <= budget + 1e-9
            again = cap(out)
            assert cap.energy(again) <= budget + 1e-9
            # feasible vectors pass through unchanged
            if cap.energy(psi) <= budget:
                np.testing.assert_allclose(out, psi, atol=1e-12)
    # infeasible vectors land on the budget inside span{ψ, ground direction},
    # including vectors with no weight on the ground level (rn < 1e-12)
    rng = np.random.default_rng(300)
    checked = 0
    for d, r in [(3, 1), (4, 2), (5, 3), (6, 4)]:
        cap, h, budget = _random_cap(rng, d, r)
        tau0 = h.eigenbasis[:, 0]
        for trial in range(30):
            m = haar_vector(rng, d * r).reshape(d, r)
            if trial % 3 == 0:
                m = m - np.outer(tau0, tau0.conj() @ m)
                m /= np.linalg.norm(m)
            psi = m.reshape(-1)
            if cap.energy(psi) <= budget:
                continue
            profile = tau0.conj() @ m
            if np.linalg.norm(profile) < 1e-12:
                profile = np.eye(r)[0]
            ground = np.outer(tau0, profile / np.linalg.norm(profile)).reshape(-1)
            out = cap(psi)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            span = np.linalg.qr(np.column_stack([psi, ground]))[0]
            assert np.linalg.norm(out - span @ (span.conj().T @ out)) < 1e-10
            assert budget - 1e-12 * max(1.0, budget) <= cap.energy(out) <= budget
            checked += 1
    assert checked >= 40
    # a vector with no ground-level weight a few ulps over the budget is
    # mixed toward the ground direction, not replaced by it
    h = Hamiltonian([0.0, 1.0, 2.0])
    ground = h.eigenbasis[:, 0].astype(np.complex128)
    rng = np.random.default_rng(301)
    for _ in range(200):
        psi = np.concatenate([[0.0], haar_vector(rng, 2)])
        budget = EnergyCap(h, 1, 1.0).energy(psi) - rng.uniform(4e-16, 2e-15)
        cap = EnergyCap(h, 1, budget)
        assert cap.energy(psi) > budget
        out = cap(psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        span = np.linalg.qr(np.column_stack([psi, ground]))[0]
        assert np.linalg.norm(out - span @ (span.conj().T @ out)) < 1e-10
        assert budget - 1e-12 * max(1.0, budget) <= cap.energy(out) <= budget
        assert np.linalg.norm(out - ground) > 0.5


def test_energy_cap_kron_matrix():
    rng = np.random.default_rng(31)
    cap, h, _ = _random_cap(rng, 4, 3)
    np.testing.assert_allclose(cap.kron_matrix(), np.kron(h.matrix, np.eye(3)), atol=1e-13)


def _difference_objective(rng, d_in, d_out, r_dim, n_kraus=2):
    phi = random_channel(rng, d_in, d_out, n_kraus)
    psi = random_channel(rng, d_in, d_out, n_kraus)
    diff = HermitianPreservingMap.difference(phi, psi)
    obj = TraceNormObjective(diff.choi, d_in, d_out, r_dim)
    return obj, diff, phi, psi


def test_objective_value_matches_direct_kraus_route():
    rng = np.random.default_rng(32)
    for d_in, d_out, r in [(2, 2, 2), (3, 2, 1), (3, 4, 2), (4, 3, 3)]:
        obj, _, phi, psi = _difference_objective(rng, d_in, d_out, r)
        for _ in range(5):
            v = haar_vector(rng, d_in * r)
            mats = v.reshape(1, d_in, r)
            want = batch_difference_norms(phi.kraus, psi.kraus, mats)[0]
            assert abs(obj.value(v) - want) < 1e-9


def _objective_case(name):
    """(Choi matrix, Kraus family of +, Kraus family of −, r, Choi rank).

    "IxOxRxK" is a difference of two random channels with K Kraus operators
    from I to O levels, at reference dimension R; "unbalanced" is φ − ½ψ,
    whose adjoint at I, and so the identity part of every sign matrix, is
    not zero."""
    rng = np.random.default_rng(33)
    if name == "phase-vs-identity":
        phi, psi = phase_rotation(5, 0.3), identity_channel(5)
        return phi.choi - psi.choi, phi.kraus, psi.kraus, 3, 2
    if name == "zero":
        phi = random_channel(rng, 3, 4, 2)
        return phi.choi - phi.choi, phi.kraus, phi.kraus, 2, 0
    if name == "unbalanced":
        phi, psi = random_channel(rng, 3, 4, 2), random_channel(rng, 3, 4, 2)
        half = [np.sqrt(0.5) * k for k in psi.kraus]
        return phi.choi - 0.5 * psi.choi, phi.kraus, half, 2, 4
    d_in, d_out, r, n_kraus = (int(c) for c in name.split("x"))
    _, diff, phi, psi = _difference_objective(rng, d_in, d_out, r, n_kraus)
    return diff.choi, phi.kraus, psi.kraus, r, 2 * n_kraus


@pytest.mark.parametrize(
    "case",
    [
        "3x3x2x1", "3x4x2x2", "2x5x3x2", "4x3x3x2", "4x2x5x2", "phase-vs-identity", "zero",
        "unbalanced",
        # Choi rank above half of out·r, and above out·r itself
        "3x3x2x2", "4x4x1x2", "2x2x1x2",
    ],
)
def test_objective_factor_and_dense_paths_agree(case):
    """The factored sign matrix acts like the dense one that the Kraus route
    builds from `eigh` of the full output: at the expansion point, on other
    vectors, after successive expansions, and through the capped proposal's
    dense surrogate."""
    choi, ka, kb, r, rank = _objective_case(case)
    d_out, d_in = ka[0].shape
    obj = TraceNormObjective(choi, d_in, d_out, r)
    assert obj._rank == rank
    rng = np.random.default_rng(331)
    for _ in range(4):
        v = haar_vector(rng, d_in * r)
        want, g = kraus_sign_surrogate(ka, kb, v, r)
        assert abs(obj.value(v) - want) < 1e-10
        f, grad = obj.value_and_grad(v)
        assert abs(f - want) < 1e-10
        np.testing.assert_allclose(grad, 2.0 * g @ v, atol=1e-10)
        surrogate = obj.surrogate_matrix()
        np.testing.assert_allclose(surrogate, g, atol=1e-10)
        for _ in range(2):
            u = haar_vector(rng, d_in * r)
            np.testing.assert_allclose(obj.apply_sign(u), g @ u, atol=1e-10)
            np.testing.assert_allclose(surrogate @ u, obj.apply_sign(u), atol=1e-12)
            assert abs(obj.sign_value(u) - np.vdot(u, g @ u).real) < 1e-10


def _route_case(name):
    """(channel difference, r, whether to compare `apply_sign` away from the
    expansion point) for the Kraus-route agreement test.

    The pair runs at r = 24, as the bracket does. Its output has eigenvalues
    in every decade down to rounding, one beside the −1e-9 sign cut, so the
    negative subspace, and with it `apply_sign` at any other vector, is fixed
    only to rounding over its gaps (up to about 5e-6 relative) on either
    route; the sign-cut follow-up in ROADMAP.md names it. At the expansion
    point the action is half the gradient and agrees."""
    rng = np.random.default_rng(338)
    if name == "pair24":
        return HermitianPreservingMap.difference(attenuator(24, 0.70), attenuator(24, 0.69)), 24, False
    if name == "duplicated":
        k0, k1 = random_channel(rng, 3, 3, 2).kraus
        phi = Channel([np.sqrt(0.5) * k0, np.sqrt(0.5) * k0, k1])
        return HermitianPreservingMap.difference(phi, random_channel(rng, 3, 3, 2)), 3, True
    d_in, d_out, r, n_kraus = (int(c) for c in name.split("x"))
    _, diff, _, _ = _difference_objective(rng, d_in, d_out, r, n_kraus)
    return diff, r, True


@pytest.mark.parametrize(
    "case",
    [
        # out ≠ in with 2 Kraus vectors against out·in = 12; 4 against 4;
        # 6 against 4 and 8 against 6 (more Kraus vectors than rows)
        "3x4x2x1", "2x2x2x2", "2x2x2x3", "2x3x2x4",
        "duplicated", "pair24",
    ],
)
def test_kraus_route_matches_the_choi_eigh_route(case):
    """The factor built from the Kraus pair (QR of the stacked Kraus vectors)
    and the one from `eigh` of the whole Choi matrix give the same value,
    gradient, sign action and dual bounds, to 1e-10 relative."""
    diff, r, sign_away = _route_case(case)
    d_in, d_out = diff.in_dim, diff.out_dim
    ka, kb = diff.kraus_pair
    kraus = TraceNormObjective(diff.choi, d_in, d_out, r, diff.kraus_pair)
    dense = TraceNormObjective(diff.choi, d_in, d_out, r)
    assert kraus._rank <= len(ka) + len(kb)

    def close(a, b):
        scale = max(float(np.linalg.norm(b)), 1e-300)
        assert float(np.linalg.norm(np.asarray(a) - b)) <= 1e-10 * scale

    rng = np.random.default_rng(339)
    for _ in range(3):
        psi, u = haar_vector(rng, d_in * r), haar_vector(rng, d_in * r)
        close(kraus.value(psi), dense.value(psi))
        (fk, gk), (fd, gd) = kraus.value_and_grad(psi), dense.value_and_grad(psi)
        close(fk, fd)
        close(gk, gd)
        close(kraus.apply_sign(psi), dense.apply_sign(psi))
        if sign_away:
            close(kraus.apply_sign(u), dense.apply_sign(u))
    h = TruncatedOscillator(d_in).hamiltonian
    budget = float(h.ground_energy + 0.5 * (h.mean_eigenvalue - h.ground_energy))
    z = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
    states = [np.eye(d_in) / d_in, solve_gibbs(h, budget).state.matrix, z @ z.conj().T / np.vdot(z, z).real]
    cap = EnergyCap(h, 1, budget)
    for rho in states:
        for c in (None, cap):
            close(kraus.dual_bound(rho, c), dense.dual_bound(rho, c))


def test_factored_sign_matrix_is_never_dense():
    """At 24 levels (Choi rank 46, out·r = 576) one expansion and one action
    together peak below half of a single dense 576 × 576 sign matrix."""
    d = 24
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    obj = TraceNormObjective(diff.choi, d, d, d)
    assert obj._rank < 64
    rng = np.random.default_rng(332)
    psi, u = haar_vector(rng, d * d), haar_vector(rng, d * d)
    dense_bytes = 16 * (d * d) ** 2
    tracemalloc.start()
    try:
        obj.value_and_grad(psi)
        obj.apply_sign(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * dense_bytes, peak


def test_objective_gradient_numerically():
    rng = np.random.default_rng(34)
    obj, _, _, _ = _difference_objective(rng, 3, 2, 2)
    psi = haar_vector(rng, 6)
    f, grad = obj.value_and_grad(psi)
    eps = 1e-6
    for _ in range(6):
        d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        d /= np.linalg.norm(d)
        fd = (obj.value(psi + eps * d) - obj.value(psi - eps * d)) / (2.0 * eps)
        analytic = float(np.vdot(d, grad).real)
        assert abs(fd - analytic) < 1e-5 * max(1.0, abs(analytic))


def test_sign_surrogate_touches_from_below():
    rng = np.random.default_rng(35)
    obj, _, _, _ = _difference_objective(rng, 3, 3, 2)
    psi = haar_vector(rng, 6)
    f, _ = obj.value_and_grad(psi)
    # equality at the expansion point
    assert abs(obj.sign_value(psi) - f) < 1e-10
    # global underestimate elsewhere
    for _ in range(30):
        v = haar_vector(rng, 6)
        assert obj.sign_value(v) <= obj.value(v) + 1e-9


def _hermitian_with_spectrum(rng, spectrum):
    dim = len(spectrum)
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return (q * np.asarray(spectrum)) @ q.conj().T


def _counted_matvec(g):
    calls = []

    def matvec(v):
        calls.append(1)
        return g @ v

    return matvec, calls


def test_lanczos_stops_at_a_converged_top_ritz_pair():
    """A start within 1e-8 of the top eigenvector of a gapped spectrum
    converges the top Ritz pair in a few steps, not LANCZOS_STEPS, and the
    Ritz vector is the dense top eigenvector to 1e-10."""
    rng = np.random.default_rng(61)
    g = _hermitian_with_spectrum(rng, np.concatenate([np.linspace(-1.0, 1.0, 59), [3.0]]))
    top = np.linalg.eigh(g)[1][:, -1]
    start = normalize(top + 1e-8 * haar_vector(rng, top.size))
    matvec, calls = _counted_matvec(g)
    vec = optim._lanczos_top(matvec, start, g @ start)
    # a space grown to LANCZOS_STEPS vectors takes LANCZOS_STEPS - 1 products
    assert len(calls) < optim.LANCZOS_STEPS // 2
    phase = np.vdot(vec, top)
    np.testing.assert_allclose(vec * (phase / abs(phase)), top, atol=1e-10)


@pytest.mark.parametrize("levels", [2, 5, 9])
def test_lanczos_takes_its_first_product_from_the_caller(levels):
    """With G·start given, the matvec runs once per Krylov vector after the
    first: a spectrum of `levels` distinct values gives a Krylov space of that
    dimension from a generic start, whose top Ritz vector is start's
    normalized component in the top eigenspace."""
    rng = np.random.default_rng(62)
    spectrum = np.repeat(np.arange(levels, dtype=float), 4)
    g = _hermitian_with_spectrum(rng, spectrum)
    w, v = np.linalg.eigh(g)
    start = haar_vector(rng, spectrum.size)
    matvec, calls = _counted_matvec(g)
    vec = optim._lanczos_top(matvec, start, g @ start)
    assert len(calls) == levels - 1
    top = v[:, w > levels - 1.5]
    expected = normalize(top @ (top.conj().T @ start))
    phase = np.vdot(vec, expected)
    np.testing.assert_allclose(vec * (phase / abs(phase)), expected, atol=1e-10)


def test_identity_member_equals_choi_bound():
    """The dual bound at I/d with no cap, through the objective and through
    `diamond_upper_bound`, is λmax(Tr_out |C|) from numpy's eigh and a loop
    partial trace."""
    rng = np.random.default_rng(36)
    for d_in, d_out in [(2, 2), (3, 4)]:
        obj, diff, _, _ = _difference_objective(rng, d_in, d_out, 2)
        w, v = np.linalg.eigh(diff.choi)
        margin = loop_partial_trace((v * np.abs(w)) @ v.conj().T, (d_out, d_in), 1)
        want = float(np.linalg.eigvalsh(margin)[-1])
        assert abs(obj.dual_bound(np.eye(d_in) / d_in) - want) < 1e-11
        assert abs(diamond_upper_bound(diff) - want) < 1e-11


def _capped_cases():
    """(objective expanded at a feasible point, cap, budget, dim, value there)."""
    rng = np.random.default_rng(37)
    for d, r in [(3, 2), (4, 1), (4, 2)]:
        assert d * r <= CAP_PROPOSAL_MAX_DIM
        obj, _, _, _ = _difference_objective(rng, d, d, r)
        cap, _, budget = _random_cap(rng, d, r)
        psi = cap(haar_vector(rng, d * r))
        f, _ = obj.value_and_grad(psi)
        yield obj, cap, budget, d * r, f


def test_capped_proposal_is_feasible_and_improving():
    rng = np.random.default_rng(370)
    for obj, cap, budget, dim, f in _capped_cases():
        v = haar_vector(rng, dim)
        np.testing.assert_allclose(obj.surrogate_matrix() @ v, obj.apply_sign(v), atol=1e-12)
        cand, _, mu = _capped_proposal(obj, cap, 0.0)
        assert mu >= 0.0
        assert cand is not None
        assert abs(np.linalg.norm(cand) - 1.0) < 1e-9
        assert cap.energy(cand) <= budget + 1e-9
        # the proposal maximizes the surrogate, so it cannot fall below the
        # expansion point where the surrogate equals the objective
        assert obj.sign_value(cand) >= f - 1e-9


@pytest.mark.parametrize("case", ["random-3x4x2", "pair8"])
def test_surrogate_matrix_follows_each_expansion(case):
    """`surrogate_matrix` keeps the parts of G that depend only on the map;
    after each of several expansions of one objective at distinct points, G
    equals the matrix built column by column from `apply_sign` there. A kept
    part that depended on the expansion point would fail from the second
    point on. The random map has out ≠ in, so a transposed layout fails too;
    the 0.70/0.69 attenuator pair at 8 levels takes the Kraus-route factor."""
    rng = np.random.default_rng(393)
    if case == "pair8":
        diff = HermitianPreservingMap.difference(attenuator(8, 0.70), attenuator(8, 0.69))
        obj = TraceNormObjective(diff.choi, 8, 8, 8, diff.kraus_pair)
    else:
        obj, _, _, _ = _difference_objective(rng, 3, 4, 2)
    dim = obj.in_dim * obj.r_dim
    assert dim <= CAP_PROPOSAL_MAX_DIM
    previous = None
    for _ in range(3):
        obj.value_and_grad(haar_vector(rng, dim))
        g = obj.surrogate_matrix()
        columns = np.column_stack([obj.apply_sign(e) for e in np.eye(dim, dtype=np.complex128)])
        np.testing.assert_allclose(g, columns, rtol=0.0, atol=1e-12)
        if previous is not None:
            assert np.abs(g - previous).max() > 1e-6  # the expansions differ
        previous = g


def test_capped_proposal_eigensolve_count(monkeypatch):
    calls = 0

    def counted(solver):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return solver(*args, **kwargs)

        return wrapper

    cases = list(_capped_cases())
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    for obj, cap, _, _, _ in cases:
        _capped_proposal(obj, cap, 0.0)
    assert calls / len(cases) <= 12


def test_capped_proposals_never_score_below_current_point(monkeypatch):
    """Every capped proposal on the 0.70/0.69 attenuator pair at 8 levels
    reaches the surrogate value of the point it was made at."""
    last = {}
    value_and_grad = TraceNormObjective.value_and_grad
    proposal = optim._capped_proposal
    shortfalls = []

    def recording_value_and_grad(self, psi):
        out = value_and_grad(self, psi)
        last["f"] = out[0]
        return out

    def recording_proposal(objective, cap, mu_hint):
        cand, value, mu = proposal(objective, cap, mu_hint)
        if cand is not None:
            shortfalls.append(last["f"] - objective.sign_value(cand))
        return cand, value, mu

    monkeypatch.setattr(TraceNormObjective, "value_and_grad", recording_value_and_grad)
    monkeypatch.setattr(optim, "_capped_proposal", recording_proposal)
    d = 8
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    problem = EcdProblem(diff, TruncatedOscillator(d, 1.0).hamiltonian, 3.0, r_dim=8)
    estimate_ecd_norm(problem, restarts=1, seed=0, max_iter=15)
    assert shortfalls
    assert max(shortfalls) <= 1e-9, sorted(shortfalls)[-5:]


def _oscillator_dual_cases():
    """(G, cap): a random Hermitian G on n = d·r = 4…16 and the oscillator
    cap H ⊗ I_r with H = TruncatedOscillator(d, 1), the budget strictly
    between the ground and the mean energy."""
    rng = np.random.default_rng(371)
    for d, r in [(4, 1), (2, 2), (5, 1), (3, 2), (8, 1), (4, 2), (3, 3), (2, 5), (6, 2), (4, 4), (16, 1)]:
        h = TruncatedOscillator(d, 1.0).hamiltonian
        for _ in range(6):
            z = rng.standard_normal((d * r, d * r)) + 1j * rng.standard_normal((d * r, d * r))
            budget = h.ground_energy + rng.uniform(0.05, 0.95) * (h.mean_eigenvalue - h.ground_energy)
            yield 0.5 * (z + z.conj().T), EnergyCap(h, r, budget)


def test_energy_dual_returns_a_feasible_vector_within_its_gap(monkeypatch):
    """`_energy_dual`'s x meets the budget without going through the cap, and
    the dual at its multiplier, rechecked with `eigvalsh`, is at most the gap
    tolerance above ⟨x|G|x⟩, which is the value it returns."""
    gap = 1e-10
    projections = []
    call = EnergyCap.__call__

    def recording_call(self, psi):
        projections.append(1)
        return call(self, psi)

    monkeypatch.setattr(EnergyCap, "__call__", recording_call)
    cases = 0
    for g, cap in _oscillator_dual_cases():
        mu, phi, x, value = optim._energy_dual(g, cap, 0.0, gap)
        k = cap.kron_matrix()
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert np.vdot(x, k @ x).real <= cap.budget
        assert cap.energy(x) <= cap.budget
        assert value == float(np.vdot(x, g @ x).real)
        dual = float(np.linalg.eigvalsh(g - mu * k)[-1]) + mu * cap.budget
        assert dual - value <= gap * max(1.0, abs(dual)), (dual, value)
        assert abs(dual - phi) <= 1e-12 * max(1.0, abs(dual))
        cases += 1
    assert cases == 66
    assert not projections


def test_capped_proposal_value_is_the_sign_value():
    """The value `_capped_proposal` returns, read from the G it built, is the
    surrogate value `sign_value` of its vector."""
    for obj, cap, _, _, _ in _capped_cases():
        cand, value, _ = _capped_proposal(obj, cap, 0.0)
        want = obj.sign_value(cand)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (value, want)


@pytest.mark.parametrize("energy", [2.0, 3.0])
def test_capped_proposal_evaluations_along_the_pair_bracket(monkeypatch, energy):
    """Along the bracket of the 0.70/0.69 attenuator pair at 8 levels (r = 8),
    the warm-started dual of a capped proposal takes at most 3 eigensolves of
    G − μK on average."""
    counts = {"points": 0, "proposals": 0}
    point_init = optim._DualPoint.__init__
    proposal = optim._capped_proposal
    inside = []

    def counted_point(self, *args):
        counts["points"] += bool(inside)  # the certificates' duals are not counted
        point_init(self, *args)

    def counted_proposal(*args):
        counts["proposals"] += 1
        inside.append(1)
        try:
            return proposal(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(optim._DualPoint, "__init__", counted_point)
    monkeypatch.setattr(optim, "_capped_proposal", counted_proposal)
    d = 8
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    problem = EcdProblem(diff, TruncatedOscillator(d, 1.0).hamiltonian, energy, r_dim=8)
    estimate_ecd_norm(problem, restarts=1, seed=0, max_iter=15)
    assert counts["proposals"] >= 5
    assert counts["points"] / counts["proposals"] <= 3.0, counts


@pytest.mark.parametrize(
    "diag, multiplier",
    [([0.0, 1.5, 2.0, 2.2], 1.5), ([3.0, 1.0, 0.0, -1.0], 0.0)],
    ids=["kink", "zero-multiplier"],
)
def test_energy_constrained_sup_matches_grid_minimum(diag, multiplier):
    # m commutes with H, so the dual is piecewise linear
    h = Hamiltonian([0.0, 1.0, 2.0, 3.0])
    m = np.diag(diag).astype(np.complex128)
    res = energy_constrained_sup(m, h, 0.5)
    check_energy_sup(m, h, 0.5, res)
    assert abs(res.value - grid_dual_minimum(m, h.matrix, 0.5)) < 1e-9
    assert abs(res.multiplier - multiplier) < 1e-9
    assert abs(res.value - res.attained) < 1e-9


def test_energy_constrained_sup_budget_active():
    # supremum of <H> under <H> <= E is E itself whenever E is attainable
    h = Hamiltonian([0.0, 1.0, 2.0])
    res = energy_constrained_sup(h.matrix, h, 0.7)
    check_energy_sup(h.matrix, h, 0.7, res)
    assert abs(res.value - 0.7) < 1e-6
    assert res.attained <= res.value + 1e-9
    assert res.value - res.attained < 1e-6
    assert res.multiplier >= 0.0


def test_energy_constrained_sup_dominates_primal_samples():
    rng = np.random.default_rng(38)
    d = 4
    ev = np.sort(rng.uniform(0.0, 2.0, size=d))
    ev[0] = 0.0
    h = Hamiltonian(ev)
    budget = 0.6 * ev.mean()
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = 0.5 * (m + m.conj().T)
    res = energy_constrained_sup(m, h, budget)
    check_energy_sup(m, h, budget, res)
    assert res.attained <= res.value + 1e-9
    # the primal certificate is one pure state within the budget
    assert np.linalg.matrix_rank(res.state, tol=1e-12) == 1
    assert float(np.trace(h.matrix @ res.state).real) <= budget + 1e-12
    ground = np.zeros((d, d))
    ground[0, 0] = 1.0
    worst = -np.inf
    for _ in range(10000):
        rho = ginibre_density(rng, d).matrix
        e = float(np.trace(h.matrix @ rho).real)
        if e > budget:
            s = (e - budget) / e
            rho = (1.0 - s) * rho + s * ground
        worst = max(worst, float(np.trace(m @ rho).real))
    assert worst <= res.value + 1e-9


def _near_diagonal_cases():
    """(M, H, budget): a diagonal M plus Hermitian noise of one size, from 0
    to 1e-6, with H the truncated oscillator at 4, 8 and 16 levels and the
    budget between its ground and mean energies. Such an M nearly commutes
    with H, so the dual's curvature can vanish to rounding."""
    for d in (4, 8, 16):
        h = TruncatedOscillator(d, 1.0).hamiltonian
        for noise in (0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            rng = np.random.default_rng([d, round(-np.log10(noise)) if noise else 0])
            for _ in range(4):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                m = np.diag(rng.uniform(-1.0, 1.0, d)) + 0.5 * noise * (z + z.conj().T)
                spread = h.mean_eigenvalue - h.ground_energy
                yield m, h, h.ground_energy + rng.uniform(0.05, 0.95) * spread


def test_energy_constrained_sup_is_exact_on_near_commuting_inputs():
    for m, h, budget in _near_diagonal_cases():
        res = energy_constrained_sup(m, h, budget)
        check_energy_sup(m, h, budget, res)
        # every minimizer of the dual lies in [0, μ_max], from any ground vector x₀ of H
        w, v = np.linalg.eigh(h.matrix)
        x0 = v[:, 0]
        mu_max = (np.linalg.eigvalsh(m)[-1] - np.vdot(x0, m @ x0).real) / (budget - w[0])
        ref = grid_dual_minimum(m, h.matrix, budget, hi=mu_max, points=101, rounds=10)
        assert abs(res.value - ref) <= 1e-9 * max(1.0, abs(ref)), (res.value, ref)
        assert res.value - res.attained <= 1e-9 * max(1.0, abs(res.value))


@pytest.mark.parametrize("d", [8, 16, 24])
def test_energy_constrained_sup_on_the_stinespring_delta(d):
    """Δ = Σ_k (A_k − B_k)†(A_k − B_k) of the 0.70/0.69 attenuator pair, the
    matrix of the aligned Stinespring certificate."""
    ka, kb = attenuator(d, 0.70).kraus, attenuator(d, 0.69).kraus
    delta = sum((a - b).conj().T @ (a - b) for a, b in zip(ka, kb))
    h = TruncatedOscillator(d, 1.0).hamiltonian
    for budget in (1.0, 2.0, 3.0):
        res = energy_constrained_sup(delta, h, budget)
        check_energy_sup(delta, h, budget, res)
        assert res.value - res.attained <= 1e-9 * max(1.0, abs(res.value))


def test_best_in_span_matches_a_scan_of_the_span():
    """G and K diagonal in a common basis and a, b spanning two of its
    vectors: the Bloch vectors of G and K in the span are parallel, and what
    is left of G's after removing K's direction is rounding noise. The
    returned vector is within the budget and beats every feasible vector of
    the span, scanned through its weight p on the second basis vector."""
    rng = np.random.default_rng(39)
    p = np.linspace(0.0, 1.0, 1000001)
    for d in (2, 4, 8):
        for _ in range(10):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u = np.linalg.qr(z)[0]
            g_ev = rng.uniform(-1.0, 1.0, d) + rng.uniform(-5.0, 5.0)
            k_ev = rng.uniform(0.0, 3.0, d)
            i, j = rng.choice(d, 2, replace=False)
            g = (u * g_ev) @ u.conj().T
            k = (u * k_ev) @ u.conj().T
            low, high = sorted((k_ev[i], k_ev[j]))
            budget = low + rng.uniform(0.05, 0.95) * (high - low)
            mix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a, b = (u[:, [i, j]] @ mix).T
            x = _best_in_span(a, b, g, k, budget)
            values = g_ev[i] + p * (g_ev[j] - g_ev[i])
            feasible = k_ev[i] + p * (k_ev[j] - k_ev[i]) <= budget
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            assert np.vdot(x, k @ x).real <= budget + 1e-12
            assert np.vdot(x, g @ x).real >= values[feasible].max() - 1e-12


@pytest.mark.parametrize("kind", ["phase", "noise", "real"])
def test_best_in_span_on_a_degenerate_span(kind):
    """b = e^{iθ}a, or a with 1e-17 of noise (which rounding mostly absorbs),
    or real forms with G = K and b = −a real, where G favors pure energy and
    every point of the circle that meets the budget is optimal: the span is
    one-dimensional, and the basis must still be an orthonormal pair. The
    result is a unit vector; when a is within the budget, so is the result,
    and it scores at least ⟨a|G|a⟩. Real forms give a real result."""
    rng = np.random.default_rng(41)
    feasible_cases = 0
    for d in (2, 4, 8, 16, 64):
        for _ in range(8):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g = 0.5 * (z + z.conj().T)
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            k = (u * rng.uniform(0.0, 3.0, d)) @ u.conj().T
            a = haar_vector(rng, d)
            if kind == "phase":
                b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * a
            elif kind == "real":
                g = k = k.real
                a = normalize(a.real)
                b = -a
            else:
                b = a + 1e-17 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            energy = np.vdot(a, k @ a).real
            budget = energy + rng.uniform(-0.5, 0.5)
            x = _best_in_span(a, b, g, k, budget)
            assert np.all(np.isfinite(x))
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            assert x.dtype == (np.float64 if kind == "real" else np.complex128)
            if energy <= budget:
                feasible_cases += 1
                assert np.vdot(x, k @ x).real <= budget + 1e-12
                assert np.vdot(x, g @ x).real >= np.vdot(a, g @ a).real - 1e-12
    assert feasible_cases >= 10


def test_start_vectors_structure():
    starts = start_vectors(3, 2, restarts=5, seed=0, extra_starts=[np.ones(6)])
    assert len(starts) == 6
    for s in starts:
        assert s.shape == (6,)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    again = start_vectors(3, 2, restarts=5, seed=0, extra_starts=[np.ones(6)])
    for a, b in zip(starts, again):
        np.testing.assert_array_equal(a, b)


def test_multistart_deterministic():
    rng = np.random.default_rng(39)
    obj, _, _, _ = _difference_objective(rng, 3, 3, 2)
    cap, _, _ = _random_cap(rng, 3, 2)
    f1, w1 = multistart_ascend(obj, 3, 2, restarts=4, seed=7, project=cap, max_iter=150)
    f2, w2 = multistart_ascend(obj, 3, 2, restarts=4, seed=7, project=cap, max_iter=150)
    assert f1 == f2
    np.testing.assert_array_equal(w1, w2)


def _ascent_problem(case):
    """(objective, projection, start) of one ascent mode: the 0.70/0.69
    attenuator pair at d = r = 8 capped at E = 1, or uncapped, or at
    d = r = 10 (psi.size > 64) capped at E = 6, above the start's energy,
    where the ascent makes dozens of steps; or a random two-level
    difference under a random cap."""
    if case == "dense-capped-random":
        rng = np.random.default_rng(40)
        objective, _, _, _ = _difference_objective(rng, 2, 2, 1)
        return objective, _random_cap(rng, 2, 1)[0], start_vectors(2, 1, 2, seed=0)[1]
    d, energy = (10, 6.0) if case == "large-capped" else (8, 1.0)
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    cap = None if case == "uncapped" else EnergyCap(TruncatedOscillator(d, 1.0).hamiltonian, d, energy)
    return TraceNormObjective(diff.choi, d, d, d), cap, start_vectors(d, d, 2, seed=0)[1]


# the proposal each ascent mode calls; the large cap takes gradient steps only
PROPOSAL_OF_CASE = {
    "dense-capped": "capped",
    "dense-capped-random": "capped",
    "large-capped": None,
    "uncapped": "lanczos",
}


@pytest.mark.parametrize("case", list(PROPOSAL_OF_CASE))
def test_ascent_takes_one_proposal_kind(monkeypatch, case):
    """A small cap takes only the capped proposal, a cap at psi.size > 64
    only projected gradient steps, and no cap only the Lanczos proposal; the
    objective never decreases along the way."""
    calls = {"capped": 0, "lanczos": 0}
    values = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    value_and_grad = TraceNormObjective.value_and_grad

    def recording_value_and_grad(self, psi):
        out = value_and_grad(self, psi)
        values.append(out[0])
        return out

    monkeypatch.setattr(optim, "_capped_proposal", counted("capped", optim._capped_proposal))
    monkeypatch.setattr(optim, "_lanczos_top", counted("lanczos", optim._lanczos_top))
    monkeypatch.setattr(TraceNormObjective, "value_and_grad", recording_value_and_grad)
    proposal = PROPOSAL_OF_CASE[case]
    objective, cap, start = _ascent_problem(case)
    assert (cap is not None and start.size > CAP_PROPOSAL_MAX_DIM) == (proposal is None)
    f, psi = optim.ascend(objective, start, project=cap, max_iter=100)
    assert [name for name, n in calls.items() if n] == ([proposal] if proposal else [])
    assert len(values) > 2 and values[-1] == f
    assert all(b >= a for a, b in zip(values, values[1:])), values
    if cap is not None:
        assert cap.energy(psi) <= cap.budget


def _full_halving_ascent(objective, start, cap, max_iter):
    """The projected-gradient ascent with every failing search halved down
    to 1e-13, its tangent stopped at 1e-13·max(1, |f|)."""
    psi = cap(normalize(np.asarray(start, dtype=np.complex128)))
    f, grad = objective.value_and_grad(psi)
    alpha = 0.25
    history = [f]
    for _ in range(max_iter):
        tang = grad - np.vdot(psi, grad).real * psi
        if np.linalg.norm(tang) <= 1e-13 * max(1.0, abs(f)):
            break
        while alpha >= 1e-13:
            cand = cap(normalize(psi + alpha * tang))
            if objective.sign_value(cand) > f:
                break
            alpha *= 0.5
        else:
            break
        alpha = min(alpha * 1.3, 32.0)
        psi = cand
        f, grad = objective.value_and_grad(psi)
        history.append(f)
        if len(history) > 20 and f - history[-21] <= 1e-8 * max(1.0, abs(f)):
            break
    return f


@pytest.mark.parametrize("energy", [1.0, 6.0])
@pytest.mark.parametrize("which", [0, 1])
def test_projected_ascent_matches_the_full_halving_search(monkeypatch, energy, which):
    """Ending a failing search once its shortfalls halve leaves the projected
    ascent's value on the pair at 10 levels within 1e-12 relative of the
    search that halves down to its floor; the failing search of the capped
    start 0 at E = 1 takes a few `sign_value` calls, not dozens."""
    d = 10
    diff = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    cap = EnergyCap(TruncatedOscillator(d, 1.0).hamiltonian, d, energy)
    start = start_vectors(d, d, 2, seed=0)[which]
    assert start.size > CAP_PROPOSAL_MAX_DIM
    objective = TraceNormObjective(diff.choi, d, d, d, diff.kraus_pair)
    expected = _full_halving_ascent(objective, start, cap, 100)
    f, _ = optim.ascend(objective, start, project=cap, max_iter=100)
    assert abs(f - expected) <= 1e-12 * abs(expected), (f, expected)
    if (energy, which) == (1.0, 0):
        calls = []
        sign_value = TraceNormObjective.sign_value

        def counted(self, psi):
            calls.append(None)
            return sign_value(self, psi)

        monkeypatch.setattr(TraceNormObjective, "sign_value", counted)
        optim.ascend(objective, start, project=cap, max_iter=15)
        assert len(calls) <= 4, len(calls)


def test_phase_map_bracket_leaves_the_zero_start():
    """Start 0 (e₀ at r_dim = 1) is a zero of the phase-rotation-vs-identity
    objective; the second start still gives a positive lower value."""
    d = 16
    diff = HermitianPreservingMap.difference(phase_rotation(d, 0.5), identity_channel(d))
    problem = EcdProblem(diff, TruncatedOscillator(d, 1.0).hamiltonian, 2.0, r_dim=1)
    objective = TraceNormObjective(diff.choi, d, d, 1)
    assert objective.value(start_vectors(d, 1, 1, seed=0)[0]) < 1e-12
    est = estimate_ecd_norm(problem, restarts=2, seed=0, max_iter=30)
    assert 0.0 < est.lower <= est.upper


def _attenuator_pair(d, phase=1.0):
    """The 0.70/0.69 attenuator pair, each Kraus operator times phase."""
    a, b = (Channel([phase * k for k in attenuator(d, eta).kraus]) for eta in (0.70, 0.69))
    return HermitianPreservingMap.difference(a, b)


def test_real_data_stays_real():
    """A real Kraus pair, a real H and a real start keep the engine in
    float64: the factor, the gradient, the Lanczos proposal and the cap at
    psi.size 100, and the capped proposal at psi.size 16, from start 0 of
    the attenuator pair under an oscillator cap at E = 2."""
    for d in (10, 4):
        pair = _attenuator_pair(d)
        obj = TraceNormObjective(pair.choi, d, d, d, pair.kraus_pair)
        cap = EnergyCap(TruncatedOscillator(d, 1.0).hamiltonian, d, 2.0)
        psi = cap(start_vectors(d, d, 1, 0)[0])
        _, grad = obj.value_and_grad(psi)
        if d == 10:
            top = optim._lanczos_top(obj.apply_sign, psi, 0.5 * grad)
            arrays = [obj._f, grad, top, psi]
        else:
            arrays = [_capped_proposal(obj, cap, 0.0)[0]]
        assert psi.size == d * d
        assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


def test_a_global_phase_changes_nothing():
    """e^{iθ} on every Kraus operator leaves the Choi matrix as it is but
    makes the data complex: the objective, its gradient, the dual bound and
    the brackets agree with the real problem's, whose public arrays stay
    complex128."""
    rng = np.random.default_rng(71)
    d = 8
    real, phased = (_attenuator_pair(d, p) for p in (1.0, np.exp(0.7j)))
    objs = [TraceNormObjective(m.choi, d, d, d, m.kraus_pair) for m in (real, phased)]
    assert [o._f.dtype for o in objs] == [np.float64, np.complex128]
    for psi in (start_vectors(d, d, 1, 0)[0], haar_vector(rng, d * d)):
        (f0, g0), (f1, g1) = (o.value_and_grad(psi) for o in objs)
        assert abs(f1 - f0) <= 1e-12 * f0
        assert np.linalg.norm(g1 - g0) <= 1e-12 * np.linalg.norm(g0)
    # at the complex start, the real factor meets complex iterates
    s0, s1 = (o.surrogate_matrix() for o in objs)
    assert np.linalg.norm(s1 - s0) <= 1e-12 * np.linalg.norm(s0)
    v0, v1 = (o.sign_value(psi) for o in objs)
    assert abs(v1 - v0) <= 1e-12 * abs(v0)
    h = TruncatedOscillator(d, 1.0).hamiltonian
    for rho in (np.eye(d) / d, ginibre_density(rng, d).matrix):
        for cap in (None, EnergyCap(h, 1, 2.0)):
            b0, b1 = (o.dual_bound(rho, cap) for o in objs)
            assert abs(b1 - b0) <= 1e-12 * b0
    small = [_attenuator_pair(6, p) for p in (1.0, np.exp(0.7j))]
    brackets = [
        [estimate_ecd_norm(EcdProblem(m, h, 2.0), restarts=3) for m in (real, phased)],
        [estimate_diamond_norm(m, restarts=3) for m in small],
    ]
    for est0, est1 in brackets:
        assert est0.witness.dtype == np.complex128
        assert abs(est1.lower - est0.lower) <= 1e-9 * est0.lower
        assert abs(est1.upper - est0.upper) <= 1e-9 * est0.upper
    delta = sum((a - b).conj().T @ (a - b) for a, b in zip(*real.kraus_pair))
    assert energy_constrained_sup(delta, h, 2.0).state.dtype == np.complex128


def _held_arrays(x):
    """The arrays in x, a value held by an object: an array or a tuple of them."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _held_arrays(item)


def test_real_data_keeps_one_copy():
    """Complex iterates on the real attenuator pair (psi.size 16) meet the
    real arrays themselves: after the gradient, the sign matrix, the
    surrogate, a dual bound at a complex ρ and the projection of complex
    blocks, neither the objective nor a cap holds a complex array, apart from
    the linearization at the complex start."""
    rng = np.random.default_rng(73)
    d = 4
    pair = _attenuator_pair(d)
    h = TruncatedOscillator(d, 1.0).hamiltonian
    obj = TraceNormObjective(pair.choi, d, d, d, pair.kraus_pair)
    cap, dual_cap = EnergyCap(h, d, 1.0), EnergyCap(h, 1, 2.0)
    psi = haar_vector(rng, d * d)
    obj.value_and_grad(psi)
    obj.apply_sign(psi)
    obj.surrogate_matrix()
    obj.dual_bound(ginibre_density(rng, d).matrix, dual_cap)
    blocks = np.array([haar_vector(rng, d * d).reshape(d, d) for _ in range(2)])
    assert not np.array_equal(cap.project(blocks, np.array([0.5, 0.5])), blocks)
    held = [(name, list(_held_arrays(v))) for o in (obj, cap, dual_cap) for name, v in vars(o).items()]
    assert {"_f", "_f_adj", "_adj_id", "_g_choi", "_h", "_h_kron"} <= {name for name, arrays in held if arrays}
    assert {name for name, arrays in held if any(map(np.iscomplexobj, arrays))} == {"_neg", "_neg_h"}

"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library's computational paths: partial
traces are index loops, trace norms go through numpy's SVD, channel
applications through explicit Kraus sums, and the norm-estimation oracle is
plain random search plus hill climbing on the feasible set.
"""

import numpy as np

from ecdnorm import Channel, DensityOperator
from ecdnorm.optim import DUAL_FLOOR


def haar_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def ginibre_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = z @ z.conj().T
    return DensityOperator(m / float(np.trace(m).real))


def random_channel(rng, d_in, d_out, n_kraus):
    """Channel whose stacked Kraus blocks form a Haar-ish isometry."""
    z = rng.standard_normal((n_kraus * d_out, d_in)) + 1j * rng.standard_normal(
        (n_kraus * d_out, d_in)
    )
    q, _ = np.linalg.qr(z)
    return Channel([q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)])


def loop_partial_trace(m, dims, keep):
    """Partial trace by explicit index summation."""
    d1, d2 = dims
    m = np.asarray(m, dtype=np.complex128)
    if keep == 0:
        out = np.zeros((d1, d1), dtype=np.complex128)
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    out[i, j] += m[i * d2 + k, j * d2 + k]
    else:
        out = np.zeros((d2, d2), dtype=np.complex128)
        for i in range(d2):
            for j in range(d2):
                for k in range(d1):
                    out[i, j] += m[k * d2 + i, k * d2 + j]
    return out


def svd_trace_norm(m):
    return float(np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False).sum())


def kraus_apply(kraus, rho):
    out = None
    for k in kraus:
        term = k @ rho @ k.conj().T
        out = term if out is None else out + term
    return out


def apply_via_choi(choi, d_in, d_out, rho):
    """Channel application as Tr_ref[(I ⊗ ρᵀ) C] with a loop partial trace."""
    big = np.kron(np.eye(d_out), np.asarray(rho).T) @ choi
    return loop_partial_trace(big, (d_out, d_in), keep=0)


def batch_difference_norms(ka, kb, mats):
    """Trace norms of (Θ ⊗ id) on pure inputs, via the Kraus operators.

    mats has shape (batch, d_in, r); the return value is the batch of trace
    norms of the channel-difference outputs.
    """
    batch, _, r = mats.shape
    do = ka[0].shape[0]
    x = np.zeros((batch, do * r, do * r), dtype=np.complex128)
    for kraus, s in ((ka, 1.0), (kb, -1.0)):
        for k in kraus:
            v = (k @ mats).reshape(batch, do * r)
            x += s * np.einsum("bi,bj->bij", v, v.conj())
    return np.abs(np.linalg.eigvalsh(x)).sum(axis=1)


def kraus_sign_surrogate(ka, kb, psi, r_dim):
    """(value, G) of the trace-norm objective linearized at ψ, via Kraus operators.

    X(ψ) = Σ_φ vec(KM) vec(KM)† − Σ_ψ vec(KM) vec(KM)† for the coefficient
    matrix M (input × reference, row-major), whose row-major vec(KM) is
    (K ⊗ I_R) vec(M). S is the sign of X from `eigh`, with eigenvalues above
    −1e-9·max|w| counted as +, and G = Σ_φ (K⊗I)†S(K⊗I) − Σ_ψ (K⊗I)†S(K⊗I),
    so ⟨ψ|G|ψ⟩ = Tr[S X(ψ)]. The value is Σ|w|.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    lifted = [(np.kron(k, np.eye(r_dim)), s) for kraus, s in ((ka, 1.0), (kb, -1.0)) for k in kraus]
    x = sum(s * np.outer(k @ psi, (k @ psi).conj()) for k, s in lifted)
    w, v = np.linalg.eigh(x)
    signs = np.where(w >= -1e-9 * np.abs(w).max(initial=0.0), 1.0, -1.0)
    sign = (v * signs) @ v.conj().T
    g = sum(s * (k.conj().T @ sign @ k) for k, s in lifted)
    return float(np.abs(w).sum()), g


def _batch_energies(h_ev, mats):
    return np.einsum("bir,i,bir->b", mats.conj(), h_ev, mats).real


def push_to_budget(h_ev, mats, energy):
    """Mix coefficient matrices over budget toward a ground-level direction."""
    e = _batch_energies(h_ev, mats)
    bad = e > energy
    if not np.any(bad):
        return mats
    m = mats[bad]
    u = m[:, 0, :].copy()
    nu = np.linalg.norm(u, axis=1)
    u[nu < 1e-12, 0] = 1.0
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ground = np.zeros_like(m)
    ground[:, 0, :] = u
    lo = np.zeros(m.shape[0])
    hi = np.ones(m.shape[0])
    for _ in range(60):
        s = 0.5 * (lo + hi)
        c = (1.0 - s)[:, None, None] * m + s[:, None, None] * ground
        c /= np.linalg.norm(c.reshape(c.shape[0], -1), axis=1)[:, None, None]
        e = _batch_energies(h_ev, c)
        over = e > energy
        lo = np.where(over, s, lo)
        hi = np.where(over, hi, s)
    c = (1.0 - hi)[:, None, None] * m + hi[:, None, None] * ground
    c /= np.linalg.norm(c.reshape(c.shape[0], -1), axis=1)[:, None, None]
    out = mats.copy()
    out[bad] = c
    return out


def ecd_bruteforce(ka, kb, h_ev, energy, r_dim, seed, samples=100000, top=10, rounds=300):
    """Random-search value of the energy-constrained norm of a channel pair.

    Draws `samples` feasible unit vectors (half of them tilted toward low
    energy rows, the rest raw Gaussians, all pushed onto the budget when
    over it), then hill-climbs from the `top` best by batched random
    perturbation with step halving. Requires a diagonal nondecreasing
    Hamiltonian with ground energy below the budget.
    """
    rng = np.random.default_rng(seed)
    h_ev = np.asarray(h_ev, dtype=np.float64)
    d = ka[0].shape[1]
    chunk = 20000
    kept_v = []
    kept_m = []
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        m = rng.standard_normal((n, d, r_dim)) + 1j * rng.standard_normal((n, d, r_dim))
        half = n // 2
        beta = rng.uniform(0.0, 3.0, size=(half, 1, 1))
        m[:half] *= np.exp(-beta * (h_ev / max(h_ev[-1], 1e-12)).reshape(1, -1, 1))
        m /= np.linalg.norm(m.reshape(n, -1), axis=1)[:, None, None]
        m = push_to_budget(h_ev, m, energy)
        v = batch_difference_norms(ka, kb, m)
        idx = np.argsort(v)[-top:]
        kept_v.append(v[idx])
        kept_m.append(m[idx])
        done += n
    v = np.concatenate(kept_v)
    m = np.concatenate(kept_m)
    idx = np.argsort(v)[-top:]
    cur_m = m[idx]
    cur_v = v[idx]
    step = np.full(top, 0.3)
    props = 24
    for _ in range(rounds):
        if np.all(step < 1e-6):
            break
        pert = rng.standard_normal((top, props, d, r_dim)) + 1j * rng.standard_normal(
            (top, props, d, r_dim)
        )
        cand = (cur_m[:, None] + step[:, None, None, None] * pert).reshape(-1, d, r_dim)
        cand /= np.linalg.norm(cand.reshape(cand.shape[0], -1), axis=1)[:, None, None]
        cand = push_to_budget(h_ev, cand, energy)
        cv = batch_difference_norms(ka, kb, cand).reshape(top, props)
        ci = np.argmax(cv, axis=1)
        best = cv[np.arange(top), ci]
        better = best > cur_v
        cur_m[better] = cand.reshape(top, props, d, r_dim)[np.arange(top), ci][better]
        cur_v[better] = best[better]
        step = np.where(better, np.minimum(step * 1.5, 0.5), step * 0.5)
    return float(cur_v.max())


def check_energy_sup(m, h, budget, res):
    """Recheck an `energy_constrained_sup` result without the library's solver.

    value is a certified upper bound: the dual function at the returned
    multiplier, λmax(M − μH) + μ·budget from `eigvalsh`, does not exceed it
    beyond 1e-12 relative. The state is a pure state within the budget whose
    objective Tr[Mρ] is `attained`.
    """
    m = np.asarray(m, dtype=np.complex128)
    m = 0.5 * (m + m.conj().T)
    hm = np.asarray(h.matrix)
    scale = max(1.0, abs(res.value))
    mu = res.multiplier
    assert mu >= 0.0
    dual = float(np.linalg.eigvalsh(m - mu * hm)[-1]) + mu * budget
    assert dual <= res.value + 1e-12 * scale, (dual, res.value)
    rho = np.asarray(res.state)
    assert float(np.max(np.abs(rho - rho.conj().T))) <= 1e-12
    w = np.linalg.eigvalsh(rho)
    assert abs(w[-1] - 1.0) <= 1e-12 and float(np.max(np.abs(w[:-1]), initial=0.0)) <= 1e-12
    assert float(np.trace(hm @ rho).real) <= budget + 1e-12
    assert abs(float(np.trace(m @ rho).real) - res.attained) <= 1e-12 * scale


def grid_dual_minimum(m, h, budget, hi=8.0, points=1001, rounds=6):
    """min over μ in [0, hi] of λmax(m − μh) + μ·budget by repeatedly refined
    grids; each round keeps the two grid steps around the grid minimum,
    which hold the minimizer of the convex function."""
    lo = 0.0
    for _ in range(rounds):
        mus = np.linspace(lo, hi, points)
        vals = np.linalg.eigvalsh(m[None] - mus[:, None, None] * h[None])[:, -1] + mus * budget
        i = int(np.argmin(vals))
        step = mus[1] - mus[0]
        lo, hi = max(mus[i] - step, 0.0), mus[i] + step
    return float(vals[i])


def check_dual_bound(the_map, rho, h, budget, value):
    """Recheck a `TraceNormObjective.dual_bound` value without the library's solver.

    Rebuilds the dual point densely: ρ' = (1 − s)ρ + s·I/d with the library's
    floor s, B = √ρ'ᵀ from `eigh`, X = (I⊗B)C(I⊗B), and with an explicit B⁻¹,
    Z = (I⊗B⁻¹)X₊(I⊗B⁻¹). Asserts Z ≥ −1e-10 and Z − C ≥ −1e-10, takes
    G = Tr_out(2Z − C) by a loop partial trace, and its own value: λmax(G)
    when h is None, else the dual of Gᵀ under the budget minimized on a
    refined grid over [0, μ_max]. value must be within 1e-9·max(1, |v|) of
    it, in both directions. Returns the checker's value.
    """
    d_in, d_out = the_map.in_dim, the_map.out_dim
    c = np.asarray(the_map.choi)
    rho = (1.0 - DUAL_FLOOR) * np.asarray(rho) + (DUAL_FLOOR / d_in) * np.eye(d_in)
    p, u = np.linalg.eigh(rho.T)
    lift = np.kron(np.eye(d_out), (u * np.sqrt(p)) @ u.conj().T)
    lift_inv = np.kron(np.eye(d_out), (u / np.sqrt(p)) @ u.conj().T)
    w, v = np.linalg.eigh(lift @ c @ lift)
    z = lift_inv @ ((v * np.maximum(w, 0.0)) @ v.conj().T) @ lift_inv
    assert np.linalg.eigvalsh(z)[0] >= -1e-10
    assert np.linalg.eigvalsh(z - c)[0] >= -1e-10
    g = loop_partial_trace(2.0 * z - c, (d_out, d_in), keep=1)
    g = 0.5 * (g + g.conj().T)
    if h is None:
        want = float(np.linalg.eigvalsh(g)[-1])
    else:
        hm = np.asarray(h.matrix)
        e, basis = np.linalg.eigh(hm)
        x0 = basis[:, 0]
        gt = g.T
        mu_max = (np.linalg.eigvalsh(gt)[-1] - np.vdot(x0, gt @ x0).real) / (budget - e[0])
        want = grid_dual_minimum(gt, hm, budget, hi=max(mu_max, 0.0), points=101, rounds=10)
    assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (value, want)
    return want


def _entropy_rows(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log(p), 0.0)
    return terms.sum(axis=1)


def _boundary_scan(h_ev, energy, lo, hi, step):
    """Max entropy on the segment {p in simplex, p . h = energy}, p0 = x."""
    x = np.arange(lo, hi + step / 2, step)
    y = (energy - h_ev[2] - x * (h_ev[0] - h_ev[2])) / (h_ev[1] - h_ev[2])
    z = 1.0 - x - y
    ok = (x >= -1e-15) & (y >= -1e-15) & (z >= -1e-15)
    if not np.any(ok):
        return None
    p = np.clip(np.stack([x[ok], y[ok], z[ok]], axis=1), 0.0, None)
    s = _entropy_rows(p)
    i = int(np.argmax(s))
    return float(s[i]), float(p[i, 0])


def simplex_max_entropy(h_ev, energy):
    """Entropy maximum over 3-level diagonal states under the energy budget.

    Dephasing in the energy eigenbasis preserves the mean energy and can only
    raise the entropy, so diagonal states carry the supremum. The entropy is
    strictly concave with its unconstrained simplex maximum at the uniform
    point, so either the uniform point is feasible or the budget binds; the
    binding case is a dense scan of the constraint segment, refined once
    around the argmax. Needs three distinct levels.
    """
    h_ev = np.asarray(h_ev, dtype=np.float64)
    assert h_ev.size == 3 and len(set(h_ev.tolist())) == 3
    if h_ev.mean() <= energy + 1e-15:
        return float(np.log(3.0))
    coarse = _boundary_scan(h_ev, energy, 0.0, 1.0, 5e-7)
    if coarse is None:
        return 0.0
    best, bx = coarse
    fine = _boundary_scan(h_ev, energy, max(bx - 1e-6, 0.0), min(bx + 1e-6, 1.0), 1e-9)
    if fine is not None:
        best = max(best, fine[0])
    return best

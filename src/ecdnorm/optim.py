"""Shared numerical machinery.

Monotone ascent on the unit sphere with one proposal kind per problem (the
capped proposal under a small energy cap, a projected gradient step under a
larger cap, the Lanczos Ritz vector with no cap), stopped by the first
proposal that does not improve; deterministic multi-starts; a golden-section
search; and one solver for maximizing a linear functional over
energy-bounded states: the one-dimensional dual min_{μ≥0} λmax(G − μK) + μE,
minimized by safeguarded Newton steps on Danskin's derivative E − ⟨v|K|v⟩
inside the closed-form bracket [0, μ_max], which returns the maximizing
state as well; the capped proposal, the dual certificates of
`TraceNormObjective.dual_bound` and `energy_constrained_sup` all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .operators import Hamiltonian, InfeasibleProblemError

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
MAX_ITER = 2000
GOLDEN_MAX_ITER = 200
DUAL_FLOOR = 1e-4  # weight of I/d mixed into the input state of a dual bound
STALL_WINDOW = 20
STALL_REL_TOL = 1e-8


def normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def check_energy_budget(hamiltonian: Hamiltonian, budget: float) -> None:
    """Reject a non-finite budget (ValueError) or one at or below the ground
    energy (InfeasibleProblemError)."""
    if not np.isfinite(budget):
        raise ValueError(f"energy budget must be a finite number, got {budget}")
    if budget <= hamiltonian.ground_energy:
        raise InfeasibleProblemError(
            f"energy budget {budget} must exceed the ground energy "
            f"{hamiltonian.ground_energy}"
        )


def golden_section_min(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [a, b].

    Returns the best evaluated point, which is at least as good as both
    endpoints. tol is the absolute interval width at which to stop, after
    GOLDEN_MAX_ITER steps at most.
    """
    xs = [a, b]
    fs = [f(a), f(b)]
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    xs += [c, d]
    fs += [fc, fd]
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
            xs.append(c)
            fs.append(fc)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
            xs.append(d)
            fs.append(fd)
    i = int(np.argmin(fs))
    return xs[i], fs[i]


class EnergyCap:
    """Projection onto {ψ on A⊗R : <ψ|(H ⊗ I)|ψ> <= budget, |ψ| = 1}.

    `project` caps the weighted mean energy Σ_k w_k e(m_k) of unit blocks m_k
    (K × input × reference) at the budget E; `__call__` is its K = 1 case. An
    infeasible batch is mixed toward the lowest-energy product directions
    g_k = τ₀ ⊗ r̂_k, with r̂_k the normalized reference profile τ₀†m_k (e₀ when
    it vanishes). With a_k = e(m_k), s_k = a_k − E₀ and c_k = Re⟨m_k|g_k⟩
    (τ₀ is a ground state of energy E₀), the normalized mix m_k + t_k·g_k has
    energy E₀ + s_k / (1 + 2t_k·c_k + t_k²). Each block takes the t_k that
    solves t_k² + 2t_k·c_k = q, t_k = q / (c_k + √(c_k² + q)), so every block
    keeps the same fraction 1/(1 + q) of its energy above E₀. With
    q = Σ_k w_k s_k / (E − slack − E₀) − 1 the weighted mean lands on
    E − slack without iteration; the slack, ½·1e-12·max(1, E) (at most half
    of E − E₀), is more than rounding can add, so an infeasible input lands
    in [E − 1e-12·max(1, E), E]. The ground directions are the fallback
    should the mix still read above E.
    """

    def __init__(self, hamiltonian: Hamiltonian, r_dim: int, budget: float):
        check_energy_budget(hamiltonian, budget)
        self._h = hamiltonian.matrix
        self._tau0 = hamiltonian.eigenbasis[:, 0]
        self._e0 = float(hamiltonian.ground_energy)
        self._e_top = float(hamiltonian.max_energy)
        self._ground = np.kron(self._tau0, np.eye(int(r_dim))[0])  # τ₀ ⊗ e₀
        self._dim = hamiltonian.dimension
        self._r_dim = int(r_dim)
        self._h_kron = None
        self.budget = float(budget)

    def kron_matrix(self) -> np.ndarray:
        """Dense H ⊗ I_R, built lazily for the capped surrogate maximization."""
        if self._h_kron is None:
            self._h_kron = np.kron(self._h, np.eye(self._r_dim))
        return self._h_kron

    def _energies(self, blocks: np.ndarray) -> np.ndarray:
        return np.einsum("kir,ij,kjr->k", blocks.conj(), self._h, blocks).real

    def energy(self, psi: np.ndarray) -> float:
        return float(self._energies(psi.reshape(1, self._dim, self._r_dim))[0])

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        blocks = psi.reshape(1, self._dim, self._r_dim)
        return self.project(blocks, np.ones(1)).reshape(psi.shape)

    def project(self, blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Blocks (K, d, r) whose w-weighted mean energy is at most the budget."""
        a = self._energies(blocks)
        if weights @ a <= self.budget:
            return blocks
        profiles = self._tau0.conj() @ blocks
        rn = np.linalg.norm(profiles, axis=1, keepdims=True)
        dead = rn < 1e-12
        rhat = np.where(dead, np.eye(self._r_dim)[0], profiles / np.maximum(rn, 1e-12))
        c = np.where(dead[:, 0], profiles[:, 0].real, rn[:, 0])
        ground = self._tau0[None, :, None] * rhat[:, None, :]
        slack = min(0.5e-12 * max(1.0, self.budget), 0.5 * (self.budget - self._e0))
        q = weights @ (a - self._e0) / (self.budget - slack - self._e0) - 1.0
        mixed = blocks + (q / (c + np.sqrt(c * c + q)))[:, None, None] * ground
        mixed /= np.linalg.norm(mixed, axis=(1, 2), keepdims=True)
        if weights @ self._energies(mixed) <= self.budget:
            return mixed
        return ground


class TraceNormObjective:
    """ψ -> ||(Θ ⊗ id_R)(|ψ⟩⟨ψ|)||_1 evaluated through the Choi matrix.

    For ψ with coefficient matrix M (input × reference, row-major) the output
    equals (I ⊗ Mᵀ) C (I ⊗ M̄), a congruence with the Choi matrix C of Θ.
    With C = F diag(σ) F†, the output is X(ψ) = Y diag(σ) Y† with Y = (I ⊗ Mᵀ)F,
    of rank at most the Choi rank; its spectrum comes from the small
    R diag(σ) R† of a thin QR factorization Y = QR. F comes from a channel
    difference's Kraus pair if given (`_kraus_eigh`), else from `eigh` of C.

    `value_and_grad` keeps the sign matrix S of the last output, which makes
    the linearization ψ' -> Tr[S X(ψ')] available through `sign_value` and
    `apply_sign`. That linearization never exceeds the true objective (S has
    operator norm one), so improvements certified with it hold for the
    objective as well, without paying for an eigendecomposition per trial
    point. S = I − 2PP† is kept as the isometry P onto the eigenvectors of X
    with negative eigenvalues, and its identity part goes through the adjoint
    of the map at I; S itself is never formed.
    """

    def __init__(self, choi: np.ndarray, in_dim: int, out_dim: int, r_dim: int, kraus_pair=None):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.r_dim = int(r_dim)
        self._c4 = np.ascontiguousarray(choi.reshape(out_dim, in_dim, out_dim, in_dim))
        if kraus_pair is not None:
            w, v, scale = _kraus_eigh(kraus_pair)
        else:
            w, v = np.linalg.eigh(choi)
            scale = float(np.abs(w).max(initial=0.0))
        keep = np.abs(w) > 1e-14 * max(scale, 1e-300)
        self._rank = int(keep.sum())
        self._w = w[keep]
        self._sigma = np.where(self._w >= 0.0, 1.0, -1.0)
        # the trace norm of the spectrum F leaves out, for `dual_bound`
        self._dropped = float(np.abs(w[~keep]).sum())
        # C ≈ F diag(σ) F† with F = V √|w| over the kept eigenpairs, tall-skinny
        self._f3 = np.ascontiguousarray(
            (v[:, keep] * np.sqrt(np.abs(self._w))).reshape(out_dim, in_dim, self._rank)
        )
        # F† per output level, (out, rank, in), for pulling actions back to inputs
        self._f3_adj = np.ascontiguousarray(self._f3.conj().transpose(0, 2, 1))
        # adjoint applied to the identity, for the identity part of sign matrices
        self._adj_id = np.ascontiguousarray(np.einsum("aiaj->ij", self._c4).T)
        self._neg = self._neg_h = None

    def _factor(self, psi: np.ndarray) -> np.ndarray:
        """Y with X(psi) = Y diag(sigma) Y†, shape (out*r, rank)."""
        m = psi.reshape(self.in_dim, self.r_dim)
        y = np.matmul(m.T, self._f3)  # ri,aic -> arc
        return y.reshape(self.out_dim * self.r_dim, self._rank)

    def value(self, psi: np.ndarray) -> float:
        r = np.linalg.qr(self._factor(psi), mode="r")
        small = (r * self._sigma) @ r.conj().T
        return float(np.abs(np.linalg.eigvalsh(small)).sum())

    def value_and_grad(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        y = self._factor(psi)
        q, r = np.linalg.qr(y)
        w, v = np.linalg.eigh((r * self._sigma) @ r.conj().T)
        value = float(np.abs(w).sum())
        # near-zero eigenvalues count as +; snapping them stops the sign
        # matrix from jittering between iterations. X = Q V diag(w) V† Q†,
        # so S = I − 2PP† with P = Q V restricted to the negative w.
        self._neg = q @ v[:, w < -1e-9 * np.abs(w).max(initial=0.0)]
        self._neg_h = np.ascontiguousarray(self._neg.conj().T)
        return value, 2.0 * self._apply_sign(psi, y)

    def _apply_sign(self, psi: np.ndarray, y: np.ndarray) -> np.ndarray:
        """apply_sign(psi), given Y = _factor(psi)."""
        # (S − I) Y diag(σ) = −2 P (P† Y) diag(σ), pulled back through F†
        z = self._neg @ ((self._neg_h @ y) * (-2.0 * self._sigma))
        z = z.reshape(self.out_dim, self.r_dim, self._rank)
        grad = np.matmul(z, self._f3_adj).sum(axis=0).T  # ark,aki -> ri
        return (grad + self._adj_id @ psi.reshape(self.in_dim, self.r_dim)).reshape(-1)

    def apply_sign(self, psi: np.ndarray) -> np.ndarray:
        """Gψ for the linearization ⟨ψ|G|ψ⟩ = Tr[S X(ψ)] at the last expansion point.

        Y = _factor(ψ), then −2P(P†Y)·σ, one contraction back through F†,
        plus the adjoint at I applied to M.
        """
        return self._apply_sign(psi, self._factor(psi))

    def surrogate_matrix(self) -> np.ndarray:
        """Dense Hermitian G with ⟨ψ|G|ψ⟩ = sign_value(ψ), Gψ = apply_sign(ψ).

        S − I = −2PP† is built from the factor (the capped proposal calls
        this only at psi.size <= 64) and contracted once with the Choi
        tensor; the identity part enters as the adjoint at I ⊗ I_R.
        """
        dim = self.in_dim * self.r_dim
        s4 = (-2.0 * self._neg @ self._neg_h).reshape(
            self.out_dim, self.r_dim, self.out_dim, self.r_dim
        )
        g = np.tensordot(s4, self._c4, axes=([0, 2], [2, 0]))  # ysxr,xiyj -> srij
        g = g.transpose(3, 0, 2, 1).reshape(dim, dim) + np.kron(self._adj_id, np.eye(self.r_dim))
        return 0.5 * (g + g.conj().T)

    def sign_value(self, psi: np.ndarray) -> float:
        return float(np.vdot(psi, self.apply_sign(psi)).real)

    def dual_bound(self, rho: np.ndarray, cap: EnergyCap | None = None) -> float:
        """Certified bound on the norm from the dual point of the input state rho.

        With ρ' = (1 − s)ρ + s·I/d (s = DUAL_FLOOR), B = √ρ'ᵀ and (I⊗B)F = QR,
        M = R⁻¹|RσR†|R⁻† gives Z = F(M + σ)F†/2 ≥ 0 with Z − C ≥ 0, so by weak
        duality the norm (any r_dim) is at most the sup of Tr[Gᵀρ] over input
        states, G = Tr_out(2Z − C) = Tr_out(FMF†): λmax(G) with no cap, else the
        energy dual of Gᵀ under cap (r_dim 1), which any μ ≥ 0 certifies.
        Rounding is repaired: the least eigenvalue of S(M ± σ)S, S = diag(√|w|),
        is that of 2Z or 2(Z − C), and a negative one adds out·|λmin|; the
        eigenvalues F drops add their trace norm. At I/d it is the Choi bound.
        """
        d = self.in_dim
        rho = (1.0 - DUAL_FLOOR) * np.asarray(rho) + (DUAL_FLOOR / d) * np.eye(d)
        p, u = np.linalg.eigh(rho.T)
        b = (u * np.sqrt(np.maximum(p, 0.0))) @ u.conj().T
        r = np.linalg.qr(np.matmul(b, self._f3).reshape(self.out_dim * d, self._rank), mode="r")
        lam, vec = np.linalg.eigh((r * self._sigma) @ r.conj().T)
        a = np.abs(lam)
        wm = np.linalg.solve(r, vec)  # W = R⁻¹U: M = W|λ|W† and FMF† = (FW)|λ|(FW)†
        fw = np.matmul(self._f3, wm)
        g = np.tensordot(fw * a, fw.conj(), axes=([0, 2], [0, 2]))
        sw = np.sqrt(np.abs(self._w))[:, None] * wm
        core = (sw * a) @ sw.conj().T  # SMS
        least = min(
            np.linalg.eigvalsh(core + np.diag(t * self._w)).min(initial=0.0) for t in (1, -1)
        )
        value = np.linalg.eigvalsh(g)[-1] if cap is None else _energy_dual(g.T, cap, 0.0, 1e-12)[1]
        return float(value) - self.out_dim * float(least) + self._dropped


def _kraus_eigh(kraus_pair):
    """(Λ, QU, ‖R‖₂²) with C = (QU) Λ (QU)†: the Kraus vectors (A_k, then B_k)
    stacked as columns are QR (thin), and R J R† = U Λ U†, J = diag(+1…, −1…);
    O(n·k²) for n rows and k operators. Rounding in Λ scales with ‖R‖₂², so
    the rank is cut against it and a zero difference keeps none."""
    ka, kb = kraus_pair
    a = np.stack([k.reshape(-1) for k in (*ka, *kb)], axis=1)
    q, r = np.linalg.qr(a)
    j = np.repeat([1.0, -1.0], [len(ka), len(kb)])
    w, u = np.linalg.eigh((r * j) @ r.conj().T)
    return w, q @ u, float(np.linalg.norm(r, 2)) ** 2


LANCZOS_STEPS = 24


def _lanczos_top(matvec, start: np.ndarray) -> np.ndarray | None:
    """Top Ritz vector of a Hermitian operator given by matvec: the uncapped
    ascent's proposal.

    The Krylov space, of at most LANCZOS_STEPS vectors, is grown from `start`
    with full reorthogonalization (fine at the dimensions used here), so it
    contains `start` and the Ritz value is at least start's Rayleigh
    quotient. Returns None when the space degenerates immediately (start
    already invariant).
    """
    dim = start.size
    iters = min(LANCZOS_STEPS, dim)
    basis = np.empty((iters, dim), dtype=np.complex128)
    basis[0] = start / np.linalg.norm(start)
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(iters):
        w = matvec(basis[j])
        alphas.append(float(np.vdot(basis[j], w).real))
        k = j + 1
        if k == iters:
            break
        w = w - np.conjugate(basis[:k] @ w.conj()) @ basis[:k]
        w = w - np.conjugate(basis[:k] @ w.conj()) @ basis[:k]
        b = float(np.linalg.norm(w))
        if b <= 1e-13:
            break
        betas.append(b)
        basis[k] = w / b
    if k == 1:
        return None
    # the tridiagonal Lanczos matrix; eigh reads only its lower triangle
    ritz = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))[1][:, -1]
    top = ritz @ basis[:k]
    return top / np.linalg.norm(top)


CAP_PROPOSAL_MAX_DIM = 64
DUAL_MAX_EVALS = 200


class _DualPoint:
    """φ(μ) = λmax(G − μK) + μE with its derivatives, from one eigh."""

    def __init__(self, g: np.ndarray, k: np.ndarray, budget: float, mu: float):
        self.mu = mu
        w, v = np.linalg.eigh(g - mu * k)
        self.top = v[:, -1]
        k_top = k @ self.top
        self.phi = float(w[-1]) + mu * budget
        # Danskin: φ'(μ) = E − ⟨v|K|v⟩, the budget minus the top vector's energy
        self.slope = budget - float(np.vdot(self.top, k_top).real)
        # second-order perturbation: λmax'' = 2 Σ_j |⟨v_j|K|v⟩|² / (λmax − λ_j);
        # meaningless at a (numerically) degenerate top, where φ has a kink
        gaps = w[-1] - w[:-1]
        if gaps.size and gaps[-1] <= 1e-12 * max(1.0, float(np.abs(w).max())):
            self.curv = np.inf
        else:
            coupling = np.abs(v[:, :-1].conj().T @ k_top) ** 2
            self.curv = 2.0 * float(np.sum(coupling / gaps))

    def newton(self) -> float:
        """Newton step length |φ'/φ''|, infinite where φ'' gives no step."""
        if not 0.0 < self.curv < np.inf:
            return np.inf
        return abs(self.slope) / self.curv


def _energy_dual(g: np.ndarray, cap: EnergyCap, mu_hint: float, rtol: float):
    """Maximize ⟨x|G|x⟩ over unit x with ⟨x|K|x⟩ ≤ E (K = H ⊗ I_R, E the
    cap's) through the convex dual φ(μ) = λmax(G − μK) + μE over μ ≥ 0.

    φ(μ) ≥ ⟨x₀|G|x₀⟩ + μ(E − E₀) for the ground vector x₀ = τ₀ ⊗ e₀ of K, so
    every minimizer lies in [0, μ_max], μ_max = (λmax(G) − ⟨x₀|G|x₀⟩)/(E − E₀),
    with λmax(G) ≤ φ(μ) + μ(λmax(K) − E) read off the first point, the warm
    start mu_hint. One loop keeps [lo, hi] with φ'(lo) < 0 ≤ φ'(hi) (Danskin:
    φ' = E − ⟨v|K|v⟩); a point at μ ≥ μ_max is an upper end whatever its
    rounded slope. A Newton step that stays inside the bracket (0 and μ_max
    stand in for ends not yet evaluated) and is at most half the last is
    taken; otherwise a missing end is evaluated, else the tangents at lo and
    hi are intersected, and a tangent step that fails to halve the bracket
    gives way to bisection. Stops when hi − lo ≤ rtol·max(1, hi), when the
    tangents certify φ to 1e-14 relative (a kink), or at μ = 0 as upper end.

    Returns (μ, φ(μ), x): μ is the evaluated point with the lowest φ; x is
    the best vector within the budget in the span of the top eigenvectors at
    lo and hi (`_best_in_span`), which attains the tangents' lower bound on
    min φ, or with μ = 0 optimal the top eigenvector there (x₀ if that is
    over the budget, which only μ_max = 0 allows); the cap projects x should
    rounding leave it over.
    """
    k = cap.kron_matrix()
    budget = cap.budget
    p = _DualPoint(g, k, budget, max(float(mu_hint), 0.0))
    lam = p.phi + p.mu * (cap._e_top - budget)
    x0 = cap._ground
    mu_max = max(lam - float(np.vdot(x0, g @ x0).real), 0.0) / (budget - cap._e0)
    lo = hi = None
    last = np.inf  # last Newton step length taken
    tangent_width = None  # bracket width before the last tangent step
    for _ in range(DUAL_MAX_EVALS):
        if p.slope >= 0.0 or p.mu >= mu_max:
            hi = p
            if p.mu == 0.0:
                break
        else:
            lo = p
        a = 0.0 if lo is None else lo.mu
        b = mu_max if hi is None else hi.mu
        width = b - a
        tol = 0.0
        if lo is not None and hi is not None:
            tol = rtol * max(1.0, b)
            if width <= tol:
                break
            cut = (hi.phi - lo.phi + lo.slope * a - hi.slope * b) / (lo.slope - hi.slope)
            cut = min(max(cut, a), b)
            floor = lo.phi + lo.slope * (cut - a)
            least = min(lo.phi, hi.phi)
            if least - floor <= 1e-14 * max(1.0, abs(least)):
                break
        newton = p.newton()
        mu = p.mu + newton if p is lo else p.mu - newton
        if a < mu < b and newton <= 0.5 * last:
            last = newton
            tangent_width = None
        elif lo is None:
            mu = 0.0
        elif hi is None:
            mu = mu_max
        elif tangent_width is not None and width > 0.5 * tangent_width:
            mu = 0.5 * (a + b)
            tangent_width = None
        else:
            mu = cut
            tangent_width = width
        mu = min(max(mu, a + 0.5 * tol), b - 0.5 * tol)
        p = _DualPoint(g, k, budget, mu)
    best = min((q for q in (lo, hi) if q is not None), key=lambda q: q.phi)
    if lo is not None:
        x = _best_in_span(lo.top, hi.top, g, k, budget)
    else:
        x = hi.top if hi.slope >= 0.0 else x0
    if cap.energy(x) > budget:
        x = cap(x)
    return best.mu, best.phi, x


def _best_in_span(a: np.ndarray, b: np.ndarray, g: np.ndarray, k: np.ndarray, budget: float):
    """Unit x in span{a, b} maximizing ⟨x|G|x⟩ subject to ⟨x|K|x⟩ ≤ budget.

    On two levels both forms are affine in the Bloch vector n, so this is a
    linear function over a cap of the unit sphere: the free maximizer when it
    is feasible, else the best point on the circle where the budget is met
    exactly (the lowest-energy vector if rounding leaves the cap empty).
    """
    q = np.linalg.qr(np.column_stack([a, b]))[0]

    def bloch(m):
        m2 = q.conj().T @ m @ q
        x = m2[0, 1]
        return 0.5 * float((m2[0, 0] + m2[1, 1]).real), np.array(
            [x.real, -x.imag, 0.5 * float((m2[0, 0] - m2[1, 1]).real)]
        )

    _, gv = bloch(g)
    k0, kv = bloch(k)
    room = budget - k0
    kn = float(np.linalg.norm(kv))
    gn = float(np.linalg.norm(gv))
    n = gv / gn if gn > 0.0 else -kv / max(kn, np.finfo(float).tiny)
    if kv @ n > room and kn > 0.0:
        khat = kv / kn
        perp = gv - (gv @ khat) * khat
        if np.linalg.norm(perp) <= 1e-12 * max(gn, 1e-300):
            # G favors pure energy (what is left of gv is rounding noise):
            # any direction on the circle is optimal
            perp = np.eye(3)[int(np.argmin(np.abs(khat)))]
        # (again) orthogonal to k̂, so that n lands on the circle
        perp = perp - (perp @ khat) * khat
        pn = float(np.linalg.norm(perp))
        cos = min(max(room / kn, -1.0), 1.0)
        n = cos * khat + np.sqrt(max(1.0 - cos * cos, 0.0)) * perp / pn
    if n[2] >= 0.0:
        x0 = np.sqrt(0.5 * (1.0 + n[2]))
        coeffs = np.array([x0, complex(n[0], n[1]) / (2.0 * x0)])
    else:
        x1 = np.sqrt(0.5 * (1.0 - n[2]))
        coeffs = np.array([complex(n[0], -n[1]) / (2.0 * x1), x1])
    return normalize(q @ coeffs)


def _capped_proposal(objective, cap, mu_hint: float):
    """Exact maximizer of the current sign surrogate under the energy cap.

    The surrogate is a Hermitian quadratic form ψ ↦ ⟨ψ|G|ψ⟩, with G built by
    one contraction (`surrogate_matrix`), so its maximum over unit vectors
    with ⟨ψ|(H⊗I)|ψ⟩ ≤ E is the one-dimensional dual
    min_{μ≥0} λmax(G − μH⊗I) + μE, solved by `_energy_dual` from the warm
    start mu_hint, which also returns the feasible maximizer. It attains the
    dual value up to the solver's final gap, so the proposal never scores
    below the current point. Only worth the dense eigensolves at small
    dimension, hence the gate in `ascend`.
    """
    mu, _, best = _energy_dual(objective.surrogate_matrix(), cap, mu_hint, 1e-8)
    return best, mu


def ascend(
    objective,
    start: np.ndarray,
    project: EnergyCap | None = None,
    max_iter: int = MAX_ITER,
) -> tuple[float, np.ndarray]:
    """Monotone ascent on the unit sphere with one proposal kind per problem.

    An `EnergyCap` at psi.size <= CAP_PROPOSAL_MAX_DIM takes `_capped_proposal`
    (the exact maximizer of the linearization under the cap), a larger cap
    takes a projected gradient step whose length halves until it improves,
    and no cap takes the Lanczos Ritz vector of the linearization. Candidates
    are screened once with the linearized value, which lower-bounds the true
    objective, so every accepted step improves and costs one
    eigendecomposition of the output. Stops at the first candidate that does
    not improve (for the gradient step, once its length is below 1e-13), when
    the gain over STALL_WINDOW iterations is below STALL_REL_TOL relative, or
    at max_iter.
    """
    psi = normalize(np.asarray(start, dtype=np.complex128).reshape(-1))
    if project is not None:
        psi = project(psi)
    dense_cap = project is not None and psi.size <= CAP_PROPOSAL_MAX_DIM
    mu_hint = 0.0
    f, grad = objective.value_and_grad(psi)
    alpha = 0.25
    history = [f]
    for _ in range(max_iter):
        if project is not None and not dense_cap:
            tang = grad - np.vdot(psi, grad).real * psi
            if np.linalg.norm(tang) <= 1e-13 * max(1.0, abs(f)):
                break
            while alpha >= 1e-13:
                cand = project(normalize(psi + alpha * tang))
                if objective.sign_value(cand) > f:
                    break
                alpha *= 0.5
            else:
                break
            alpha = min(alpha * 1.3, 32.0)
        else:
            if dense_cap:
                cand, mu_hint = _capped_proposal(objective, project, mu_hint)
            else:
                cand = _lanczos_top(objective.apply_sign, psi)
            if cand is None or objective.sign_value(cand) <= f:
                break
        psi = cand
        f, grad = objective.value_and_grad(psi)
        history.append(f)
        if len(history) > STALL_WINDOW:
            if f - history[-STALL_WINDOW - 1] <= STALL_REL_TOL * max(1.0, abs(f)):
                break
    return f, psi


def start_vectors(
    in_dim: int,
    r_dim: int,
    restarts: int,
    seed: int,
    extra_starts: Iterable[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Deterministic multi-start seeds.

    Start 0 is the balanced entangled vector; the rest are complex Gaussian
    draws from per-restart generators keyed by (seed, restart index), so the
    set does not depend on evaluation order.
    """
    starts: list[np.ndarray] = []
    k = min(in_dim, r_dim)
    m0 = np.zeros((in_dim, r_dim), dtype=np.complex128)
    m0[np.arange(k), np.arange(k)] = 1.0 / np.sqrt(k)
    starts.append(m0.reshape(-1))
    for r in range(1, max(1, restarts)):
        rng = np.random.default_rng([int(seed), r])
        z = rng.standard_normal(in_dim * r_dim) + 1j * rng.standard_normal(in_dim * r_dim)
        starts.append(normalize(z))
    if extra_starts is not None:
        starts.extend(normalize(np.asarray(v, dtype=np.complex128).reshape(-1)) for v in extra_starts)
    return starts


def multistart_ascend(
    objective,
    in_dim: int,
    r_dim: int,
    restarts: int,
    seed: int,
    project: EnergyCap | None = None,
    extra_starts: Iterable[np.ndarray] | None = None,
    max_iter: int = MAX_ITER,
) -> tuple[float, np.ndarray]:
    best_f = -np.inf
    best_psi = None
    for start in start_vectors(in_dim, r_dim, restarts, seed, extra_starts):
        f, psi = ascend(objective, start, project=project, max_iter=max_iter)
        if f > best_f:
            best_f, best_psi = f, psi
    return best_f, best_psi


@dataclass(frozen=True)
class EnergyConstrainedSup:
    """Exact value of max Tr[Mρ] over states with Tr[Hρ] <= budget.

    value comes from the dual min_{μ>=0} λmax(M - μH) + μ·budget, which is
    tight here, solved by `_energy_dual` on its closed-form bracket to a
    width of 1e-12·max(1, μ); multiplier is the minimizing μ, at which the
    dual function rechecks value as an upper bound. state is `_energy_dual`'s
    feasible pure maximizer, a primal certificate; attained is its objective
    value, so value - attained, the duality gap, is about 1e-9·max(1, |value|)
    at most.
    """

    value: float
    state: np.ndarray
    attained: float
    multiplier: float


def energy_constrained_sup(
    m: np.ndarray, hamiltonian: Hamiltonian, budget: float
) -> EnergyConstrainedSup:
    cap = EnergyCap(hamiltonian, 1, budget)
    m = 0.5 * (m + m.conj().T)
    mu, value, top = _energy_dual(m, cap, 0.0, 1e-12)
    state = np.outer(top, top.conj())
    attained = float(np.vdot(top, m @ top).real)
    return EnergyConstrainedSup(value=value, state=state, attained=attained, multiplier=mu)

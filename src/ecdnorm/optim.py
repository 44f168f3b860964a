"""Shared numerical machinery.

Monotone ascent on the unit sphere (the capped proposal under a small energy
cap, the Lanczos Ritz vector with no cap, both extrapolated by SQUAREM, each
trial screened by the exact objective; a larger cap hands over to
`gradient_ascent`, the one backtracking loop, with its step schedule and
stop rules, that the capacity estimator runs too), stopped by the first
Lanczos proposal that does not improve or the first capped one that gains no
more than the duality gap it is solved to; the trace-norm objective, with
the Choi factor F kept as an (in, out·rank) matrix and F† as an (out·rank,
in) one, so that an output's factor and a sign matrix's pull-back are one
GEMM each; deterministic multi-starts; a golden-section search; and one
solver for maximizing a linear functional over energy-bounded states: the
one-dimensional dual min_{μ≥0} λmax(G − μK) + μE, minimized by safeguarded
Newton steps on Danskin's derivative E − ⟨v|K|v⟩ inside the closed-form
bracket [0, μ_max] and stopped on its duality gap, the least dual value less
the value of the feasible state it returns with it; the capped proposal, the
dual certificates of `TraceNormObjective.dual_bound` and
`energy_constrained_sup` all use it. The engine computes in the dtype of its
data: where data enters it, `_exact_real` turns a complex array with an
imaginary part of exactly 0 into its real part, so a real Kraus pair, H and
start run every GEMM, QR and eigh in float64. A complex iterate meets the
same real F, H or K, which numpy promotes to complex128 for that product.
"""

from __future__ import annotations

import math
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
# a gradient this small, times max(1, |f|), is rounding: no step along it gains
VANISHING_GRAD = 1e-14
# a failed trial's shortfall f − f(α) that halves with α, to within this
# relative tolerance, is the linear term α·D of a descent direction (D < 0)
HALVING_TOL = 0.05


def normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def _exact_real(a: np.ndarray) -> np.ndarray:
    """a's real part (contiguous) if a is complex with an imaginary part of exactly 0, else a."""
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _halving(shortfalls) -> bool:
    """The last three shortfalls are positive and each is half the one before (± HALVING_TOL)."""
    s = shortfalls[-3:]
    return len(s) == 3 and min(s) > 0.0 and all(abs(b / a - 0.5) <= HALVING_TOL for a, b in zip(s, s[1:]))


def _stalled(history) -> bool:
    """The last STALL_WINDOW accepted steps gained at most STALL_REL_TOL relative."""
    f = history[-1]
    return len(history) > STALL_WINDOW and f - history[-STALL_WINDOW - 1] <= STALL_REL_TOL * max(1.0, abs(f))


def gradient_ascent(point, gradient, trial, alpha_max: float, max_iter: int):
    """(f, point) at the end of a backtracking ascent from point, where
    gradient(point) gives (f, direction, size) and trial(point, direction, α)
    a (value, candidate) pair. A step halves α (0.25 at first) until a trial
    beats f, moves there and takes min(1.3·α, alpha_max) as the next α; it
    fails below 1e-12, or once the last three shortfalls f − f(α) halve with α
    (`_halving`): then f(α) − f ≈ α·D with D < 0, and no shorter step gains.
    Stops there, at a size of at most VANISHING_GRAD·max(1, |f|), on a stall
    (`_stalled`) or after max_iter steps."""
    f, direction, size = gradient(point)
    alpha, history = 0.25, [f]
    while len(history) <= max_iter and size > VANISHING_GRAD * max(1.0, abs(f)) and not _stalled(history):
        shortfalls = []
        while alpha >= 1e-12 and not _halving(shortfalls):
            value, cand = trial(point, direction, alpha)
            if value > f:
                break
            shortfalls.append(f - value)
            alpha *= 0.5
        else:
            break
        alpha, point = min(1.3 * alpha, alpha_max), cand
        f, direction, size = gradient(point)
        history.append(f)
    return f, point


def _check_reference_dim(r_dim: int) -> None:
    if int(r_dim) < 1:
        raise ValueError(f"reference dimension must be at least 1, got {r_dim}")


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
        _check_reference_dim(r_dim)
        self._h = _exact_real(hamiltonian.matrix)
        self._tau0 = _exact_real(hamiltonian.eigenbasis[:, 0])
        self._e0 = float(hamiltonian.ground_energy)
        self._e_top = float(hamiltonian.max_energy)
        self._ground = np.kron(self._tau0, np.eye(int(r_dim))[0])  # τ₀ ⊗ e₀
        self._dim = hamiltonian.dimension
        self._r_dim = int(r_dim)
        self._h_kron = None
        self.budget = float(budget)
        # a vector aimed this far below the budget stays within it after rounding
        self._slack = min(0.5e-12 * max(1.0, self.budget), 0.5 * (self.budget - self._e0))

    def kron_matrix(self) -> np.ndarray:
        """Dense H ⊗ I_R, built lazily for the capped surrogate maximization."""
        if self._h_kron is None:
            self._h_kron = np.kron(self._h, np.eye(self._r_dim))
        return self._h_kron

    def _energies(self, blocks: np.ndarray) -> np.ndarray:
        return np.einsum("kir,kir->k", blocks.conj(), self._h @ blocks).real

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
        q = weights @ (a - self._e0) / (self.budget - self._slack - self._e0) - 1.0
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
    F is kept as an (in, out·rank) matrix, so Y = MᵀF is one GEMM with rows
    ordered (r, out), and F† as an (out·rank, in) one, so the pull-back of
    an action on Y is one GEMM too; `surrogate_matrix` and `dual_bound` read
    the same two layouts. All are float64 on an exactly real Kraus pair (or
    C), and numpy promotes them to complex128 where a complex ψ meets them.

    `expand` (and `value_and_grad`, `expand` plus the gradient) keeps the
    sign matrix S of the last output, which makes the linearization
    ψ' -> Tr[S X(ψ')] available through `sign_value` and `apply_sign`. It
    never exceeds the true objective (S has
    operator norm one), so improvements certified with it hold for the
    objective as well, without paying for an eigendecomposition per trial
    point. S = I − 2PP† is kept as the isometry P onto the eigenvectors of X
    with negative eigenvalues, and its identity part goes through the adjoint
    of the map at I; S itself is never formed.
    """

    def __init__(self, choi: np.ndarray, in_dim: int, out_dim: int, r_dim: int, kraus_pair=None):
        _check_reference_dim(r_dim)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.r_dim = int(r_dim)
        choi = _exact_real(choi)
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
        # C ≈ F diag(σ) F† with F = V √|w| over the kept eigenpairs, as
        # (in, out·rank) for Mᵀ F, and F† as (out·rank, in) for pull-backs
        f = (v[:, keep] * np.sqrt(np.abs(self._w))).reshape(out_dim, in_dim, self._rank)
        self._f = np.ascontiguousarray(f.transpose(1, 0, 2).reshape(in_dim, -1))
        self._f_adj = np.ascontiguousarray(self._f.conj().T)
        # adjoint applied to the identity, for the identity part of sign matrices
        self._adj_id = np.ascontiguousarray(np.einsum("aiaj->ij", self._c4).T)
        self._neg = self._neg_h = self._g_choi = self._g_id = None

    def _factor(self, psi: np.ndarray) -> np.ndarray:
        """Y with X(psi) = Y diag(sigma) Y†, shape (r*out, rank), rows (r, out)."""
        y = psi.reshape(self.in_dim, self.r_dim).T @ self._f  # ri,i(ac) -> r(ac)
        return y.reshape(self.r_dim * self.out_dim, self._rank)

    def value(self, psi: np.ndarray) -> float:
        r = np.linalg.qr(self._factor(psi), mode="r")
        small = (r * self._sigma) @ r.conj().T
        return float(np.abs(np.linalg.eigvalsh(small)).sum())

    def expand(self, psi: np.ndarray) -> float:
        """The objective at psi, keeping the sign matrix of its output as the
        linearization that `sign_value`, `apply_sign` and `surrogate_matrix` read."""
        q, r = np.linalg.qr(self._factor(psi))
        w, v = np.linalg.eigh((r * self._sigma) @ r.conj().T)
        # near-zero eigenvalues count as +; snapping them stops the sign
        # matrix from jittering between iterations. X = Q V diag(w) V† Q†,
        # so S = I − 2PP† with P = Q V restricted to the negative w.
        self._neg = q @ v[:, w < -1e-9 * np.abs(w).max(initial=0.0)]
        self._neg_h = np.ascontiguousarray(self._neg.conj().T)
        return float(np.abs(w).sum())

    def value_and_grad(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        return self.expand(psi), 2.0 * self._apply_sign(psi, self._factor(psi))

    def _apply_sign(self, psi: np.ndarray, y: np.ndarray) -> np.ndarray:
        """apply_sign(psi), given Y = _factor(psi)."""
        # (S − I) Y diag(σ) = −2 P (P† Y) diag(σ), pulled back through F†
        z = self._neg @ ((self._neg_h @ y) * (-2.0 * self._sigma))
        grad = (z.reshape(self.r_dim, -1) @ self._f_adj).T  # r(ak),(ak)i -> ir
        return (grad + self._adj_id @ psi.reshape(self.in_dim, self.r_dim)).reshape(-1)

    def apply_sign(self, psi: np.ndarray) -> np.ndarray:
        """Gψ for the linearization ⟨ψ|G|ψ⟩ = Tr[S X(ψ)] at the last expansion point.

        Y = _factor(ψ), then −2P(P†Y)·σ, one GEMM back through F†, plus the
        adjoint at I applied to M.
        """
        return self._apply_sign(psi, self._factor(psi))

    def surrogate_matrix(self) -> np.ndarray:
        """Dense Hermitian G with ⟨ψ|G|ψ⟩ = sign_value(ψ), Gψ = apply_sign(ψ).

        G[(j,s),(i,r)] = Σ_{x,y} (S − I)[(y,s),(x,r)]·C[(x,i),(y,j)] + (adjoint at
        I ⊗ I_R). The Choi tensor as a (y,x) × (j,i) matrix times the −2 of
        S − I = −2PP† and the identity part are built on the first call (the
        capped proposal's, at psi.size <= 64) and kept in the data's dtype;
        each call then costs PP†, one GEMM over (y,x) and a Hermitian
        symmetrization.
        """
        o, i, r = self.out_dim, self.in_dim, self.r_dim
        if self._g_choi is None:
            self._g_choi = -2.0 * self._c4.transpose(2, 0, 3, 1).reshape(o * o, i * i)
            self._g_id = np.kron(self._adj_id, np.eye(r))
        pp = (self._neg @ self._neg_h).reshape(r, o, r, o).transpose(0, 2, 1, 3).reshape(r * r, o * o)
        g = (pp @ self._g_choi).reshape(r, r, i, i)  # sryx,yxji -> srji
        g = g.transpose(2, 0, 3, 1).reshape(i * r, i * r) + self._g_id
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
        rho = (1.0 - DUAL_FLOOR) * _exact_real(np.asarray(rho)) + (DUAL_FLOOR / d) * np.eye(d)
        p, u = np.linalg.eigh(rho.T)
        b = (u * np.sqrt(np.maximum(p, 0.0))) @ u.conj().T
        r = np.linalg.qr((b @ self._f).reshape(d * self.out_dim, self._rank), mode="r")
        lam, vec = np.linalg.eigh((r * self._sigma) @ r.conj().T)
        a = np.abs(lam)
        wm = np.linalg.solve(r, vec)  # W = R⁻¹U: M = W|λ|W† and FMF† = (FW)|λ|(FW)†
        fw = (self._f.reshape(d * self.out_dim, self._rank) @ wm).reshape(d, -1)
        g = (fw * np.tile(a, self.out_dim)) @ fw.conj().T
        sw = np.sqrt(np.abs(self._w))[:, None] * wm
        core = (sw * a) @ sw.conj().T  # SMS
        least = min(
            np.linalg.eigvalsh(core + np.diag(t * self._w)).min(initial=0.0) for t in (1, -1)
        )
        value = np.linalg.eigvalsh(g)[-1] if cap is None else _energy_dual(g.T, cap, 0.0, 1e-14)[1]
        return float(value) - self.out_dim * float(least) + self._dropped


def _kraus_eigh(kraus_pair):
    """(Λ, QU, ‖R‖₂²) with C = (QU) Λ (QU)†: the Kraus vectors (A_k, then B_k)
    stacked as columns are QR (thin), and R J R† = U Λ U†, J = diag(+1…, −1…);
    O(n·k²) for n rows and k operators. Rounding in Λ scales with ‖R‖₂², so
    the rank is cut against it and a zero difference keeps none."""
    ka, kb = kraus_pair
    a = _exact_real(np.stack([k.reshape(-1) for k in (*ka, *kb)], axis=1))
    q, r = np.linalg.qr(a)
    j = np.repeat([1.0, -1.0], [len(ka), len(kb)])
    w, u = np.linalg.eigh((r * j) @ r.conj().T)
    return w, q @ u, float(np.linalg.norm(r, 2)) ** 2


LANCZOS_STEPS = 24
LANCZOS_TOL = 1e-12  # residual of a converged top Ritz pair, relative to max|θ|


def _lanczos_top(matvec, start: np.ndarray, first: np.ndarray) -> np.ndarray | None:
    """Top Ritz vector of a Hermitian operator G given by matvec: the uncapped
    ascent's proposal. `first` is G·start, which the caller already has.

    The Krylov space, of at most LANCZOS_STEPS vectors, is grown from `start`
    with full reorthogonalization (fine at the dimensions used here), so it
    contains `start` and the Ritz value is at least start's Rayleigh
    quotient. It stops growing once the top Ritz pair (θ, y) has converged:
    its residual |Gy − θy| = β_k·|s_k|, s_k the last entry of the tridiagonal
    matrix's top eigenvector, is at most LANCZOS_TOL·max|θ| (Parlett, The
    Symmetric Eigenvalue Problem, §13.2). Returns None when the space stops
    at `start` (start already invariant).
    """
    dim = start.size
    iters = min(LANCZOS_STEPS, dim)
    norm = np.linalg.norm(start)
    basis = np.empty((iters, dim), dtype=np.result_type(start, first))
    basis[0] = start / norm
    w = first / norm
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(iters):
        if j:
            w = matvec(basis[j])
        alphas.append(float(np.vdot(basis[j], w).real))
        k = j + 1
        # the tridiagonal Lanczos matrix; eigh reads only its lower triangle
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
        if k == iters:
            break
        w = w - np.conjugate(basis[:k] @ w.conj()) @ basis[:k]
        w = w - np.conjugate(basis[:k] @ w.conj()) @ basis[:k]
        b = float(np.linalg.norm(w))
        if b <= 1e-13 or b * abs(s[-1, -1]) <= LANCZOS_TOL * np.abs(theta).max():
            break
        betas.append(b)
        basis[k] = w / b
    if k == 1:
        return None
    top = s[:, -1] @ basis[:k]
    return top / np.linalg.norm(top)


CAP_PROPOSAL_MAX_DIM = 64
DUAL_MAX_EVALS = 200
# the capped proposal's duality gap, relative to max(1, |φ|); a proposal that
# gains no more than it, relative to max(1, |f|), ends the capped ascent
PROPOSAL_GAP = 1e-10


class _DualPoint:
    """φ(μ) = λmax(G − μK) + μE with its derivatives, from one eigh of G − μK;
    both derivatives read c = (Kv)†V, v the top of its eigenvectors V."""

    __slots__ = ("mu", "top", "phi", "slope", "curv")

    def __init__(self, g: np.ndarray, k: np.ndarray, budget: float, mu: float):
        self.mu = mu
        w, v = np.linalg.eigh(g - mu * k)
        self.top = v[:, -1]
        c = (k @ self.top).conj() @ v  # c_j = conj ⟨v_j|K|v⟩, the top last
        lam = float(w[-1])
        self.phi = lam + mu * budget
        # Danskin: φ'(μ) = E − ⟨v|K|v⟩, the budget minus the top vector's energy
        self.slope = budget - float(c[-1].real)
        # second-order perturbation: λmax'' = 2 Σ_j |⟨v_j|K|v⟩|² / (λmax − λ_j);
        # meaningless at a (numerically) degenerate top, where φ has a kink
        if w.size > 1 and lam - float(w[-2]) <= 1e-12 * max(1.0, -float(w[0]), lam):
            self.curv = np.inf
        else:
            c = c[:-1]
            self.curv = 2.0 * float(((c.real * c.real + c.imag * c.imag) / (lam - w[:-1])).sum())

    def newton(self) -> float:
        """Newton step length |φ'/φ''|, infinite where φ'' gives no step."""
        if not 0.0 < self.curv < np.inf:
            return np.inf
        return abs(self.slope) / self.curv


def _energy_dual(g: np.ndarray, cap: EnergyCap, mu_hint: float, gap: float):
    """Maximize ⟨x|G|x⟩ over unit x with ⟨x|K|x⟩ ≤ E (K = H ⊗ I_R, E the
    cap's) through the convex dual φ(μ) = λmax(G − μK) + μE over μ ≥ 0.

    φ(μ) ≥ ⟨x₀|G|x₀⟩ + μ(E − E₀) for the ground vector x₀ = τ₀ ⊗ e₀ of K, so
    every minimizer lies in [0, μ_max], μ_max = (λmax(G) − ⟨x₀|G|x₀⟩)/(E − E₀),
    with λmax(G) ≤ φ(μ) + μ(λmax(K) − E) read off the first point, the warm
    start mu_hint. One loop keeps [lo, hi] with φ'(lo) < 0 ≤ φ'(hi) (Danskin:
    φ' = E − ⟨v|K|v⟩); a point at μ ≥ μ_max is an upper end whatever its
    rounded slope. A Newton step that stays inside the bracket (0 and μ_max
    stand in for ends not yet evaluated) and is at most half the last is
    taken, aimed 1e-3 of its length past the predicted root so that the
    next point lands on the far side and closes the bracket; otherwise a
    missing end is evaluated, else the tangents at lo and hi are
    intersected, and a tangent step that fails to halve the bracket gives
    way to bisection.

    Stops on the duality gap: once the least φ evaluated exceeds the value
    of the x it would return by at most gap·max(1, |φ|). That x is hi's top
    vector, within the budget as φ'(hi) ≥ 0, of value φ(hi) − μ_hi·φ'(hi)
    (all of φ at μ = 0), or, when the tangents at lo and hi meet higher, the
    best vector within the budget in the span of the two top vectors
    (`_best_in_span`), which attains at least that floor: the dual of the
    two-level problem is convex, below φ and touches it at lo and hi. Its
    aim is the budget less the cap's slack, so rounding leaves it within the
    budget; the cap projects it only should it not. A bracket narrower than
    1e-12·max(1, hi) ends the loop as well, where rounding hides the gap.

    Returns (μ, φ(μ), x, ⟨x|G|x⟩): μ is the evaluated point with the lowest
    φ, and x is x₀ when no evaluated point is within the budget, which only
    μ_max = 0 allows.
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
        else:
            lo = p
        a = 0.0 if lo is None else lo.mu
        b = mu_max if hi is None else hi.mu
        width = b - a
        least = min(q.phi for q in (lo, hi) if q is not None)
        # the value of hi's top vector, feasible where φ'(hi) ≥ 0
        alone = hi.phi - hi.mu * hi.slope if hi is not None and hi.slope >= 0.0 else -np.inf
        floor, tol = -np.inf, 0.0
        if lo is not None and hi is not None:
            tol = 1e-12 * max(1.0, b)
            cut = (hi.phi - lo.phi + lo.slope * a - hi.slope * b) / (lo.slope - hi.slope)
            cut = min(max(cut, a), b)
            floor = lo.phi + lo.slope * (cut - a)
        if least - max(alone, floor) <= gap * max(1.0, abs(least)) or width <= tol:
            break
        step = 1.001 * p.newton()
        mu = p.mu + step if p is lo else p.mu - step
        if a < mu < b and step <= 0.5 * last:
            last = step
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
    if lo is not None and floor > alone:
        x = _best_in_span(lo.top, hi.top, g, k, budget - cap._slack)
    else:
        x = hi.top if hi.slope >= 0.0 else x0
    if cap.energy(x) > budget:
        x = cap(x)
    return best.mu, best.phi, x, float(np.vdot(x, g @ x).real)


def _best_in_span(a: np.ndarray, b: np.ndarray, g: np.ndarray, k: np.ndarray, budget: float):
    """Unit x in span{a, b} maximizing ⟨x|G|x⟩ subject to ⟨x|K|x⟩ ≤ budget.

    On two levels both forms are affine in the Bloch vector n, so this is a
    linear function over a cap of the unit sphere: the free maximizer when it
    is feasible, else the best point on the circle where the budget is met
    exactly (the lowest-energy vector if rounding leaves the cap empty). The
    basis is a/|a| and b orthogonalized twice against it or, when the second
    pass halves b (b ∥ a to rounding), the basis vector least aligned with a.
    """
    e = a / math.sqrt(np.vdot(a, a).real)
    f = b - e * np.vdot(e, b)
    first = np.vdot(f, f).real
    f -= e * np.vdot(e, f)
    if not np.vdot(f, f).real > 0.25 * first:
        f = np.eye(e.size, dtype=e.dtype)[np.argmin(np.abs(e))]
        f -= e * np.vdot(e, f)
    q = np.array([e, f / math.sqrt(np.vdot(f, f).real)])

    def bloch(m):
        (m00, m01), (_, m11) = (q.conj() @ m @ q.T).tolist()
        return 0.5 * (m00 + m11).real, (m01.real, -m01.imag, 0.5 * (m00 - m11).real)

    gv, (k0, kv) = bloch(g)[1], bloch(k)
    room, kn, gn = budget - k0, math.hypot(*kv), math.hypot(*gv)
    n = [c / gn for c in gv] if gn > 0.0 else [-c / max(kn, np.finfo(float).tiny) for c in kv]
    if sum(x * y for x, y in zip(kv, n)) > room and kn > 0.0:
        khat = [c / kn for c in kv]
        t = sum(x * y for x, y in zip(gv, khat))
        perp = [c - t * h for c, h in zip(gv, khat)]
        if math.hypot(*perp) <= 1e-12 * max(gn, 1e-300):
            # G favors pure energy (what is left of gv is rounding noise):
            # any direction on the circle is optimal; one in the (x, z)
            # plane, where real forms put k̂, keeps a real span real
            perp = np.eye(3)[np.argmin(np.abs(khat))].tolist() if khat[1] else [-khat[2], 0.0, khat[0]]
        # (again) orthogonal to k̂, so that n lands on the circle
        t = sum(x * y for x, y in zip(perp, khat))
        perp = [c - t * h for c, h in zip(perp, khat)]
        cos = min(max(room / kn, -1.0), 1.0)
        sin = math.sqrt(max(1.0 - cos * cos, 0.0)) / math.hypot(*perp)
        n = [cos * h + sin * p for h, p in zip(khat, perp)]
    z = complex(n[0], n[1]) if n[1] else n[0]  # a real z keeps a real span real
    if n[2] >= 0.0:
        x0 = math.sqrt(0.5 * (1.0 + n[2]))
        return normalize(x0 * q[0] + z / (2.0 * x0) * q[1])
    x1 = math.sqrt(0.5 * (1.0 - n[2]))
    return normalize(z.conjugate() / (2.0 * x1) * q[0] + x1 * q[1])


def _capped_proposal(objective, cap, mu_hint: float):
    """Exact maximizer of the current sign surrogate under the energy cap.

    The surrogate is a Hermitian quadratic form ψ ↦ ⟨ψ|G|ψ⟩, with G built by
    one GEMM (`surrogate_matrix`), so its maximum over unit vectors
    with ⟨ψ|(H⊗I)|ψ⟩ ≤ E is the one-dimensional dual
    min_{μ≥0} λmax(G − μH⊗I) + μE, solved by `_energy_dual` from the warm
    start mu_hint, which also returns the feasible maximizer. The dual stops
    once that vector's surrogate value is within PROPOSAL_GAP·max(1, |φ|) of
    the least dual value φ, so the proposal never scores below the current
    point by more than that, and no vector within the cap beats it by more.
    Returns (vector, its surrogate value ⟨x|G|x⟩ from the G built here, μ),
    so the ascent screens it without another `sign_value`. Only worth the
    dense eigensolves at small dimension, hence the gate in `ascend`.
    """
    mu, _, best, value = _energy_dual(objective.surrogate_matrix(), cap, mu_hint, PROPOSAL_GAP)
    return best, value, mu


def ascend(
    objective,
    start: np.ndarray,
    project: EnergyCap | None = None,
    max_iter: int = MAX_ITER,
) -> tuple[float, np.ndarray]:
    """Monotone ascent on the unit sphere with one proposal kind per problem.

    An `EnergyCap` at psi.size <= CAP_PROPOSAL_MAX_DIM takes `_capped_proposal`
    (the exact maximizer of the linearization under the cap), a larger cap
    hands the ascent to `gradient_ascent` (capped steps along the tangent of
    the gradient, of at most 32 tangents, each trial scored by `sign_value`),
    and no cap takes the Lanczos Ritz vector of the linearization, whose
    first product is the gradient already at hand and whose Krylov space
    stops once its top Ritz pair has converged (`_lanczos_top`). Candidates
    are screened once with the linearized value, which lower-bounds the true
    objective, so every accepted step improves and costs one
    eigendecomposition of the output (`expand`, plus the gradient where a
    Lanczos or gradient step reads it); the capped proposal, whose dual stops
    on its duality gap, is feasible as returned and brings that value, read
    from its G, with it. The capped and Lanczos proposals are linearly
    converging fixed-point maps, which `_squarem` extrapolates: after every
    two accepted steps ψ0 → ψ1 → ψ2, each phase-aligned to the one before
    (a real ψ stays real), their S3 point, capped, replaces ψ2 if its exact
    `objective.value` is higher, and the next two steps start from there.
    Each proposal and each such trial is one of the max_iter steps; a trial
    that wins is expanded as part of it. Stops at the first Lanczos proposal
    that does not improve, at the first capped proposal that gains at most
    its dual's gap, PROPOSAL_GAP·max(1, |f|), over f (no vector within the
    cap then raises the linearization by more than about twice that), on a
    stall (`_stalled`), or after max_iter steps.
    """
    psi = normalize(_exact_real(np.asarray(start, dtype=np.complex128).reshape(-1)))
    if project is not None:
        psi = project(psi)
    if project is not None and psi.size > CAP_PROPOSAL_MAX_DIM:

        def gradient(x):
            f, grad = objective.value_and_grad(x)
            tang = grad - np.vdot(x, grad).real * x
            return f, tang, np.linalg.norm(tang)

        def trial(x, tang, a):
            cand = project(normalize(x + a * tang))
            return objective.sign_value(cand), cand

        return gradient_ascent(psi, gradient, trial, 32.0, max_iter)

    def expand(x):  # the dense cap's proposal reads no gradient
        return (objective.expand(x), None) if project is not None else objective.value_and_grad(x)

    mu_hint = 0.0
    f, grad = expand(psi)
    history = [f]
    trail = [psi]
    left = max_iter  # steps: proposals and extrapolation trials
    while left > 0:
        left -= 1
        x = None
        if len(trail) == 3:
            x, trail = _squarem(*trail), [psi]
        if x is not None:
            x = x if project is None else project(x)
            if objective.value(x) <= f:
                continue
            psi = trail[0] = x
        else:
            if project is not None:
                cand, value, mu_hint = _capped_proposal(objective, project, mu_hint)
                tol = PROPOSAL_GAP * max(1.0, abs(f))
            else:
                cand = _lanczos_top(objective.apply_sign, psi, 0.5 * grad)
                if cand is None:
                    break
                value, tol = objective.sign_value(cand), 0.0
            if value - f <= tol:
                break
            c = np.vdot(psi, cand)  # align the phase: ⟨ψ_prev|ψ⟩ real and ≥ 0
            cand = cand * (np.conj(c) / abs(c)) if c else cand
            trail.append(cand)
            psi = cand
        f, grad = expand(psi)
        history.append(f)
        if _stalled(history):
            break
    return f, psi


def _squarem(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray | None:
    """The unit SQUAREM S3 point p0 − 2αr + α²v of three fixed-point iterates,
    r = p1 − p0, v = p2 − p1 − r, α = −‖r‖/‖v‖ (Varadhan and Roland, Scand.
    J. Statist. 35, 335 (2008)); None unless α < −1 (α = −1 gives p2)."""
    r = p1 - p0
    v = p2 - p1 - r
    rn, vn = np.linalg.norm(r), np.linalg.norm(v)
    if not rn > vn > 0.0:
        return None
    a = -rn / vn
    return normalize(p0 - 2.0 * a * r + a * a * v)


def start_vectors(
    in_dim: int,
    r_dim: int,
    restarts: int,
    seed: int,
    extra_starts: Iterable[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Deterministic multi-start seeds.

    Start 0 is the balanced entangled vector, real; the rest are complex
    Gaussian draws from per-restart generators keyed by (seed, restart
    index), so the set does not depend on evaluation order. ValueError for
    fewer than 1 restart.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    starts: list[np.ndarray] = []
    k = min(in_dim, r_dim)
    m0 = np.zeros((in_dim, r_dim))
    m0[np.arange(k), np.arange(k)] = 1.0 / np.sqrt(k)
    starts.append(m0.reshape(-1))
    for r in range(1, restarts):
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


@dataclass(frozen=True, eq=False)
class EnergyConstrainedSup:
    """Exact value of max Tr[Mρ] over states with Tr[Hρ] <= budget.

    value comes from the dual min_{μ>=0} λmax(M - μH) + μ·budget, which is
    tight here, solved by `_energy_dual` on its closed-form bracket until
    the duality gap is at most 1e-14·max(1, |value|), or until rounding
    hides it (a bracket of width 1e-12·max(1, μ)); multiplier is the
    minimizing μ, at which the dual function rechecks value as an upper
    bound. state is `_energy_dual`'s feasible pure maximizer, a primal
    certificate; attained is its objective value, so value - attained, the
    duality gap, is about 1e-9·max(1, |value|) at most.
    """

    value: float
    state: np.ndarray
    attained: float
    multiplier: float


def energy_constrained_sup(
    m: np.ndarray, hamiltonian: Hamiltonian, budget: float
) -> EnergyConstrainedSup:
    cap = EnergyCap(hamiltonian, 1, budget)
    m = _exact_real(0.5 * (m + m.conj().T))
    mu, value, top, attained = _energy_dual(m, cap, 0.0, 1e-14)
    state = np.outer(top, top.conj()).astype(np.complex128)
    return EnergyConstrainedSup(value=value, state=state, attained=attained, multiplier=mu)

"""Entropic quantities and capacity estimators.

Entropies use natural logarithms. relative_entropy returns math.inf when the
first state has support outside the second (eigenvalue threshold 1e-12).
The capacity estimator is a declared lower-bound heuristic: multi-start
projected ascent over ensembles of pure states under a mean-energy cap on
the average input, enforced by `EnergyCap.project` (each state is mixed
toward the ground state in closed form, and every state keeps the same
fraction of its energy above the ground energy). The ascent is batched
over the ensemble: every output state comes from one product with the
stacked Kraus operators. The forward pass holds the eigendecompositions: one
of the average output and one stacked over the K outputs, each taken on its
smaller side, ρ_k = A_kA_k† when out ≤ n_kraus, else the n_kraus × n_kraus
Gram matrix A_k†A_k, which has the same nonzero spectrum (the complementary
channel's output). χ is read from those spectra, and the gradient reuses the
eigenvectors, so it makes no eigensolve of its own. The ascent is the
ψ-ascent's backtracking loop, `optim.gradient_ascent`, fed the forward pass
of each accepted trial.

The channel mutual information I(ρ, Φ) = H(ρ) + H(Φ(ρ)) − H(Φ̂(ρ)) is taken
through the Stinespring dilation: with m the purification's coefficient
matrix, the complementary output Φ̂(ρ) has the nonzero spectrum of the joint
output Σ_j vec(K_j m) vec(K_j m)†, and so of the Gram matrix of the
n_kraus vectors vec(K_j m). Three small eigensolves (ρ, Φ(ρ) and that Gram
matrix, or the joint output when out·rank is the smaller side) give the
three entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    Channel,
    DensityOperator,
    Hamiltonian,
    apply_channel,
    matrix_of,
    partial_trace,
)
from .optim import EnergyCap, EnergyConstrainedSup, energy_constrained_sup, gradient_ascent
from .thermo import gibbs_multiplier

SUPPORT_TOL = 1e-12
EIG_FLOOR = 1e-18


def _spectral_entropy(w: np.ndarray) -> np.ndarray:
    """-Σ w ln w over the last axis, with negative rounding counted as 0."""
    w = np.clip(w, 0.0, None)
    return -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


def _entropy_nd(m: np.ndarray) -> np.ndarray:
    """Entropies of a matrix or a stack of matrices (..., n, n)."""
    return _spectral_entropy(np.linalg.eigvalsh(m))


def _isometry(channel: Channel) -> np.ndarray:
    """The Kraus operators stacked into one (n_kraus·out) × in matrix."""
    return np.concatenate(channel.kraus)


def entropy(rho) -> float:
    """Von Neumann entropy -Tr[ρ ln ρ]."""
    val = float(_entropy_nd(matrix_of(rho)))
    return max(val, 0.0)


def relative_entropy(rho, sigma) -> float:
    """Tr[ρ(ln ρ - ln σ)], or math.inf when supp ρ ⊄ supp σ."""
    rm, sm = matrix_of(rho), matrix_of(sigma)
    if rm.shape != sm.shape:
        raise ValueError("relative entropy needs operators of equal dimension")
    rw, rv = np.linalg.eigh(rm)
    sw, sv = np.linalg.eigh(sm)
    rw = np.clip(rw, 0.0, None)
    kernel = sv[:, sw <= SUPPORT_TOL]
    if kernel.shape[1]:
        outside = float(np.einsum("ij,jk,ki->", kernel.conj().T, rm, kernel).real)
        if outside > 1e-10:
            return math.inf
    keep_r = rw > SUPPORT_TOL
    keep_s = sw > SUPPORT_TOL
    overlap = np.abs(rv[:, keep_r].conj().T @ sv[:, keep_s]) ** 2
    lam = rw[keep_r]
    val = float((lam * np.log(lam)).sum() - lam @ overlap @ np.log(sw[keep_s]))
    return max(val, 0.0)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite ensemble of states with finite, strictly positive probabilities."""

    probs: tuple[float, ...]
    states: tuple[DensityOperator, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        states = tuple(self.states)
        if len(probs) != len(states) or not probs:
            raise ValueError("ensemble needs matching, nonempty probabilities and states")
        if not all(0.0 < p < math.inf for p in probs):
            raise ValueError("ensemble probabilities must be finite and strictly positive")
        if abs(sum(probs) - 1.0) > 1e-10:
            raise ValueError("ensemble probabilities must sum to one")
        d = states[0].dimension
        if any(s.dimension != d for s in states):
            raise ValueError("ensemble states must share one dimension")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    def average(self) -> np.ndarray:
        return sum(p * s.matrix for p, s in zip(self.probs, self.states))

    def map_through(self, channel: Channel) -> "Ensemble":
        return Ensemble(
            self.probs,
            tuple(DensityOperator(apply_channel(channel, s)) for s in self.states),
        )


def holevo_quantity(ensemble: Ensemble) -> float:
    """χ = H(Σ p_i ρ_i) - Σ p_i H(ρ_i), equal to Σ p_i H(ρ_i || ρ̄)."""
    avg = ensemble.average()
    states = np.stack([s.matrix for s in ensemble.states])
    val = float(_entropy_nd(avg) - np.asarray(ensemble.probs) @ _entropy_nd(states))
    return max(val, 0.0)


def _checked_mutual_information(val: float) -> float:
    if val < -1e-8:
        raise RuntimeError(f"mutual information came out negative: {val}")
    return max(val, 0.0)


def mutual_information(rho, dims: tuple[int, int]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) of a bipartite state."""
    m = matrix_of(rho)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise ValueError(f"state shape {m.shape} does not match factor dims {dims}")
    return _checked_mutual_information(
        float(
            _entropy_nd(partial_trace(m, dims, keep=0))
            + _entropy_nd(partial_trace(m, dims, keep=1))
            - _entropy_nd(m)
        )
    )


def channel_mutual_information(channel: Channel, rho: DensityOperator) -> float:
    """I(B:R) of (Φ ⊗ id)(|ψ⟩⟨ψ|) for a purification ψ of the input state.

    The reference dimension equals the rank of the input state; the value
    does not depend on the choice of purification. The joint output's
    entropy comes from a Gram matrix (module docstring), so no (out·rank)²
    matrix is formed.
    """
    if rho.dimension != channel.in_dim:
        raise ValueError("state dimension does not match the channel input")
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > SUPPORT_TOL
    lam = w[keep]
    rank = lam.size
    m = v[:, keep] * np.sqrt(lam)
    out_dim = channel.out_dim
    # images[j] = K_j m; R's marginal is diag(lam), B's is Φ(ρ) = Σ_j K_j m m† K_j†
    images = (_isometry(channel) @ m).reshape(-1, out_dim, rank)
    side = np.swapaxes(images, 0, 1).reshape(out_dim, -1)
    # row j is vec(K_j m); the joint output Σ_j vec vec† and the rows' Gram
    # matrix share their nonzero spectrum, so the smaller one is diagonalized
    rows = images.reshape(len(images), -1)
    joint = rows @ rows.conj().T if len(rows) <= rows.shape[1] else rows.T @ rows.conj()
    return _checked_mutual_information(
        float(_spectral_entropy(lam) + _entropy_nd(side @ side.conj().T) - _entropy_nd(joint))
    )


def output_energy_sup(
    channel: Channel, h_in: Hamiltonian, h_out: Hamiltonian, energy_budget: float
) -> EnergyConstrainedSup:
    """Exact sup of Tr[H_out Φ(ρ)] over inputs with Tr[H_in ρ] <= budget."""
    if h_in.dimension != channel.in_dim or h_out.dimension != channel.out_dim:
        raise ValueError("Hamiltonian dimensions do not match the channel")
    kraus = np.stack(channel.kraus)
    adj = (np.swapaxes(kraus, 1, 2).conj() @ h_out.matrix @ kraus).sum(axis=0)
    return energy_constrained_sup(adj, h_in, energy_budget)


def energy_gain(
    channel: Channel, h_in: Hamiltonian, h_out: Hamiltonian, energy_budget: float
) -> float:
    """Factor k with sup Tr[H_out Φ(ρ)] = k * budget over feasible inputs.

    Computed through the one-dimensional dual of the linear program, which is
    exact in finite dimension; k = 1 for the identity with matching
    Hamiltonians whenever the budget is attainable.
    """
    sup = output_energy_sup(channel, h_in, h_out, energy_budget)
    return sup.value / energy_budget


class _EnsembleAscent:
    """Holevo-quantity ascent over pure-state ensembles with an energy cap.

    The K states are rows of one (K, d) array; with the Kraus operators
    stacked into V (rows K_j), the (K, n_kraus, out) array of the K_j ψ_k
    is one product, and every output ρ_k = Σ_j K_j ψ_k ψ_k† K_j† = A_kA_k†
    follows (A_k has the columns K_j ψ_k). `_forward` also holds `eigh` of
    the average and of the smaller side of each output: the out × out ρ_k,
    or A_k†A_k when n_kraus < out. `value` reads χ from their spectra, and
    `grads` makes no eigensolve: on the Gram side it uses
    ln(A_kA_k†)A_k = A_k ln(A_k†A_k).
    """

    def __init__(self, channel: Channel, h_in: Hamiltonian, budget: float, size: int):
        self.cap = EnergyCap(h_in, 1, budget)
        self.size = size
        self._kraus = _isometry(channel)
        self._out = channel.out_dim
        # decompose the n_kraus × n_kraus Gram matrices when they are the smaller side
        self._gram = len(channel.kraus) < channel.out_dim

    def _project(self, psis: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Cap the energy of the average input: every state is mixed toward
        its ground direction and keeps the same fraction of its energy above
        the ground energy (`EnergyCap.project`)."""
        return self.cap.project(psis[:, :, None], probs)[:, :, 0]

    def _forward(self, logits: np.ndarray, psis: np.ndarray):
        """Weights, projected states, the K_j ψ_k, the outputs, their average,
        and the `eigh` pairs of the average and of the K outputs' smaller side."""
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        psis = psis / np.linalg.norm(psis, axis=1, keepdims=True)
        psis = self._project(psis, probs)
        images = (psis @ self._kraus.T).reshape(self.size, -1, self._out)
        outs = np.swapaxes(images, 1, 2) @ images.conj()
        avg = np.tensordot(probs, outs, axes=1)
        # ρ_k = A_k A_k† with A_k = images[k]ᵀ; A_k†A_k has its nonzero spectrum
        sides = images.conj() @ np.swapaxes(images, 1, 2) if self._gram else outs
        return probs, psis, images, outs, avg, np.linalg.eigh(avg), np.linalg.eigh(sides)

    def value(self, logits: np.ndarray, psis: np.ndarray) -> float:
        """χ at a point; its forward pass is kept in `last` for `grads`."""
        self.last = probs, *_, (w_avg, _), (w_sides, _) = self._forward(logits, psis)
        return float(_spectral_entropy(w_avg) - probs @ _spectral_entropy(w_sides))

    def grads(self, forward):
        """χ and its gradients at the point whose `_forward` tuple is given."""
        probs, psis, images, outs, avg, (w_avg, v_avg), (w_sides, v_sides) = forward
        s_outs = _spectral_entropy(w_sides)
        chi = float(_spectral_entropy(w_avg) - probs @ s_outs)

        def safe_log(w, v):
            logs = np.log(np.clip(w, EIG_FLOOR, None))[..., None, :]
            return (v * logs) @ np.swapaxes(v, -1, -2).conj()

        log_avg = safe_log(w_avg, v_avg)
        logs = safe_log(w_sides, v_sides)
        # state gradients: 2 p_k Φ*(ln ρ_k - ln ρ̄) ψ_k = 2 p_k Σ_j K_j† (diff_k K_j ψ_k);
        # row j of pulled[k] is (ln ρ_k - ln ρ̄) K_j ψ_k, and on the Gram side
        # ln(A_k A_k†) A_k = A_k ln(A_k†A_k)
        if self._gram:
            pulled = np.swapaxes(logs, 1, 2) @ images - images @ log_avg.T
        else:
            pulled = images @ np.swapaxes(logs - log_avg, 1, 2)
        grad_psis = 2.0 * probs[:, None] * (pulled.reshape(self.size, -1) @ self._kraus.conj())
        # probability gradients through the softmax: dχ/dp_k = -Tr[ρ_k ln ρ̄] - H(ρ_k)
        dchi = -np.einsum("kab,ba->k", outs, log_avg).real - s_outs
        grad_logits = probs * (dchi - float(probs @ dchi))
        return chi, grad_logits, grad_psis


def holevo_capacity_estimate(
    channel: Channel,
    h_in: Hamiltonian,
    energy_budget: float,
    ensemble_size: int | None = None,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 2000,
) -> float:
    """Lower estimate of the one-shot Holevo capacity at an input energy cap.

    Ascends χ of the output ensemble over pure-state input ensembles whose
    average state satisfies Tr[Hρ̄] <= budget. Heuristic lower bound only;
    treat the result as achievable, not optimal. Restart 0 starts from the
    energy eigenbasis with near-capacity-achieving weights, the rest are
    random draws keyed by (seed, restart). Every evaluation first caps the
    average input energy with `EnergyCap.project`, which also validates the
    budget: ValueError when it is not finite, InfeasibleProblemError at or
    below the ground energy; ValueError for fewer than 1 restart or state,
    or for a Hamiltonian whose dimension is not the channel's input's.

    Each restart runs `optim.gradient_ascent`, with steps of at most 8 along
    the gradient over its largest block norm.
    """
    d = channel.in_dim
    if h_in.dimension != d:
        raise ValueError("Hamiltonian dimensions do not match the channel")
    size = d if ensemble_size is None else int(ensemble_size)
    if size < 1 or restarts < 1:
        raise ValueError("ensemble size and restarts must be at least 1")
    problem = _EnsembleAscent(channel, h_in, energy_budget, size)

    def gradient(point):
        chi, g_logits, g_psis = problem.grads(point[2])
        scale = max(np.linalg.norm(g_logits), np.max(np.linalg.norm(g_psis, axis=1)))
        return chi, (g_logits, g_psis, scale), scale

    def trial(point, direction, a):
        (logits, psis, _), (g_logits, g_psis, scale) = point, direction
        cand = logits + a * g_logits / scale, psis + a * g_psis / scale
        return problem.value(*cand), (*cand, problem.last)

    best = 0.0
    for r in range(restarts):
        if r == 0:
            idx = np.arange(size) % d
            psis = h_in.eigenbasis.T[idx].astype(np.complex128)
            lam = 0.0 if energy_budget >= h_in.mean_eigenvalue else gibbs_multiplier(h_in, energy_budget)
            logits = -lam * h_in.eigenvalues[idx]
        else:
            rng = np.random.default_rng([int(seed), r])
            logits = 0.3 * rng.standard_normal(size)
            psis = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
            psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        problem.value(logits, psis)
        best = max(best, gradient_ascent((logits, psis, problem.last), gradient, trial, 8.0, max_iter)[0])
    return best

"""Energy-constrained diamond norm brackets.

The quantity of interest is

    sup ||(Θ ⊗ id_R)(|ψ⟩⟨ψ|)||_1   over unit ψ on A⊗R with <ψ|H⊗I|ψ> <= E.

A multi-start monotone ascent gives a certified achievable lower value and
its witness. Each ascent takes one proposal kind (the capped maximizer of
the sign linearization at psi.size <= 64, a projected gradient step under a
larger cap, the Lanczos Ritz vector with no cap) and stops at the first
proposal that does not improve, or on a stall. The upper side of the bracket
is the cheapest of the weak-duality certificates of Watrous's SDP with the
energy cap added (`TraceNormObjective.dual_bound`), one per input state: the
maximally mixed state, whose member is the Choi diamond bound, the witness's
input state and, under a cap, the max-entropy state at the budget (the
Gibbs state below the mean energy); a channel difference adds the generic 2
and, under a cap, a Stinespring-alignment bound. Estimates never exceed certificates, so the
pair brackets the true norm. The unconstrained diamond norm is the member of
the family with no energy cap, bracketed by the same routine. The factor of
the Choi matrix behind both comes from a map's Kraus pair when it carries
one (a rank-sized QR), else from `eigh` of the whole Choi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    Channel,
    Hamiltonian,
    HermitianPreservingMap,
    DensityOperator,
    tensor,
    trace_norm,
)
from .optim import (
    MAX_ITER,
    EnergyCap,
    TraceNormObjective,
    check_energy_budget,
    energy_constrained_sup,
    multistart_ascend,
)
from .thermo import max_entropy_state


def _reference_dim(the_map: HermitianPreservingMap, r_dim: int | None) -> int:
    """The reference dimension, the input dimension when None; at least 1."""
    r_dim = the_map.in_dim if r_dim is None else int(r_dim)
    if r_dim < 1:
        raise ValueError("reference dimension must be at least 1")
    return r_dim


@dataclass(frozen=True)
class EcdProblem:
    """One energy-constrained norm evaluation.

    r_dim is the reference-space dimension; by default it matches the input
    dimension, which is enough to attain the supremum.
    """

    map: HermitianPreservingMap
    h_in: Hamiltonian
    energy: float
    r_dim: int | None = None

    def __post_init__(self):
        if self.map.in_dim != self.h_in.dimension:
            raise ValueError("map input dimension does not match the Hamiltonian")
        check_energy_budget(self.h_in, self.energy)
        object.__setattr__(self, "r_dim", _reference_dim(self.map, self.r_dim))


@dataclass(frozen=True, eq=False)
class EcdEstimate:
    """Bracket [lower, upper] with the witness attaining the lower value.

    witness_energy is None for the unconstrained norm, which has no cap.
    """

    lower: float
    upper: float
    witness: np.ndarray
    witness_energy: float | None

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper + 1e-9:
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")


def _objective(the_map: HermitianPreservingMap, r_dim: int) -> TraceNormObjective:
    return TraceNormObjective(the_map.choi, the_map.in_dim, the_map.out_dim, r_dim, the_map.kraus_pair)


def ecd_objective(problem: EcdProblem, psi) -> float:
    """Trace norm of (Θ ⊗ id_R) applied to the pure state given by ψ."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.size != problem.map.in_dim * problem.r_dim:
        raise ValueError("witness length does not match in_dim * r_dim")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:  # NaN fails it too
        raise ValueError("witness must be a finite unit vector")
    cap = EnergyCap(problem.h_in, problem.r_dim, problem.energy)
    if cap.energy(psi) > problem.energy + 1e-9:
        raise ValueError("witness violates the energy budget")
    return _objective(problem.map, problem.r_dim).value(psi)


def diamond_upper_bound(the_map: HermitianPreservingMap) -> float:
    """Certified diamond-norm bound λmax(Tr_out |C|) over the Choi matrix C.

    The member of `TraceNormObjective.dual_bound` at the maximally mixed
    input with no cap. It dominates the unconstrained norm, hence every
    energy-constrained value as well, and is not clamped at 2 even for
    channel differences.
    """
    d = the_map.in_dim
    return _objective(the_map, 1).dual_bound(np.eye(d) / d)


def _compressed_choi(the_map: HermitianPreservingMap, isometry: np.ndarray) -> np.ndarray:
    """Choi matrix of Θ restricted to the subspace spanned by the isometry."""
    d_in, n = isometry.shape
    c4 = the_map.choi.reshape(the_map.out_dim, d_in, the_map.out_dim, d_in)
    small = np.einsum("ia,xiyj,jb->xayb", isometry, c4, isometry.conj(), optimize=True)
    return small.reshape(the_map.out_dim * n, the_map.out_dim * n)


def _compressed_map(the_map: HermitianPreservingMap, isometry: np.ndarray) -> HermitianPreservingMap:
    """Θ on the span of the isometry V; Φ − Ψ stays the difference of Φ(V·V†) and Ψ(V·V†)."""
    if the_map.kraus_pair is not None:
        ka, kb = the_map.kraus_pair
        return HermitianPreservingMap.difference(
            Channel([k @ isometry for k in ka]), Channel([k @ isometry for k in kb])
        )
    c = _compressed_choi(the_map, isometry)
    c = 0.5 * (c + c.conj().T)
    return HermitianPreservingMap(c, isometry.shape[1], the_map.out_dim)


def _aligned_stinespring_bound(
    kraus_pair, hamiltonian: Hamiltonian, energy_budget: float
) -> float:
    """2 sqrt(sup Tr[Δρ]) with Δ = Σ_k (A_k - B_k)†(A_k - B_k).

    Aligning the two Kraus families index by index (zero-padded) realizes
    joint Stinespring isometries V, W with a common environment, and
    ||Φ(ρ) - Ψ(ρ)||_1 <= 2 ||(V - W)√ρ||_2 gives the certificate. The
    supremum over energy-bounded inputs is exact via its one-dimensional
    dual. Any alignment certifies; the given ordering is used as is.
    """
    ka, kb = kraus_pair
    n = max(len(ka), len(kb))
    out_dim, in_dim = ka[0].shape if ka else kb[0].shape
    zero = np.zeros((out_dim, in_dim), dtype=np.complex128)
    delta = np.zeros((in_dim, in_dim), dtype=np.complex128)
    for i in range(n):
        a = ka[i] if i < len(ka) else zero
        b = kb[i] if i < len(kb) else zero
        d = a - b
        delta += d.conj().T @ d
    sup = energy_constrained_sup(delta, hamiltonian, energy_budget).value
    return 2.0 * math.sqrt(max(sup, 0.0))


def embed_witness(witness: np.ndarray, d_small: int, d_large: int) -> np.ndarray:
    """Zero-pad an input x reference coefficient matrix into a larger space.

    Used as an extra start on d_large levels when the map on d_small levels
    is its restriction to the low levels (the attenuator ladder).
    """
    if d_small > d_large:
        raise ValueError(f"cannot embed a {d_small}-level witness into {d_large} levels")
    m = np.zeros((d_large, d_large), dtype=np.complex128)
    m[:d_small, :d_small] = witness.reshape(d_small, d_small)
    return m.reshape(-1)


def _estimate(
    the_map: HermitianPreservingMap,
    r_dim: int,
    problem: EcdProblem | None,
    restarts: int,
    seed: int,
    extra_starts,
    max_iter: int,
) -> EcdEstimate:
    """Bracket the norm of the map under the energy cap of problem, or none.

    The lower value is the best objective over `restarts` deterministic
    multi-start ascents plus any extra_starts; the upper value is the least
    of the certificates named in the module docstring, the dual bounds all
    under one cap on input states (r_dim 1). ValueError for fewer than 1 restart.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    cap = None if problem is None else EnergyCap(problem.h_in, r_dim, problem.energy)
    objective = _objective(the_map, r_dim)
    lower, witness = multistart_ascend(
        objective,
        the_map.in_dim,
        r_dim,
        restarts,
        seed,
        project=cap,
        extra_starts=extra_starts,
        max_iter=max_iter,
    )
    d = the_map.in_dim
    m = witness.reshape(d, r_dim)
    states = [np.eye(d) / d, m @ m.conj().T]
    input_cap = None
    if problem is not None:
        input_cap = EnergyCap(problem.h_in, 1, problem.energy)
        # from the mean energy up the max-entropy state is I/d, the first state
        if problem.energy < problem.h_in.mean_eigenvalue:
            states.append(max_entropy_state(problem.h_in, problem.energy).matrix)
    upper = min(objective.dual_bound(rho, input_cap) for rho in states)
    if the_map.kraus_pair is not None:
        upper = min(upper, 2.0)
        if problem is not None:
            upper = min(
                upper,
                _aligned_stinespring_bound(the_map.kraus_pair, problem.h_in, problem.energy),
            )
    witness_energy = None if cap is None else cap.energy(witness)
    return EcdEstimate(lower, upper, witness.astype(np.complex128), witness_energy)


def estimate_ecd_norm(
    problem: EcdProblem,
    restarts: int = 32,
    seed: int = 0,
    extra_starts=None,
    max_iter: int = MAX_ITER,
) -> EcdEstimate:
    """Bracket the energy-constrained norm of the map in the problem.

    Restart r draws its start from a generator keyed by (seed, r), so results
    do not depend on scheduling order. extra_starts are added starts, e.g.
    witnesses from smaller budgets or, through `embed_witness`, fewer levels.
    """
    return _estimate(
        problem.map, problem.r_dim, problem, restarts, seed, extra_starts, max_iter
    )


def estimate_diamond_norm(
    the_map: HermitianPreservingMap,
    r_dim: int | None = None,
    restarts: int = 32,
    seed: int = 0,
    extra_starts=None,
    max_iter: int = MAX_ITER,
) -> EcdEstimate:
    """The unconstrained member of the family: the same bracket with no energy cap."""
    return _estimate(
        the_map, _reference_dim(the_map, r_dim), None, restarts, seed, extra_starts, max_iter
    )


def subspace_seminorm(
    the_map: HermitianPreservingMap,
    h_in: Hamiltonian,
    n: int,
    restarts: int = 32,
    seed: int = 0,
    max_iter: int = MAX_ITER,
) -> float:
    """Estimate the norm restricted to inputs on the n lowest energy levels.

    A reference of dimension n suffices because feasible inputs have rank at
    most n. Compression happens at the Choi level, so the estimate reuses the
    unconstrained machinery on an n-dimensional input space.
    """
    if h_in.dimension != the_map.in_dim:
        raise ValueError("Hamiltonian dimension does not match the map input")
    small = _compressed_map(the_map, h_in.lowest_levels(n))
    est = estimate_diamond_norm(small, restarts=restarts, seed=seed, max_iter=max_iter)
    return est.lower


@dataclass(frozen=True, eq=False)
class StateTruncation:
    """Outcome of projecting a bipartite state onto low input levels.

    tail_weight is the probability outside the retained levels; the trace
    distance to the renormalized truncation never exceeds bound = 4√tail.
    """

    tail_weight: float
    bound: float
    trace_distance: float
    truncated_state: DensityOperator


def state_truncation_bound(rho: DensityOperator, h_in: Hamiltonian, n: int) -> StateTruncation:
    d = h_in.dimension
    if rho.dimension % d != 0:
        raise ValueError("state dimension is not a multiple of the Hamiltonian dimension")
    r_dim = rho.dimension // d
    v = h_in.lowest_levels(n)
    proj = tensor(v @ v.conj().T, np.eye(r_dim))
    kept = float(np.trace(proj @ rho.matrix).real)
    # the weight of the complement block itself: 1 − kept rounds to 0 well
    # before the tail stops moving the state
    rest = h_in.eigenbasis[:, n:]
    blocks = rho.matrix.reshape(d, r_dim, d, r_dim)
    tail = float(np.einsum("ia,irjr,ja->", rest.conj(), blocks, rest).real)
    tail = min(1.0, max(0.0, tail))
    if kept <= 1e-12:
        raise ValueError("state carries no weight on the retained levels")
    compressed = proj @ rho.matrix @ proj
    truncated = DensityOperator(0.5 * (compressed + compressed.conj().T) / kept)
    dist = trace_norm(rho.matrix - truncated.matrix)
    bound = 4.0 * math.sqrt(tail)
    if dist > bound + 1e-9:
        raise RuntimeError("truncation distance exceeded its bound; numerical failure")
    return StateTruncation(tail, bound, dist, truncated)


def truncation_norm_bound(
    the_map: HermitianPreservingMap, h_in: Hamiltonian, energy_budget: float, n: int
) -> float:
    """Diamond bound of the n-level compression plus the tail penalty 8 sqrt(E/E_n).

    E_n is the first energy level outside the retained span. Certified for
    maps of diamond norm at most 2, such as channel differences: the penalty
    is twice the state truncation bound. At n = d no level is dropped, the
    tail is exactly 0, and the bound is the compressed map's alone.
    """
    d = h_in.dimension
    if not 1 <= n <= d:
        raise ValueError(f"level count must lie in 1..{d}")
    q = diamond_upper_bound(_compressed_map(the_map, h_in.lowest_levels(n)))
    if n == d:
        return q
    level = float(h_in.eigenvalues[n])
    if level <= 0.0:
        raise ValueError("tail penalty needs a positive energy at the first dropped level")
    return q + 8.0 * math.sqrt(energy_budget / level)

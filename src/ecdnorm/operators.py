"""Dense operator algebra for finite-dimensional quantum systems.

Everything is double-precision complex, row-major, and eagerly validated;
returned arrays stay complex128, and `optim` computes in float64 on exactly
real data.
The value types are frozen dataclasses: `__post_init__` validates their
fields and stores their arrays read-only. The Hermitian eigendecomposition
is the only spectral kernel in use; general singular values are obtained
from the eigenvalues of M†M.

Composite indices follow the Kronecker convention (i, j) -> i * dim_b + j,
and Choi matrices are ordered (output ⊗ reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
STATE_EIG_FLOOR = -1e-9
TP_TOL = 1e-8
SV_CLAMP = 1e-14
# levels within this of the ground energy count as ground levels
DEGENERACY_GAP = 1e-9


class InfeasibleProblemError(ValueError):
    """Raised when an energy budget leaves the feasible set empty."""


def as_operator(entries) -> np.ndarray:
    """Coerce input to a fresh 2-D complex128 array with finite entries."""
    m = np.array(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of rank {m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def is_hermitian(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and float(np.max(np.abs(m - m.conj().T))) <= HERMITIAN_TOL


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two operators."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of an operator on a bipartite space.

    dims gives the two factor dimensions; keep selects the surviving factor
    (0 for the left, 1 for the right).
    """
    d1, d2 = dims
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"operator shape {m.shape} does not match factor dims {dims}")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ValueError("keep must be 0 or 1")


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("trace norm expects a square matrix")
    if is_hermitian(m):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    sq = np.linalg.eigvalsh(m.conj().T @ m)
    sq = np.where(sq < SV_CLAMP, 0.0, sq)
    return float(np.sqrt(sq).sum())


def hermitian_abs(m: np.ndarray) -> np.ndarray:
    """Operator absolute value |M| of a Hermitian matrix."""
    w, v = np.linalg.eigh(m)
    return (v * np.abs(w)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian positive unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("density operator must be square")
        if not is_hermitian(m):
            raise ValueError("density operator must be Hermitian")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator must have unit trace, got {tr}")
        if float(np.linalg.eigvalsh(m)[0]) < STATE_EIG_FLOOR:
            raise ValueError("density operator must be positive semidefinite")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityOperator":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))


def matrix_of(rho) -> np.ndarray:
    """The matrix of a DensityOperator, or any operator as a complex array."""
    return rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=np.complex128)


@dataclass(frozen=True, eq=False, repr=False)
class Hamiltonian:
    """Positive operator kept in spectral form.

    Eigenvalues are nondecreasing and nonnegative; the eigenbasis is unitary
    with eigenvectors as columns. The default basis is the identity.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray | None = None

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must form a nonempty 1-D sequence")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if ev[0] < 0:
            raise ValueError("eigenvalues must be nonnegative")
        d = ev.size
        if self.eigenbasis is None:
            basis = np.eye(d, dtype=np.complex128)
        else:
            basis = as_operator(self.eigenbasis)
            if basis.shape != (d, d):
                raise ValueError("eigenbasis shape does not match eigenvalue count")
            if float(np.max(np.abs(basis.conj().T @ basis - np.eye(d)))) > HERMITIAN_TOL:
                raise ValueError("eigenbasis must be unitary")
        object.__setattr__(self, "eigenvalues", _frozen(ev))
        object.__setattr__(self, "eigenbasis", _frozen(basis))

    @classmethod
    def from_matrix(cls, m) -> "Hamiltonian":
        m = as_operator(m)
        if not is_hermitian(m):
            raise ValueError("Hamiltonian matrix must be Hermitian")
        w, v = np.linalg.eigh(m)
        if w[0] < STATE_EIG_FLOOR:
            raise ValueError("Hamiltonian must be positive semidefinite")
        return cls(np.clip(w, 0.0, None), v)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_energy(self) -> float:
        return float(self.eigenvalues[-1])

    @cached_property
    def mean_eigenvalue(self) -> float:
        """Mean energy of the maximally mixed state, Tr[H]/dim."""
        return float(self.eigenvalues.mean())

    @cached_property
    def matrix(self) -> np.ndarray:
        u = self.eigenbasis
        return _frozen((u * self.eigenvalues) @ u.conj().T)

    def ground_multiplicity(self) -> int:
        return int(np.count_nonzero(self.eigenvalues <= self.eigenvalues[0] + DEGENERACY_GAP))

    def lowest_levels(self, n: int) -> np.ndarray:
        """Isometry onto the span of the n lowest-energy eigenvectors."""
        if not 1 <= n <= self.dimension:
            raise ValueError(f"level count must lie in 1..{self.dimension}")
        return self.eigenbasis[:, :n]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hamiltonian(dim={self.dimension}, range=[{self.ground_energy}, {self.max_energy}])"


def choi_of(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix (Θ ⊗ id)(|Ω⟩⟨Ω|) with |Ω⟩ = Σ_i |i⟩|i⟩ unnormalized.

    Index order is (output ⊗ reference): vec(K) is the row-major flattening.
    """
    vecs = np.stack([np.asarray(k, dtype=np.complex128).reshape(-1) for k in kraus])
    return vecs.T @ vecs.conj()


@dataclass(frozen=True, eq=False, repr=False)
class Channel:
    """Completely positive trace-preserving map held as Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_frozen(as_operator(k)) for k in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        if any(k.shape != ops[0].shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ops)
        tp = sum(k.conj().T @ k for k in ops)
        if float(np.max(np.abs(tp - np.eye(self.in_dim)))) > TP_TOL:
            raise ValueError("Kraus operators must satisfy sum K†K = I (trace preservation)")

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def choi(self) -> np.ndarray:
        """A fresh Choi matrix on each read; a channel keeps only its Kraus operators."""
        return choi_of(self.kraus)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Channel(in_dim={self.in_dim}, out_dim={self.out_dim}, kraus={len(self.kraus)})"


def apply_channel(channel: Channel, rho) -> np.ndarray:
    """Σ_k K ρ K† for a state (or any operator) on the input space."""
    m = matrix_of(rho)
    if m.shape != (channel.in_dim, channel.in_dim):
        raise ValueError(
            f"operator dimension {m.shape[0]} does not match channel input {channel.in_dim}"
        )
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=np.complex128)
    for k in channel.kraus:
        out += k @ m @ k.conj().T
    return out


@dataclass(frozen=True, eq=False, repr=False)
class HermitianPreservingMap:
    """Linear map between operator spaces, carried by its Choi matrix.

    Most instances arise as differences of two channels; the two Kraus
    families are then retained because they enable sharper norm certificates.
    Only `difference` attaches them, so they always describe the Choi matrix.
    """

    choi: np.ndarray
    in_dim: int
    out_dim: int
    kraus_pair: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        c = as_operator(self.choi)
        if c.shape != (self.in_dim * self.out_dim, self.in_dim * self.out_dim):
            raise ValueError("Choi matrix shape does not match declared dimensions")
        if not is_hermitian(c):
            raise ValueError("Choi matrix must be Hermitian for a Hermitian-preserving map")
        object.__setattr__(self, "choi", _frozen(c))

    @classmethod
    def difference(cls, phi: Channel, psi: Channel) -> "HermitianPreservingMap":
        if (phi.in_dim, phi.out_dim) != (psi.in_dim, psi.out_dim):
            raise ValueError("channel difference requires matching dimensions")
        out = cls(phi.choi - psi.choi, phi.in_dim, phi.out_dim)
        object.__setattr__(out, "kraus_pair", (phi.kraus, psi.kraus))
        return out

    @classmethod
    def from_channel(cls, phi: Channel) -> "HermitianPreservingMap":
        return cls(phi.choi, phi.in_dim, phi.out_dim)

    def scaled(self, c: float) -> "HermitianPreservingMap":
        return HermitianPreservingMap(float(c) * self.choi, self.in_dim, self.out_dim)

    def __add__(self, other: "HermitianPreservingMap") -> "HermitianPreservingMap":
        if (self.in_dim, self.out_dim) != (other.in_dim, other.out_dim):
            raise ValueError("map addition requires matching dimensions")
        return HermitianPreservingMap(self.choi + other.choi, self.in_dim, self.out_dim)

    def apply(self, rho) -> np.ndarray:
        """Evaluate the map on an operator through the Choi contraction."""
        m = matrix_of(rho)
        if m.shape != (self.in_dim, self.in_dim):
            raise ValueError("operator dimension does not match map input")
        c4 = self.choi.reshape(self.out_dim, self.in_dim, self.out_dim, self.in_dim)
        return np.einsum("aibj,ij->ab", c4, m)

    def __repr__(self) -> str:  # pragma: no cover
        tag = " (channel difference)" if self.kraus_pair else ""
        return f"HermitianPreservingMap(in_dim={self.in_dim}, out_dim={self.out_dim}){tag}"


def energy(rho, hamiltonian: Hamiltonian) -> float:
    """Mean energy Tr[H ρ]."""
    m = matrix_of(rho)
    if m.shape != (hamiltonian.dimension, hamiltonian.dimension):
        raise ValueError("state dimension does not match the Hamiltonian")
    val = complex(np.trace(hamiltonian.matrix @ m))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"energy has a non-negligible imaginary part: {val.imag}")
    return float(val.real)

"""Reference channels and Hamiltonians on truncated oscillator spaces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import Channel, DensityOperator, Hamiltonian


@dataclass(frozen=True)
class TruncatedOscillator:
    """Single oscillator mode truncated to a finite number of levels."""

    levels: int
    hbar_omega: float = 1.0

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("a truncated oscillator needs at least 2 levels")
        if not 0.0 < self.hbar_omega < math.inf:
            raise ValueError("the mode frequency must be positive and finite")

    @property
    def hamiltonian(self) -> Hamiltonian:
        k = np.arange(self.levels, dtype=np.float64)
        return Hamiltonian(self.hbar_omega * (k + 0.5))


def identity_channel(dim: int) -> Channel:
    return Channel([np.eye(dim, dtype=np.complex128)])


def phase_rotation(dim: int, theta: float) -> Channel:
    """Unitary channel diag(e^{i k θ}) on number states."""
    k = np.arange(dim)
    return Channel([np.diag(np.exp(1j * theta * k))])


def depolarize_to(sigma: DensityOperator, p: float) -> Channel:
    """ρ -> (1 - p) ρ + p σ Tr[ρ].

    Kraus operators are the columns of √σ paired with basis bras, scaled by
    √p, plus √(1-p) times the identity; zero operators are dropped.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p}")
    d = sigma.dimension
    w, v = np.linalg.eigh(sigma.matrix)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    kraus = []
    if p < 1.0:
        kraus.append(math.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128))
    if p > 0.0:
        sp = math.sqrt(p)
        for i in range(d):
            col = root[:, i]
            if np.linalg.norm(col) < 1e-15:
                continue
            for j in range(d):
                k = np.zeros((d, d), dtype=np.complex128)
                k[:, j] = sp * col
                kraus.append(k)
    return Channel(kraus)


def vacuum_state(dim: int) -> DensityOperator:
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[0, 0] = 1.0
    return DensityOperator(m)


def attenuator(dim: int, eta: float) -> Channel:
    """Quantum-limited attenuator with transmissivity η on a truncation.

    K_j |n⟩ = sqrt(C(n, j) η^{n-j} (1-η)^j) |n-j⟩ for j lost excitations;
    trace preservation is exact on the truncated space by the binomial
    theorem. η = 1 is the identity, η = 0 maps everything to the vacuum.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    kraus = []
    for j in range(dim):
        k = np.zeros((dim, dim), dtype=np.complex128)
        for n in range(j, dim):
            amp = math.comb(n, j) * eta ** (n - j) * (1.0 - eta) ** j
            k[n - j, n] = math.sqrt(amp)
        if np.linalg.norm(k) > 0.0:
            kraus.append(k)
    return Channel(kraus)

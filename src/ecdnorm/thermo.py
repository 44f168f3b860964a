"""Entropy maximization under a mean-energy constraint.

The Gibbs state e^{-λH}/Z maximizes von Neumann entropy among states with
Tr[Hρ] <= E; the multiplier λ solves Tr[H e^{-λH}] = E Tr[e^{-λH}] and may be
negative when E exceeds the uniform-state mean. All work happens on the
eigenvalues of H with max-shifted exponentials, so no matrix exponentials are
formed. Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .operators import DensityOperator, Hamiltonian, InfeasibleProblemError

ENERGY_TOL = 1e-9
DEGENERACY_GAP = 1e-9


def _eta(x: float) -> float:
    return -x * math.log(x) if x > 0.0 else 0.0


def h2(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x), with 0 ln 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs an argument in [0, 1], got {x}")
    return _eta(x) + _eta(1.0 - x)


def g(x: float) -> float:
    """(x+1) ln(x+1) - x ln x for x >= 0; equivalently (1+x) h2(x/(1+x))."""
    if x < 0.0:
        raise ValueError(f"g is defined for nonnegative arguments, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log1p(x) - x * math.log(x)


@dataclass(frozen=True)
class GibbsSolution:
    """Gibbs state data at a solved multiplier.

    entropy equals lam * mean_energy + ln Tr e^{-lam H}.
    """

    lam: float
    state: DensityOperator
    mean_energy: float
    entropy: float


def _mean_energy(ev: np.ndarray, lam: float) -> float:
    a = -lam * ev
    a -= a.max()
    w = np.exp(a)
    return float((ev * w).sum() / w.sum())


def _log_partition(ev: np.ndarray, lam: float) -> float:
    a = -lam * ev
    m = a.max()
    return float(m + math.log(np.exp(a - m).sum()))


def solve_gibbs(hamiltonian: Hamiltonian, energy: float) -> GibbsSolution:
    """Solve for the Gibbs state with the given mean energy.

    Requires a finite energy (ValueError otherwise) with ground_energy <
    energy < max_energy; outside that open interval no multiplier exists.
    Bisection on λ; the mean energy is strictly decreasing in λ, and the
    initial bracket ±50/(E_max - E_0) is expanded geometrically if needed.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be a finite number, got {energy}")
    ev = hamiltonian.eigenvalues
    e0, emax = float(ev[0]), float(ev[-1])
    if not e0 < energy < emax:
        raise InfeasibleProblemError(
            f"a Gibbs state exists only for mean energies in ({e0}, {emax}), got {energy}"
        )
    scale = 50.0 / (emax - e0)
    lo, hi = -scale, scale
    for _ in range(200):
        if _mean_energy(ev, lo) >= energy:
            break
        lo *= 2.0
    for _ in range(200):
        if _mean_energy(ev, hi) <= energy:
            break
        hi *= 2.0
    tol = ENERGY_TOL * max(1.0, abs(energy))
    lam = 0.5 * (lo + hi)
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        m = _mean_energy(ev, lam)
        if m > energy:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 5e-14 * max(1.0, abs(lam)) and abs(m - energy) <= tol:
            break
    mean = _mean_energy(ev, lam)
    if abs(mean - energy) > tol:
        raise RuntimeError(f"Gibbs bisection failed to reach tolerance: |{mean} - {energy}|")
    a = -lam * ev
    a -= a.max()
    w = np.exp(a)
    w /= w.sum()
    u = hamiltonian.eigenbasis
    state = DensityOperator((u * w) @ u.conj().T)
    entropy = lam * mean + _log_partition(ev, lam)
    return GibbsSolution(lam=lam, state=state, mean_energy=mean, entropy=entropy)


def max_entropy(hamiltonian: Hamiltonian, energy: float) -> float:
    """Largest von Neumann entropy among states with Tr[Hρ] <= energy.

    At the ground energy the value is ln(ground multiplicity); once the
    uniform state becomes feasible the value saturates at ln(dim), a
    finite-dimensional truncation artifact rather than a property of the
    untruncated model.
    """
    ev = hamiltonian.eigenvalues
    d = hamiltonian.dimension
    e0 = float(ev[0])
    if energy < e0:
        raise InfeasibleProblemError(
            f"no state has mean energy below the ground energy {e0}, got {energy}"
        )
    if energy <= e0 + DEGENERACY_GAP:
        return math.log(hamiltonian.ground_multiplicity())
    if energy >= float(ev.mean()):
        return math.log(d)
    return solve_gibbs(hamiltonian, energy).entropy


@dataclass(frozen=True)
class HarmonicModes:
    """Frequencies ħω_i of a multimode harmonic oscillator."""

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        if not freqs:
            raise ValueError("at least one mode frequency is required")
        if any(f <= 0 or not math.isfinite(f) for f in freqs):
            raise ValueError("mode frequencies must be positive and finite")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def modes(self) -> int:
        return len(self.frequencies)

    @property
    def ground_energy(self) -> float:
        """Zero-point energy, half the sum of the mode frequencies."""
        return 0.5 * sum(self.frequencies)

    @property
    def frequency_scale(self) -> float:
        """Geometric mean of the mode frequencies."""
        prod = reduce(lambda a, b: a * b, self.frequencies, 1.0)
        return prod ** (1.0 / len(self.frequencies))


def oscillator_entropy_bound(modes: HarmonicModes, energy: float) -> float:
    """Closed-form entropy bound ℓ ln((E + E0)/(ℓ E*)) + ℓ for ℓ modes.

    E0 is the zero-point energy and E* the geometric mean frequency. The
    value dominates max_entropy of any finite truncation of the oscillator,
    is increasing and concave in E, positive for every E > 0, and obeys
    the shift rule bound(E/x) <= bound(E) - ℓ ln x for x in (0, 1].
    """
    if energy <= 0.0:
        raise ValueError(f"the oscillator entropy bound needs energy > 0, got {energy}")
    ell = modes.modes
    return ell * math.log((energy + modes.ground_energy) / (ell * modes.frequency_scale)) + ell


def shifted_entropy_bound(hamiltonian: Hamiltonian, energy: float) -> float:
    """max_entropy evaluated at energy + ground_energy.

    A generic upper bound on max_entropy that is positive and concave for
    0 < energy below the saturation point mean(eigenvalues) - ground_energy;
    past saturation it stays a valid bound but freezes at ln(dim).
    """
    if energy <= 0.0:
        raise ValueError(f"the shifted entropy bound needs energy > 0, got {energy}")
    return max_entropy(hamiltonian, energy + hamiltonian.ground_energy)


def shifted_bound_saturation(hamiltonian: Hamiltonian) -> float:
    """Energy at which shifted_entropy_bound freezes at ln(dim)."""
    return float(hamiltonian.eigenvalues.mean()) - hamiltonian.ground_energy

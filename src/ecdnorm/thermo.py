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

from .operators import DEGENERACY_GAP, DensityOperator, Hamiltonian, InfeasibleProblemError

ENERGY_TOL = 1e-9


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


def _gibbs_weights(ev: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows e^{-λE - c} for each λ, with c = max(-λE) so each row peaks at 1, and c."""
    a = -lam[:, None] * ev
    top = np.maximum.reduce(a, axis=1, keepdims=True)
    a -= top
    return np.exp(a, out=a), top[:, 0]


def _mean_energies(ev: np.ndarray, lam: np.ndarray) -> np.ndarray:
    w = _gibbs_weights(ev, lam)[0]
    return np.add.reduce(ev * w, axis=1) / np.add.reduce(w, axis=1)


def _bisect_multipliers(ev: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """λ with Gibbs mean energy equal to each of `energies`, all in (E_0, E_max).

    One bisection for the whole batch; the mean energy is strictly
    decreasing in λ. Every element starts from the bracket ±50/(E_max - E_0),
    expanded geometrically if needed, and keeps its own stopping test: once
    it passes, lo = hi = λ, so later midpoints return exactly that λ. Each
    result therefore equals that of a bisection run on its energy alone.
    """
    scale = 50.0 / (ev[-1] - ev[0])
    lo = np.full(energies.size, -scale)
    hi = np.full(energies.size, scale)
    for end, short in ((lo, np.less), (hi, np.greater)):
        for _ in range(200):
            grow = short(_mean_energies(ev, end), energies)
            if not np.count_nonzero(grow):
                break
            end[grow] *= 2.0
    tol = ENERGY_TOL * np.maximum(1.0, np.abs(energies))
    # Step k leaves a bracket of at least (hi - lo)/2^(k+1) less twice the
    # midpoint rounding (2^-52 max(|lo|, hi) per step); while that exceeds
    # 1e-13 max(1, |lo|, hi) no element can pass the width test, so the
    # first `quiet` steps skip it.
    reach = np.maximum(1.0, np.maximum(hi, -lo))
    quiet = int(np.log2(np.min((hi - lo) / (1e-13 * reach))))
    for k in range(200):
        lam = 0.5 * (lo + hi)
        m = _mean_energies(ev, lam)
        above = m > energies
        np.copyto(lo, lam, where=above)
        np.copyto(hi, lam, where=~above)
        if k < quiet:
            continue
        narrow = hi - lo <= 5e-14 * np.maximum(1.0, np.abs(lam))
        if np.count_nonzero(narrow):
            done = narrow & (np.abs(m - energies) <= tol)
            lo[done] = hi[done] = lam[done]
            if done.all():
                break
    if np.any(np.abs(m - energies) > tol):
        raise RuntimeError(f"Gibbs bisection failed to reach tolerance: |{m} - {energies}|")
    return lam


def _gibbs_terms(ev: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per λ: the Gibbs weights (rows summing to 1), mean energy and entropy.

    The entropy is λ·mean + ln Tr e^{-λH}.
    """
    w, top = _gibbs_weights(ev, lam)
    z = np.add.reduce(w, axis=1)
    mean = np.add.reduce(ev * w, axis=1) / z
    log_z = top + np.array([math.log(s) for s in z])
    return w / z[:, None], mean, lam * mean + log_z


def gibbs_multiplier(hamiltonian: Hamiltonian, energy: float) -> float:
    """The multiplier λ of the Gibbs state e^{-λH}/Z with the given mean energy.

    Requires a finite energy (ValueError otherwise) with ground_energy <
    energy < max_energy; outside that open interval no multiplier exists.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be a finite number, got {energy}")
    e0, emax = hamiltonian.ground_energy, hamiltonian.max_energy
    if not e0 < energy < emax:
        raise InfeasibleProblemError(
            f"a Gibbs state exists only for mean energies in ({e0}, {emax}), got {energy}"
        )
    lam = _bisect_multipliers(hamiltonian.eigenvalues, np.array([energy], dtype=np.float64))
    return float(lam[0])


def solve_gibbs(hamiltonian: Hamiltonian, energy: float) -> GibbsSolution:
    """Solve for the Gibbs state with the given mean energy.

    Takes λ from gibbs_multiplier, with the same requirements on energy.
    """
    lam = gibbs_multiplier(hamiltonian, energy)
    w, mean, entropy = _gibbs_terms(hamiltonian.eigenvalues, np.array([lam]))
    u = hamiltonian.eigenbasis
    state = DensityOperator((u * w[0]) @ u.conj().T)
    return GibbsSolution(
        lam=lam, state=state, mean_energy=float(mean[0]), entropy=float(entropy[0])
    )


def max_entropy(hamiltonian: Hamiltonian, energy):
    """Largest von Neumann entropy among states with Tr[Hρ] <= energy.

    energy is a scalar or an array; an array gives an array of values, each
    equal to the scalar call. At the ground energy the value is ln(ground
    multiplicity); once the uniform state becomes feasible the value
    saturates at ln(dim), a finite-dimensional truncation artifact rather
    than a property of the untruncated model. Below those, one batched
    multiplier solve serves every energy.
    """
    e = np.asarray(energy, dtype=np.float64)
    e0 = hamiltonian.ground_energy
    if np.count_nonzero(e < e0):
        raise InfeasibleProblemError(
            f"no state has mean energy below the ground energy {e0}, got {e.min()}"
        )
    values = np.full(e.shape, math.log(hamiltonian.dimension))
    ground = e <= e0 + DEGENERACY_GAP
    if np.count_nonzero(ground):
        values[ground] = math.log(hamiltonian.ground_multiplicity())
    inner = ~(ground | (e >= hamiltonian.mean_eigenvalue))
    if np.count_nonzero(inner):
        inside = e[inner]
        if not np.all(np.isfinite(inside)):
            raise ValueError(f"energy must be a finite number, got {energy}")
        ev = hamiltonian.eigenvalues
        values[inner] = _gibbs_terms(ev, _bisect_multipliers(ev, inside))[2]
    return float(values) if e.ndim == 0 else values


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


def _nonpositive(energy) -> bool:
    """energy <= 0 for a scalar; for an array, at any element."""
    return bool(np.any(energy <= 0.0)) if isinstance(energy, np.ndarray) else energy <= 0.0


def oscillator_entropy_bound(modes: HarmonicModes, energy):
    """Closed-form entropy bound ℓ ln((E + E0)/(ℓ E*)) + ℓ for ℓ modes.

    E0 is the zero-point energy and E* the geometric mean frequency. The
    value dominates max_entropy of any finite truncation of the oscillator,
    is increasing and concave in E, positive for every E > 0, and obeys
    the shift rule bound(E/x) <= bound(E) - ℓ ln x for x in (0, 1]. energy
    is a scalar (evaluated with math.log) or an ndarray (with np.log).
    """
    if _nonpositive(energy):
        raise ValueError(f"the oscillator entropy bound needs energy > 0, got {energy}")
    log = np.log if isinstance(energy, np.ndarray) else math.log
    ell = modes.modes
    return ell * log((energy + modes.ground_energy) / (ell * modes.frequency_scale)) + ell


def shifted_entropy_bound(hamiltonian: Hamiltonian, energy):
    """max_entropy evaluated at energy + ground_energy.

    A generic upper bound on max_entropy that is positive and concave for
    0 < energy below the saturation point mean(eigenvalues) - ground_energy;
    past saturation it stays a valid bound but freezes at ln(dim). energy is
    a scalar or an array, as for max_entropy.
    """
    if _nonpositive(energy):
        raise ValueError(f"the shifted entropy bound needs energy > 0, got {energy}")
    return max_entropy(hamiltonian, energy + hamiltonian.ground_energy)


def shifted_bound_saturation(hamiltonian: Hamiltonian) -> float:
    """Energy at which shifted_entropy_bound freezes at ln(dim)."""
    return hamiltonian.mean_eigenvalue - hamiltonian.ground_energy

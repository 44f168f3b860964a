"""Continuity bounds for entropic channel quantities.

Each bound has the shape

    total = c_main * ε (2t + r) * F(X / (εt)) + c_g * g(ε r) + c_h * h2(εt)

where r = (1 + t/2)/(1 - εt) is the smoothing factor, F an entropy bound
(an increasing concave upper bound on constrained max entropy), X the
relevant energy scale, and t a free parameter in (0, 1/(2ε)] to minimize
over. The bounds are the rows of BOUND_KINDS; they differ only in their
coefficient triple, in the energy scale they expect, and in which side's
Hamiltonian F refers to. Each public name is an alias of its row:

    chi        holevo_quantity_bound      (1, 2, 2)     X = E   output side
    qmi        mutual_info_bound          (2n, 2n, 4n)  X = E   output side
    cchi       holevo_capacity_bound      (1, 2, 2)     X = kE  output side
    ccap       classical_capacity_bound   (2, 2, 4)     X = kE  output side
    eacap-in   ea_capacity_bound_input    (2, 2, 4)     X = E   input side
    eacap-out  ea_capacity_bound_output   (2, 2, 4)     X = kE  output side

qmi bounds the difference of mutual informations after n = copies
sequential channel uses, with X the mean of the per-step output energy caps.
The input-side entanglement-assisted bound needs no energy gain factor, so
arbitrary channels qualify. The premise in every case is that the two
channels being compared are within 2ε in the energy-constrained norm at the
matching input energy; k is the energy gain factor of the channels.

F is a cap class whose `at(E)` takes a scalar or an array: the oscillator
closed form (alone with the sharpened log-shift form), the shifted Gibbs cap
of a Hamiltonian, or any tabulated function.

The formula is one function, `_terms`, with math or numpy logarithms: a
kind's call, its array form `terms` and every step of `optimize_t` score t
through it. `optimize_t` takes the grid point of the smallest array total,
rescores that one point on the scalar path and refines around it. Inputs
are checked once per public entry, as BoundInputs: the t of a call, both
ends of a `terms` array, and for `optimize_t` the ends of its grid, which
enclose every t it scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .operators import Hamiltonian
from .optim import golden_section_min
from .thermo import max_entropy


def smoothing_factor(epsilon: float, t: float) -> float:
    """(1 + t/2) / (1 - εt); finite for εt < 1, tends to 1 as t -> 0."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be a finite positive number, got {t}")
    if epsilon * t >= 1.0:
        raise ValueError(f"need εt < 1, got εt = {epsilon * t}")
    return (1.0 + 0.5 * t) / (1.0 - epsilon * t)


def _require_positive(energy, cap: str) -> None:
    """Raise unless energy > 0; an array must be positive at every element."""
    if np.any(energy <= 0.0) if isinstance(energy, np.ndarray) else energy <= 0.0:
        raise ValueError(f"the {cap} entropy bound needs energy > 0, got {energy}")


@dataclass(frozen=True)
class OscillatorEntropyBound:
    """Closed-form entropy bound ℓ ln((E + E₀)/(ℓE*)) + ℓ for ℓ modes.

    frequencies are the mode frequencies ħω_i; E₀ = ½Σω is the zero-point
    energy and E* the geometric mean frequency. The value dominates
    max_entropy of any finite truncation of the oscillator, is increasing
    and concave in E, positive for every E > 0, and obeys the shift rule
    F(E/x) <= F(E) − ℓ ln x for x in (0, 1]. So the sharpened log-shift
    evaluation F(E) − ℓ ln(εt) may replace F(E/(εt)); it never exceeds the
    generic one. The energy of `at` and the scale x of `log_shift_at` may be
    ndarrays (numpy logarithms) or scalars (math logarithms).
    """

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        if not freqs:
            raise ValueError("at least one mode frequency is required")
        if any(f <= 0 or not math.isfinite(f) for f in freqs):
            raise ValueError("mode frequencies must be positive and finite")
        object.__setattr__(self, "frequencies", freqs)

    def at(self, energy):
        _require_positive(energy, "oscillator")
        log = np.log if isinstance(energy, np.ndarray) else math.log
        ell = len(self.frequencies)
        ground = 0.5 * sum(self.frequencies)
        scale = math.prod(self.frequencies) ** (1.0 / ell)
        return ell * log((energy + ground) / (ell * scale)) + ell

    def log_shift_at(self, energy: float, x):
        if isinstance(x, np.ndarray):
            inside, log = np.all((0.0 < x) & (x <= 1.0)), np.log
        else:
            inside, log = 0.0 < x <= 1.0, math.log
        if not inside:
            raise ValueError("log-shift evaluation needs a scale in (0, 1]")
        return self.at(energy) - len(self.frequencies) * log(x)


@dataclass(frozen=True)
class ShiftedGibbsEntropyBound:
    """Entropy bound max_entropy(H, E + E₀) for a concrete Hamiltonian.

    A generic upper bound on max_entropy, valid for every E > 0 and positive
    and concave below saturation_energy (the uniform-state mean less E₀);
    past that point it remains a correct bound yet freezes at ln(dim), a
    finite-dimensional artifact worth reporting alongside values. `at` takes
    a scalar or an array of energies, as max_entropy does.
    """

    hamiltonian: Hamiltonian

    def at(self, energy):
        _require_positive(energy, "shifted")
        return max_entropy(self.hamiltonian, energy + self.hamiltonian.ground_energy)

    @property
    def saturation_energy(self) -> float:
        return self.hamiltonian.mean_eigenvalue - self.hamiltonian.ground_energy


@dataclass(frozen=True)
class TabulatedEntropyBound:
    """Wraps any positive increasing concave function of energy.

    `at` on an ndarray calls fn once per element, with a float.
    """

    fn: Callable[[float], float]

    def at(self, energy):
        if isinstance(energy, np.ndarray):
            return np.array([float(self.fn(float(e))) for e in energy])
        return float(self.fn(energy))


EntropyBound = Union[OscillatorEntropyBound, ShiftedGibbsEntropyBound, TabulatedEntropyBound]


@dataclass(frozen=True)
class BoundInputs:
    """Arguments shared by all bound evaluations.

    energy_arg is the energy scale X fed to the entropy bound (E or kE
    depending on the bound); only the qmi bound accepts copies != 1.
    """

    epsilon: float
    energy_arg: float
    t: float
    entropy_bound: EntropyBound
    copies: int = 1

    def __post_init__(self):
        for name in ("epsilon", "energy_arg", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.energy_arg <= 0.0:
            raise ValueError(f"energy argument must be positive, got {self.energy_arg}")
        limit = 1.0 / (2.0 * self.epsilon)
        if not 0.0 < self.t <= limit * (1.0 + 1e-12):
            raise ValueError(f"t must lie in (0, {limit}], got {self.t}")
        if self.copies < 1:
            raise ValueError("copies must be at least 1")


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound, split into its three additive terms."""

    total: float
    main_term: float
    g_term: float
    h2_term: float
    t_used: float


def _terms(epsilon, energy_arg, t, entropy_bound, coefficients, use_log_shift, lib):
    """The main, g and h2 terms at t, with lib.log and lib.log1p.

    lib is math for a scalar t and numpy for an array of t. The caller has
    checked the inputs, so ε r > 0 and εt lies in (0, 1/2]: g and h2 need no
    branch at zero.
    """
    c_main, c_g, c_h = coefficients
    x = epsilon * t
    r = (1.0 + 0.5 * t) / (1.0 - x)
    if use_log_shift:
        if not isinstance(entropy_bound, OscillatorEntropyBound):
            raise ValueError("the log-shift form needs an oscillator entropy bound")
        f_val = entropy_bound.log_shift_at(energy_arg, x)
    else:
        f_val = entropy_bound.at(energy_arg / x)
    main = c_main * epsilon * (2.0 * t + r) * f_val
    y = epsilon * r
    g_term = c_g * ((y + 1.0) * lib.log1p(y) - y * lib.log(y))
    h_term = c_h * (-x * lib.log(x) + -(1.0 - x) * lib.log(1.0 - x))
    return main, g_term, h_term


@dataclass(frozen=True)
class BoundKind:
    """One row of the bound table: the coefficients (c_main, c_g, c_h).

    Called with BoundInputs (and use_log_shift) it evaluates the bound;
    `terms` evaluates it at a whole array of t. Only a kind that
    scales_with_copies accepts copies != 1; it multiplies every coefficient
    by the number of copies.
    """

    c_main: float
    c_g: float
    c_h: float
    scales_with_copies: bool = False

    def _coefficients(self, copies: int) -> tuple[float, float, float]:
        if self.scales_with_copies:
            n = float(copies)
            return self.c_main * n, self.c_g * n, self.c_h * n
        if copies != 1:
            raise ValueError(f"this bound is single-copy; copies must be 1, got {copies}")
        return self.c_main, self.c_g, self.c_h

    def __call__(self, inputs: BoundInputs, use_log_shift: bool = False) -> BoundValue:
        main, g_term, h_term = _terms(
            inputs.epsilon,
            inputs.energy_arg,
            inputs.t,
            inputs.entropy_bound,
            self._coefficients(inputs.copies),
            use_log_shift,
            math,
        )
        return BoundValue(main + g_term + h_term, main, g_term, h_term, inputs.t)

    def terms(
        self,
        epsilon: float,
        energy_arg: float,
        t: np.ndarray,
        entropy_bound: EntropyBound,
        copies: int = 1,
        use_log_shift: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The main, g and h2 terms at every t of a 1-D array, in one pass.

        The formulas are those of a call, with numpy logarithms, so each
        value agrees with the scalar evaluation to rounding. The inputs are
        checked once, as BoundInputs at the smallest and the largest t.
        """
        t = np.asarray(t, dtype=np.float64)
        for t_end in (t.min(), t.max()):
            BoundInputs(epsilon, energy_arg, float(t_end), entropy_bound, copies)
        return _terms(
            epsilon, energy_arg, t, entropy_bound, self._coefficients(copies), use_log_shift, np
        )


BOUND_KINDS: dict[str, BoundKind] = {
    "chi": BoundKind(1.0, 2.0, 2.0),
    "qmi": BoundKind(2.0, 2.0, 4.0, scales_with_copies=True),
    "cchi": BoundKind(1.0, 2.0, 2.0),
    "ccap": BoundKind(2.0, 2.0, 4.0),
    "eacap-in": BoundKind(2.0, 2.0, 4.0),
    "eacap-out": BoundKind(2.0, 2.0, 4.0),
}

holevo_quantity_bound = BOUND_KINDS["chi"]
mutual_info_bound = BOUND_KINDS["qmi"]
holevo_capacity_bound = BOUND_KINDS["cchi"]
classical_capacity_bound = BOUND_KINDS["ccap"]
ea_capacity_bound_input = BOUND_KINDS["eacap-in"]
ea_capacity_bound_output = BOUND_KINDS["eacap-out"]

GRID_POINTS = 200
T_FLOOR_SCALE = 1e-8


def t_grid(epsilon: float, points: int) -> np.ndarray:
    """Log-spaced values of t from T_FLOOR_SCALE/ε to 1/(2ε), for ε in (0, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    t_lo = T_FLOOR_SCALE / epsilon
    t_hi = 1.0 / (2.0 * epsilon)
    return np.exp(np.linspace(math.log(t_lo), math.log(t_hi), points))


def optimize_t(
    kind,
    epsilon: float,
    energy_arg: float,
    entropy_bound: EntropyBound,
    copies: int = 1,
    use_log_shift: bool = False,
) -> tuple[float, BoundValue]:
    """Minimize a bound total over t in (0, 1/(2ε)].

    Scans a log-spaced grid of GRID_POINTS values, then refines around the
    best grid point with a golden-section search in log t down to relative
    width 1e-6. The returned total never exceeds any grid value. kind is a
    BOUND_KINDS key or a BoundKind.

    The grid is scanned in one array pass (`BoundKind.terms`), which checks
    the inputs at both ends of the grid; every later t lies between them, so
    the scalar steps call `_terms` directly. The array and scalar totals
    agree to rounding, so the result is that of a point-by-point scan
    whenever the grid minimum is unique to rounding.
    """
    bound_fn = BOUND_KINDS[kind] if isinstance(kind, str) else kind
    if not isinstance(bound_fn, BoundKind):
        raise TypeError(f"kind must be a BOUND_KINDS key or a BoundKind, got {kind!r}")
    grid = t_grid(epsilon, GRID_POINTS)
    main, g_terms, h_terms = bound_fn.terms(
        epsilon, energy_arg, grid, entropy_bound, copies, use_log_shift
    )
    coefficients = bound_fn._coefficients(copies)

    def total_at(t: float) -> float:
        m, g, h = _terms(epsilon, energy_arg, t, entropy_bound, coefficients, use_log_shift, math)
        return m + g + h

    i = int(np.argmin(main + g_terms + h_terms))
    grid_best = total_at(float(grid[i]))
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, GRID_POINTS - 1)])
    u, val = golden_section_min(lambda x: total_at(math.exp(x)), a, b, tol=1e-6)
    t_star = math.exp(u)
    if grid_best < val:
        t_star, val = float(grid[i]), grid_best
    inputs = BoundInputs(epsilon, energy_arg, t_star, entropy_bound, copies)
    return t_star, bound_fn(inputs, use_log_shift)

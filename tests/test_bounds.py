"""Continuity-bound assembly: smoothing factor, entropy-bound wrappers, the
six bound kinds, and the t optimization."""

import math
from collections import Counter

import numpy as np
import pytest

from ecdnorm import (
    BOUND_KINDS,
    BoundInputs,
    BoundValue,
    Hamiltonian,
    HarmonicModes,
    OscillatorEntropyBound,
    ShiftedGibbsEntropyBound,
    TabulatedEntropyBound,
    classical_capacity_bound,
    golden_section_min,
    holevo_quantity_bound,
    mutual_info_bound,
    optimize_t,
    oscillator_entropy_bound,
    shifted_entropy_bound,
    smoothing_factor,
)
from ecdnorm import bounds
from ecdnorm.bounds import GRID_POINTS, BoundKind, t_grid

OSC = OscillatorEntropyBound(HarmonicModes((1.0,)))
QUBIT = ShiftedGibbsEntropyBound(Hamiltonian([0.0, 1.0]))
SHIFTED = ShiftedGibbsEntropyBound(Hamiltonian(np.arange(9) + 0.5))
TABULATED = TabulatedEntropyBound(lambda e: 1.0 + math.log1p(e) + math.sqrt(e))
# (entropy bound, use_log_shift) pairs every bound kind is checked with
ENTROPY_FORMS = ((OSC, False), (OSC, True), (SHIFTED, False), (TABULATED, False))


def test_smoothing_factor_values():
    assert abs(smoothing_factor(0.1, 1.0) - 5.0 / 3.0) < 1e-15
    # small t limit approaches 1
    assert abs(smoothing_factor(1e-9, 1e-9) - 1.0) < 1e-8
    for eps, t in [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)]:
        with pytest.raises(ValueError):
            smoothing_factor(eps, t)  # epsilon * t >= 1
    with pytest.raises(ValueError):
        smoothing_factor(-0.1, 0.5)
    with pytest.raises(ValueError):
        smoothing_factor(0.1, 0.0)


def test_entropy_bound_wrappers():
    modes = HarmonicModes((1.0, 3.0))
    osc = OscillatorEntropyBound(modes)
    assert abs(osc.at(2.5) - oscillator_entropy_bound(modes, 2.5)) < 1e-15
    assert abs(osc.log_shift_at(2.5, 0.2) - (osc.at(2.5) - 2.0 * math.log(0.2))) < 1e-12
    with pytest.raises(ValueError):
        osc.log_shift_at(2.5, 1.5)
    with pytest.raises(ValueError):
        osc.log_shift_at(2.5, 0.0)

    h = Hamiltonian([0.2, 0.9, 2.0])
    sh = ShiftedGibbsEntropyBound(h)
    assert abs(sh.at(1.0) - shifted_entropy_bound(h, 1.0)) < 1e-15
    assert abs(sh.saturation_energy - (np.mean([0.2, 0.9, 2.0]) - 0.2)) < 1e-12

    tab = TabulatedEntropyBound(lambda e: 2.0 * e)
    assert tab.at(3.0) == 6.0


def test_holevo_bound_frozen_value():
    val = holevo_quantity_bound(BoundInputs(0.1, 1.0, 1.0, OSC))
    assert abs(val.main_term - 1.2288375942932752) < 1e-12
    assert abs(val.g_term - 0.9569380760062878) < 1e-12
    assert abs(val.h2_term - 0.6501659467828964) < 1e-12
    assert abs(val.total - 2.8359416170824594) < 1e-12
    assert val.t_used == 1.0


def test_capacity_bound_frozen_values():
    # same inputs at a doubled energy argument
    val = holevo_quantity_bound(BoundInputs(0.1, 2.0, 1.0, OSC))
    assert abs(val.main_term - 1.4741557915862664) < 1e-12
    assert abs(val.total - 3.0812598143754504) < 1e-12
    # classical capacity doubles the main and h2 coefficients
    cap = classical_capacity_bound(BoundInputs(0.1, 1.0, 1.0, OSC))
    assert abs(cap.main_term - 2.4576751885865503) < 1e-12
    assert abs(cap.h2_term - 1.3003318935657928) < 1e-12
    assert abs(cap.total - 4.714945158158631) < 1e-12


def test_mutual_info_bound_frozen_value():
    val = mutual_info_bound(BoundInputs(0.05, 0.4, 2.0, QUBIT))
    assert abs(val.main_term - 0.4312915790150771) < 1e-12
    assert abs(val.g_term - 0.7224066075365517) < 1e-12
    assert abs(val.h2_term - 1.3003318935657928) < 1e-12
    assert abs(val.total - 2.4540300801174215) < 1e-12


def test_bound_terms_sum_to_total():
    rng = np.random.default_rng(80)
    for name, fn in BOUND_KINDS.items():
        for _ in range(50):
            eps = rng.uniform(0.01, 1.0)
            t = rng.uniform(0.05, 0.95) / (2.0 * eps)
            e = rng.uniform(0.1, 20.0)
            copies = int(rng.integers(1, 4)) if name == "qmi" else 1
            val = fn(BoundInputs(eps, e, t, OSC, copies=copies))
            s = val.main_term + val.g_term + val.h2_term
            assert abs(val.total - s) < 1e-12 * max(1.0, s)
            assert val.t_used == t


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(1.5, 1.0, 0.4, OSC)  # epsilon above one
    with pytest.raises(ValueError):
        BoundInputs(0.0, 1.0, 0.4, OSC)
    with pytest.raises(ValueError):
        BoundInputs(0.1, -1.0, 0.4, OSC)  # energy argument
    with pytest.raises(ValueError):
        BoundInputs(0.1, 1.0, 0.0, OSC)
    with pytest.raises(ValueError):
        BoundInputs(0.1, 1.0, 5.1, OSC)  # t beyond 1/(2 eps)
    with pytest.raises(ValueError):
        BoundInputs(0.1, 1.0, 0.4, OSC, copies=0)


def test_log_shift_form_dominates_generic():
    # the shifted form replaces fhat(E/(eps t)) by fhat(E) - l log(eps t),
    # which can only be larger
    rng = np.random.default_rng(81)
    for _ in range(60):
        eps = rng.uniform(0.01, 0.9)
        t = rng.uniform(0.05, 0.95) / (2.0 * eps)
        e = rng.uniform(0.1, 10.0)
        inputs = BoundInputs(eps, e, t, OSC)
        plain = holevo_quantity_bound(inputs).total
        shifted = holevo_quantity_bound(inputs, use_log_shift=True).total
        assert shifted >= plain - 1e-12


def test_log_shift_needs_oscillator_bound():
    with pytest.raises(ValueError):
        holevo_quantity_bound(BoundInputs(0.1, 1.0, 1.0, QUBIT), use_log_shift=True)


def test_bounds_increase_with_epsilon():
    t = 0.4
    prev = -np.inf
    for eps in np.linspace(0.01, 1.0, 25):
        if t > 1.0 / (2.0 * eps):
            break
        total = holevo_quantity_bound(BoundInputs(eps, 1.0, t, OSC)).total
        assert total >= prev - 1e-12
        prev = total


def test_endpoints_diverge_and_optimizer_stays_interior():
    eps = 0.05
    t_star, best = optimize_t("chi", eps, 1.0, OSC)
    limit = 1.0 / (2.0 * eps)
    assert 0.0 < t_star <= limit
    near_zero = holevo_quantity_bound(BoundInputs(eps, 1.0, 1e-7 / eps, OSC)).total
    near_top = holevo_quantity_bound(BoundInputs(eps, 1.0, 0.999 * limit, OSC)).total
    assert best.total < near_zero
    assert best.total < near_top


def test_optimize_t_beats_grid_samples():
    rng = np.random.default_rng(82)
    for kind in ("chi", "ccap", "qmi"):
        eps = 0.08
        t_star, best = optimize_t(kind, eps, 2.0, OSC)
        fn = BOUND_KINDS[kind]
        assert abs(best.t_used - t_star) < 1e-15
        for _ in range(120):
            t = rng.uniform(1e-6, 1.0) / (2.0 * eps)
            val = fn(BoundInputs(eps, 2.0, t, OSC)).total
            assert best.total <= val + 1e-9


def test_optimize_t_accepts_callable_kind():
    by_name = optimize_t("chi", 0.1, 1.0, OSC)
    by_fn = optimize_t(holevo_quantity_bound, 0.1, 1.0, OSC)
    assert by_name[0] == by_fn[0]
    assert by_name[1].total == by_fn[1].total


def test_optimize_t_rejects_other_callables():
    def plain(inputs, use_log_shift=False):
        return holevo_quantity_bound(inputs, use_log_shift)

    with pytest.raises(TypeError, match="BoundKind"):
        optimize_t(plain, 0.1, 1.0, OSC)


def test_optimize_t_with_log_shift():
    t_star, best = optimize_t("chi", 0.02, 1.0, OSC, use_log_shift=True)
    assert 0.0 < t_star <= 1.0 / 0.04
    plain = optimize_t("chi", 0.02, 1.0, OSC)[1].total
    assert best.total >= plain - 1e-12


def test_copies_only_for_the_scaling_kind():
    assert [k for k, b in BOUND_KINDS.items() if b.scales_with_copies] == ["qmi"]
    inputs = BoundInputs(0.1, 1.0, 1.0, OSC, copies=5)
    for kind, bound in BOUND_KINDS.items():
        if kind == "qmi":
            one = bound(BoundInputs(0.1, 1.0, 1.0, OSC)).total
            assert abs(bound(inputs).total - 5.0 * one) <= 1e-12 * one
        else:
            with pytest.raises(ValueError, match="copies"):
                bound(inputs)
    with pytest.raises(ValueError, match="copies"):
        optimize_t("chi", 0.1, 1.0, OSC, copies=5)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"epsilon": e}, id=f"epsilon={e}")
        for e in (0.0, -0.1, 1.5, math.nan, math.inf, -math.inf)
    ]
    + [
        pytest.param({"energy_arg": x}, id=f"energy_arg={x}")
        for x in (0.0, -1.0, math.nan, math.inf, -math.inf)
    ]
    + [
        pytest.param({"copies": 2}, id="copies=2-chi"),
        pytest.param({"kind": "qmi", "copies": 0}, id="copies=0-qmi"),
        pytest.param({"entropy_bound": SHIFTED, "use_log_shift": True}, id="log-shift-shifted"),
    ],
)
def test_optimize_t_rejects_bad_inputs(change):
    args = {"kind": "chi", "epsilon": 0.1, "energy_arg": 1.0, "entropy_bound": OSC}
    optimize_t(**args)
    args.update(change)
    with pytest.raises(ValueError):
        optimize_t(**args)


def _counted(cls, made):
    class Counted(cls):
        def __init__(self, *args, **kwargs):
            made[cls.__name__] += 1
            super().__init__(*args, **kwargs)

    return Counted


def test_optimize_t_checks_its_inputs_once(monkeypatch):
    """Two BoundInputs check the ends of the grid and one the result: the
    rescoring and golden-section steps build neither inputs nor values."""
    made = Counter()
    for cls in (BoundInputs, BoundValue):
        monkeypatch.setattr(bounds, cls.__name__, _counted(cls, made))
    for name in BOUND_KINDS:
        for eb, log_shift in ENTROPY_FORMS:
            made.clear()
            t_star, val = optimize_t(name, 0.05, 2.0, eb, use_log_shift=log_shift)
            assert made == {"BoundInputs": 3, "BoundValue": 1}
            assert val.t_used == t_star


def _scalar_grid_optimize_t(
    bound_fn, epsilon, energy_arg, entropy_bound, copies=1, use_log_shift=False
):
    """optimize_t with the grid scanned one scalar evaluation at a time."""

    def total_at(t):
        inputs = BoundInputs(epsilon, energy_arg, t, entropy_bound, copies)
        return bound_fn(inputs, use_log_shift).total

    grid = t_grid(epsilon, GRID_POINTS)
    totals = [total_at(float(t)) for t in grid]
    i = int(np.argmin(totals))
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, GRID_POINTS - 1)])
    u, val = golden_section_min(lambda x: total_at(math.exp(x)), a, b, tol=1e-6)
    t_star = math.exp(u)
    if totals[i] < val:
        t_star = float(grid[i])
    inputs = BoundInputs(epsilon, energy_arg, t_star, entropy_bound, copies)
    return t_star, bound_fn(inputs, use_log_shift)


def test_entropy_bounds_take_arrays():
    energies = np.linspace(0.05, 12.0, 60)
    for eb in (OSC, SHIFTED, TABULATED):
        values = eb.at(energies)
        for e, v in zip(energies, values):
            assert abs(v - eb.at(float(e))) <= 1e-14 * abs(v)
    scales = np.linspace(1e-3, 1.0, 20)
    shifted = OSC.log_shift_at(2.0, scales)
    for x, v in zip(scales, shifted):
        assert abs(v - OSC.log_shift_at(2.0, float(x))) <= 1e-14 * abs(v)
    with pytest.raises(ValueError):
        OSC.log_shift_at(2.0, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        OSC.at(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SHIFTED.at(np.array([1.0, -1.0]))


def test_grid_terms_match_scalar_bounds():
    for name, kind in BOUND_KINDS.items():
        for eb, log_shift in ENTROPY_FORMS:
            for eps, energy in ((0.01, 0.5), (0.05, 2.0), (0.2, 8.0)):
                copies = 3 if name == "qmi" else 1
                grid = t_grid(eps, GRID_POINTS)
                main, g_terms, h_terms = kind.terms(eps, energy, grid, eb, copies, log_shift)
                totals = main + g_terms + h_terms
                for j, t in enumerate(grid):
                    val = kind(BoundInputs(eps, energy, float(t), eb, copies), log_shift)
                    for got, want in (
                        (totals[j], val.total),
                        (main[j], val.main_term),
                        (g_terms[j], val.g_term),
                        (h_terms[j], val.h2_term),
                    ):
                        assert abs(got - want) <= 1e-13 * abs(want)


def test_grid_terms_validate_once():
    grid = t_grid(0.1, 5)
    with pytest.raises(ValueError, match="copies"):
        holevo_quantity_bound.terms(0.1, 1.0, grid, OSC, copies=2)
    with pytest.raises(ValueError):
        holevo_quantity_bound.terms(0.1, 1.0, grid * 1.5, OSC)  # t beyond 1/(2 eps)
    with pytest.raises(ValueError):
        holevo_quantity_bound.terms(0.1, -1.0, grid, OSC)
    with pytest.raises(ValueError, match="log-shift"):
        holevo_quantity_bound.terms(0.1, 1.0, grid, SHIFTED, use_log_shift=True)


def test_optimize_t_equals_the_scalar_grid_scan():
    saturation = SHIFTED.saturation_energy
    cases = []
    for name in BOUND_KINDS:
        for eb, log_shift in ENTROPY_FORMS:
            for eps, energy in ((0.01, 0.5), (0.05, 2.0), (0.2, 8.0)):
                cases.append((name, eps, energy, eb, 3 if name == "qmi" else 1, log_shift))
    crossing = 0
    for name, eps, energy, eb, copies, log_shift in cases:
        got = optimize_t(name, eps, energy, eb, copies=copies, use_log_shift=log_shift)
        want = _scalar_grid_optimize_t(BOUND_KINDS[name], eps, energy, eb, copies, log_shift)
        assert got == want
        if eb is SHIFTED:
            x = energy / (eps * t_grid(eps, GRID_POINTS))
            crossing += bool(x.min() < saturation < x.max())
    assert crossing >= 6  # the shifted grids run through saturation


def test_optimize_t_rescores_near_ties(monkeypatch):
    # grid totals that tie everywhere leave the whole choice to the scalar rescoring
    def flat_terms(self, epsilon, energy_arg, t, *args, **kwargs):
        zeros = np.zeros_like(t)
        return zeros, zeros, zeros

    want = _scalar_grid_optimize_t(holevo_quantity_bound, 0.05, 2.0, OSC)
    monkeypatch.setattr(BoundKind, "terms", flat_terms)
    assert optimize_t("chi", 0.05, 2.0, OSC) == want

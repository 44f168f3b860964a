"""Command-line interface.

Single results are emitted as JSON documents that echo the full
configuration (including seeds); parameter sweeps are emitted as CSV with
``# key=value`` header lines. Exit codes: 0 success, 2 validation or input
error, 3 infeasible energy budget. Identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bounds import (
    BOUND_KINDS,
    BoundInputs,
    OscillatorEntropyBound,
    ShiftedGibbsEntropyBound,
    optimize_t,
)
from .ecd import (
    EcdProblem,
    estimate_diamond_norm,
    estimate_ecd_norm,
    subspace_seminorm,
    truncation_norm_bound,
)
from .info import (
    Ensemble,
    channel_mutual_information,
    energy_gain,
    holevo_capacity_estimate,
    holevo_quantity,
    mutual_information,
)
from .operators import (
    Channel,
    DensityOperator,
    HermitianPreservingMap,
    InfeasibleProblemError,
)
from .serialize import (
    channel_from_json,
    channel_to_json,
    density_from_json,
    dump_json,
    ensemble_from_json,
    hamiltonian_from_json,
    hamiltonian_to_json,
    load_json,
    matrix_to_json,
)
from .thermo import HarmonicModes, max_entropy, oscillator_entropy_bound, solve_gibbs
from .zoo import (
    TruncatedOscillator,
    attenuator,
    depolarize_to,
    identity_channel,
    phase_rotation,
    vacuum_state,
)


@dataclass
class Sweep:
    """CSV payload: echoed configuration plus rows of column values."""

    config: dict[str, Any]
    columns: list[str]
    rows: list[list]


def _render_csv(sweep: Sweep) -> str:
    lines = [f"# {k}={sweep.config[k]}" for k in sorted(sweep.config)]
    lines.append(",".join(sweep.columns))
    for row in sweep.rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _emit(payload, out_path: str | None) -> None:
    text = _render_csv(payload) if isinstance(payload, Sweep) else dump_json(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_map(args) -> HermitianPreservingMap:
    phi = channel_from_json(load_json(args.phi))
    if getattr(args, "psi", None):
        psi = channel_from_json(load_json(args.psi))
        return HermitianPreservingMap.difference(phi, psi)
    return HermitianPreservingMap.from_channel(phi)


def _entropy_bound_from_spec(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "osc":
        try:
            freqs = tuple(float(x) for x in rest.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed oscillator spec {spec!r}") from exc
        return OscillatorEntropyBound(HarmonicModes(freqs))
    if kind == "shifted":
        if not rest:
            raise ValueError("shifted entropy bound needs a Hamiltonian file: shifted:PATH")
        return ShiftedGibbsEntropyBound(hamiltonian_from_json(load_json(rest)))
    raise ValueError(f"unknown entropy bound spec {spec!r}; use osc:W1[,W2..] or shifted:PATH")


def _vector_to_json(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in v]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_ecd_norm(args):
    the_map = _load_map(args)
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    problem = EcdProblem(the_map, h, args.energy, r_dim=args.r_dim)
    est = estimate_ecd_norm(
        problem, restarts=args.restarts, seed=args.seed, max_iter=args.max_iter
    )
    return {
        "command": "ecd-norm",
        "config": {
            "phi": args.phi,
            "psi": args.psi,
            "hamiltonian": args.hamiltonian,
            "energy": args.energy,
            "r_dim": problem.r_dim,
            "restarts": args.restarts,
            "seed": args.seed,
            "max_iter": args.max_iter,
        },
        "result": {
            "lower": est.lower,
            "upper": est.upper,
            "witness_energy": est.witness_energy,
            "witness": _vector_to_json(est.witness),
        },
    }


def _cmd_diamond(args):
    the_map = _load_map(args)
    est = estimate_diamond_norm(
        the_map,
        r_dim=args.r_dim,
        restarts=args.restarts,
        seed=args.seed,
        max_iter=args.max_iter,
    )
    return {
        "command": "diamond",
        "config": {
            "phi": args.phi,
            "psi": args.psi,
            "r_dim": args.r_dim or the_map.in_dim,
            "restarts": args.restarts,
            "seed": args.seed,
            "max_iter": args.max_iter,
        },
        "result": {
            "lower": est.lower,
            "upper": est.upper,
            "witness": _vector_to_json(est.witness),
        },
    }


def _cmd_qn(args):
    the_map = _load_map(args)
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    value = subspace_seminorm(
        the_map,
        h,
        args.levels,
        restarts=args.restarts,
        seed=args.seed,
        max_iter=args.max_iter,
    )
    return {
        "command": "qn",
        "config": {
            "phi": args.phi,
            "psi": args.psi,
            "hamiltonian": args.hamiltonian,
            "levels": args.levels,
            "restarts": args.restarts,
            "seed": args.seed,
            "max_iter": args.max_iter,
        },
        "result": {"seminorm": value},
    }


def _cmd_gibbs(args):
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    sol = solve_gibbs(h, args.energy)
    return {
        "command": "gibbs",
        "config": {"hamiltonian": args.hamiltonian, "energy": args.energy},
        "result": {
            "lambda": sol.lam,
            "mean_energy": sol.mean_energy,
            "entropy": sol.entropy,
            "state": matrix_to_json(sol.state.matrix),
        },
    }


def _cmd_fbound(args):
    if not args.hamiltonian and not args.fhat:
        raise ValueError("fbound needs --hamiltonian and/or --fhat")
    h = hamiltonian_from_json(load_json(args.hamiltonian)) if args.hamiltonian else None
    eb = _entropy_bound_from_spec(args.fhat) if args.fhat else None
    config = {"hamiltonian": args.hamiltonian, "fhat": args.fhat}
    if isinstance(eb, ShiftedGibbsEntropyBound):
        config["fhat_saturation_energy"] = eb.saturation_energy
    if args.energy_grid:
        lo, hi, num = args.energy_grid
        energies = np.linspace(lo, hi, num)
        columns = ["energy"]
        if h is not None:
            columns.append("max_entropy")
        if eb is not None:
            columns.append("entropy_bound")
        rows = []
        for e in energies:
            row: list = [float(e)]
            if h is not None:
                row.append(max_entropy(h, float(e)))
            if eb is not None:
                row.append(eb.at(float(e)))
            rows.append(row)
        return Sweep(config, columns, rows)
    result = {}
    if h is not None:
        result["max_entropy"] = max_entropy(h, args.energy)
    if eb is not None:
        result["entropy_bound"] = eb.at(args.energy)
    config["energy"] = args.energy
    return {"command": "fbound", "config": config, "result": result}


def _cmd_chi(args):
    probs, states = ensemble_from_json(load_json(args.ensemble))
    value = holevo_quantity(Ensemble(probs, states))
    return {
        "command": "chi",
        "config": {"ensemble": args.ensemble},
        "result": {"holevo_quantity": value},
    }


def _cmd_qmi(args):
    rho = density_from_json(load_json(args.state))
    da, db = args.dims
    value = mutual_information(rho, (da, db))
    return {
        "command": "qmi",
        "config": {"state": args.state, "dims": list(args.dims)},
        "result": {"mutual_information": value},
    }


def _cmd_cap_est(args):
    channel = channel_from_json(load_json(args.channel))
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    value = holevo_capacity_estimate(
        channel,
        h,
        args.energy,
        ensemble_size=args.ensemble_size,
        restarts=args.restarts,
        seed=args.seed,
        max_iter=args.max_iter,
    )
    return {
        "command": "cap-est",
        "config": {
            "channel": args.channel,
            "hamiltonian": args.hamiltonian,
            "energy": args.energy,
            "ensemble_size": args.ensemble_size or channel.in_dim,
            "restarts": args.restarts,
            "seed": args.seed,
            "max_iter": args.max_iter,
        },
        "result": {"capacity_lower_estimate": value},
    }


def _cmd_energy_gain(args):
    channel = channel_from_json(load_json(args.channel))
    h_in = hamiltonian_from_json(load_json(args.h_in))
    h_out = hamiltonian_from_json(load_json(args.h_out))
    k = energy_gain(channel, h_in, h_out, args.energy)
    return {
        "command": "energy-gain",
        "config": {
            "channel": args.channel,
            "h_in": args.h_in,
            "h_out": args.h_out,
            "energy": args.energy,
        },
        "result": {"energy_gain": k},
    }


def _bound_config(args) -> dict:
    config = {
        "kind": args.kind,
        "eps": args.eps,
        "energy": args.energy,
        "fhat": args.fhat,
        "copies": args.copies,
        "log_shift": args.log_shift,
    }
    eb = _entropy_bound_from_spec(args.fhat)
    if isinstance(eb, ShiftedGibbsEntropyBound):
        config["fhat_saturation_energy"] = eb.saturation_energy
    return config


def _cmd_bound(args):
    eb = _entropy_bound_from_spec(args.fhat)
    config = _bound_config(args)
    if args.sweep:
        t_hi = 1.0 / (2.0 * args.eps)
        ts = np.exp(np.linspace(np.log(1e-8 / args.eps), np.log(t_hi), args.sweep))
        rows = []
        for t in ts:
            bv = BOUND_KINDS[args.kind](
                BoundInputs(args.eps, args.energy, float(t), eb, copies=args.copies),
                args.log_shift,
            )
            rows.append([float(t), bv.total, bv.main_term, bv.g_term, bv.h2_term])
        config["sweep"] = args.sweep
        return Sweep(config, ["t", "total", "main", "g", "h2"], rows)
    if args.optimize_t or args.t is None:
        t_star, bv = optimize_t(
            args.kind,
            args.eps,
            args.energy,
            eb,
            copies=args.copies,
            use_log_shift=args.log_shift,
        )
        config["t"] = "optimized"
    else:
        bv = BOUND_KINDS[args.kind](
            BoundInputs(args.eps, args.energy, args.t, eb, copies=args.copies),
            args.log_shift,
        )
        config["t"] = args.t
    return {
        "command": "bound",
        "config": config,
        "result": {
            "total": bv.total,
            "main_term": bv.main_term,
            "g_term": bv.g_term,
            "h2_term": bv.h2_term,
            "t_used": bv.t_used,
        },
    }


def _cmd_optimize_t(args):
    args.optimize_t = True
    args.t = None
    args.sweep = 0
    doc = _cmd_bound(args)
    doc["command"] = "optimize-t"
    return doc


def _cmd_zoo(args):
    if args.channel_kind == "identity":
        channel = identity_channel(args.levels)
    elif args.channel_kind == "phase-rotation":
        channel = phase_rotation(args.levels, args.theta)
    elif args.channel_kind == "attenuator":
        channel = attenuator(args.levels, args.eta)
    elif args.channel_kind == "depolarize-to-vacuum":
        channel = depolarize_to(vacuum_state(args.levels), args.p)
    elif args.channel_kind == "oscillator-hamiltonian":
        osc = TruncatedOscillator(args.levels, args.hbar_omega)
        return hamiltonian_to_json(osc.hamiltonian)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown zoo entry {args.channel_kind}")
    return channel_to_json(channel)


# ---------------------------------------------------------------------------
# experiments


def _exp_strong_convergence(args):
    osc = TruncatedOscillator(args.levels, 1.0)
    h = osc.hamiltonian
    ident = identity_channel(args.levels)
    rows = []
    for theta in args.thetas:
        the_map = HermitianPreservingMap.difference(phase_rotation(args.levels, theta), ident)
        problem = EcdProblem(the_map, h, args.energy, r_dim=args.r_dim)
        est = estimate_ecd_norm(
            problem, restarts=args.restarts, seed=args.seed, max_iter=args.max_iter
        )
        rows.append([theta, est.lower, est.upper])
    config = {
        "experiment": "strong-convergence",
        "levels": args.levels,
        "energy": args.energy,
        "r_dim": args.r_dim,
        "restarts": args.restarts,
        "seed": args.seed,
        "max_iter": args.max_iter,
    }
    return Sweep(config, ["theta", "ecd_lower", "ecd_upper"], rows)


def _embed_witness(witness: np.ndarray, d_small: int, d_large: int) -> np.ndarray:
    """Zero-pad an input x reference coefficient matrix into a larger space."""
    m = np.zeros((d_large, d_large), dtype=np.complex128)
    m[:d_small, :d_small] = witness.reshape(d_small, d_small)
    return m.reshape(-1)


def _exp_attenuator_pair(args):
    rows = []
    dia_warm: list = []
    ecd_warm: list = []
    prev_d = None
    for d in args.dims:
        h = TruncatedOscillator(d, 1.0).hamiltonian
        the_map = HermitianPreservingMap.difference(attenuator(d, args.eta1), attenuator(d, args.eta2))
        # chaining the previous witness keeps the estimates monotone in d:
        # the attenuator pair restricted to the low levels is the smaller pair
        if prev_d is not None:
            dia_warm = [_embed_witness(dia_warm[0], prev_d, d)]
            ecd_warm = [_embed_witness(ecd_warm[0], prev_d, d)]
        dia = estimate_diamond_norm(
            the_map,
            restarts=args.restarts,
            seed=args.seed,
            extra_starts=dia_warm,
            max_iter=args.max_iter,
        )
        problem = EcdProblem(the_map, h, args.energy)
        ecd = estimate_ecd_norm(
            problem,
            restarts=args.restarts,
            seed=args.seed,
            extra_starts=ecd_warm,
            max_iter=args.max_iter,
        )
        rows.append([d, dia.lower, dia.upper, ecd.lower, ecd.upper])
        dia_warm, ecd_warm, prev_d = [dia.witness], [ecd.witness], d
    config = {
        "experiment": "attenuator-pair",
        "eta1": args.eta1,
        "eta2": args.eta2,
        "energy": args.energy,
        "restarts": args.restarts,
        "seed": args.seed,
        "max_iter": args.max_iter,
    }
    return Sweep(config, ["levels", "diamond_lower", "diamond_upper", "ecd_lower", "ecd_upper"], rows)


def _exp_tightness_cchi(args):
    d = args.levels
    h = TruncatedOscillator(d, 1.0).hamiltonian
    ident = identity_channel(d)
    depol = depolarize_to(vacuum_state(d), 1.0)
    cap_id = holevo_capacity_estimate(
        ident, h, args.energy, restarts=args.restarts, seed=args.seed,
        max_iter=args.max_iter,
    )
    cap_depol = holevo_capacity_estimate(
        depol, h, args.energy, restarts=args.restarts, seed=args.seed,
        max_iter=args.max_iter,
    )
    f_value = max_entropy(h, args.energy)
    eb = OscillatorEntropyBound(HarmonicModes((1.0,)))
    t_star, bv = optimize_t("cchi", 1.0, args.energy, eb)
    return {
        "command": "experiment",
        "config": {
            "experiment": "tightness-cchi",
            "levels": d,
            "energy": args.energy,
            "restarts": args.restarts,
            "seed": args.seed,
            "max_iter": args.max_iter,
        },
        "result": {
            "capacity_identity": cap_id,
            "capacity_depolarizer": cap_depol,
            "capacity_difference": abs(cap_id - cap_depol),
            "max_entropy": f_value,
            "bound_total_eps1": bv.total,
            "bound_t_star": t_star,
        },
    }


def _exp_tightness_ea(args):
    d = args.levels
    h = TruncatedOscillator(d, 1.0).hamiltonian
    gibbs = solve_gibbs(h, args.energy).state
    cea_id = channel_mutual_information(identity_channel(d), gibbs)
    cea_depol = channel_mutual_information(depolarize_to(vacuum_state(d), 1.0), gibbs)
    f_value = max_entropy(h, args.energy)
    return {
        "command": "experiment",
        "config": {"experiment": "tightness-ea", "levels": d, "energy": args.energy},
        "result": {
            "ea_identity": cea_id,
            "ea_depolarizer": cea_depol,
            "twice_max_entropy": 2.0 * f_value,
        },
    }


def _exp_truncation_ladder(args):
    d = args.levels
    h = TruncatedOscillator(d, 1.0).hamiltonian
    the_map = HermitianPreservingMap.difference(attenuator(d, args.eta1), attenuator(d, args.eta2))
    problem = EcdProblem(the_map, h, args.energy)
    ecd = estimate_ecd_norm(
        problem, restarts=args.restarts, seed=args.seed, max_iter=args.max_iter
    )
    rows = []
    for n in range(1, d + 1):
        q = subspace_seminorm(
            the_map, h, n, restarts=args.restarts, seed=args.seed, max_iter=args.max_iter
        )
        bound = truncation_norm_bound(
            the_map, h, args.energy, n,
            restarts=args.restarts, seed=args.seed, max_iter=args.max_iter,
        )
        level = float(h.eigenvalues[n] if n < d else h.eigenvalues[-1])
        rows.append([n, level, q, bound, ecd.lower])
    config = {
        "experiment": "truncation-ladder",
        "levels": d,
        "eta1": args.eta1,
        "eta2": args.eta2,
        "energy": args.energy,
        "restarts": args.restarts,
        "seed": args.seed,
        "max_iter": args.max_iter,
    }
    return Sweep(config, ["n", "next_level_energy", "qn", "trunc_bound", "ecd_lower"], rows)


EXPERIMENTS = {
    "strong-convergence": _exp_strong_convergence,
    "attenuator-pair": _exp_attenuator_pair,
    "tightness-cchi": _exp_tightness_cchi,
    "tightness-ea": _exp_tightness_ea,
    "truncation-ladder": _exp_truncation_ladder,
}


def _cmd_experiment(args):
    return EXPERIMENTS[args.name](args)


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """Parse a float option; nan and inf are rejected with exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _csv_floats(text: str) -> list[float]:
    return [_finite_float(x) for x in text.split(",")]


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _dims_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("dims must look like dA,dB")
    return int(parts[0]), int(parts[1])


def _grid_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:num")
    return _finite_float(parts[0]), _finite_float(parts[1]), int(parts[2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecdnorm",
        description="Energy-constrained channel norms, entropy bounds, and capacity continuity bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seeded=True):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if seeded:
            p.add_argument("--restarts", type=int, default=32)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--max-iter", type=int, default=2000)

    p = sub.add_parser("ecd-norm", help="bracket the energy-constrained norm of a channel difference")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--energy", type=_finite_float, required=True)
    p.add_argument("--r-dim", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_ecd_norm)

    p = sub.add_parser("diamond", help="bracket the unconstrained diamond norm")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--r-dim", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_diamond)

    p = sub.add_parser("qn", help="norm restricted to the lowest energy levels")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--levels", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_qn)

    p = sub.add_parser("gibbs", help="Gibbs state at a mean energy")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--energy", type=_finite_float, required=True)
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_gibbs)

    p = sub.add_parser("fbound", help="constrained max entropy and entropy bounds")
    p.add_argument("--hamiltonian", default=None)
    p.add_argument("--fhat", default=None, help="osc:W1[,W2..] or shifted:PATH")
    p.add_argument("--energy", type=_finite_float, default=None)
    p.add_argument("--energy-grid", type=_grid_spec, default=None, help="lo:hi:num")
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_fbound)

    p = sub.add_parser("chi", help="Holevo quantity of an ensemble")
    p.add_argument("--ensemble", required=True)
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_chi)

    p = sub.add_parser("qmi", help="mutual information of a bipartite state")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", type=_dims_pair, required=True)
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_qmi)

    p = sub.add_parser("cap-est", help="Holevo capacity lower estimate")
    p.add_argument("--channel", required=True)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--energy", type=_finite_float, required=True)
    p.add_argument("--ensemble-size", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_cap_est)

    p = sub.add_parser("energy-gain", help="output/input energy amplification factor")
    p.add_argument("--channel", required=True)
    p.add_argument("--h-in", required=True)
    p.add_argument("--h-out", required=True)
    p.add_argument("--energy", type=_finite_float, required=True)
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_energy_gain)

    for name, handler in (("bound", _cmd_bound), ("optimize-t", _cmd_optimize_t)):
        p = sub.add_parser(name, help="continuity bound evaluation")
        p.add_argument("kind", choices=sorted(BOUND_KINDS))
        p.add_argument("--eps", type=_finite_float, required=True)
        p.add_argument("--energy", type=_finite_float, required=True)
        p.add_argument("--fhat", required=True, help="osc:W1[,W2..] or shifted:PATH")
        p.add_argument("--copies", type=int, default=1)
        p.add_argument("--log-shift", action="store_true")
        if name == "bound":
            p.add_argument("--t", type=_finite_float, default=None)
            p.add_argument("--optimize-t", action="store_true")
            p.add_argument("--sweep", type=int, default=0, help="emit a CSV sweep over t")
        add_common(p, seeded=False)
        p.set_defaults(handler=handler)

    p = sub.add_parser("zoo", help="emit a reference channel or Hamiltonian as JSON")
    p.add_argument(
        "channel_kind",
        choices=[
            "identity",
            "phase-rotation",
            "attenuator",
            "depolarize-to-vacuum",
            "oscillator-hamiltonian",
        ],
    )
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.add_argument("--eta", type=_finite_float, default=1.0)
    p.add_argument("--p", type=_finite_float, default=1.0)
    p.add_argument("--hbar-omega", type=_finite_float, default=1.0)
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_zoo)

    p = sub.add_parser("experiment", help="run a named experiment recipe")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--energy", type=_finite_float, default=2.0)
    p.add_argument(
        "--thetas",
        type=_csv_floats,
        default=[0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002],
    )
    p.add_argument("--r-dim", type=int, default=1)
    p.add_argument("--dims", type=_csv_ints, default=[8, 16, 24])
    p.add_argument("--eta1", type=_finite_float, default=0.70)
    p.add_argument("--eta2", type=_finite_float, default=0.69)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=250)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        payload = args.handler(args)
        _emit(payload, args.out)
    except InfeasibleProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

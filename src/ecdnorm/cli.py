"""Command-line interface.

Single results are emitted as JSON documents that echo the full
configuration (including seeds); parameter sweeps are emitted as CSV with
``# key=value`` header lines. Exit codes: 0 success, 2 validation or input
error, 3 infeasible energy budget. Identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .bounds import (
    BOUND_KINDS,
    BoundInputs,
    OscillatorEntropyBound,
    ShiftedGibbsEntropyBound,
    optimize_t,
    t_grid,
)
from .ecd import (
    EcdProblem,
    embed_witness,
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
from .operators import HermitianPreservingMap, InfeasibleProblemError
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
from .thermo import max_entropy, max_entropy_state, solve_gibbs
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
        return OscillatorEntropyBound(freqs)
    if kind == "shifted":
        if not rest:
            raise ValueError("shifted entropy bound needs a Hamiltonian file: shifted:PATH")
        return ShiftedGibbsEntropyBound(hamiltonian_from_json(load_json(rest)))
    raise ValueError(f"unknown entropy bound spec {spec!r}; use osc:W1[,W2..] or shifted:PATH")


PLUMBING = ("command", "handler", "out")
SEEDED = ("restarts", "seed", "max_iter")


def _config(args, omit=(), **resolved) -> dict:
    """Echo the parsed arguments, without the plumbing and `omit`.

    resolved overrides arguments whose default the handler filled in (or
    adds values derived from them), so the echo shows what was computed.
    """
    config = {k: v for k, v in vars(args).items() if k not in PLUMBING and k not in omit}
    config.update(resolved)
    return config


def _document(args, result: dict, omit=(), **resolved) -> dict:
    """A JSON document: the command, its echoed configuration and the result."""
    return {"command": args.command, "config": _config(args, omit, **resolved), "result": result}


def _fhat_echo(eb) -> dict:
    """The saturation energy of a shifted entropy bound, echoed next to fhat."""
    if isinstance(eb, ShiftedGibbsEntropyBound):
        return {"fhat_saturation_energy": eb.saturation_energy}
    return {}


def _seeded(args) -> dict:
    """The multi-start options of the ascents, as keyword arguments."""
    return {name: getattr(args, name) for name in SEEDED}


def _bracket_result(est) -> dict:
    result = {"lower": est.lower, "upper": est.upper, "witness": matrix_to_json([est.witness])[0]}
    if est.witness_energy is not None:
        result["witness_energy"] = est.witness_energy
    return result


# ---------------------------------------------------------------------------
# command handlers


def _cmd_ecd_norm(args):
    the_map = _load_map(args)
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    problem = EcdProblem(the_map, h, args.energy, r_dim=args.r_dim)
    est = estimate_ecd_norm(problem, **_seeded(args))
    return _document(args, _bracket_result(est), r_dim=problem.r_dim)


def _cmd_diamond(args):
    the_map = _load_map(args)
    est = estimate_diamond_norm(the_map, r_dim=args.r_dim, **_seeded(args))
    return _document(args, _bracket_result(est), r_dim=est.witness.size // the_map.in_dim)


def _cmd_qn(args):
    the_map = _load_map(args)
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    value = subspace_seminorm(the_map, h, args.levels, **_seeded(args))
    return _document(args, {"seminorm": value})


def _cmd_gibbs(args):
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    sol = solve_gibbs(h, args.energy)
    return _document(
        args,
        {
            "lambda": sol.lam,
            "mean_energy": sol.mean_energy,
            "entropy": sol.entropy,
            "state": matrix_to_json(sol.state.matrix),
        },
    )


def _cmd_fbound(args):
    if not args.hamiltonian and not args.fhat:
        raise ValueError("fbound needs --hamiltonian and/or --fhat")
    if args.energy is None and not args.energy_grid:
        raise ValueError("fbound needs --energy or --energy-grid")
    h = hamiltonian_from_json(load_json(args.hamiltonian)) if args.hamiltonian else None
    eb = _entropy_bound_from_spec(args.fhat) if args.fhat else None
    if args.energy_grid:
        lo, hi, num = args.energy_grid
        energies = np.linspace(lo, hi, num)
        columns, values = ["energy"], [energies]
        if h is not None:
            columns.append("max_entropy")
            values.append(max_entropy(h, energies))
        if eb is not None:
            columns.append("entropy_bound")
            values.append(eb.at(energies))
        rows = np.column_stack(values).tolist()
        return Sweep(_config(args, omit=("energy",), **_fhat_echo(eb)), columns, rows)
    result = {}
    if h is not None:
        result["max_entropy"] = max_entropy(h, args.energy)
    if eb is not None:
        result["entropy_bound"] = eb.at(args.energy)
    return _document(args, result, omit=("energy_grid",), **_fhat_echo(eb))


def _cmd_chi(args):
    probs, states = ensemble_from_json(load_json(args.ensemble))
    value = holevo_quantity(Ensemble(probs, states))
    return _document(args, {"holevo_quantity": value})


def _cmd_qmi(args):
    rho = density_from_json(load_json(args.state))
    value = mutual_information(rho, tuple(args.dims))
    return _document(args, {"mutual_information": value})


def _cmd_cap_est(args):
    channel = channel_from_json(load_json(args.channel))
    h = hamiltonian_from_json(load_json(args.hamiltonian))
    value = holevo_capacity_estimate(
        channel, h, args.energy, ensemble_size=args.ensemble_size, **_seeded(args)
    )
    return _document(
        args,
        {"capacity_lower_estimate": value},
        ensemble_size=args.ensemble_size or channel.in_dim,
    )


def _cmd_energy_gain(args):
    channel = channel_from_json(load_json(args.channel))
    h_in = hamiltonian_from_json(load_json(args.h_in))
    h_out = hamiltonian_from_json(load_json(args.h_out))
    k = energy_gain(channel, h_in, h_out, args.energy)
    return _document(args, {"energy_gain": k})


def _cmd_bound(args):
    if not args.sweep and args.t is None:
        return _cmd_optimize_t(args)
    eb = _entropy_bound_from_spec(args.fhat)
    bound = BOUND_KINDS[args.kind]
    if args.sweep:
        ts = t_grid(args.eps, args.sweep)
        main, g_terms, h_terms = bound.terms(
            args.eps, args.energy, ts, eb, args.copies, args.log_shift
        )
        rows = np.column_stack([ts, main + g_terms + h_terms, main, g_terms, h_terms]).tolist()
        config = _config(args, omit=("t",), **_fhat_echo(eb))
        return Sweep(config, ["t", "total", "main", "g", "h2"], rows)
    bv = bound(BoundInputs(args.eps, args.energy, args.t, eb, copies=args.copies), args.log_shift)
    return _document(args, asdict(bv), omit=("sweep",), **_fhat_echo(eb))


def _cmd_optimize_t(args):
    eb = _entropy_bound_from_spec(args.fhat)
    _, bv = optimize_t(
        args.kind,
        args.eps,
        args.energy,
        eb,
        copies=args.copies,
        use_log_shift=args.log_shift,
    )
    return _document(
        args, asdict(bv), omit=("sweep",), t="optimized", **_fhat_echo(eb)
    )


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
        est = estimate_ecd_norm(problem, **_seeded(args))
        rows.append([theta, est.lower, est.upper])
    return ["theta", "ecd_lower", "ecd_upper"], rows


def _exp_attenuator_pair(args):
    rows = []
    prev_d = None
    for d in args.dims:
        h = TruncatedOscillator(d, 1.0).hamiltonian
        the_map = HermitianPreservingMap.difference(attenuator(d, args.eta1), attenuator(d, args.eta2))
        # chaining the previous witness keeps the estimates monotone in d:
        # the attenuator pair restricted to the low levels is the smaller
        # pair, so only a pair of at most d levels seeds this one
        chained = prev_d is not None and prev_d <= d
        dia_warm = [embed_witness(dia_warm[0], prev_d, d)] if chained else []
        ecd_warm = [embed_witness(ecd_warm[0], prev_d, d)] if chained else []
        dia = estimate_diamond_norm(the_map, extra_starts=dia_warm, **_seeded(args))
        problem = EcdProblem(the_map, h, args.energy)
        ecd = estimate_ecd_norm(problem, extra_starts=ecd_warm, **_seeded(args))
        rows.append([d, dia.lower, dia.upper, ecd.lower, ecd.upper])
        dia_warm, ecd_warm, prev_d = [dia.witness], [ecd.witness], d
    return ["levels", "diamond_lower", "diamond_upper", "ecd_lower", "ecd_upper"], rows


def _exp_tightness_cchi(args):
    d = args.levels
    h = TruncatedOscillator(d, 1.0).hamiltonian
    ident = identity_channel(d)
    depol = depolarize_to(vacuum_state(d), 1.0)
    cap_id = holevo_capacity_estimate(ident, h, args.energy, **_seeded(args))
    cap_depol = holevo_capacity_estimate(depol, h, args.energy, **_seeded(args))
    f_value = max_entropy(h, args.energy)
    eb = OscillatorEntropyBound((1.0,))
    t_star, bv = optimize_t("cchi", 1.0, args.energy, eb)
    return {
        "capacity_identity": cap_id,
        "capacity_depolarizer": cap_depol,
        "capacity_difference": abs(cap_id - cap_depol),
        "max_entropy": f_value,
        "bound_total_eps1": bv.total,
        "bound_t_star": t_star,
    }


def _exp_tightness_ea(args):
    d = args.levels
    h = TruncatedOscillator(d, 1.0).hamiltonian
    best = max_entropy_state(h, args.energy)
    cea_id = channel_mutual_information(identity_channel(d), best)
    cea_depol = channel_mutual_information(depolarize_to(vacuum_state(d), 1.0), best)
    f_value = max_entropy(h, args.energy)
    return {
        "ea_identity": cea_id,
        "ea_depolarizer": cea_depol,
        "twice_max_entropy": 2.0 * f_value,
    }


def _exp_truncation_ladder(args):
    """Rows n = 1…d: the level E_n that truncating to n levels drops (empty at
    n = d, which drops none), q_n, the tail-penalty bound and the estimate."""
    d = args.levels
    h = TruncatedOscillator(d, 1.0).hamiltonian
    the_map = HermitianPreservingMap.difference(attenuator(d, args.eta1), attenuator(d, args.eta2))
    ecd = estimate_ecd_norm(EcdProblem(the_map, h, args.energy), **_seeded(args))
    rows = []
    for n in range(1, d + 1):
        q = subspace_seminorm(the_map, h, n, **_seeded(args))
        bound = truncation_norm_bound(the_map, h, args.energy, n)
        level = float(h.eigenvalues[n]) if n < d else ""
        rows.append([n, level, q, bound, ecd.lower])
    return ["n", "next_level_energy", "qn", "trunc_bound", "ecd_lower"], rows


# recipe name -> (recipe, the arguments it reads); a recipe returns a result
# dict (JSON) or (columns, rows) (CSV)
EXPERIMENTS = {
    "strong-convergence": (
        _exp_strong_convergence, ("levels", "energy", "thetas", "r_dim", *SEEDED)
    ),
    "attenuator-pair": (_exp_attenuator_pair, ("dims", "eta1", "eta2", "energy", *SEEDED)),
    "tightness-cchi": (_exp_tightness_cchi, ("levels", "energy", *SEEDED)),
    "tightness-ea": (_exp_tightness_ea, ("levels", "energy")),
    "truncation-ladder": (
        _exp_truncation_ladder, ("levels", "eta1", "eta2", "energy", *SEEDED)
    ),
}


# zoo entry -> its JSON document, built from the parsed arguments
ZOO = {
    "identity": lambda a: channel_to_json(identity_channel(a.levels)),
    "phase-rotation": lambda a: channel_to_json(phase_rotation(a.levels, a.theta)),
    "attenuator": lambda a: channel_to_json(attenuator(a.levels, a.eta)),
    "depolarize-to-vacuum": lambda a: channel_to_json(depolarize_to(vacuum_state(a.levels), a.p)),
    "oscillator-hamiltonian": lambda a: hamiltonian_to_json(
        TruncatedOscillator(a.levels, a.hbar_omega).hamiltonian
    ),
}


def _cmd_zoo(args):
    return ZOO[args.channel_kind](args)


def _cmd_experiment(args):
    """Run a recipe on just the arguments it declares, which are echoed."""
    recipe, reads = EXPERIMENTS[args.name]
    config = _config(args, omit=vars(args).keys() - set(reads), experiment=args.name)
    payload = recipe(argparse.Namespace(**config))
    if isinstance(payload, dict):
        return {"command": args.command, "config": config, "result": payload}
    return Sweep(config, *payload)


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


def _count(minimum: int):
    """An integer option type; values below minimum are rejected with exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum of {minimum}")
        return value

    return parse


_positive = _count(1)
_non_negative = _count(0)


def _csv_floats(text: str) -> list[float]:
    return [_finite_float(x) for x in text.split(",")]


def _csv_counts(text: str) -> list[int]:
    return [_positive(x) for x in text.split(",")]


def _dims_pair(text: str) -> list[int]:
    dims = _csv_counts(text)
    if len(dims) != 2:
        raise argparse.ArgumentTypeError("dims must look like dA,dB")
    return dims


def _grid_spec(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:num")
    return [_finite_float(parts[0]), _finite_float(parts[1]), _positive(parts[2])]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecdnorm",
        description="Energy-constrained channel norms, entropy bounds, and capacity continuity bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seeded=True):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if seeded:
            p.add_argument("--restarts", type=_positive, default=32)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--max-iter", type=_non_negative, default=2000)

    p = sub.add_parser("ecd-norm", help="bracket the energy-constrained norm of a channel difference")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--energy", type=_finite_float, required=True)
    p.add_argument("--r-dim", type=_positive, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_ecd_norm)

    p = sub.add_parser("diamond", help="bracket the unconstrained diamond norm")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--r-dim", type=_positive, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_diamond)

    p = sub.add_parser("qn", help="norm restricted to the lowest energy levels")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--levels", type=_positive, required=True)
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
    p.add_argument("--ensemble-size", type=_positive, default=None)
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
        p.add_argument("--copies", type=_positive, default=1)
        p.add_argument("--log-shift", action="store_true")
        if name == "bound":
            p.add_argument("--t", type=_finite_float, default=None)
            p.add_argument("--sweep", type=_non_negative, default=0, help="emit a CSV sweep over t")
        add_common(p, seeded=False)
        p.set_defaults(handler=handler)

    p = sub.add_parser("zoo", help="emit a reference channel or Hamiltonian as JSON")
    p.add_argument("channel_kind", choices=list(ZOO))
    p.add_argument("--levels", type=_positive, required=True)
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.add_argument("--eta", type=_finite_float, default=1.0)
    p.add_argument("--p", type=_finite_float, default=1.0)
    p.add_argument("--hbar-omega", type=_finite_float, default=1.0)
    add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_zoo)

    p = sub.add_parser("experiment", help="run a named experiment recipe")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--levels", type=_positive, default=16)
    p.add_argument("--energy", type=_finite_float, default=2.0)
    p.add_argument(
        "--thetas",
        type=_csv_floats,
        default=[0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002],
    )
    p.add_argument("--r-dim", type=_positive, default=1)
    p.add_argument("--dims", type=_csv_counts, default=[8, 16, 24])
    p.add_argument("--eta1", type=_finite_float, default=0.70)
    p.add_argument("--eta2", type=_finite_float, default=0.69)
    p.add_argument("--restarts", type=_positive, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=_non_negative, default=250)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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

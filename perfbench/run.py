#!/usr/bin/env python3
"""Benchmark of the ecdnorm bracket engine.

    python3 perfbench/run.py --workload capped-families --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
Three workloads (see `workloads.py`) separate the library's paths:

- capped-families: constrained brackets with psi.size <= 64, where every
  ascent takes the dense capped proposal and its golden-section dual;
- lanczos-zoo: brackets with psi.size > 64, where the capped proposal never
  runs and the Lanczos proposal does the work;
- bounds-cli: in-process `ecdnorm.cli.main` calls on closed forms, entropy
  caps and capacity estimates, with no bracket ascent.

Each workload is a closed loop: one task at a time, the next one starting
when the previous one returns, for `--seconds` seconds. Every output is
checked (`checks.py`). The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it holds
the details: environment, task counts, the percentile of `task_s.tail`, and,
when traced, the span totals, computed kernel counts and certificate ledger.

With `--trace 0` the metrics are the end-to-end ones, measured with nothing
in the library replaced. Task and set-up times are scaled to the reference
machine by a calibration kernel timed between them (`calibration.py`); the
detail line keeps the unscaled values. With `--trace 1` the first half of the time runs
untraced, the same tasks then run again under the tracer (`tracing.py`), and
the metrics are the per-layer ones; spans are written to
`.perfbench/spans-<workload>-seed<seed>.json.gz`.

Seed 4242 is held out: it was not used while the benchmark was tuned, so a
claim can be rechecked on it. `reference.json` holds the results of every
pool task at the commit that defined the benchmark; regenerate it with
`record_reference.py` only when the pool itself changes.
"""

import os
import sys

# Pinned before numpy loads: one BLAS thread (never more than nproc) keeps the
# lower values reproducible to the last digit and the timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True  # leave the checkout without __pycache__

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # tasks beyond the tail percentile


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (library or reference missing)."""


def import_library(with_cli: bool):
    """Import ecdnorm afresh from the checkout's `src`."""
    if not (SRC / "ecdnorm" / "__init__.py").is_file():
        raise SetupError(f"no ecdnorm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ecdnorm" or n.startswith("ecdnorm.")]:
        del sys.modules[name]
    lib = importlib.import_module("ecdnorm")
    if with_cli:
        importlib.import_module("ecdnorm.cli")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"ecdnorm imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(workload: str, work: str, tracer=None, kernel=None):
    """Import the library and build every input, SETUP_REPEATS times.

    Returns the library and tasks of the last repetition, the time of each
    repetition, and, given a calibration kernel, the mean kernel time around
    each repetition. A tracer, if given, records the input building.
    """
    times, kernel_s = [], []
    before = kernel() if kernel else None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library(workload == "bounds-cli")
        tasks = workloads.pool(workload)
        if tracer is not None:
            tracer.install(lib)
        try:
            workloads.prepare(tasks, lib, work)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(time.perf_counter() - start)
        if kernel:
            after = kernel()
            kernel_s.append(0.5 * (before + after))
            before = after
    return lib, tasks, times, kernel_s


def execute(task, lib):
    """Run one task; returns (seconds, output, exception)."""
    start = time.perf_counter()
    try:
        out = task.run(lib)
    except Exception as exc:  # a task that raises is a failed task; the loop goes on
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, out, None


def evaluate(task, seconds, out, exc, reference: dict) -> dict:
    """The record of one task: time, output problems, and its bracket if any."""
    rec = {"key": task.key, "group": task.group, "seconds": seconds, "problems": []}
    if exc is not None:
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
        return rec
    ref = reference.get(task.key)
    if task.kind == "bracket":
        rec["problems"] = checks.check_bracket(task, out)
        rec["lower"], rec["upper"] = float(out.lower), float(out.upper)
    else:
        code, text = out
        rec["problems"], doc = checks.check_cli(task, code, text, ref and ref["numbers"])
        if task.group == "fbound" and doc is not None:
            rec["lower"] = doc["result"]["max_entropy"]
            rec["upper"] = doc["result"]["entropy_bound"]
    if "lower" in rec and (ref is None or "lower" not in ref):
        rec["problems"].append("no reference recorded")
    return rec


def closed_loop(tasks, lib, seed: int, seconds: float, reference: dict, kernel):
    """Run tasks back to back, a seeded cycle at a time, until the time is up.

    A calibration kernel, if given, is timed between tasks and each record
    keeps the mean kernel time around its task. Returns the records and the
    tasks run.
    """
    records, ran = [], []
    start = time.perf_counter()
    before = kernel() if kernel else None
    cycle = 0
    while True:
        for task in workloads.cycle_order(tasks, seed, cycle):
            if time.perf_counter() - start >= seconds:
                return records, ran
            rec = evaluate(task, *execute(task, lib), reference)
            if kernel:
                after = kernel()
                rec["kernel_s"] = 0.5 * (before + after)
                before = after
            records.append(rec)
            ran.append(task)
        cycle += 1


def replay(ran, lib, reference: dict, tracer):
    records = []
    for task in ran:
        tracer.task = task.key
        records.append(evaluate(task, *execute(task, lib), reference))
    return records


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND tasks beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * k / max(1, n - 1)


def throughput(records) -> float:
    return len(records) / sum(r["seconds"] for r in records)


def task_times(records, seconds_of) -> dict:
    """Throughput, median and tail of the task times given by seconds_of.

    Throughput and the median come from each distinct task's median time,
    so one slow repetition moves neither; the tail is taken over every
    execution, as a user sees it.
    """
    per_task: dict = {}
    for r in records:
        per_task.setdefault(r["key"], []).append(seconds_of(r))
    medians = [statistics.median(v) for v in per_task.values()]
    return {
        "tasks_per_s": len(medians) / sum(medians),
        "task_s.p50": statistics.median(medians),
        "task_s.tail": tail([seconds_of(r) for r in records])[0],
    }


def end_to_end(records, setup_times, setup_kernel_s, reference: dict, kernel_ref_s: float):
    """The end-to-end metrics of an untraced run, and its times unscaled.

    Each task and set-up time is scaled to the reference machine by the
    calibration kernel timed around it (calibration.py).
    """
    scaled = task_times(records, lambda r: r["seconds"] * kernel_ref_s / r["kernel_s"])
    distinct = {r["key"]: r for r in records if "lower" in r}
    gaps = [workloads.relative_gap(r["lower"], r["upper"]) for r in distinct.values()]
    ratios = [
        r["lower"] / reference[k]["lower"]
        for k, r in distinct.items()
        if k in reference and reference[k].get("lower", 0.0) > 0.0
    ]
    metrics = {
        "setup_s": (
            statistics.median(t * kernel_ref_s / k for t, k in zip(setup_times, setup_kernel_s)), "s"
        ),
        "tasks_per_s": (scaled["tasks_per_s"], "1/s"),
        "task_s.p50": (scaled["task_s.p50"], "s"),
        "task_s.tail": (scaled["task_s.tail"], "s"),
        "bracket_gap.mean": (statistics.fmean(gaps) if gaps else float("nan"), "1"),
        "lower.ratio.min": (min(ratios) if ratios else float("nan"), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    unscaled = task_times(records, lambda r: r["seconds"])
    unscaled["setup_s"] = statistics.median(setup_times)
    return metrics, unscaled


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def distinct_ledger(tracer) -> list[dict]:
    """One ledger entry per distinct task, so repetitions do not weigh in."""
    return list({e["task"]: e for e in tracer.ledger}.values())


def per_layer(tracer, setup_tracer, setup_seconds: float, traced_records, overhead: float) -> dict:
    """Per-layer metrics of a traced phase; times are shares of its task time."""
    total = sum(r["seconds"] for r in traced_records)
    tot = tracer.totals()  # zeros for a name that never ran

    def calls(name):
        return tot[name]["calls"]

    def share(name):
        return _ratio(tot[name]["s"], total)

    def self_share(name):
        return _ratio(tot[name]["self_s"], total)

    def per_call(name, key):
        return _ratio(tot[name][key], tot[name]["calls"])

    ascends = tracer.child_counts("optim.ascend")
    fallbacks = sum(c["optim.linearized"] for c in ascends if c["optim.capped"])
    iters = sum(max(0, c["optim.value_and_grad"] - 1) for c in ascends)
    matvecs = sum(c["optim.apply_sign"] for c in tracer.child_counts("optim.lanczos"))
    evals = sum(c["bounds.assemble"] for c in tracer.child_counts("bounds.optimize_t"))

    def gflops(kernel):
        rows = [v for k, v in tracer.kernels.items() if k[0] == kernel]
        return _ratio(sum(v[2] for v in rows), sum(v[1] for v in rows)) / 1e9

    g_rows = [v for k, v in tracer.kernels.items() if k[0] == "g_build"]
    ledger = [e for e in distinct_ledger(tracer) if e["winner"] is not None]

    def wins(cert):
        return _ratio(sum(e["winner"] == cert for e in ledger), len(ledger))

    stot = setup_tracer.totals()
    return {
        "optim.capped.calls": (calls("optim.capped"), "count"),
        "optim.capped.share": (share("optim.capped"), "share"),
        "optim.capped.self_share": (self_share("optim.capped"), "share"),
        "optim.capped.eigensolves_per_call": (per_call("optim.capped", "eigensolves"), "1/call"),
        "optim.capped.fallback_ratio": (_ratio(fallbacks, calls("optim.capped")), "1"),
        "optim.capped.g_build_gflop_per_call": (
            _ratio(sum(v[2] for v in g_rows), sum(v[0] for v in g_rows)) / 1e9, "GFLOP/call"),
        "optim.golden.calls": (calls("optim.golden"), "count"),
        "optim.golden.share": (share("optim.golden"), "share"),
        "optim.lanczos.calls": (calls("optim.lanczos"), "count"),
        "optim.lanczos.share": (share("optim.lanczos"), "share"),
        "optim.lanczos.self_share": (self_share("optim.lanczos"), "share"),
        "optim.lanczos.matvecs_per_call": (_ratio(matvecs, calls("optim.lanczos")), "1/call"),
        "optim.apply_sign.calls": (calls("optim.apply_sign"), "count"),
        "optim.apply_sign.share": (share("optim.apply_sign"), "share"),
        "optim.apply_sign.gflops": (gflops("apply_sign"), "GFLOP/s"),
        "optim.value_and_grad.calls": (calls("optim.value_and_grad"), "count"),
        "optim.value_and_grad.share": (share("optim.value_and_grad"), "share"),
        "optim.value_and_grad.gflops": (gflops("value_and_grad"), "GFLOP/s"),
        "optim.sign_value.calls": (calls("optim.sign_value"), "count"),
        "optim.sign_value.share": (share("optim.sign_value"), "share"),
        "optim.energy_cap.calls": (calls("optim.energy_cap"), "count"),
        "optim.energy_cap.share": (share("optim.energy_cap"), "share"),
        "optim.ascend.calls": (calls("optim.ascend"), "count"),
        "optim.ascend.iters_per_call": (_ratio(iters, len(ascends)), "1/call"),
        "optim.energy_constrained_sup.calls": (calls("optim.energy_constrained_sup"), "count"),
        "optim.energy_constrained_sup.share": (share("optim.energy_constrained_sup"), "share"),
        "optim.energy_constrained_sup.eigensolves_per_call": (
            per_call("optim.energy_constrained_sup", "eigensolves"), "1/call"),
        "ecd.estimate.calls": (calls("ecd.estimate"), "count"),
        "ecd.estimate.self_share": (self_share("ecd.estimate"), "share"),
        "ecd.ascent.share": (share("ecd.ascent"), "share"),
        "ecd.cert.diamond.share": (share("ecd.cert.diamond"), "share"),
        "ecd.cert.stinespring.share": (share("ecd.cert.stinespring"), "share"),
        "ecd.cert.ladder.share": (share("ecd.cert.ladder"), "share"),
        "ecd.clamp.count": (sum(e["clamp"] for e in ledger), "count"),
        "ecd.cert.win.trivial2": (wins("trivial2"), "share"),
        "ecd.cert.win.diamond": (wins("diamond"), "share"),
        "ecd.cert.win.stinespring": (wins("stinespring"), "share"),
        "ecd.cert.win.ladder": (wins("ladder"), "share"),
        "thermo.solve_gibbs.calls": (calls("thermo.solve_gibbs"), "count"),
        "thermo.solve_gibbs.share": (share("thermo.solve_gibbs"), "share"),
        "thermo.max_entropy.calls": (calls("thermo.max_entropy"), "count"),
        "thermo.max_entropy.share": (share("thermo.max_entropy"), "share"),
        "bounds.optimize_t.calls": (calls("bounds.optimize_t"), "count"),
        "bounds.optimize_t.share": (share("bounds.optimize_t"), "share"),
        "bounds.optimize_t.evals_per_call": (_ratio(evals, calls("bounds.optimize_t")), "1/call"),
        "info.capacity.calls": (calls("info.capacity"), "count"),
        "info.capacity.share": (share("info.capacity"), "share"),
        "info.capacity.project_share": (share("info.capacity.project"), "share"),
        "info.mutual_information.share": (share("info.mutual_information"), "share"),
        "info.energy_gain.share": (share("info.energy_gain"), "share"),
        "serialize.load.share": (share("serialize.load"), "share"),
        "serialize.dump.share": (share("serialize.dump"), "share"),
        "serialize.bytes_out": (tracer.bytes_out, "byte"),
        "cli.self_share": (self_share("cli.main"), "share"),
        "linalg.eigensolves_per_task": (_ratio(tracer.eigensolves, len(traced_records)), "1/task"),
        "setup.operators.share": (_ratio(stot["operators"]["s"], setup_seconds), "share"),
        "setup.zoo.share": (_ratio(stot["zoo"]["s"], setup_seconds), "share"),
        "trace.overhead": (overhead, "1"),
    }


def details_of_trace(tracer) -> dict:
    """Span totals, computed kernel counts, ledger and the ROADMAP baseline figures."""
    spans = {
        name: {"calls": t["calls"], "s": round(t["s"], 6), "self_s": round(t["self_s"], 6),
               "eigensolves": t["eigensolves"]}
        for name, t in sorted(tracer.totals().items())
    }
    kernel_rows = []
    for (kernel, i, o, r, rank, factored), (n, s, flops, moved) in sorted(tracer.kernels.items()):
        kernel_rows.append({
            "kernel": kernel, "in": i, "out": o, "ref": r, "choi_rank": rank, "factored": factored,
            "calls": n, "ms_per_call": 1e3 * s / n,
            "computed_flops_per_call": flops / n, "computed_bytes_per_call": moved / n,
            "flops_per_byte": flops / moved,
        })
    at24 = {
        k[0]: 1e3 * v[1] / v[0]
        for k, v in tracer.kernels.items()
        if k[0] != "g_build" and k[1] == 24 and k[3] == 24
    }
    ledger = distinct_ledger(tracer)
    capped = tracer.totals().get("optim.capped")
    return {
        "spans": spans,
        "kernels": kernel_rows,
        "baseline": {
            "eigensolves_per_capped_proposal": capped and capped["eigensolves"] / capped["calls"],
            "ms_per_call_at_24_levels": at24 or None,
        },
        "ledger": {
            "winners": dict(Counter(str(e["winner"]) for e in ledger)),
            "clamps": [e for e in ledger if e["clamp"]],
            "inconsistent": [e for e in ledger if not e["consistent"]],
            "entries": ledger,
        },
    }


def environment(load_start: float) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
    }


def load_reference(workload: str) -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["tasks"][workload]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise SetupError(f"no reference for {workload} in {REFERENCE}: {exc}") from exc


def summary(records) -> dict:
    groups: dict = {}
    for r in records:
        g = groups.setdefault(r["group"], {"tasks": 0, "s": 0.0})
        g["tasks"] += 1
        g["s"] += r["seconds"]
    _, pct = tail([r["seconds"] for r in records])
    return {
        "attempted": len(records),
        "failed": sum(bool(r["problems"]) for r in records),
        "by_group": groups,
        "task_s.tail": {"percentile": round(pct, 2), "tasks": len(records), "beyond": TAIL_BEYOND},
        "failures": [{"key": r["key"], "problems": r["problems"]} for r in records if r["problems"]][:10],
    }


def run(args) -> tuple[dict, dict]:
    load_start = os.getloadavg()[0]
    if not SRC.is_dir():
        raise SetupError(f"no library sources at {SRC}")
    reference = load_reference(args.workload)
    STATE_DIR.mkdir(exist_ok=True)
    work = STATE_DIR / f"work-{os.getpid()}"
    try:
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if not args.trace:
            kernel = calibration.Kernel(args.workload)
            lib, tasks, setup_times, setup_kernel_s = setup(args.workload, str(work), kernel=kernel)
            records, _ = closed_loop(tasks, lib, args.seed, args.seconds, reference, kernel)
            kernel_ref_s = calibration.REFERENCE_S[args.workload]
            metrics, unscaled = end_to_end(records, setup_times, setup_kernel_s, reference, kernel_ref_s)
            detail.update(summary(records), setup_s_samples=setup_times)
            detail["calibration"] = {
                "reference_kernel_s": kernel_ref_s,
                "median_kernel_s": statistics.median(r["kernel_s"] for r in records),
                "unscaled": unscaled,
            }
            all_records = records
        else:
            setup_tracer = tracing.Tracer()
            lib, tasks, setup_times, _ = setup(args.workload, str(work), setup_tracer)
            # no calibration kernel here: its cache traffic would slow the
            # untraced tasks and bias trace.overhead
            plain, ran = closed_loop(tasks, lib, args.seed, args.seconds / 2.0, reference, None)
            tracer = tracing.Tracer()
            tracer.install(lib)
            try:
                traced = replay(ran, lib, reference, tracer)
            finally:
                tracer.uninstall()
            overhead = throughput(traced) / throughput(plain)
            metrics = per_layer(tracer, setup_tracer, sum(setup_times), traced, overhead)
            all_records = plain + traced
            detail.update(summary(traced), untraced_tasks_per_s=throughput(plain),
                          setup_spans=details_of_trace(setup_tracer)["spans"])
            detail.update(details_of_trace(tracer))
            tracer.write(str(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"))
        detail["environment"] = environment(load_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unmeasured = [name for name, (value, _) in metrics.items() if not np.isfinite(value)]
    if unmeasured:
        raise SetupError(f"run too short to measure {', '.join(unmeasured)}")
    failed = sum(bool(r["problems"]) for r in all_records)
    result = {
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        detail, result = run(args)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

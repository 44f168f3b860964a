#!/usr/bin/env python3
"""Before/after benchmark pairs of two checkouts, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label kraus-route

Each of PAIRS pairs runs, in the parent and in the change checkout, the
parent first in even pairs and the change first in odd ones:
`perfbench/run.py` on each workload (untraced, seed SEED, for the
`run_seconds` of BENCHMARK.json); the time to build the trace-norm objective
of the 0.70/0.69 attenuator pair at 8, 16 and 24 levels (`constructor_s`);
and the per-call time of one capped proposal (`optim._capped_proposal`) on
that pair at 8 levels (r = 8) and on a random d = 4, r = 2 difference, after
a first call that builds what the objective keeps (`capped_proposal_s`); and
the time of one capped ascent (`optim.ascend` from start 1 under the same
caps, 15 iterations, the capped proposal) on those two problems, with a
fresh objective per run and the number of `_DualPoint` evaluations, the
eigensolves of the energy dual, it made (`capped_ascent_s`); and
the time of one uncapped ascent (`optim.ascend` from start 0, 15 iterations,
the Lanczos proposal) on that pair at 16 levels (r = 16), with the number of
`apply_sign` calls it made (`uncapped_ascent_s`); and the time of one
capacity estimate (`holevo_capacity_estimate` of the 0.7 attenuator at 12
levels, energy 1.5, 2 restarts of at most 25 steps: the bench's `cap-est`
setting), with the number of `_EnsembleAscent.value` calls it made
(`capacity_s`); and the time of the `experiment tightness-ea` body at 16
levels and energy 2, after one warm-up call (`ea_s`). Each timing is the
median of 9 runs in one process. It keeps every run's metrics and their
medians, and each timing's runs, median and quartiles per side. It also
records how far the lower and upper value of every bracket task
(capped-families, lanczos-zoo) moved between the checkouts, and which
bounds-cli stdouts differ once the work directory is replaced by `{work}`,
each with the largest relative difference of its numbers (`cli_drift`;
two numbers below 1e-14 count as equal, as in the bench checks; null where
either side exits nonzero or the count of numbers differs). Every
measurement runs in a fresh process with one BLAS thread.

For each end-to-end metric of BENCHMARK.json and each workload, `verdicts`
records both sides' quartiles, the pairs the change wins (ties count for
neither), the median gap in the metric's better direction, the parent's
interquartile range, `gain` (at least nine tenths of the pairs won and a
median gap wider than that range: the rule a claimed gain must meet; where
that range is 0, as for a deterministic metric, the gap must also exceed
RESOLUTION of the parent's median, so a move by rounding is no gain) and
`within_bound` (the change's median is no worse than the parent's by more
than the metric's bound, relative).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 601
# ten pairs: a gain is claimed only if it wins at least nine of them
PAIRS = 10
# relative median gap below which a metric with no parent spread has not moved
RESOLUTION = 1e-6
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

BRACKETS = """
import json, sys, tempfile
sys.path.insert(0, "perfbench")
import run, workloads
out = {}
for w in ("capped-families", "lanczos-zoo"):
    lib = run.import_library(False)
    tasks = workloads.pool(w)
    with tempfile.TemporaryDirectory() as work:
        workloads.prepare(tasks, lib, work)
        for t in (t for t in tasks if t.kind == "bracket"):
            _, res, exc = run.execute(t, lib)
            if exc is not None:
                raise exc
            out[w + "/" + t.key] = [res.lower, res.upper]
print(json.dumps(out))
"""

CONSTRUCTOR = """
import json, statistics, sys, time
sys.path.insert(0, "src")
from ecdnorm import HermitianPreservingMap, attenuator, ecd
out = {}
for d in (8, 16, 24):
    m = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
    times = []
    for _ in range(9):
        start = time.perf_counter()
        ecd._objective(m, d)
        times.append(time.perf_counter() - start)
    out[str(d)] = statistics.median(times)
print(json.dumps(out))
"""

CAPPED_PROBLEMS = """
import json, statistics, sys, time
import numpy as np
sys.path.insert(0, "src")
from ecdnorm import Channel, EnergyCap, Hamiltonian, HermitianPreservingMap, attenuator, ecd, optim


def random_channel(rng, d):
    z = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    q = np.linalg.qr(z)[0]
    return Channel([q[:d], q[d:]])


rng = np.random.default_rng(15)
problems = {  # name: (map, r, energy budget on the levels 0.5, 1.5, ...)
    "pair8": (HermitianPreservingMap.difference(attenuator(8, 0.70), attenuator(8, 0.69)), 8, 2.0),
    "random-d4r2": (HermitianPreservingMap.difference(random_channel(rng, 4), random_channel(rng, 4)), 2, 1.0),
}
out = {}
"""

CAPPED = CAPPED_PROBLEMS + """
for name, (m, r, energy) in problems.items():
    d = m.in_dim
    obj = ecd._objective(m, r)
    cap = EnergyCap(Hamiltonian(np.arange(d) + 0.5), r, energy)
    obj.value_and_grad(cap(optim.start_vectors(d, r, 2, 0)[1]))
    optim._capped_proposal(obj, cap, 0.0)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(20):
            optim._capped_proposal(obj, cap, 0.0)
        times.append((time.perf_counter() - start) / 20)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""

CAPPED_ASCENT = CAPPED_PROBLEMS + """
point_init = optim._DualPoint.__init__
points = []


def counted(self, *args):
    points.append(1)
    point_init(self, *args)


optim._DualPoint.__init__ = counted
for name, (m, r, energy) in problems.items():
    d = m.in_dim
    cap = EnergyCap(Hamiltonian(np.arange(d) + 0.5), r, energy)
    start = optim.start_vectors(d, r, 2, 0)[1]
    times = []
    for _ in range(9):
        obj = ecd._objective(m, r)
        points.clear()
        begin = time.perf_counter()
        optim.ascend(obj, start, cap, 15)
        times.append(time.perf_counter() - begin)
    out[name] = statistics.median(times)
    out[name + "_dual_points"] = len(points)
print(json.dumps(out))
"""

UNCAPPED = """
import json, statistics, sys, time
sys.path.insert(0, "src")
from ecdnorm import HermitianPreservingMap, attenuator, ecd, optim
d = 16
m = HermitianPreservingMap.difference(attenuator(d, 0.70), attenuator(d, 0.69))
obj = ecd._objective(m, d)
start = optim.start_vectors(d, d, 1, 0)[0]
apply_sign = obj.apply_sign
calls = []


def counted(psi):
    calls.append(1)
    return apply_sign(psi)


obj.apply_sign = counted
times = []
for _ in range(9):
    calls.clear()
    begin = time.perf_counter()
    optim.ascend(obj, start, None, 15)
    times.append(time.perf_counter() - begin)
print(json.dumps({"pair16": statistics.median(times), "pair16_apply_sign_calls": len(calls)}))
"""

CAPACITY = """
import json, statistics, sys, time
sys.path.insert(0, "src")
from ecdnorm import TruncatedOscillator, attenuator, holevo_capacity_estimate
from ecdnorm.info import _EnsembleAscent
h = TruncatedOscillator(12, 1.0).hamiltonian
channel = attenuator(12, 0.7)
value = _EnsembleAscent.value
calls = []


def counted(self, logits, psis):
    calls.append(1)
    return value(self, logits, psis)


_EnsembleAscent.value = counted
times = []
for _ in range(9):
    calls.clear()
    begin = time.perf_counter()
    holevo_capacity_estimate(channel, h, 1.5, restarts=2, max_iter=25)
    times.append(time.perf_counter() - begin)
print(json.dumps({"attenuator12": statistics.median(times), "attenuator12_value_calls": len(calls)}))
"""

EA = """
import json, statistics, sys, time, types
sys.path.insert(0, "src")
from ecdnorm import cli
args = types.SimpleNamespace(levels=16, energy=2.0)
cli._exp_tightness_ea(args)
times = []
for _ in range(9):
    begin = time.perf_counter()
    cli._exp_tightness_ea(args)
    times.append(time.perf_counter() - begin)
print(json.dumps({"levels16_E2": statistics.median(times)}))
"""

CLI_OUTPUTS = """
import json, sys, tempfile
sys.path.insert(0, "perfbench")
import run, workloads
lib = run.import_library(True)
tasks = workloads.pool("bounds-cli")
out = {}
with tempfile.TemporaryDirectory() as work:
    workloads.prepare(tasks, lib, work)
    for t in tasks:
        code, text = t.run(lib)
        out[t.key] = [code, text.replace(work, "{work}")]
print(json.dumps(out))
"""

TIMINGS = {
    "constructor_s": CONSTRUCTOR,
    "capped_proposal_s": CAPPED,
    "capped_ascent_s": CAPPED_ASCENT,
    "uncapped_ascent_s": UNCAPPED,
    "capacity_s": CAPACITY,
    "ea_s": EA,
}


def _last_json(cmd, cwd) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_run(checkout, workload) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    res = _last_json(cmd, checkout)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], **metrics}


def medians(runs) -> dict:
    """Median of each metric; every run's correctness and the total failed."""
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0] if k not in ("correct", "failed")}
    return {**out, "all_correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs)}


def verdicts(runs) -> dict:
    """Quartiles, wins and the gain rule per end-to-end metric (module docstring)."""
    out = {}
    for spec in BENCHMARK["end_to_end"]:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        quartiles = {
            side: statistics.quantiles([r[name] for r in rs], n=4, method="inclusive")
            for side, rs in runs.items()
        }
        wins = sum(sign * (c[name] - p[name]) > 0.0 for p, c in zip(runs["parent"], runs["change"]))
        gap = sign * (quartiles["change"][1] - quartiles["parent"][1])
        iqr = quartiles["parent"][2] - quartiles["parent"][0]
        resolved = iqr > 0.0 or gap > RESOLUTION * abs(quartiles["parent"][1])
        out[name] = {
            "quartiles": quartiles,
            "wins": wins,
            "median_gap": gap,
            "parent_iqr": iqr,
            "gain": wins >= 0.9 * len(runs["parent"]) and gap > iqr and resolved,
            "within_bound": -gap <= spec["bound"] * abs(quartiles["parent"][1]),
        }
    return out


def timing_summary(runs) -> dict:
    """Per case: every run, the median and the quartiles of a timing's runs."""
    out = {}
    for case in runs[0]:
        values = [r[case] for r in runs]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        out[case] = {"runs": values, "median": quartiles[1], "quartiles": quartiles}
    return out


def _rel(a, b):
    return abs(b - a) / max(abs(a), 1e-300) if a != b else 0.0


def drift(before: dict, after: dict) -> dict:
    return {
        key: {"lower": _rel(lo, after[key][0]), "upper": _rel(up, after[key][1])}
        for key, (lo, up) in before.items()
    }


def _number_drift(a, b):
    """`_rel`, with two numbers below the checks' zero (1e-14) counted as equal."""
    return 0.0 if max(abs(a), abs(b)) < checks.ZERO else _rel(a, b)


def cli_drift(before: dict, after: dict) -> dict:
    """The stdouts that differ, each with the largest relative change of its numbers."""
    tasks = {}
    for key, (code, text) in before.items():
        if after[key] == [code, text]:
            continue
        tasks[key] = None
        if after[key][0] == code == 0:
            old, new = (checks.numbers(checks.parse_output(t)) for t in (text, after[key][1]))
            if len(old) == len(new):
                tasks[key] = max(map(_number_drift, old, new), default=0.0)
    return {"changed": len(tasks), "tasks": tasks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"label": args.label, "seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
           "blas_threads": 1, "workloads": {}}
    workload_runs = {workload: {side: [] for side in sides} for workload in WORKLOADS}
    timings = {script: {side: [] for side in sides} for script in TIMINGS}
    for i in range(PAIRS):
        order = list(sides.items()) if i % 2 == 0 else list(sides.items())[::-1]
        for workload in WORKLOADS:
            for side, checkout in order:
                run = bench_run(checkout, workload)
                workload_runs[workload][side].append(run)
                print(f"{workload} pair {i} {side}: {run['tasks_per_s']:.3f} tasks/s", file=sys.stderr)
        for script, code in TIMINGS.items():
            for side, checkout in order:
                timings[script][side].append(_last_json([sys.executable, "-c", code], checkout))
    for workload, runs in workload_runs.items():
        doc["workloads"][workload] = {
            "median": {side: medians(r) for side, r in runs.items()},
            "runs": runs,
            "verdicts": verdicts(runs),
        }
    brackets = {side: _last_json([sys.executable, "-c", BRACKETS], c) for side, c in sides.items()}
    per_task = drift(brackets["parent"], brackets["change"])
    doc["bracket_drift"] = {
        "max_lower_rel": max(d["lower"] for d in per_task.values()),
        "max_upper_rel": max(d["upper"] for d in per_task.values()),
        "tasks": per_task,
    }
    outputs = {side: _last_json([sys.executable, "-c", CLI_OUTPUTS], c) for side, c in sides.items()}
    doc["cli_drift"] = cli_drift(outputs["parent"], outputs["change"])
    for script, side_runs in timings.items():
        doc[script] = {side: timing_summary(r) for side, r in side_runs.items()}
    out = args.change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

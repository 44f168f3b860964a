#!/usr/bin/env python3
"""Before/after benchmark pairs of two checkouts, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label kraus-route

Each of PAIRS pairs runs in both checkouts, the parent first in even pairs:
`perfbench/run.py` on each workload (untraced, seed SEED, for the
`run_seconds` of BENCHMARK.json), then each layer timing of this checkout's
`tools/layers.py` (its TIMINGS). Each runs in a fresh process, in the
measured checkout, with one BLAS thread. It keeps every run, the medians of
the workload metrics and each timing's quartiles per side. A layer row's
integer-valued cases are counts, which are exact: its `counts` gives them
for parent and change side by side, with `steady` false where a side's
runs disagree (`count_deltas`). Through the
probes of `tools/layers.py` it records how far every bracket's lower and
upper value moved (`bracket_drift`), and the bounds-cli stdouts that differ,
each with the largest relative change of its numbers (`cli_drift`; numbers
below 1e-14 count as equal, as in the bench checks; null where either side
exits nonzero or the count of numbers differs).

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 601
# ten pairs: a gain is claimed only if it wins at least nine of them
PAIRS = 10
# relative median gap below which a metric with no parent spread has not moved
RESOLUTION = 1e-6
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _last_json(cmd, cwd) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer(name, checkout) -> dict:
    """One timing or probe of this checkout's `tools/layers.py`, run in the checkout."""
    return _last_json([sys.executable, str(ROOT / "tools" / "layers.py"), name], checkout)


def bench_run(workload, checkout) -> dict:
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
            "quartiles": quartiles, "wins": wins, "median_gap": gap, "parent_iqr": iqr,
            "gain": wins >= 0.9 * len(runs["parent"]) and gap > iqr and resolved,
            "within_bound": -gap <= spec["bound"] * abs(quartiles["parent"][1]),
        }
    return out


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def timing_summary(runs) -> dict:
    """Per timed case: every run, the median and the quartiles of a timing's runs."""
    out = {}
    for case in runs[0]:
        if _is_count(runs[0][case]):
            continue
        values = [r[case] for r in runs]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        out[case] = {"runs": values, "median": quartiles[1], "quartiles": quartiles}
    return out


def count_deltas(runs) -> dict:
    """Per integer-valued case of a layer row, each side's count, and
    `steady`: false where a side's runs disagree, and that side then gives
    all its runs."""
    out = {}
    for case, first in runs["parent"][0].items():
        if not _is_count(first):
            continue
        values = {side: [r[case] for r in rs] for side, rs in runs.items()}
        out[case] = {side: v[0] if len(set(v)) == 1 else v for side, v in values.items()}
        out[case]["steady"] = all(len(set(v)) == 1 for v in values.values())
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
    measures = [(workload, bench_run) for workload in WORKLOADS] + [(name, layer) for name in layers.TIMINGS]
    runs = {name: {side: [] for side in sides} for name, _ in measures}
    for i in range(PAIRS):
        order = list(sides.items()) if i % 2 == 0 else list(sides.items())[::-1]
        for name, measure in measures:
            for side, checkout in order:
                runs[name][side].append(measure(name, checkout))
                print(f"{name} pair {i} {side}", file=sys.stderr)
    for workload in WORKLOADS:
        median = {side: medians(r) for side, r in runs[workload].items()}
        doc["workloads"][workload] = {"median": median, "runs": runs[workload], "verdicts": verdicts(runs[workload])}
    for name in layers.TIMINGS:
        doc[name] = {**{side: timing_summary(r) for side, r in runs[name].items()}, "counts": count_deltas(runs[name])}
    per_task = drift(*(layer("brackets", c) for c in sides.values()))
    doc["bracket_drift"] = {
        "max_lower_rel": max(d["lower"] for d in per_task.values()),
        "max_upper_rel": max(d["upper"] for d in per_task.values()),
        "tasks": per_task,
    }
    doc["cli_drift"] = cli_drift(*(layer("cli_outputs", c) for c in sides.values()))
    out = args.change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

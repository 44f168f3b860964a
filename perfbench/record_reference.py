#!/usr/bin/env python3
"""Record the result of every pool task into reference.json.

    python3 perfbench/record_reference.py

Runs each task of each workload once, with the same pinned BLAS threads as
the benchmark, and stores the bracket (`lower`, `upper`) or the numbers of
the CLI result. The benchmark compares later runs against this file, so run
it only at the commit whose results define the reference.
"""

import json
import os
import platform
import shutil
import sys

import run  # pins the BLAS threads before numpy loads
import checks
import workloads


def record(workload: str, work: str) -> dict:
    lib = run.import_library(workload == "bounds-cli")
    tasks = workloads.pool(workload)
    workloads.prepare(tasks, lib, work)
    out = {}
    for task in tasks:
        seconds, result, exc = run.execute(task, lib)
        if exc is not None:
            raise RuntimeError(f"{workload} {task.key}: {exc}") from exc
        if task.kind == "bracket":
            problems = checks.check_bracket(task, result)
            entry = {"lower": result.lower, "upper": result.upper}
        else:
            code, text = result
            problems, doc = checks.check_cli(task, code, text, None)
            problems = [p for p in problems if p != "no reference recorded"]
            entry = {"numbers": checks.result_numbers(doc)}
            if task.group == "fbound":
                entry["lower"] = doc["result"]["max_entropy"]
                entry["upper"] = doc["result"]["entropy_bound"]
        if problems:
            raise RuntimeError(f"{workload} {task.key}: {problems}")
        out[task.key] = entry
        print(f"{workload:16s} {seconds:8.3f}s {task.key}", file=sys.stderr)
    return out


def main() -> int:
    run.STATE_DIR.mkdir(exist_ok=True)
    work = str(run.STATE_DIR / f"work-{os.getpid()}")
    try:
        tasks = {w: record(w, work) for w in workloads.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {
        "recorded_with": {
            "python": platform.python_version(),
            "numpy": run.np.__version__,
            "blas_threads": run.BLAS_THREADS,
        },
        "tasks": tasks,
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

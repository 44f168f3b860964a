"""Output checks of the benchmark, independent of the library's own routes.

A bracket is rechecked by the Kraus route: the witness must be a unit vector
within the energy budget, the trace norm of (Θ⊗id)(ψψ†), built from the
Kraus operators and measured by SVD, must equal `lower`, and `lower` may not
exceed `upper`. A CLI command must exit 0 with output that parses and holds
only finite numbers; the closed-form commands must also match the reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
ZERO = 1e-14
# commands whose output is a closed form, compared number by number
CLOSED_FORM = ("gibbs", "fbound", "bound", "optimize-t", "energy-gain", "tightness-ea")


def kraus_trace_norm(phi_kraus, psi_kraus, m: np.ndarray) -> float:
    """||(Φ - Ψ)⊗id (ψψ†)||_1 for ψ with coefficient matrix m (input x reference)."""
    v = np.stack([(k @ m).reshape(-1) for k in phi_kraus])
    w = np.stack([(k @ m).reshape(-1) for k in psi_kraus])
    x = v.T @ v.conj() - w.T @ w.conj()
    return float(np.linalg.svd(x, compute_uv=False).sum())


def close(a: float, b: float, tol: float = TOL) -> bool:
    """Equal within tol relative; values below 1e-14 count as zero."""
    return abs(a - b) <= tol * max(abs(a), abs(b)) or max(abs(a), abs(b)) < ZERO


def check_bracket(task, est) -> list[str]:
    """Problems found in one bracket; empty when the bracket holds."""
    problems = []
    psi = np.asarray(est.witness, dtype=np.complex128).reshape(-1)
    d = len(task.levels)
    if psi.size % d:
        return [f"witness length {psi.size} is not a multiple of {d}"]
    m = psi.reshape(d, psi.size // d)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > TOL:
        problems.append(f"witness norm {norm!r}")
    if task.estimator == "ecd":
        energy = float(task.levels @ (np.abs(m) ** 2).sum(axis=1))
        if energy > task.energy + TOL:
            problems.append(f"witness energy {energy!r} above budget {task.energy!r}")
    value = kraus_trace_norm(task.phi.kraus, task.psi.kraus, m)
    if not close(value, est.lower):
        problems.append(f"Kraus-route value {value!r} != lower {est.lower!r}")
    if not est.lower <= est.upper + TOL:
        problems.append(f"lower {est.lower!r} above upper {est.upper!r}")
    return problems


def parse_output(text: str):
    """A JSON document, or the numeric rows of a CSV sweep."""
    if text.startswith("#"):
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        return [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return json.loads(text)


def numbers(node) -> list[float]:
    """Every number in a parsed document, in document order (keys sorted)."""
    if isinstance(node, bool):
        return []
    if isinstance(node, (int, float)):
        return [float(node)]
    if isinstance(node, dict):
        return [x for k in sorted(node) for x in numbers(node[k])]
    if isinstance(node, list):
        return [x for item in node for x in numbers(item)]
    return []


def result_numbers(doc) -> list[float]:
    """The numbers of the result part, which the reference records."""
    return numbers(doc["result"] if isinstance(doc, dict) else doc)


def check_cli(task, code: int, text: str, ref) -> tuple[list[str], object]:
    """Problems found in one CLI call, and the parsed output."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        doc = parse_output(text)
    except (ValueError, json.JSONDecodeError) as exc:
        return [f"unparsable output: {exc}"], None
    problems = []
    if not all(math.isfinite(x) for x in numbers(doc)):
        problems.append("non-finite number in output")
    if task.command in CLOSED_FORM:
        got = result_numbers(doc)
        if ref is None:
            problems.append("no reference recorded")
        elif len(got) != len(ref) or not all(close(a, b) for a, b in zip(got, ref)):
            problems.append("output differs from the reference")
    return problems, doc

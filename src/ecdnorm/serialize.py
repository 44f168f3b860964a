"""JSON schemas for operators, channels, Hamiltonians, and ensembles.

Complex matrices are nested lists of [re, im] pairs, row by row. A channel
document is {"in_dim": n, "out_dim": m, "kraus": [matrix, ...]}; a
Hamiltonian document is {"dim": n, "eigenvalues": [...]} with an optional
"eigenbasis" matrix (identity when absent); an ensemble document is
{"probs": [...], "states": [matrix, ...]}.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .operators import Channel, DensityOperator, Hamiltonian


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(doc) -> np.ndarray:
    arr = np.asarray(doc, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("a matrix document must be a list of rows of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_json(channel: Channel) -> dict[str, Any]:
    return {
        "in_dim": channel.in_dim,
        "out_dim": channel.out_dim,
        "kraus": [matrix_to_json(k) for k in channel.kraus],
    }


def channel_from_json(doc: dict) -> Channel:
    try:
        in_dim, out_dim = int(doc["in_dim"]), int(doc["out_dim"])
        kraus = [matrix_from_json(k) for k in doc["kraus"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    channel = Channel(kraus)
    if (channel.in_dim, channel.out_dim) != (in_dim, out_dim):
        raise ValueError("declared channel dimensions do not match the Kraus operators")
    return channel


def hamiltonian_to_json(h: Hamiltonian) -> dict[str, Any]:
    doc: dict[str, Any] = {"dim": h.dimension, "eigenvalues": [float(x) for x in h.eigenvalues]}
    if not np.array_equal(h.eigenbasis, np.eye(h.dimension)):
        doc["eigenbasis"] = matrix_to_json(h.eigenbasis)
    return doc


def hamiltonian_from_json(doc: dict) -> Hamiltonian:
    try:
        dim = int(doc["dim"])
        ev = list(doc["eigenvalues"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Hamiltonian document: {exc}") from exc
    if len(ev) != dim:
        raise ValueError("eigenvalue count does not match the declared dimension")
    basis = matrix_from_json(doc["eigenbasis"]) if "eigenbasis" in doc else None
    return Hamiltonian(ev, basis)


def density_to_json(rho: DensityOperator) -> list:
    return matrix_to_json(rho.matrix)


def density_from_json(doc) -> DensityOperator:
    return DensityOperator(matrix_from_json(doc))


def ensemble_from_json(doc: dict) -> tuple[tuple[float, ...], tuple[DensityOperator, ...]]:
    try:
        probs = tuple(float(p) for p in doc["probs"])
        states = tuple(density_from_json(s) for s in doc["states"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ensemble document: {exc}") from exc
    return probs, states


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(doc: dict) -> str:
    """Deterministic rendering: sorted keys, explicit newline.

    Raises ValueError on NaN or infinity, which JSON cannot represent.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

"""Calibration kernels that measure how fast the machine runs right now.

The shared machines this benchmark runs on change speed by tens of percent
within a minute, and those swings move every wall time of a run together.
Each workload therefore times a fixed kernel before and after each task and
each set-up repetition. The kernel does the same kind of work as the
workload without calling ecdnorm: small Hermitian eigensolves and tiny
contractions (capped-families), a tensor contraction the size of a Lanczos
matvec (lanczos-zoo), and scalar Python with JSON rendering (bounds-cli). A
measured time is scaled by the kernel's reference time over the mean of the
two kernel times around it. A change to ecdnorm leaves the kernel's time
alone, so its effect on the measured times passes through unscaled.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# median seconds per kernel call on the machine that defined the benchmark
# (2-core x86-64 VM, Python 3.11, numpy 2.4 with OpenBLAS on one thread)
REFERENCE_S = {
    "capped-families": 0.7e-3,
    "lanczos-zoo": 4.0e-3,
    "bounds-cli": 0.4e-3,
}
REPEATS = 3  # kernel calls per measurement, of which the median counts


class Kernel:
    """A fixed unit of work for one workload, timed on each call."""

    def __init__(self, workload: str):
        rng = np.random.default_rng(0)

        def herm(n):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return a + a.conj().T

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._work = {
            "capped-families": self._capped,
            "lanczos-zoo": self._lanczos,
            "bounds-cli": self._bounds,
        }[workload]
        self._h16, self._h96, self._eye16 = herm(16), herm(96), np.eye(16)
        self._t3, self._m3 = cplx(3, 2, 3, 2), cplx(3, 2)
        self._s16, self._c16, self._m16 = cplx(16, 16, 16, 16), cplx(16, 16, 16, 16), cplx(16, 16)
        self._probs, self._psis = np.full(8, 0.125), cplx(8, 8)
        self._doc = {"result": {f"x{i}": 0.1 * i for i in range(40)}}

    def _capped(self) -> None:
        # golden-section steps on a small dual, tiny contractions, a projection
        for k in range(12):
            np.linalg.eigvalsh(self._h16 - (0.1 * k) * self._eye16)
        for _ in range(12):
            np.tensordot(self._t3, self._m3, axes=([3], [1]))
            np.einsum("ir,ij,jr->", self._m3, self._h16[:3, :3], self._m3.conj())

    def _lanczos(self) -> None:
        # one matvec at 16 levels, as in apply_sign, and a medium eigensolve
        t = np.tensordot(self._s16, self._m16, axes=([3], [1]))
        np.tensordot(t, self._c16, axes=([0, 2, 3], [2, 0, 1]))
        np.linalg.eigh(self._h96)

    def _bounds(self) -> None:
        # scalar entropy formulas, a small ensemble average, JSON rendering
        total = 0.0
        for i in range(1, 300):
            x = i * 1e-3
            total += -x * math.log(x) + math.exp(-x)
        for _ in range(4):
            np.linalg.eigvalsh(np.einsum("k,ki,kj->ij", self._probs, self._psis, self._psis.conj()))
        json.dumps(self._doc, indent=2, sort_keys=True)

    def __call__(self) -> float:
        """Median seconds of REPEATS kernel calls."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

"""Computed operation and byte counts of the objective's kernels.

The counts follow the array shapes of `TraceNormObjective` at the commit
that defined the benchmark; they are computed, not measured. A complex
multiply-add is 8 real flops and a complex128 entry is 16 bytes; bytes
count each operand read once and each result written once, so cache misses
are ignored. LAPACK calls use textbook counts: a Hermitian eigensolve with
vectors (reduction plus back-transformation) 4·(4/3 + 2)·n³ and a
Householder QR of an n×k matrix 4·(2nk² − 2k³/3).
"""

from __future__ import annotations

CMAC = 8  # real flops per complex multiply-add
C16 = 16  # bytes per complex128 entry


def _eigh(n: int) -> float:
    return 4.0 * (4.0 / 3.0 + 2.0) * n**3


def apply_sign(i: int, o: int, r: int, with_identity_part: bool) -> tuple[float, float]:
    """(flops, bytes) of one `apply_sign`: two tensordots with the sign and Choi tensors."""
    flops = CMAC * (o * o * r * r * i + o * o * i * i * r)
    moved = C16 * (o * o * r * r + i * r + 2 * o * o * r * i + o * o * i * i + i * r)
    if with_identity_part:
        flops += CMAC * i * i * r
        moved += C16 * (i * i + 2 * i * r)
    return flops, moved


def value_and_grad(i: int, o: int, r: int, rank: int, factored: bool) -> tuple[float, float]:
    """(flops, bytes) of one `value_and_grad`, its closing `apply_sign` included."""
    n = o * r
    if factored:
        k = rank
        flops = (
            CMAC * o * i * k * r  # factor Y
            + 4.0 * (2 * n * k * k - 2 * k**3 / 3)  # QR of Y
            + CMAC * k**3 + _eigh(k) + CMAC * k**3  # small product, eigh, sign block
            + CMAC * (n * k * k + n * n * k)  # Q B Q†
        )
        moved = C16 * (o * i * k + i * r + 2 * n * k + 4 * k * k + 2 * n * n)
    else:
        flops = (
            CMAC * (o * o * i * i * r + o * o * r * r * i)  # congruence with the Choi matrix
            + _eigh(n)
            + CMAC * n**3  # sign matrix V diag(s) V†
        )
        moved = C16 * (o * o * i * i + 2 * i * r + 2 * o * o * r * i + 4 * n * n)
    f, b = apply_sign(i, o, r, factored)
    return flops + f, moved + b


def g_build(i: int, o: int, r: int, with_identity_part: bool) -> tuple[float, float]:
    """(flops, bytes) of the dense surrogate in `_capped_proposal`: i·r `apply_sign` calls."""
    f, b = apply_sign(i, o, r, with_identity_part)
    return i * r * f, i * r * b

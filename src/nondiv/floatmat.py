"""Plain-float matrix kernels for the probe path.

The probe works on 2 x 2 factors of g_N and one 4 x 4 lattice basis, so
these kernels are plain Python loops over floats: an array library would
cost more in import time and per-call overhead than the arithmetic.  A
matrix is a tuple of row tuples of float; every kernel accepts any nested
row sequence (numpy arrays included) and returns that form.

Floats follow IEEE semantics throughout: an exponential that overflows is
`inf`.  `det` reads a determinant as sign * exp(sum of log|pivot|), the
convention of `numpy.linalg.det`.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

FMat = tuple[tuple[float, ...], ...]


def fmat(m) -> FMat:
    """Any nested row sequence as a tuple of float row tuples."""
    return tuple(tuple(float(e) for e in row) for row in m)


def diagonal(values: Sequence[float]) -> FMat:
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0.0 for j in range(n))
                 for i in range(n))


def transpose(m) -> FMat:
    return tuple(zip(*m))


def dot(x, y) -> float:
    return sum(map(mul, x, y))


def mat_mul(a, b) -> FMat:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def exp(x: float) -> float:
    """e**x with IEEE overflow: a result beyond the largest double is inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def det(m) -> float:
    """Determinant by elimination with partial pivoting, read as
    sign * exp(sum of log|pivot|); 0.0 when a column has no nonzero pivot."""
    a = [[float(e) for e in row] for row in m]
    n = len(a)
    sign, log_abs = 1.0, 0.0
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))  # first of the largest
        pivot_row = a[p]
        pivot = pivot_row[j]
        if pivot == 0.0:
            return 0.0
        if p != j:
            a[j], a[p] = pivot_row, a[j]
            sign = -sign
        if pivot < 0.0:
            sign = -sign
        log_abs += math.log(abs(pivot))
        for row in a[j + 1:]:
            f = row[j] / pivot
            for c in range(j + 1, n):
                row[c] -= f * pivot_row[c]
    return sign * exp(log_abs)

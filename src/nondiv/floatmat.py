"""Plain-float matrix kernels for the probe path.

The probe works on 2 x 2 factors of g_N, small wedge Gram matrices and
one 4 x 4 lattice basis, so these kernels are plain Python loops over
floats: an array library would cost more in import time and per-call
overhead than the arithmetic.  A matrix is a tuple of row tuples of float;
every kernel accepts any nested row sequence (numpy arrays included) and
returns that form.

Floats follow IEEE semantics throughout: an exponential that overflows is
`inf`.  `det` reads a determinant as sign * exp(sum of log|pivot|), the
convention of `numpy.linalg.det`.  In the decay table it sets only the base
norm of each certified line at g_0; each printed row is that norm times an
exact exponential (the `witness` module docstring says why).
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


def _lu(m) -> tuple[list[list[float]], list[int], float]:
    """LU factorization with partial pivoting of a square matrix.

    Returns (rows, perm, sign): the rows hold U on and above the diagonal
    and the unit-lower L multipliers below it, row i of the factored matrix
    is row perm[i] of m, and sign is the permutation's sign, or 0.0 when a
    column has no nonzero pivot (the factorization stops there).
    """
    a = [[float(e) for e in row] for row in m]
    n = len(a)
    perm = list(range(n))
    sign = 1.0
    for j in range(n):
        p, best = j, abs(a[j][j])
        for i in range(j + 1, n):
            if abs(a[i][j]) > best:
                p, best = i, abs(a[i][j])
        if best == 0.0:
            return a, perm, 0.0
        if p != j:
            a[j], a[p] = a[p], a[j]
            perm[j], perm[p] = perm[p], perm[j]
            sign = -sign
        pivot_row = a[j]
        pivot = pivot_row[j]
        for row in a[j + 1:]:
            f = row[j] / pivot
            row[j] = f
            for c in range(j + 1, n):
                row[c] -= f * pivot_row[c]
    return a, perm, sign


def det(m) -> float:
    """Determinant as sign * exp(sum of log|pivot|) over the LU pivots."""
    a, _, sign = _lu(m)
    if sign == 0.0:
        return 0.0
    log_abs = 0.0
    for i, row in enumerate(a):
        if row[i] < 0.0:
            sign = -sign
        log_abs += math.log(abs(row[i]))
    return sign * exp(log_abs)


def inverse(m) -> FMat:
    """Inverse by LU solves against the unit vectors; ValueError if singular."""
    a, perm, sign = _lu(m)
    if sign == 0.0:
        raise ValueError("matrix is singular")
    n = len(a)
    cols = []
    for j in range(n):
        y = [1.0 if p == j else 0.0 for p in perm]
        for i in range(1, n):
            row = a[i]
            for k in range(i):
                y[i] -= row[k] * y[k]
        for i in range(n - 1, -1, -1):
            row = a[i]
            for k in range(i + 1, n):
                y[i] -= row[k] * y[k]
            y[i] /= row[i]
        cols.append(y)
    return transpose(cols)

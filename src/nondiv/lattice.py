"""Mahler-criterion probe: realizes points of the real-quadratic SL_n quotient
as module lattices and measures shortest nonzero vectors along torus orbits.

The probe is corroborative: certificates come from the exact criterion, and
this module only demonstrates the predicted escape on a finite grid.  It is
the only float code besides the witness realization; numpy is imported
inside the functions that use it, so commands that never probe do not load
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def _is_squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class QuadraticOrder:
    """Z[sqrt(d)] for squarefree d = 2, 3 mod 4, with its two real embeddings."""

    d: int

    def __post_init__(self):
        if self.d <= 1 or not _is_squarefree(self.d):
            raise ValueError("d must be a squarefree integer > 1")
        if self.d % 4 not in (2, 3):
            raise ValueError("d must be 2 or 3 mod 4")

    @property
    def sqrt_d(self) -> float:
        return math.sqrt(self.d)


def embed_lattice(order: QuadraticOrder, n: int,
                  g: Sequence[np.ndarray]) -> np.ndarray:
    """Basis of the rank-2n lattice with columns (g1 s1(v), g2 s2(v)) over
    {e_i, sqrt(d) e_i}; the columns of the returned 2n x 2n array are the
    lattice vectors.

    Column order: e_1..e_n then sqrt(d) e_1..sqrt(d) e_n.
    """
    import numpy as np
    g1, g2 = np.asarray(g[0], dtype=float), np.asarray(g[1], dtype=float)
    if g1.shape != (n, n) or g2.shape != (n, n):
        raise ValueError("g must be a pair of n x n matrices")
    if abs(np.linalg.det(g1)) < 1e-12 or abs(np.linalg.det(g2)) < 1e-12:
        raise ValueError("g factors must be invertible")
    s = order.sqrt_d
    cols = []
    for i in range(n):
        cols.append(np.concatenate([g1[:, i], g2[:, i]]))
    for i in range(n):
        cols.append(np.concatenate([s * g1[:, i], -s * g2[:, i]]))
    return np.column_stack(cols)


def _size_reduce(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LLL-style reduction on columns; returns (reduced, unimodular transform)."""
    import numpy as np
    b = basis.copy()
    dim = b.shape[1]
    u = np.eye(dim, dtype=np.int64)
    delta = 0.99

    def gso(mat):
        q, mu = np.zeros_like(mat), np.eye(dim)
        norms = np.zeros(dim)
        for i in range(dim):
            q[:, i] = mat[:, i]
            for j in range(i):
                mu[i, j] = 0.0 if norms[j] == 0 else float(
                    np.dot(mat[:, i], q[:, j]) / norms[j])
                q[:, i] -= mu[i, j] * q[:, j]
            norms[i] = float(np.dot(q[:, i], q[:, i]))
        return mu, norms

    mu, norms = gso(b)
    k = 1
    steps = 0
    while k < dim and steps < 10000:
        steps += 1
        for j in range(k - 1, -1, -1):
            r = round(mu[k, j])
            if r != 0:
                b[:, k] -= r * b[:, j]
                u[:, k] -= r * u[:, j]
                mu, norms = gso(b)
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            mu, norms = gso(b)
            k = max(k - 1, 1)
    return b, u


def _enumerate_minimum(basis: np.ndarray, bound_sq: float) -> tuple[float, np.ndarray]:
    """Exhaustive Fincke-Pohst search below bound_sq on the given columns.

    Returns (min norm squared, integer coefficient vector).  The bound must be
    attained by some lattice vector (e.g. a basis column).
    """
    import numpy as np
    dim = basis.shape[1]
    gram = basis.T @ basis
    chol = np.linalg.cholesky(gram)  # gram = chol @ chol.T
    r = chol.T  # upper triangular, ||Bx||^2 = ||r x||^2
    best_sq = bound_sq * (1 + 1e-12)
    best_x = None
    x = np.zeros(dim, dtype=np.int64)

    def descend(level: int, partial_sq: float, carry: np.ndarray):
        nonlocal best_sq, best_x
        if level < 0:
            if any(x):
                norm_sq = partial_sq
                if norm_sq < best_sq:
                    best_sq = norm_sq
                    best_x = x.copy()
            return
        rem = best_sq - partial_sq
        if rem < 0:
            return
        center = -carry[level] / r[level, level]
        half = math.sqrt(max(rem, 0.0)) / abs(r[level, level])
        lo = math.ceil(center - half - 1e-9)
        hi = math.floor(center + half + 1e-9)
        for xi in range(lo, hi + 1):
            x[level] = xi
            y = r[level, level] * xi + carry[level]
            new_partial = partial_sq + y * y
            if new_partial <= best_sq * (1 + 1e-12):
                new_carry = carry + xi * r[:, level]
                descend(level - 1, new_partial, new_carry)
        x[level] = 0

    descend(dim - 1, 0.0, np.zeros(dim))
    if best_x is None:
        raise AssertionError("enumeration bound excluded every lattice vector")
    return best_sq, best_x


def shortest_vector(basis: np.ndarray) -> float:
    """Length of a shortest nonzero vector of the lattice spanned by the
    columns of `basis` (exact-optimal enumeration).

    The basis is size-reduced first; the reduced shortest column certifies a
    sufficient enumeration bound.
    """
    import numpy as np
    reduced, transform = _size_reduce(basis)
    col_norms = np.sum(reduced * reduced, axis=0)
    bound_sq = float(np.min(col_norms))
    _, x_red = _enumerate_minimum(reduced, bound_sq)
    x = transform @ x_red
    return float(np.linalg.norm(basis @ x.astype(float)))


@dataclass(frozen=True)
class ProbeStats:
    minimum: float
    maximum: float
    argmin_t: float
    values: tuple[tuple[float, float], ...]


def orbit_probe(order: QuadraticOrder, n: int, g0: Sequence[np.ndarray],
                grid_radius: float = 5.0, grid_points: int = 21) -> ProbeStats:
    """Shortest vectors along the diagonal-line torus orbit of g0.

    Torus samples are determinant-one pairs (diag(e^t, e^-t), diag(e^t, e^-t))
    over the symmetric grid of t values.
    """
    import numpy as np
    if n != 2:
        raise ValueError("the orbit probe samples the diagonal line of SL_2 pairs")
    ts = np.linspace(-grid_radius, grid_radius, grid_points)
    values = []
    minimum, maximum, argmin_t = math.inf, -math.inf, 0.0
    for t in ts:
        a = np.diag([math.exp(t), math.exp(-t)])
        sv = shortest_vector(embed_lattice(order, n, (a @ g0[0], a @ g0[1])))
        values.append((float(t), sv))
        if sv < minimum:
            minimum, argmin_t = sv, float(t)
        maximum = max(maximum, sv)
    return ProbeStats(minimum, maximum, argmin_t, tuple(values))

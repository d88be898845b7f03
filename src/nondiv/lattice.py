"""Mahler-criterion probe: realizes points of the real-quadratic SL_n quotient
as module lattices and measures shortest nonzero vectors along torus orbits.

The probe is corroborative: certificates come from the exact criterion, and
this module only demonstrates the predicted escape on a finite grid.  It is
the engine's one float module, on plain Python floats: an array library
would cost more in import time and per-call overhead than the 2 x 2 factors
of g_N and the 4 x 4 lattice bases need.  A matrix is a tuple of float row
tuples (`fmat` takes any nested row sequence); a basis holds the lattice
vectors as its columns.  Floats follow IEEE semantics: an exponential that
overflows is `inf`, and `det` reads a determinant as
sign * exp(sum of log|pivot|), the convention of `numpy.linalg.det`.

g_N = w' exp(N v) w is read off the columns of w': column j of factor k is
s_j e^{N v_p(j)} times column p(j) of w'_k, p the factor's permutation and s
the signs of its determinant-one representative.  Each shortest vector comes
from an LLL reduction (Lenstra, Lenstra and Lovasz 1982) followed by an
exhaustive Fincke-Pohst enumeration, so it is exact-optimal up to float
rounding.  The enumeration reads the triangular factor off the Gram-Schmidt
data that LLL leaves, so no Gram matrix or Cholesky factor is formed.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from ._record import record
from .criterion import Certificate
from .weyl import representative_signs
from .witness import ExactCheckFailedError

FMat = tuple[tuple[float, ...], ...]


def fmat(m) -> FMat:
    """Any nested row sequence as a tuple of float row tuples."""
    return tuple(tuple(float(e) for e in row) for row in m)


def transpose(m) -> FMat:
    return tuple(zip(*m))


def dot(x, y) -> float:
    return sum(map(mul, x, y))


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


def realize_divergence_sequence(cert: Certificate, v: Sequence,
                                n_values: Sequence[int]) -> tuple[tuple[FMat, ...], ...]:
    """g_N = w' exp(N v) w as float matrices, one m-tuple per requested N,
    read off the columns of w' (module docstring).  The sign goes on the
    exact entry before the float product, so a zero of w' stays +0.0.  A
    factor whose determinant drifts from 1, or is NaN because an entry
    overflowed, means the realization is broken."""
    n = len(cert.w.perms[0])
    # per factor, float(w' S(w)) = g_0 and the permutation p
    g0 = [(tuple(tuple(float(s * row[i]) for s, i in zip(representative_signs(p), p))
                 for row in wp), p)
          for wp, p in zip(cert.w_prime.matrices, cert.w.perms)]
    elements = []
    for n_val in n_values:
        factors = []
        for k, (g, p) in enumerate(g0):
            e = [exp(float(x) * float(n_val)) for x in v[k * n:(k + 1) * n]]
            f = tuple(tuple(x * e[i] for x, i in zip(row, p)) for row in g)
            if not abs(det(f) - 1.0) <= 1e-9:
                raise ExactCheckFailedError("divergence element determinant drifted")
            factors.append(f)
        elements.append(tuple(factors))
    return tuple(elements)


# Largest d the probe takes.  Squarefreeness is decided by trial division up
# to sqrt(d), 10^6 steps here, and math.sqrt(d) is exact well below 2^53.
MAX_D = 10 ** 12


def _is_squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@record
class QuadraticOrder:
    """Z[sqrt(d)] for squarefree d = 2, 3 mod 4, with its two real embeddings."""

    d: int

    def __post_init__(self):
        if self.d > MAX_D:
            raise ValueError(f"d must be at most {MAX_D}")
        if self.d <= 1 or not _is_squarefree(self.d):
            raise ValueError("d must be a squarefree integer > 1")
        if self.d % 4 not in (2, 3):
            raise ValueError("d must be 2 or 3 mod 4")

    @property
    def sqrt_d(self) -> float:
        return math.sqrt(self.d)


def embed_lattice(order: QuadraticOrder, g: Sequence) -> FMat:
    """Basis of the rank-2n lattice with columns (g1 s1(v), g2 s2(v)) over
    {e_i, sqrt(d) e_i}, n the size of g1; the columns of the returned
    2n x 2n matrix are the lattice vectors.

    Column order: e_1..e_n then sqrt(d) e_1..sqrt(d) e_n.
    """
    g1, g2 = fmat(g[0]), fmat(g[1])
    n = len(g1)
    if any(len(f) != n or any(len(row) != n for row in f) for f in (g1, g2)):
        raise ValueError("g must be a pair of n x n matrices")
    # written to fail on a NaN determinant as well
    if not (abs(det(g1)) >= 1e-12 and abs(det(g2)) >= 1e-12):
        raise ValueError("g factors must be invertible")
    s = order.sqrt_d
    return (tuple(row + tuple(s * x for x in row) for row in g1)
            + tuple(row + tuple(-s * x for x in row) for row in g2))


def _gram_schmidt(cols: list[list[float]], mu: list[list[float]],
                  q: list[list[float]], norms: list[float], start: int) -> None:
    """Recompute rows `start`.. of the Gram-Schmidt data of `cols` in place:
    the coefficients mu[i][j] (j < i), the orthogonalized vectors q[i] and
    their squared norms.  Rows before `start` depend only on earlier columns
    and are kept."""
    for i in range(start, len(cols)):
        b = v = cols[i]
        mu_i = mu[i]
        for j in range(i):
            q_j, n_j = q[j], norms[j]
            c = 0.0 if n_j == 0 else dot(b, q_j) / n_j
            mu_i[j] = c
            v = [x - c * y for x, y in zip(v, q_j)]
        q[i] = v
        norms[i] = dot(v, v)


def _size_reduce(basis) -> tuple[FMat, tuple[tuple[int, ...], ...],
                                  list[list[float]], list[float]]:
    """LLL reduction (delta = 0.99) on the columns of `basis`.

    Returns (reduced, U, mu, norms) with reduced = basis U, U an integer
    matrix of determinant +-1, and mu and norms the Gram-Schmidt
    coefficients and squared norms of the reduced columns.  A
    size-reduction step b_k -= r b_j changes only row k of mu, which is
    updated in place; Gram-Schmidt is recomputed only after a swap of
    b_{k-1} and b_k, from row k - 1 on.
    """
    b = [list(c) for c in transpose(basis)]
    dim = len(b)
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]  # columns of U
    delta = 0.99
    mu = [[0.0] * dim for _ in range(dim)]
    q: list[list[float]] = [[] for _ in range(dim)]
    norms = [0.0] * dim
    _gram_schmidt(b, mu, q, norms, 0)
    k = 1
    steps = 0
    while k < dim and steps < 10000:
        steps += 1
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            r = round(mu_k[j])
            if r != 0:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                mu_j = mu[j]
                for i in range(j):
                    mu_k[i] -= r * mu_j[i]
                mu_k[j] -= r
        if norms[k] >= (delta - mu_k[k - 1] * mu_k[k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            _gram_schmidt(b, mu, q, norms, k - 1)
            k = max(k - 1, 1)
    return transpose(b), transpose(u), mu, norms


def _enumerate_minimum(mu: list[list[float]], norms: list[float],
                       bound_sq: float) -> tuple[float, list[int]]:
    """Exhaustive Fincke-Pohst search below bound_sq on a basis given by its
    Gram-Schmidt data, as `_size_reduce` leaves it.

    The basis is B = Q r with Q orthonormal and r upper triangular:
    r_ii = sqrt(norms_i) and r_ij = mu_ji r_ii, so ||Bx||^2 = ||r x||^2.
    Returns (min norm squared, integer coefficient vector).  The bound must
    be attained by some lattice vector (e.g. a basis column).
    """
    dim = len(norms)
    if not all(nrm > 0.0 for nrm in norms):
        raise ValueError("lattice Gram matrix is not positive definite")
    diag = [math.sqrt(nrm) for nrm in norms]
    # column j of r: mu_ji r_ii above the diagonal, r_jj on it
    r_cols = [[mu[j][i] * diag[i] for i in range(j)] + [diag[j]]
              + [0.0] * (dim - j - 1) for j in range(dim)]
    best_sq = bound_sq * (1 + 1e-12)
    best_x = None
    x = [0] * dim

    def descend(level: int, partial_sq: float, carry: list[float]):
        nonlocal best_sq, best_x
        if level < 0:
            if any(x) and partial_sq < best_sq:
                best_sq = partial_sq
                best_x = list(x)
            return
        rem = best_sq - partial_sq
        if rem < 0:
            return
        r_ll = diag[level]
        center = -carry[level] / r_ll
        half = math.sqrt(rem) / r_ll
        lo = math.ceil(center - half - 1e-9)
        hi = math.floor(center + half + 1e-9)
        for xi in range(lo, hi + 1):
            x[level] = xi
            y = r_ll * xi + carry[level]
            new_partial = partial_sq + y * y
            if new_partial <= best_sq * (1 + 1e-12):
                descend(level - 1, new_partial,
                        [c + xi * rc for c, rc in zip(carry, r_cols[level])])
        x[level] = 0

    descend(dim - 1, 0.0, [0.0] * dim)
    if best_x is None:
        raise AssertionError("enumeration bound excluded every lattice vector")
    return best_sq, best_x


def _vector_norm(basis, x: Sequence[int]) -> float:
    """Euclidean length of the lattice vector basis x."""
    y = [dot(row, x) for row in basis]
    return math.sqrt(dot(y, y))


def shortest_vector(basis) -> float:
    """Length of a shortest nonzero vector of the lattice spanned by the
    columns of `basis` (exact-optimal enumeration).

    The basis is LLL-reduced first; the reduced shortest column certifies a
    sufficient enumeration bound.  The length is measured on the original
    basis at the integer coefficients the enumeration found.
    """
    basis = fmat(basis)
    reduced, transform, mu, norms = _size_reduce(basis)
    bound_sq = min(dot(c, c) for c in transpose(reduced))
    _, x_red = _enumerate_minimum(mu, norms, bound_sq)
    return _vector_norm(basis, [dot(row, x_red) for row in transform])


@record
class ProbeStats:
    minimum: float
    maximum: float
    argmin_t: float
    values: tuple[tuple[float, float], ...]


def orbit_probe(order: QuadraticOrder, g0: Sequence,
                grid_radius: float, grid_points: int) -> ProbeStats:
    """Shortest vectors along the diagonal-line torus orbit of g0, a pair of
    2 x 2 matrices.

    Torus samples are determinant-one pairs (diag(e^t, e^-t), diag(e^t, e^-t))
    over the symmetric grid of t values: t_k = k * step - radius with the
    last point set to +radius, as `numpy.linspace` places them; the problem
    file guarantees at least two points.  A sample scales row 1 of each
    factor by e^t and row 2 by e^-t.
    """
    if len(g0) != 2 or any(len(f) != 2 or any(len(r) != 2 for r in f) for f in g0):
        raise ValueError("the orbit probe samples the diagonal line of SL_2 pairs")
    start, stop = -float(grid_radius), float(grid_radius)
    step = (stop - start) / (grid_points - 1)
    ts = [k * step + start for k in range(grid_points)]
    ts[-1] = stop
    values = []
    minimum, maximum, argmin_t = math.inf, -math.inf, 0.0
    for t in ts:
        scale = (math.exp(t), math.exp(-t))
        sv = shortest_vector(embed_lattice(order, [
            tuple(tuple(c * x for x in row) for c, row in zip(scale, f)) for f in g0]))
        values.append((t, sv))
        if sv < minimum:
            minimum, argmin_t = sv, t
        maximum = max(maximum, sv)
    return ProbeStats(minimum, maximum, argmin_t, tuple(values))

"""Exact rational linear algebra for the scan and the escape witness:
rank, kernels, reduced echelon forms and determinants, and canonical
subspaces.

The one inner product is the standard form, (a | b) = `dot(a, b)`.  Every
criterion built on it is invariant under positive scaling of the form, and
the Killing form of an SL_n product is 2n times the standard form on each
factor (see `rootdata`), so no other Gram matrix is needed.

Everything here is pure and exact: entries are `fractions.Fraction`, inputs are
immutable, and no floating point is used.  Every exact elimination goes
through `_eliminate`, one fraction-free (Bareiss) loop over integer rows:
`rank` counts its pivots, `det` reads its last pivot, and `_rref` (behind
kernels, `Subspace.span` and the escape witness) runs it in Gauss-Jordan
form.
Subspaces are stored with a canonical reduced-echelon basis so equality of
spans is plain `==`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def clear_denominators(v: Sequence) -> list[int]:
    """The rational vector times the LCM of its denominators."""
    if all(type(e) is int for e in v):
        return list(v)
    scale = math.lcm(*(e.denominator for e in v))
    return [e.numerator * (scale // e.denominator) for e in v]


SparseRows = tuple[tuple[tuple[int, int], ...], ...]


def sparse_integer_rows(f: Sequence[Sequence[Fraction]]) -> SparseRows:
    """The nonzero (column, entry) pairs of each row of s*f, for s the LCM
    of the denominators of f."""
    rows = [[(j, e) for j, e in enumerate(row) if e] for row in f]
    scale = math.lcm(*(e.denominator for row in rows for _, e in row))
    return tuple(tuple((j, e.numerator * (scale // e.denominator)) for j, e in row)
                 for row in rows)


def _sparse_product(a: SparseRows, b: SparseRows) -> list[list[int]]:
    n = len(a)
    out = []
    for row in a:
        acc = [0] * n
        for t, e in row:
            for j, x in b[t]:
                acc[j] += e * x
        out.append(acc)
    return out


def commutes(a: SparseRows, b: SparseRows) -> bool:
    """ab = ba for square integer matrices in sparse rows."""
    return _sparse_product(a, b) == _sparse_product(b, a)


def _eliminate(rows: list[list[int]], reduced: bool) -> tuple[list[list[int]], list[int], int]:
    """Bareiss's fraction-free elimination of an integer matrix, in place.

    Returns (rows, pivot columns, sign of the row permutation); row i of the
    result holds the pivot in column pivots[i].  After k pivots every entry is
    a (k+1)-minor, so the division by the previous pivot is exact, and the
    last pivot of a nonsingular square matrix is its determinant up to the
    sign.  With `reduced` the rows above each pivot are cleared too
    (fraction-free Gauss-Jordan, same exact division), so every pivot row
    ends with the last pivot in its pivot column and zeros in the others.
    """
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(rows[0]) if rows else 0):
        done = len(pivots)
        pr = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != done:
            rows[done], rows[pr] = rows[pr], rows[done]
            sign = -sign
        pivot_row = rows[done]
        pv = pivot_row[c]
        for i in range(0 if reduced else done + 1, len(rows)):
            if i != done:
                row = rows[i]
                f = row[c]
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        prev = pv
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, sign


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    red, pivots, _ = _eliminate([r for r in map(clear_denominators, rows) if any(r)], True)
    return [[Fraction(a, row[p]) for a in row] for row, p in zip(red, pivots)], pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over the rationals.

    Scaling a row by a nonzero integer keeps the rank, so each row is cleared
    of denominators and the integer matrix is eliminated fraction-free.
    """
    return len(_eliminate([r for r in map(clear_denominators, m) if any(r)], False)[1])


def _kernel_vectors(m: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Free-variable kernel basis (one vector per non-pivot column)."""
    red, pivots = _rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        out.append(tuple(v))
    return out


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: the matrix is scaled by the LCM of its denominators
    and the determinant read off the last fraction-free pivot."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("det expects a square matrix")
    scale = math.lcm(*(e.denominator for row in m for e in row))
    rows, pivots, sign = _eliminate(
        [[e.numerator * (scale // e.denominator) for e in row] for row in m], False)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1] if n else 1, scale ** n)


@record
class Subspace:
    """A rational subspace with canonical reduced-echelon basis.

    Construct through :meth:`span` (canonicalizes any spanning set) or
    :meth:`from_independent` (rejects dependent input).  Canonical bases make
    subspace equality decidable by ``==``.
    """

    ambient_dim: int
    basis: Mat

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        vs = [vec(v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise ValueError("vector/ambient dimension mismatch")
        return cls(ambient_dim, tuple(map(tuple, _rref(vs)[0])))

    @classmethod
    def from_independent(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        vs = [vec(v) for v in vectors]
        s = cls.span(ambient_dim, vs)
        if s.dim != len(vs):
            raise ValueError("basis vectors are linearly dependent")
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)


@record
class Orthant:
    """A strict sign pattern (+1/-1 per functional)."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("orthant signs must be +1 or -1")


def primitive_vector(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The nonzero rational vector scaled to coprime integers, same direction."""
    ints = clear_denominators(v)
    g = math.gcd(*ints)
    return tuple(e // g for e in ints)

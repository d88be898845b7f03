"""Cartan data for products of SL_n factors (restriction-of-scalars family).

The Cartan space of ``m`` SL_n factors is modelled as m blocks of n rational
coordinates, each block summing to zero.  The invariant form is the per-factor
standard inner product; every boolean criterion downstream is invariant under
positive scaling of the form, so the Killing-form normalization is not needed.
Functionals are stored by their trace-zero coefficient vector, which is also
their dual vector for the standard form.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .linalg import BilinearForm, Mat, Subspace, Vec, mat, vec


@record
class GroupSpec:
    """Product of m copies of SL_n with the diagonal rational structure."""

    n: int
    m: int
    family: str = "res-sl"

    def __post_init__(self):
        if self.family != "res-sl":
            raise ValueError(f"unsupported group family {self.family!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")

    @property
    def rank(self) -> int:
        """Rational rank: n - 1."""
        return self.n - 1

    @property
    def ambient_dim(self) -> int:
        return self.n * self.m


class ParabolicSide(enum.Enum):
    STANDARD = "standard"
    OPPOSITE = "opposite"


@record
class CartanSpace:
    spec: GroupSpec

    @property
    def ambient_dim(self) -> int:
        return self.spec.ambient_dim

    @property
    def form(self) -> BilinearForm:
        return BilinearForm.standard(self.ambient_dim)

    def blocks(self, v: Sequence[Fraction]) -> list[Vec]:
        n = self.spec.n
        return [vec(v[k * n:(k + 1) * n]) for k in range(self.spec.m)]

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            return False
        return all(sum(b) == 0 for b in self.blocks(v))

    def trace_zero_part(self, v: Sequence[Fraction]) -> Vec:
        """Canonical representative: subtract the per-block mean."""
        n = self.spec.n
        out: list[Fraction] = []
        for b in self.blocks(v):
            mean = sum(b, Fraction(0)) / n
            out.extend(e - mean for e in b)
        return tuple(out)

    def standard_basis(self) -> list[Vec]:
        """Per-factor simple coweight style basis e_j - e_{j+1} of the trace-zero space."""
        n, m = self.spec.n, self.spec.m
        out = []
        for k in range(m):
            for j in range(n - 1):
                v = [Fraction(0)] * self.ambient_dim
                v[k * n + j] = Fraction(1)
                v[k * n + j + 1] = Fraction(-1)
                out.append(tuple(v))
        return out

    def full_subspace(self) -> Subspace:
        return Subspace.span(self.ambient_dim, self.standard_basis())


@record
class Functional:
    """Rational linear functional on the Cartan space, lambda(x) = (v | x)."""

    vector: Vec

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.vector)


@record
class LieElement:
    """m-tuple of trace-zero n x n rational matrices."""

    factors: tuple[Mat, ...]

    def __post_init__(self):
        for f in self.factors:
            n = len(f)
            if any(len(row) != n for row in f):
                raise ValueError("factor matrices must be square")
            if sum(f[i][i] for i in range(n)) != 0:
                raise ValueError("factor matrices must be trace zero")

    @classmethod
    def of(cls, factors: Iterable[Iterable[Iterable]]) -> "LieElement":
        return cls(tuple(mat(f) for f in factors))

    def is_zero(self) -> bool:
        return all(all(all(e == 0 for e in row) for row in f) for f in self.factors)


def _check_index(space: CartanSpace, i: int) -> None:
    if not 1 <= i <= space.spec.rank:
        raise IndexError(f"index {i} outside 1..{space.spec.rank}")


def fundamental_weight(space: CartanSpace, i: int) -> Functional:
    """chi_i(x) = sum over factors of the first i coordinates of each block."""
    _check_index(space, i)
    n, m = space.spec.n, space.spec.m
    raw = []
    for _ in range(m):
        raw.extend(Fraction(1) if j < i else Fraction(0) for j in range(n))
    return Functional(space.trace_zero_part(raw))


def parabolic_contains(space: CartanSpace, cuts: Iterable[int], x: LieElement,
                       side: ParabolicSide) -> bool:
    """Is x block triangular (upper for STANDARD, lower for OPPOSITE) at every cut?"""
    n = space.spec.n
    cut_list = sorted(set(cuts))
    if not cut_list:
        raise ValueError("cut set must be nonempty")
    for i in cut_list:
        _check_index(space, i)
    for f in x.factors:
        for i in cut_list:
            if side is ParabolicSide.STANDARD:
                bad = any(f[a][b] != 0 for a in range(i, n) for b in range(i))
            else:
                bad = any(f[a][b] != 0 for a in range(i) for b in range(i, n))
            if bad:
                return False
    return True


def nilradical_basis(space: CartanSpace, i: int,
                     side: ParabolicSide) -> list[tuple[int, int, int]]:
    """Positions (factor, row, column) of the matrix units spanning the
    nilradical at cut i.

    Factor-major, then row-major in the standard side's positions; the
    opposite side lists the transposed positions in the same order.
    """
    _check_index(space, i)
    n, m = space.spec.n, space.spec.m
    out = []
    for k in range(m):
        for a in range(i):
            for b in range(i, n):
                out.append((k, a, b) if side is ParabolicSide.STANDARD else (k, b, a))
    return out


def weight_of_nilradical(space: CartanSpace, i: int, side: ParabolicSide) -> Functional:
    """Character of the Cartan action on the wedge line of the nilradical.

    Sum of the roots of the basis matrix units; equal to n*chi_i on the
    standard side and its negative on the opposite side.
    """
    _check_index(space, i)
    n = space.spec.n
    v = [Fraction(0)] * space.ambient_dim
    for k in range(space.spec.m):
        for a in range(i):
            for b in range(i, n):
                if side is ParabolicSide.STANDARD:
                    v[k * n + a] += 1
                    v[k * n + b] -= 1
                else:
                    v[k * n + b] += 1
                    v[k * n + a] -= 1
    return Functional(tuple(v))

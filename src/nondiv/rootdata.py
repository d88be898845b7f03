"""Cartan data for products of SL_n factors (restriction-of-scalars family).

`GroupSpec` is the group and its Cartan space: m blocks of n rational
coordinates, each block summing to zero.  The invariant form is the
per-factor standard inner product; every boolean criterion downstream is
invariant under positive scaling of the form, so the Killing-form
normalization is not needed.  A weight is a plain trace-zero coefficient
vector (`Vec`), which is also its dual vector for the standard form:
lambda(x) = (v | x).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .linalg import Mat, Subspace, Vec, vec


@record
class GroupSpec:
    """Product of m copies of SL_n with the diagonal rational structure."""

    n: int
    m: int

    def __post_init__(self):
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

    def blocks(self, v: Sequence[Fraction]) -> list[Vec]:
        n = self.n
        return [vec(v[k * n:(k + 1) * n]) for k in range(self.m)]

    def is_trace_zero(self, v: Sequence[Fraction]) -> bool:
        """Does v lie in the Cartan space: right length, each block summing to 0?"""
        if len(v) != self.ambient_dim:
            return False
        return all(sum(b) == 0 for b in self.blocks(v))

    def trace_zero_part(self, v: Sequence[Fraction]) -> Vec:
        """Canonical representative: subtract the per-block mean."""
        out: list[Fraction] = []
        for b in self.blocks(v):
            mean = sum(b, Fraction(0)) / self.n
            out.extend(e - mean for e in b)
        return tuple(out)

    def full_subspace(self) -> Subspace:
        """The whole Cartan space, spanned by e_j - e_{j+1} in every factor."""
        n, dim = self.n, self.ambient_dim
        basis = []
        for k in range(self.m):
            for j in range(n - 1):
                v = [Fraction(0)] * dim
                v[k * n + j] = Fraction(1)
                v[k * n + j + 1] = Fraction(-1)
                basis.append(tuple(v))
        return Subspace.span(dim, basis)


class ParabolicSide(enum.Enum):
    STANDARD = "standard"
    OPPOSITE = "opposite"


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

    def is_zero(self) -> bool:
        return all(all(all(e == 0 for e in row) for row in f) for f in self.factors)


def _check_index(spec: GroupSpec, i: int) -> None:
    if not 1 <= i <= spec.rank:
        raise IndexError(f"index {i} outside 1..{spec.rank}")


def fundamental_weight(spec: GroupSpec, i: int) -> Vec:
    """chi_i(x) = sum over factors of the first i coordinates of each block."""
    _check_index(spec, i)
    n, m = spec.n, spec.m
    raw = []
    for _ in range(m):
        raw.extend(Fraction(1) if j < i else Fraction(0) for j in range(n))
    return spec.trace_zero_part(raw)


def parabolic_contains(spec: GroupSpec, cuts: Iterable[int], x: LieElement,
                       side: ParabolicSide) -> bool:
    """Is x block triangular (upper for STANDARD, lower for OPPOSITE) at every cut?"""
    n = spec.n
    cut_list = sorted(set(cuts))
    if not cut_list:
        raise ValueError("cut set must be nonempty")
    for i in cut_list:
        _check_index(spec, i)
    for f in x.factors:
        for i in cut_list:
            if side is ParabolicSide.STANDARD:
                bad = any(f[a][b] != 0 for a in range(i, n) for b in range(i))
            else:
                bad = any(f[a][b] != 0 for a in range(i) for b in range(i, n))
            if bad:
                return False
    return True


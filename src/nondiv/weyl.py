"""Restricted Weyl group of an SL_n product (a product of symmetric groups),
its action on weights (trace-zero coefficient vectors) and Lie elements,
and the matrices that represent centralizer Weyl elements, which act on
Lie(D) by relabelling coordinates through their support permutation (no
inverse is formed).  A representative is a plain value: that each factor
has determinant 1, centralizes M and normalizes Lie(D) is a property of the
whole problem, checked by the validated problem instance."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._record import record
from .linalg import Mat, Vec
from .rootdata import GroupSpec, LieElement

Permutation = tuple[int, ...]  # one-line notation, 0-based: i -> p[i]


def _check_permutation(p: Sequence[int], n: int) -> Permutation:
    t = tuple(p)
    if sorted(t) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {t}")
    return t


@record
class WeylElement:
    """One permutation per factor, acting on coordinates."""

    perms: tuple[Permutation, ...]

    def __post_init__(self):
        n = len(self.perms[0]) if self.perms else 0
        for p in self.perms:
            _check_permutation(p, n)


def weyl_inverse(w: WeylElement) -> WeylElement:
    out = []
    for p in w.perms:
        q = [0] * len(p)
        for i, pi in enumerate(p):
            q[pi] = i
        out.append(tuple(q))
    return WeylElement(tuple(out))


def weyl_order(spec: GroupSpec) -> int:
    return math.factorial(spec.n) ** spec.m


def act_on_functional(w: WeylElement, f: Vec) -> Vec:
    """w(f)(x) = f(Ad(w^-1)x); on dual coordinates each block is permuted by w."""
    n = len(w.perms[0])
    m = len(w.perms)
    if len(f) != n * m:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * (n * m)
    for k, p in enumerate(w.perms):
        for i in range(n):
            out[k * n + p[i]] = f[k * n + i]
    return tuple(out)


def perm_sign(p: Permutation) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def representative_signs(p: Permutation) -> list[int]:
    """sigma[i], the sign of entry (p[i], i) of the determinant-one representative.

    For odd permutations one row is negated; the row of the largest moved
    index is chosen, deterministically.
    """
    negate = -1
    if perm_sign(p) < 0:
        negate = max(i for i in range(len(p)) if p[i] != i)
    return [-1 if pi == negate else 1 for pi in p]


def act_on_lie(w: WeylElement, x: LieElement) -> LieElement:
    """Conjugation by the signed permutation representatives, per factor."""
    factors = []
    for p, f in zip(w.perms, x.factors):
        n = len(p)
        sigma = representative_signs(p)
        out = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if f[a][b] != 0:
                    out[p[a]][p[b]] = sigma[a] * sigma[b] * f[a][b]
        factors.append(tuple(tuple(r) for r in out))
    return LieElement(tuple(factors))


@record
class CentralizerWeylElement:
    """A representative of the centralizer Weyl group: one rational matrix
    per factor, each of determinant 1 in a validated problem instance.

    It acts on Lie(D) through its support permutation sigma.  For an
    invertible factor l, l^-1 diag(v) l = diag(y) iff diag(v) l = l diag(y),
    that is y_j = v_i at every nonzero l_ij, so y = v o sigma.  Validation
    checks that Ad(w') maps Lie(D) into Lie(D); it is injective, so Ad(w'^-1)
    maps Lie(D) onto Lie(D), and there it is v -> v o sigma on each factor.
    """

    matrices: tuple[Mat, ...]

    def is_identity(self) -> bool:
        return all(all(f[i][j] == (1 if i == j else 0)
                       for i in range(len(f)) for j in range(len(f)))
                   for f in self.matrices)

    def support_permutations(self) -> tuple[Permutation, ...]:
        """Per factor l, the first permutation sigma (lexicographic order)
        with every l[sigma[j]][j] nonzero; one exists because l is
        invertible."""
        out = []
        for k, f in enumerate(self.matrices):
            sigma = _first_transversal([[i for i, e in enumerate(column) if e]
                                        for column in zip(*f)])
            if sigma is None:
                raise ValueError(f"factor {k + 1} is singular")
            out.append(sigma)
        return tuple(out)


def _first_transversal(rows_of: Sequence[Sequence[int]],
                       p: Permutation = ()) -> Optional[Permutation]:
    """The least permutation extending p (lexicographic order) with p[j] in
    rows_of[j] for every j, or None: depth first, rows in increasing order."""
    if len(p) == len(rows_of):
        return p
    for i in rows_of[len(p)]:
        if i not in p:
            found = _first_transversal(rows_of, p + (i,))
            if found is not None:
                return found
    return None


def identity_centralizer_element(spec: GroupSpec) -> CentralizerWeylElement:
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(spec.n))
                for i in range(spec.n))
    return CentralizerWeylElement((eye,) * spec.m)


"""Engine-free oracle for the documented search order (sympy only; nothing
from `nondiv` is imported here).

Conventions, derived from the definitions rather than from the engine:

- w = (p_1, ..., p_m) acts on factor k by the permutation matrix P_k with
  P_k e_j = e_{p_k(j)}, so w(chi_i)(x) = sum_k sum_{l < i} x[k, p_k(l)].
- (I, w) is admissible when P^-1 X P is block diagonal at every cut in I for
  every M generator X.  (P^-1 X P)[a][b] = X[p(a)][p(b)], so the entry (a, b)
  of X moves to (p^-1(a), p^-1(b)); the signs of the actual Weyl
  representatives do not change this support.
- w' transports Lie(A) by x -> W'^-1 diag(x) W', factor by factor.

The first hit is the least (I, w, w') with I ordered by size and then
lexicographically, w in lexicographic product order (factor 1 most
significant) and w' in list order, whose weights {w(chi_i) : i in I} are
linearly dependent as functionals on the transported Lie(A).
"""

import itertools
from fractions import Fraction

import sympy


def _rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _transported(n, m, a_basis, mats):
    out = []
    for b in a_basis:
        vec = []
        for k in range(m):
            w_prime = sympy.Matrix([[_rational(e) for e in row] for row in mats[k]])
            y = w_prime.inv() * sympy.diag(*[_rational(e) for e in b[k * n:(k + 1) * n]]) \
                * w_prime
            assert y.is_diagonal(), "w' does not normalize Lie(A)"
            vec.extend(y[j, j] for j in range(n))
        out.append(vec)
    return out


def _cuts(n, generators, perms):
    """Admissible cuts of w: no moved generator entry crosses the cut."""
    inv = [[p.index(a) for a in range(n)] for p in perms]
    support = [(inv[k][a], inv[k][b])
               for gen in generators for k, f in enumerate(gen)
               for a in range(n) for b in range(n) if a != b and f[a][b] != 0]
    return tuple(i for i in range(1, n)
                 if all((a < i) == (b < i) for a, b in support))


def _rank(rows, cols):
    return sympy.Matrix(len(rows), cols, [x for row in rows for x in row]).rank()


def _weights(n, perms, subset, basis):
    """Rows [w(chi_i)(b) for b in basis] for i in subset."""
    return [[sum((b[k * n + p[l]] for k, p in enumerate(perms) for l in range(i)),
                 sympy.Integer(0)) for b in basis] for i in subset]


def first_hit(n, m, generators, a_basis, centralizer):
    """(subset, perms, w' index, admissible pair count) of the first hit, or
    (None, None, None, admissible pair count) when there is none."""
    weyls = list(itertools.product(itertools.permutations(range(n)), repeat=m))
    cuts = [set(_cuts(n, generators, perms)) for perms in weyls]
    bases = [_transported(n, m, a_basis, mats) for mats in centralizer]
    # Dependence depends on the transported span only, and a subset of an
    # independent family is independent: decide each (w, span) family once.
    span_key = [tuple(sympy.Matrix(b).rref()[0]) if b else () for b in bases]
    independent = {}

    def family_independent(wi, wpi):
        key = (wi, span_key[wpi])
        if key not in independent:
            rows = _weights(n, weyls[wi], sorted(cuts[wi]), bases[wpi])
            independent[key] = _rank(rows, len(bases[wpi])) == len(rows)
        return independent[key]

    admissible = sum(2 ** len(c) - 1 for c in cuts)
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n), size):
            for wi, perms in enumerate(weyls):
                if not set(subset) <= cuts[wi]:
                    continue
                for wpi, basis in enumerate(bases):
                    if family_independent(wi, wpi):
                        continue
                    rows = _weights(n, perms, subset, basis)
                    if _rank(rows, len(basis)) < size:
                        return subset, perms, wpi, admissible
    return None, None, None, admissible


def dependence_vanishes(n, m, a_basis, mats, subset, perms, coefficients):
    """sum_i c_i w(chi_i) vanishes on the w'-transported Lie(A)."""
    basis = _transported(n, m, a_basis, mats)
    rows = _weights(n, perms, subset, basis)
    return all(sum((_rational(c) * row[j] for c, row in zip(coefficients, rows)),
                   sympy.Integer(0)) == 0
               for j in range(len(basis)))

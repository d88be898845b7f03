"""Reference exact linear algebra that no command runs, kept as test oracles:
the definitions the engine's rank test is equivalent to, and the
Fourier-Motzkin sign test that the engine's escape orthant is checked against.

- `solve`, `project_subspace` and `escape_vector`: one elimination per
  solved system, the reference for the escape witness's single elimination
  (with the vector helpers `zeros`, `vec_add` and `vec_scale`).
- `restricted_independent`: functionals independent on W, cross-asserted
  against the projection criterion pi_U(W) = U.
- `fm_feasible`: exact feasibility of strict/weak linear inequalities by
  Fourier-Motzkin elimination.
- `orthant_meets_subspace`: the sign test decided by `fm_feasible`, the
  oracle for the escape orthant the engine reads off the certified
  dependence.
- `invdim`: the invariance dimension of a region cut out by strict affine
  inequalities (`StrictRegion`), decided by `fm_feasible`.
- `integral_kernel_vector`: a primitive integer kernel vector.
- `factor_grams` and `gram_wedge_norm`: the squared norm of a wedge line
  under Ad(w' w) as the determinant of the d x d Gram matrix of its moved
  matrix units, C_k[a][a'] C_k^-1[b][b'] per factor, the oracle for the
  engine's product of principal minors.
- `two_product_divergence_sequence`: g_N = w' exp(N v) w in floats by two
  matrix products per factor, `float_mat_mul` over `exp_cartan`, the
  bit-for-bit reference for the engine's column formula.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from nondiv._record import record
from nondiv.linalg import (
    Mat,
    Orthant,
    Subspace,
    Vec,
    _kernel_vectors,
    _rref,
    det,
    dot,
    primitive_vector,
    rank,
    vec,
)
from nondiv.lattice import exp, fmat

from helpers import mat, signed_permutation_matrix

NEG_INFINITY = float("-inf")


# --- solves and orthogonal projection ---------------------------------------

def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))

def vec_scale(c: Fraction, a: Sequence[Fraction]) -> Vec:
    return tuple(c * x for x in a)


def solve(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec:
    """Solve a square nonsingular system exactly."""
    n = len(m)
    if n != len(rhs) or any(len(r) != n for r in m):
        raise ValueError("solve expects a square system")
    aug = [list(row) + [r] for row, r in zip(m, rhs)]
    red, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return tuple(red[i][n] for i in range(n))


def project_subspace(w: Subspace, u: Subspace) -> Subspace:
    """Image of W under the orthogonal projection onto U."""
    if w.ambient_dim != u.ambient_dim:
        raise ValueError("dimension mismatch")
    if u.dim == 0 or w.dim == 0:
        return Subspace(u.ambient_dim, ())
    gram_u = [[dot(a, b) for b in u.basis] for a in u.basis]
    images = []
    for x in w.basis:
        rhs = [dot(a, x) for a in u.basis]
        t = solve(gram_u, rhs)
        img = zeros(u.ambient_dim)
        for c, b in zip(t, u.basis):
            img = vec_add(img, vec_scale(c, b))
        images.append(img)
    return Subspace.span(u.ambient_dim, images)


def escape_vector(funcs: Sequence[Vec], sigma0: Orthant) -> Vec:
    """The combination of the functionals, each its own dual under the
    standard form, with every weight value +-2."""
    gram = [[dot(f, u) for u in funcs] for f in funcs]
    coeffs = solve(gram, [Fraction(2 * s) for s in sigma0.signs])
    v: Vec = tuple(Fraction(0) for _ in funcs[0])
    for c, u in zip(coeffs, funcs):
        v = vec_add(v, vec_scale(c, u))
    assert all(dot(f, v) == 2 * s for f, s in zip(funcs, sigma0.signs))
    return v


# --- Fourier-Motzkin feasibility -------------------------------------------

# A constraint is (coeffs, rhs, strict): coeffs.x < rhs if strict else <= rhs.
_FMRow = tuple[Vec, Fraction, bool]


def _fm_normalize(coeffs: Vec, rhs: Fraction, strict: bool) -> _FMRow:
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return coeffs, rhs, strict
    s = abs(lead)
    return tuple(c / s for c in coeffs), rhs / s, strict


def fm_feasible(constraints: Sequence[tuple[Sequence[Fraction], Fraction, bool]],
                nvars: int) -> bool:
    """Exact feasibility of a system of strict/weak linear inequalities."""
    rows: set[_FMRow] = set()
    consts: list[tuple[Fraction, bool]] = []
    for coeffs, rhs, strict in constraints:
        coeffs = vec(coeffs)
        if len(coeffs) != nvars:
            raise ValueError("constraint arity mismatch")
        if all(c == 0 for c in coeffs):
            consts.append((Fraction(rhs), strict))
        else:
            rows.add(_fm_normalize(coeffs, Fraction(rhs), strict))
    for rhs, strict in consts:
        if (strict and rhs <= 0) or (not strict and rhs < 0):
            return False
    for j in range(nvars):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        keep = {r for r in rows if r[0][j] == 0}
        for (cp, bp, sp), (cn, bn, sn) in itertools.product(pos, neg):
            mp, mn = -cn[j], cp[j]  # positive multipliers eliminating x_j
            coeffs = tuple(mp * a + mn * b for a, b in zip(cp, cn))
            rhs = mp * bp + mn * bn
            strict = sp or sn
            if all(c == 0 for c in coeffs):
                if (strict and rhs <= 0) or (not strict and rhs < 0):
                    return False
            else:
                keep.add(_fm_normalize(coeffs, rhs, strict))
        rows = keep
    return True


def orthant_meets_subspace(functionals: Sequence[Sequence[Fraction]],
                           sigma: Orthant,
                           u: Subspace) -> bool:
    """Does u contain a point with sign(f_i(x)) = sigma_i for every i?"""
    fs = [vec(f) for f in functionals]
    if len(fs) != len(sigma.signs):
        raise ValueError("functional/orthant arity mismatch")
    if u.dim == 0:
        return False
    # Coordinates c on the basis of u; each strict sign is -sigma_i*f_i(Bc) < 0.
    constraints = []
    for f, s in zip(fs, sigma.signs):
        coeffs = tuple(-s * dot(f, b) for b in u.basis)
        constraints.append((coeffs, Fraction(0), True))
    return fm_feasible(constraints, u.dim)


@record
class StrictRegion:
    """Intersection of strict half-spaces {x : f_i(x) < a_i}."""

    ambient_dim: int
    constraints: tuple[tuple[Vec, Fraction], ...]

    def __post_init__(self):
        for f, _ in self.constraints:
            if len(f) != self.ambient_dim:
                raise ValueError("constraint/ambient dimension mismatch")
            if all(e == 0 for e in f):
                raise ValueError("constraint functionals must be nonzero")

    @classmethod
    def of(cls, ambient_dim: int, constraints: Iterable[tuple[Sequence, object]]) -> "StrictRegion":
        return cls(ambient_dim,
                   tuple((vec(f), Fraction(a)) for f, a in constraints))


def integral_kernel_vector(m: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """A nonzero integer kernel vector with coprime entries, or None.

    Input entries must be integers; the rational kernel vector from the
    free-variable construction has its denominators cleared and common factor
    removed.
    """
    rows = mat(m)
    for r in rows:
        for e in r:
            if e.denominator != 1:
                raise ValueError("integral_kernel_vector expects integer entries")
    ncols = len(rows[0]) if rows else 0
    kern = _kernel_vectors(rows, ncols)
    if not kern:
        return None
    return primitive_vector(kern[0])


def restricted_independent(functionals: Sequence[Sequence[Fraction]],
                           w: Subspace) -> bool:
    """Are the functionals linearly independent when restricted to w?

    Decided by the rank of the evaluation matrix [f_i(b_j)].  When the
    functionals are independent on the ambient space, the answer must agree
    with the projection criterion pi_U(W) = U for U the span of their duals;
    that equivalence is cross-asserted.  Under the standard form a
    functional is its own dual vector, so U is the span of the functionals.
    """
    fs = [vec(f) for f in functionals]
    if not fs:
        return True
    for f in fs:
        if len(f) != w.ambient_dim:
            raise ValueError("dimension mismatch")
    evaluation = [[dot(f, b) for b in w.basis] for f in fs]
    result = rank(evaluation) == len(fs)
    if __debug__ and rank(fs) == len(fs):
        duals = Subspace.span(w.ambient_dim, fs)
        assert result == (project_subspace(w, duals) == duals)
    return result


def _region_feasible(region: StrictRegion) -> bool:
    return fm_feasible([(f, a, True) for f, a in region.constraints],
                       region.ambient_dim)


def invdim(region: StrictRegion):
    """Dimension of the translation stabilizer; NEG_INFINITY for the empty set.

    For a nonempty region the stabilizer is the common kernel of the
    constraint functionals that survive sequential redundancy removal
    (a constraint is redundant iff its reversal is infeasible against the
    remaining ones; sequential removal keeps duplicate constraints sound).
    """
    if not _region_feasible(region):
        return NEG_INFINITY
    cons = list(region.constraints)
    active = list(range(len(cons)))
    for i in range(len(cons)):
        if i not in active:
            continue
        others = [j for j in active if j != i]
        f_i, a_i = cons[i]
        system = [(cons[j][0], cons[j][1], True) for j in others]
        system.append((vec_scale(Fraction(-1), f_i), -a_i, False))  # f_i(x) >= a_i
        if not fm_feasible(system, region.ambient_dim):
            active = others
    r = rank([cons[j][0] for j in active]) if active else 0
    # For nonempty regions redundant constraints never add rank.
    assert r == (rank([f for f, _ in cons]) if cons else 0)
    return region.ambient_dim - r


# --- wedge-line norms by Kronecker Gram determinant -------------------------

def factor_grams(w, w_prime) -> list[tuple[Mat, Mat]]:
    """Per factor k, (C_k, C_k^-1) with C_k = g_k^T g_k and g_k = w'_k S(w_k),
    S the signed permutation representative: exact rationals."""
    grams = []
    for wp, p in zip(w_prime.matrices, w.perms):
        cols = [[dot(row, s_col) for row in wp]
                for s_col in zip(*signed_permutation_matrix(p))]
        c = tuple(tuple(dot(x, y) for y in cols) for x in cols)
        unit = [[Fraction(int(i == j)) for i in range(len(c))] for j in range(len(c))]
        grams.append((c, tuple(solve(c, e) for e in unit)))  # C^-1 is symmetric
    return grams


def gram_wedge_norm(units: Sequence[tuple[int, int, int]],
                    grams: Sequence[tuple[Mat, Mat]]) -> Fraction:
    """Squared norm of the wedge of the matrix units (factor, row, column)
    under Ad(g), as the determinant of their Gram matrix: units (k, a, b)
    and (k, a', b') have entry C_k[a][a'] C_k^-1[b][b'], units of different
    factors 0; `grams` comes from `factor_grams`."""
    return det([[grams[k][0][a][a2] * grams[k][1][b][b2] if k == k2
                 else Fraction(0) for k2, a2, b2 in units]
                for k, a, b in units])


# --- g_N by two float matrix products ---------------------------------------

def float_diagonal(values: Sequence[float]) -> tuple:
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0.0 for j in range(n))
                 for i in range(n))


def float_mat_mul(a, b) -> tuple:
    """Float product, each entry summed from the integer 0 in column order."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def exp_cartan(spec, v: Sequence, scale: float = 1.0) -> list:
    """exp(scale v) for a diagonal Cartan vector v: one float diagonal matrix
    per factor, entries from the IEEE-overflowing `lattice.exp`."""
    n = spec.n
    return [float_diagonal([exp(float(e) * scale) for e in v[k * n:(k + 1) * n]])
            for k in range(spec.m)]


def two_product_divergence_sequence(cert, spec, v: Sequence,
                                    n_values: Sequence[int]) -> tuple:
    """g_N = w' exp(N v) w as (w' exp(N v)) S(w) in floats, S(w) the signed
    permutation representative: one m-tuple per N, with no drift guard."""
    w_mats = [fmat(signed_permutation_matrix(p)) for p in cert.w.perms]
    wp_mats = [fmat(f) for f in cert.w_prime.matrices]
    return tuple(tuple(float_mat_mul(float_mat_mul(wp, e), wm)
                       for wp, e, wm in zip(wp_mats, exp_cartan(spec, v, float(n_val)),
                                            w_mats))
                 for n_val in n_values)

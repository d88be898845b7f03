"""Independent-oracle cross-checks: every core primitive is compared against
an implementation that shares no code with the engine (sympy exact ranks and
nullspaces, an LP relaxation for strict feasibility, and the from-scratch
first-hit enumeration in `first_hit.py`)."""

import random
from fractions import Fraction as F

import sympy
from scipy.optimize import linprog

from nondiv.linalg import (
    Orthant,
    Subspace,
    _kernel_vectors,
    rank,
)
from nondiv.rootdata import GroupSpec, LieElement
from nondiv.weyl import WeylElement, act_on_lie

from helpers import assert_first_hit, check_torus, signed_permutation_matrix, torus_config
from reference_linalg import fm_feasible, orthant_meets_subspace


def _sym(x: F):
    return sympy.Rational(x.numerator, x.denominator)


def test_rank_matches_sympy():
    rng = random.Random(98765)
    for t in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)]
             for _ in range(r)]
        assert rank(m) == sympy.Matrix([[_sym(e) for e in row] for row in m]).rank()


def test_kernel_matches_sympy_nullspace():
    rng = random.Random(56789)
    for t in range(80):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[F(rng.randint(-6, 6)) for _ in range(c)] for _ in range(r)]
        null = sympy.Matrix(m).nullspace()
        k = Subspace.span(c, _kernel_vectors(m, c))
        assert k.dim == len(null)
        for v in null:
            vec = [F(sympy.Rational(x).p, sympy.Rational(x).q) for x in v]
            assert rank(list(k.basis) + [vec]) == k.dim


def test_fm_feasible_matches_lp_relaxation():
    # maximize slack t subject to a.x + t*[strict] <= b and t <= 1; the
    # strict/weak system is feasible iff the optimum has t > 0 (or the LP is
    # unbounded above in t).
    rng = random.Random(24680)
    decided = 0
    for t in range(150):
        nvars = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
            rows.append((coeffs, F(rng.randint(-4, 4)), rng.random() < 0.7))
        got = fm_feasible(rows, nvars)
        a_ub, b_ub = [], []
        for coeffs, rhs, strict in rows:
            a_ub.append([float(x) for x in coeffs] + [1.0 if strict else 0.0])
            b_ub.append(float(rhs))
        a_ub.append([0.0] * nvars + [1.0])
        b_ub.append(1.0)
        res = linprog(c=[0.0] * nvars + [-1.0], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * (nvars + 1), method="highs")
        if res.status == 3:
            oracle = True
        elif res.status == 0:
            oracle = bool(res.x[-1] > 1e-9)
        else:
            continue
        assert got == oracle, (rows, got)
        decided += 1
    assert decided >= 100


def test_strict_homogeneous_fm_matches_lp_relaxation():
    # The strict homogeneous systems `orthant_meets_subspace` poses: is
    # there an x with r.x < 0 for every row r?  The LP maximizes t subject
    # to r.x + t <= 0 and t <= 1; such a system is feasible iff the optimum
    # has t > 0.  Zero rows and positive multiples of earlier rows are mixed
    # in.
    rng = random.Random(13570)
    outcomes, zero_rows, repeats = set(), 0, 0
    for t in range(200):
        nvars = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            if roll < 0.1:
                rows.append((F(0),) * nvars)
                zero_rows += 1
            elif roll < 0.3 and rows:
                c = F(rng.randint(1, 3), rng.randint(1, 2))
                rows.append(tuple(c * x for x in rng.choice(rows)))
                repeats += 1
            else:
                rows.append(tuple(F(rng.randint(-4, 4)) for _ in range(nvars)))
        got = fm_feasible([(r, F(0), True) for r in rows], nvars)
        res = linprog(c=[0.0] * nvars + [-1.0],
                      A_ub=[[float(x) for x in r] + [1.0] for r in rows] + [[0.0] * nvars + [1.0]],
                      b_ub=[0.0] * len(rows) + [1.0],
                      bounds=[(None, None)] * (nvars + 1), method="highs")
        assert res.status == 0
        assert got == bool(res.x[-1] > 1e-9), (rows, got)
        outcomes.add(got)
    assert outcomes == {True, False}
    assert zero_rows >= 20 and repeats >= 20


def test_orthant_confirms_sampled_points():
    rng = random.Random(11111)
    confirmed = 0
    for t in range(150):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        funcs = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)]
        if any(all(e == 0 for e in f) for f in funcs):
            continue
        u = Subspace.span(n, [[F(rng.randint(-4, 4)) for _ in range(n)]
                              for _ in range(rng.randint(1, n))])
        if u.dim == 0:
            continue
        sigma = Orthant(tuple(rng.choice((1, -1)) for _ in range(k)))
        got = orthant_meets_subspace(funcs, sigma, u)
        for _ in range(300):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(u.dim)]
            x = [sum(c * bv[j] for c, bv in zip(coeffs, u.basis)) for j in range(n)]
            vals = [sum(f[j] * x[j] for j in range(n)) for f in funcs]
            if all(v != 0 and (v > 0) == (s > 0)
                   for v, s in zip(vals, sigma.signs)):
                assert got  # a witness point forces feasibility
                confirmed += 1
                break
    assert confirmed >= 50


def test_torus_criterion_matches_independent_oracle():
    rng = random.Random(13579)
    for t in range(40):
        n, m = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
        spec = GroupSpec(n, m)
        vecs = []
        for _ in range(rng.randint(0, m * (n - 1))):
            raw = [F(rng.randint(-3, 3)) for _ in range(n * m)]
            vecs.append(spec.trace_zero_part(raw))
        a = Subspace.span(n * m, vecs)
        assert_first_hit(torus_config(spec, a), check_torus(spec, a))


def test_lie_action_matches_explicit_conjugation():
    rng = random.Random(86420)
    for t in range(60):
        n, m = rng.choice([(2, 2), (3, 1), (4, 1), (3, 2)])
        perms = []
        for _ in range(m):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
        w = WeylElement(tuple(perms))
        factors = []
        for _ in range(m):
            mat = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            tr = sum(mat[i][i] for i in range(n))
            mat[n - 1][n - 1] -= tr
            factors.append(tuple(tuple(r) for r in mat))
        x = LieElement(tuple(factors))
        got = act_on_lie(w, x)
        for k, p in enumerate(perms):
            rep = sympy.Matrix([[int(e) for e in row]
                                for row in signed_permutation_matrix(p)])
            base = sympy.Matrix([[_sym(e) for e in row] for row in x.factors[k]])
            expected = rep * base * rep.inv()
            for i in range(n):
                for j in range(n):
                    assert _sym(got.factors[k][i][j]) == expected[i, j]

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nondiv.linalg import (
    Orthant,
    Subspace,
    _kernel_vectors,
    _rref,
    det,
    rank,
    transpose,
)

from helpers import mat
from reference_linalg import (
    NEG_INFINITY,
    StrictRegion,
    fm_feasible,
    integral_kernel_vector,
    invdim,
    orthant_meets_subspace,
    project_subspace,
    restricted_independent,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def rand_fraction(rng, span=9):
    return F(rng.randint(-span, span), rng.randint(1, 5))


def rand_matrix(rng, rows, cols, span=9):
    return [[rand_fraction(rng, span) for _ in range(cols)] for _ in range(rows)]


class TestRank:
    def test_identity(self):
        assert rank([[1, 0], [0, 1]]) == 2

    def test_proportional_rows(self):
        assert rank([[1, 2], [2, 4]]) == 1

    def test_zero(self):
        assert rank([[0, 0, 0]] * 3) == 0

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
    def test_rank_transpose(self, rows):
        assert rank(rows) == rank(transpose(rows))

    def test_empty(self):
        assert rank([]) == 0
        assert rank([[], []]) == 0

    def test_pivotless_column_is_skipped(self):
        assert rank([[0, 1, 2], [0, 2, 4], [0, 0, 0], [3, 0, 1]]) == 2

    def test_mixed_ints_and_rationals(self):
        assert rank([[F(1, 3), 1], [1, 3]]) == 1
        assert rank([[F(1, 3), 1], [1, F(3, 1) + F(1, 10 ** 30)]]) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fraction_elimination(self, data):
        rows = data.draw(st.integers(0, 6), label="rows")
        cols = data.draw(st.integers(0, 6), label="cols")
        if data.draw(st.booleans(), label="low rank"):
            # a product through `inner` dimensions has rank at most `inner`
            inner = data.draw(st.integers(0, 3), label="inner")
            left = data.draw(_matrix(rows, inner))
            right = data.draw(_matrix(inner, cols))
            m = [[sum((row[t] * right[t][j] for t in range(inner)), 0)
                  for j in range(cols)] for row in left]
        else:
            m = data.draw(_matrix(rows, cols))
        red, pivots, _ = _fraction_gauss_jordan(m)
        assert rank(m) == len(pivots)
        assert _rref(m) == (red, pivots)
        n = min(rows, cols)
        block = [row[:n] for row in m[:n]]
        _, pivots, pivot_product = _fraction_gauss_jordan(block)
        d = pivot_product if len(pivots) == n else 0
        assert det(block) == d

    @pytest.mark.parametrize("m", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]],
                                   [[1, 0], [0]]])
    def test_det_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="det expects a square matrix"):
            det(m)


_BIG = 10 ** 30
_entries = st.one_of(
    st.integers(-_BIG, _BIG),
    st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=10 ** 6),
    st.sampled_from([0, 0, 1, -1, F(1, 2)]),
)


def _matrix(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _fraction_gauss_jordan(m):
    """Plain Gauss-Jordan over Fractions: the nonzero reduced rows, the pivot
    columns, and the signed product of the pivots (the determinant of a
    nonsingular square m)."""
    work = [[F(e) for e in row] for row in m]
    pivots, product = [], F(1)
    for c in range(len(work[0]) if work else 0):
        done = len(pivots)
        p = next((i for i in range(done, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        if p != done:
            work[done], work[p] = work[p], work[done]
            product = -product
        pv = work[done][c]
        product *= pv
        work[done] = [e / pv for e in work[done]]
        for i in range(len(work)):
            if i != done:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[done])]
        pivots.append(c)
    return work[:len(pivots)], pivots, product


def kernel(m):
    """Span of the free-variable kernel basis of the rows of m."""
    rows = mat(m)
    return Subspace.span(len(rows[0]), _kernel_vectors(rows, len(rows[0])))


class TestKernel:
    def test_proportional(self):
        assert kernel([[1, 2], [2, 4]]) == Subspace.span(2, [[-2, 1]])

    def test_identity_injective(self):
        assert kernel([[1, 0], [0, 1]]).dim == 0

    def test_rank_nullity(self):
        assert kernel([[1, 1, 1]]).dim == 2

    def test_integral_kernel_example(self):
        assert integral_kernel_vector([[1, 2], [2, 4]]) == (-2, 1)

    def test_integral_kernel_absent(self):
        assert integral_kernel_vector([[1, 0], [0, 1]]) is None

    def test_integral_kernel_substitution(self):
        v = integral_kernel_vector([[2, 4, 6]])
        assert v is not None and 2 * v[0] + 4 * v[1] + 6 * v[2] == 0

    def test_integral_kernel_properties(self):
        rng = random.Random(101)
        found = 0
        while found < 50:
            rows = rng.randint(1, 4)
            cols = rng.randint(rows + 1, rows + 3)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            v = integral_kernel_vector(m)
            assert v is not None  # more columns than rows
            assert any(v)
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
            g = 0
            for e in v:
                a, b = g, abs(e)
                while b:
                    a, b = b, a % b
                g = a
            assert g == 1
            found += 1


class TestProjection:
    def test_idempotent_on_same_axis(self):
        x_axis = Subspace.span(2, [[1, 0]])
        assert project_subspace(x_axis, x_axis) == x_axis

    def test_diagonal_onto_axis(self):
        w = Subspace.span(2, [[1, 1]])
        x_axis = Subspace.span(2, [[1, 0]])
        assert project_subspace(w, x_axis) == x_axis

    def test_orthogonal_pair(self):
        y_axis = Subspace.span(2, [[0, 1]])
        x_axis = Subspace.span(2, [[1, 0]])
        assert project_subspace(y_axis, x_axis).dim == 0

    def test_projection_idempotence_random(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 5)
            w = Subspace.span(n, rand_matrix(rng, rng.randint(1, n), n))
            u = Subspace.span(n, rand_matrix(rng, rng.randint(1, n), n))
            once = project_subspace(w, u)
            assert project_subspace(once, u) == once

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_subspace(Subspace.span(2, [[1, 0]]),
                             Subspace.span(3, [[1, 0, 0]]))


class TestRestrictedIndependent:
    def test_full_plane(self):
        assert restricted_independent([[1, 0], [0, 1]], Subspace.span(2, [[1, 0], [0, 1]]))

    def test_diagonal_collapses(self):
        assert not restricted_independent([[1, 0], [0, 1]],
                                          Subspace.span(2, [[1, 1]]))

    def test_kernel_containment(self):
        assert not restricted_independent([[1, 1]], Subspace.span(2, [[1, -1]]))

    def test_projection_equivalence_random(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            funcs = rand_matrix(rng, k, n)
            while rank(funcs) < k:
                funcs = rand_matrix(rng, k, n)
            w = Subspace.span(n, rand_matrix(rng, rng.randint(1, n), n))
            duals = Subspace.span(n, funcs)  # each functional is its own dual
            lhs = restricted_independent(funcs, w)
            rhs = project_subspace(w, duals) == duals
            assert lhs == rhs


class TestOrthants:
    def test_diagonal_positive(self):
        u = Subspace.span(2, [[1, 1]])
        assert orthant_meets_subspace([[1, 0], [0, 1]], Orthant((1, 1)), u)

    def test_diagonal_mixed(self):
        u = Subspace.span(2, [[1, 1]])
        assert not orthant_meets_subspace([[1, 0], [0, 1]], Orthant((1, -1)), u)

    def test_zero_subspace(self):
        assert not orthant_meets_subspace([[1, 0]], Orthant((1,)),
                                          Subspace(2, ()))

    def test_sign_orthant_spanning(self):
        # Points picked from every orthant of a dual system span the space.
        rng = random.Random(23)
        import itertools
        for _ in range(40):
            k = rng.randint(1, 4)
            vs = rand_matrix(rng, k, k)
            while rank(vs) < k:
                vs = rand_matrix(rng, k, k)
            points = []
            for signs in itertools.product((1, -1), repeat=k):
                coeffs = [s * (F(1) + abs(rand_fraction(rng))) for s in signs]
                p = [sum(c * v[j] for c, v in zip(coeffs, vs)) for j in range(k)]
                points.append(p)
            assert rank(points) == k

    def test_invalid_signs(self):
        with pytest.raises(ValueError):
            Orthant((1, 0))


class TestFourierMotzkin:
    def test_simple_feasible(self):
        assert fm_feasible([((F(1), F(0)), F(1), True)], 2)

    def test_simple_infeasible(self):
        assert not fm_feasible([((F(1),), F(0), True), ((F(-1),), F(0), True)], 1)

    def test_weak_boundary(self):
        assert fm_feasible([((F(1),), F(0), False), ((F(-1),), F(0), False)], 1)
        assert not fm_feasible([((F(1),), F(0), True), ((F(-1),), F(0), False)], 1)


class TestInvdim:
    def test_half_plane(self):
        assert invdim(StrictRegion.of(2, [([1, 0], 0)])) == 1

    def test_empty(self):
        region = StrictRegion.of(2, [([1, 0], 0), ([-1, 0], -1)])
        assert invdim(region) == NEG_INFINITY

    def test_redundant_constraint(self):
        region = StrictRegion.of(2, [([1, 0], 0), ([1, 0], 1)])
        assert invdim(region) == 1

    def test_duplicate_constraints(self):
        region = StrictRegion.of(2, [([1, 0], 0), ([1, 0], 0)])
        assert invdim(region) == 1

    def test_whole_space(self):
        assert invdim(StrictRegion.of(3, [])) == 3

    def test_zero_functional_rejected(self):
        with pytest.raises(ValueError):
            StrictRegion.of(2, [([0, 0], 1)])

    def test_monotone_nested(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 5)
            outer = []
            for _ in range(rng.randint(1, 3)):
                f = [rand_fraction(rng) for _ in range(n)]
                while all(e == 0 for e in f):
                    f = [rand_fraction(rng) for _ in range(n)]
                outer.append((f, rand_fraction(rng)))
            extra = []
            for _ in range(rng.randint(1, 2)):
                f = [rand_fraction(rng) for _ in range(n)]
                while all(e == 0 for e in f):
                    f = [rand_fraction(rng) for _ in range(n)]
                extra.append((f, rand_fraction(rng)))
            u2 = StrictRegion.of(n, outer)
            u1 = StrictRegion.of(n, outer + extra)
            assert invdim(u1) <= invdim(u2)

    def test_independent_constraints_exact(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            funcs = rand_matrix(rng, k, n)
            while rank(funcs) < k:
                funcs = rand_matrix(rng, k, n)
            region = StrictRegion.of(n, [(f, rand_fraction(rng)) for f in funcs])
            assert invdim(region) == n - k


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
        s2 = Subspace.span(3, [[1, 0, -1], [0, 2, 2]])
        assert s1 == s2

    def test_from_independent_rejects(self):
        with pytest.raises(ValueError):
            Subspace.from_independent(2, [[1, 2], [2, 4]])

    def test_contains(self):
        s = Subspace.span(3, [[1, 1, 0]])
        assert rank(s.basis + ((F(2), F(2), F(0)),)) == s.dim
        assert rank(s.basis + ((F(1), F(0), F(0)),)) != s.dim

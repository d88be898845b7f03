import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nondiv.rootdata import (
    GroupSpec,
    LieElement,
    ParabolicSide,
    fundamental_weight,
    parabolic_contains,
)
from nondiv.linalg import dot

from helpers import (delta_line_subspace, lie_element, mat_mul, nilradical_basis,
                     weight_of_nilradical)
from reference_linalg import restricted_independent


def unit_element(n, m, factor, a, b):
    """E_ab (0-based) in the given factor, zero in every other factor."""
    return LieElement(tuple(
        tuple(tuple(F(int(k == factor and i == a and j == b)) for j in range(n))
              for i in range(n))
        for k in range(m)))


class TestGroupSpec:
    def test_rank_is_n_minus_one(self):
        assert GroupSpec(4, 2).rank == 3

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GroupSpec(1, 1)


class TestWeights:
    def test_chi1_sl3(self):
        spec = GroupSpec(3, 1)
        chi1 = fundamental_weight(spec, 1)
        assert dot(chi1, (F(2), F(5), F(-7))) == 2

    def test_chi2_sl3(self):
        spec = GroupSpec(3, 1)
        chi2 = fundamental_weight(spec, 2)
        assert dot(chi2, (F(2), F(5), F(-7))) == 7

    def test_chi1_res_sl2(self):
        spec = GroupSpec(2, 2)
        chi1 = fundamental_weight(spec, 1)
        assert dot(chi1, (F(3), F(-3), F(11), F(-11))) == 14

    def test_dual_vector_is_trace_zero(self):
        spec = GroupSpec(4, 2)
        for i in (1, 2, 3):
            assert spec.is_trace_zero(fundamental_weight(spec, i))

    def test_index_range(self):
        spec = GroupSpec(3, 1)
        with pytest.raises(IndexError):
            fundamental_weight(spec, 3)

    def test_weights_are_basis_on_diagonal_torus(self):
        # Fundamental weights restrict to a basis of functionals on the
        # diagonally embedded split torus when m = 1.
        spec = GroupSpec(4, 1)
        funcs = [fundamental_weight(spec, i) for i in (1, 2, 3)]
        assert restricted_independent(funcs, delta_line_subspace(4, 1))


class TestParabolicContains:
    def test_sl3_upper_unit(self):
        spec = GroupSpec(3, 1)
        e12 = unit_element(3, 1, 0, 0, 1)
        assert parabolic_contains(spec, [1], e12, ParabolicSide.STANDARD)

    def test_sl3_lower_unit(self):
        spec = GroupSpec(3, 1)
        e21 = unit_element(3, 1, 0, 1, 0)
        assert not parabolic_contains(spec, [1], e21, ParabolicSide.STANDARD)
        assert parabolic_contains(spec, [1], e21, ParabolicSide.OPPOSITE)

    def test_sl4_two_cuts(self):
        spec = GroupSpec(4, 1)
        e32 = unit_element(4, 1, 0, 2, 1)
        assert parabolic_contains(spec, [1], e32, ParabolicSide.STANDARD)
        assert not parabolic_contains(spec, [1, 2], e32, ParabolicSide.STANDARD)

    def test_monotone_in_cut_set(self):
        spec = GroupSpec(4, 1)
        rng = random.Random(5)
        cuts_all = [1, 2, 3]
        for _ in range(30):
            entries = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            tr = sum(entries[i][i] for i in range(4))
            entries[3][3] -= tr
            x = LieElement((tuple(tuple(r) for r in entries),))
            for side in ParabolicSide:
                for big_size in (2, 3):
                    for big in itertools.combinations(cuts_all, big_size):
                        if parabolic_contains(spec, big, x, side):
                            for small in itertools.combinations(big, big_size - 1):
                                assert parabolic_contains(spec, small, x, side)

    def test_both_sides_iff_block_diagonal(self):
        spec = GroupSpec(3, 1)
        blockdiag = lie_element([[[1, 0, 0], [0, -1, 2], [0, 3, 0]]])
        assert parabolic_contains(spec, [1], blockdiag, ParabolicSide.STANDARD)
        assert parabolic_contains(spec, [1], blockdiag, ParabolicSide.OPPOSITE)
        mixed = lie_element([[[1, 1, 0], [0, -1, 2], [0, 3, 0]]])
        assert parabolic_contains(spec, [1], mixed, ParabolicSide.STANDARD)
        assert not parabolic_contains(spec, [1], mixed, ParabolicSide.OPPOSITE)


class TestNilradical:
    def test_sl2_single(self):
        spec = GroupSpec(2, 1)
        assert nilradical_basis(spec, 1, ParabolicSide.STANDARD) == [(0, 0, 1)]
        assert nilradical_basis(spec, 1, ParabolicSide.OPPOSITE) == [(0, 1, 0)]

    def test_res_sl2_product(self):
        spec = GroupSpec(2, 2)
        assert nilradical_basis(spec, 1, ParabolicSide.STANDARD) == [(0, 0, 1), (1, 0, 1)]

    def test_sl3_cut2(self):
        spec = GroupSpec(3, 1)
        assert nilradical_basis(spec, 2, ParabolicSide.STANDARD) == [(0, 0, 2), (0, 1, 2)]
        assert nilradical_basis(spec, 2, ParabolicSide.OPPOSITE) == [(0, 2, 0), (0, 2, 1)]

    def test_counts(self):
        spec = GroupSpec(4, 2)
        for i in (1, 2, 3):
            for side in ParabolicSide:
                assert len(nilradical_basis(spec, i, side)) == 2 * i * (4 - i)

    def test_opposite_is_transposed_standard(self):
        spec = GroupSpec(4, 2)
        for i in (1, 2, 3):
            standard = nilradical_basis(spec, i, ParabolicSide.STANDARD)
            assert standard == sorted(standard)
            assert nilradical_basis(spec, i, ParabolicSide.OPPOSITE) == [
                (k, b, a) for k, a, b in standard]

    def test_units_lie_in_the_nilradical(self):
        # Each position is a root space of the parabolic at cut i: the unit
        # is in the parabolic of its own side and outside the opposite one.
        spec = GroupSpec(4, 2)
        for i in (1, 2, 3):
            for side in ParabolicSide:
                other = next(s for s in ParabolicSide if s is not side)
                units = nilradical_basis(spec, i, side)
                assert len(set(units)) == len(units)
                for k, a, b in units:
                    x = unit_element(4, 2, k, a, b)
                    assert parabolic_contains(spec, [i], x, side)
                    assert not parabolic_contains(spec, [i], x, other)

class TestNilradicalWeight:
    def test_sl2_standard(self):
        spec = GroupSpec(2, 1)
        w = weight_of_nilradical(spec, 1, ParabolicSide.STANDARD)
        assert dot(w, (F(7), F(-7))) == 14

    def test_sl2_opposite_negates(self):
        spec = GroupSpec(2, 1)
        w = weight_of_nilradical(spec, 1, ParabolicSide.OPPOSITE)
        assert dot(w, (F(7), F(-7))) == -14

    def test_sl3_is_three_chi1(self):
        spec = GroupSpec(3, 1)
        w = weight_of_nilradical(spec, 1, ParabolicSide.STANDARD)
        x = (F(4), F(-1), F(-3))
        assert dot(w, x) == 3 * dot(fundamental_weight(spec, 1), x)

    def test_sides_negate_exactly(self):
        spec = GroupSpec(4, 2)
        for i in (1, 2, 3):
            std = weight_of_nilradical(spec, i, ParabolicSide.STANDARD)
            opp = weight_of_nilradical(spec, i, ParabolicSide.OPPOSITE)
            assert std == tuple(-a for a in opp)

    def test_proportional_to_fundamental_weight(self):
        for n, m in ((2, 1), (3, 2), (4, 2)):
            spec = GroupSpec(n, m)
            for i in range(1, n):
                w = weight_of_nilradical(spec, i, ParabolicSide.STANDARD)
                chi = fundamental_weight(spec, i)
                assert w == tuple(n * c for c in chi)


def dense_product(x, y):
    n = len(x)
    return tuple(tuple(sum((F(x[i][k]) * F(y[k][j]) for k in range(n)), F(0))
                       for j in range(n)) for i in range(n))


@st.composite
def sparse_pair(draw):
    """Two square matrices, mostly zero, with rational or integer entries."""
    n = draw(st.integers(1, 5))
    entry = (st.just(F(0)) | st.fractions(min_value=-6, max_value=6, max_denominator=5)
             | st.integers(-3, 3))
    return tuple(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
                 for _ in range(2))


class TestMatMul:
    @settings(max_examples=100, deadline=None)
    @given(sparse_pair())
    def test_matches_dense_product(self, pair):
        x, y = pair
        product = mat_mul(x, y)
        assert product == dense_product(x, y)
        assert all(type(e) is F for row in product for e in row)


class TestLieElement:
    def test_trace_zero_enforced(self):
        with pytest.raises(ValueError):
            lie_element([[[1, 0], [0, 0]]])

    def test_trace_zero_part_canonical(self):
        spec = GroupSpec(2, 2)
        v = spec.trace_zero_part((F(3), F(1), F(5), F(5)))
        assert spec.is_trace_zero(v)
        assert v == (F(1), F(-1), F(0), F(0))

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondiv.floatmat import det, diagonal, exp, fmat, mat_mul

entries = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
                    allow_subnormal=False)


@st.composite
def square(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def monomial(draw, max_n=4):
    """A permutation matrix with nonzero float entries, as g_N's factors are."""
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(n)))
    values = draw(st.lists(entries.filter(lambda x: abs(x) > 1e-3),
                           min_size=n, max_size=n))
    return [[values[i] if perm[i] == j else 0.0 for j in range(n)] for i in range(n)]


def hadamard_bound(m) -> float:
    return math.prod(math.sqrt(sum(x * x for x in row)) for row in m)


class TestDet:
    @settings(max_examples=200, deadline=None)
    @given(square())
    def test_matches_numpy(self, m):
        assert det(m) == pytest.approx(np.linalg.det(np.array(m)),
                                       abs=1e-12 * max(hadamard_bound(m), 1.0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(entries.filter(lambda x: x != 0.0), min_size=1, max_size=6))
    def test_diagonal_bit_identical_to_numpy(self, values):
        # A diagonal determinant is sign * exp(sum of log|pivot|) exactly as
        # numpy forms it.
        assert det(diagonal(values)) == float(np.linalg.det(np.diag(values)))

    def test_singular_is_zero(self):
        assert det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
        assert det([[0.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_overflow_is_inf(self):
        assert det(diagonal([1e200, 1e200])) == math.inf
        assert det(diagonal([-1e200, 1e200])) == -math.inf


class TestProducts:
    @settings(max_examples=100, deadline=None)
    @given(monomial(), st.data())
    def test_monomial_product_bit_identical_to_numpy(self, a, data):
        n = len(a)
        b = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
        assert mat_mul(a, b) == fmat(np.array(a) @ np.array(b))

    def test_shapes_and_types(self):
        a = fmat(np.arange(6.0).reshape(2, 3))
        b = fmat([[1, 0], [0, 1], [1, 1]])
        out = mat_mul(a, b)
        assert out == ((2.0, 3.0), (8.0, 9.0))
        assert all(type(x) is float for row in out for x in row)
        assert mat_mul(diagonal([1.0] * 3), b) == b


class TestExp:
    def test_overflow_is_inf(self):
        assert exp(1000.0) == math.inf
        assert exp(math.inf) == math.inf

    def test_underflow_and_ordinary(self):
        assert exp(-1000.0) == 0.0
        for x in itertools.chain(range(-5, 6), (0.5, -2.25)):
            assert exp(x) == math.exp(x)

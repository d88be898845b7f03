import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nondiv import lattice
from nondiv.config import build_config, parse_problem
from nondiv.criterion import check_general
from nondiv.lattice import (
    MAX_D,
    QuadraticOrder,
    _enumerate_minimum,
    _size_reduce,
    _vector_norm,
    det,
    dot,
    embed_lattice,
    exp,
    fmat,
    orbit_probe,
    realize_divergence_sequence,
    shortest_vector,
    transpose,
)
from nondiv.rootdata import GroupSpec
from nondiv.weyl import CentralizerWeylElement, WeylElement
from nondiv.witness import build_escape_witness

from helpers import (check_torus, delta_line_subspace, gram_cholesky_minimum, mat_mul,
                     signed_permutation_matrix, torus_config)
from reference_linalg import float_diagonal, float_mat_mul, two_product_divergence_sequence

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def brute_force_shortest(basis: np.ndarray) -> float:
    """Independent oracle: exhaustive search in a provably sufficient box.

    For any lattice vector Bx with |Bx|^2 <= Q, Cauchy-Schwarz in the Gram
    metric gives |x_i| <= sqrt((G^-1)_ii * Q); the shortest column norm
    supplies Q.  Each candidate is scored with the norm formula
    `shortest_vector` reports, so equality checks that the enumeration
    found an optimal x, not how the final length is rounded.
    """
    gram = basis.T @ basis
    ginv = np.linalg.inv(gram)
    q = float(min(np.sum(basis * basis, axis=0)))
    bounds = [int(math.floor(math.sqrt(ginv[i, i] * q) + 1e-9))
              for i in range(basis.shape[1])]
    rows = fmat(basis)
    best = math.inf
    for xs in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if not any(xs):
            continue
        best = min(best, _vector_norm(rows, xs))
    return best


class TestQuadraticOrder:
    def test_accepts_standard(self):
        for d in (2, 3, 6, 7, 10, 11):
            QuadraticOrder(d)

    def test_rejects_one_mod_four(self):
        with pytest.raises(ValueError):
            QuadraticOrder(5)

    def test_rejects_square_factor(self):
        with pytest.raises(ValueError):
            QuadraticOrder(8)

    def test_rejects_d_above_the_bound_before_trial_division(self, monkeypatch):
        # MAX_D itself is tested, and fails as a square multiple; above it
        # nothing is tested, so a 30-digit d fails at once.
        assert MAX_D == 10 ** 12
        with pytest.raises(ValueError, match="squarefree"):
            QuadraticOrder(MAX_D)
        monkeypatch.setattr(lattice, "_is_squarefree", None)
        for d in (MAX_D + 2, MAX_D + 3, 10 ** 29 + 2):
            with pytest.raises(ValueError, match=f"d must be at most {MAX_D}"):
                QuadraticOrder(d)


class TestEmbedLattice:
    def test_degenerate_demo_covolume(self):
        basis = embed_lattice(QuadraticOrder(2),
                              (np.array([[1.0]]), np.array([[1.0]])))
        covolume = abs(np.linalg.det(basis))
        assert covolume == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert basis[0][0] == 1.0 and basis[1][1] == pytest.approx(-math.sqrt(2))

    def test_identity_pair_block_pattern(self):
        basis = embed_lattice(QuadraticOrder(2), (np.eye(2), np.eye(2)))
        s = math.sqrt(2)
        expected = np.array([
            [1, 0, s, 0],
            [0, 1, 0, s],
            [1, 0, -s, 0],
            [0, 1, 0, -s],
        ])
        assert np.allclose(basis, expected)

    def test_unimodular_torus_preserves_covolume(self):
        order = QuadraticOrder(2)
        base = abs(np.linalg.det(embed_lattice(order, (np.eye(2), np.eye(2)))))
        for c in (0.5, 2.0, 3.7):
            a = np.diag([c, 1.0 / c])
            basis = embed_lattice(order, (a, a))
            assert abs(np.linalg.det(basis)) == pytest.approx(base, rel=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            embed_lattice(QuadraticOrder(2),
                          (np.zeros((2, 2)), np.eye(2)))

    def test_rejects_nan_factor(self):
        # abs(det) < tol is False for a NaN determinant, so the test must
        # be written to fail on NaN
        with pytest.raises(ValueError, match="invertible"):
            embed_lattice(QuadraticOrder(2),
                          (np.eye(2), np.array([[math.nan, 0.0], [0.0, 1.0]])))

    def test_rejects_factors_of_different_sizes(self):
        with pytest.raises(ValueError, match="pair of n x n"):
            embed_lattice(QuadraticOrder(2), (np.eye(2), np.eye(3)))


class TestShortestVector:
    def test_standard_z4(self):
        assert shortest_vector(np.eye(4)) == pytest.approx(1.0)

    def test_scaled_z4(self):
        assert shortest_vector(0.5 * np.eye(4)) == pytest.approx(0.5)

    def test_d2_identity_pair(self):
        basis = embed_lattice(QuadraticOrder(2), (np.eye(2), np.eye(2)))
        assert shortest_vector(basis) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            basis = rng.normal(size=(4, 4))
            while abs(np.linalg.det(basis)) < 0.2:
                basis = rng.normal(size=(4, 4))
            assert shortest_vector(basis) == brute_force_shortest(basis)

    def test_singular_basis_raises(self):
        # LLL reduces the dependent column to an exact zero vector.
        for basis in ([[1.0, 1.0], [2.0, 2.0]],
                      [[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 0.0]]):
            with pytest.raises(ValueError, match="not positive definite"):
                shortest_vector(basis)


@st.composite
def enumeration_basis(draw):
    """A random 2-4-dim basis, a 2-dim basis in LLL's slack, or a probe
    lattice embedded at a monomial or a non-monomial pair g.  Entries come
    from continuous distributions, so the shortest vector is unique up to
    sign."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("random", "slack", "monomial", "non-monomial")))
    if kind == "slack":
        # delta = 0.99 accepts a second column up to ~0.5% shorter than the
        # first.  Here it is, k times the first column away, so the shortest
        # vector is the last reduced column, and it is reached only through
        # the final size reduction.
        c = rng.uniform(-0.45, 0.45)
        h = math.sqrt(rng.uniform(0.991, 0.998) - c * c)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        theta, scale = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 2.0)
        rotation = scale * np.array([[math.cos(theta), -math.sin(theta)],
                                     [math.sin(theta), math.cos(theta)]])
        return rotation @ np.array([[1.0, c + k], [0.0, h]])
    if kind == "random":
        n = draw(st.integers(2, 4))
        basis = np.array([[rng.gauss(0.0, 3.0) for _ in range(n)] for _ in range(n)])
        assume(abs(np.linalg.det(basis)) > 1e-2 and np.linalg.cond(basis) < 1e6)
        return basis
    g = []
    for _ in range(2):
        if kind == "monomial":
            t = rng.uniform(-3.0, 3.0)
            f = [[rng.choice((1, -1)) * math.exp(t), 0.0],
                 [0.0, rng.choice((1, -1)) * math.exp(-t)]]
            g.append(f if rng.random() < 0.5 else f[::-1])
        else:
            f = [[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)]
            assume(abs(np.linalg.det(f)) > 0.2)
            g.append(f)
    return embed_lattice(QuadraticOrder(draw(st.sampled_from((2, 3, 7)))), g)


class TestEnumerationFromGramSchmidt:
    @settings(max_examples=150, deadline=None)
    @given(enumeration_basis())
    def test_matches_gram_cholesky_reference(self, basis):
        # The enumeration reads r off LLL's final Gram-Schmidt data; the
        # reference factors the Gram matrix of the reduced basis instead.
        reduced, _, mu, norms = _size_reduce(fmat(basis))
        bound_sq = min(dot(c, c) for c in transpose(reduced))
        got_sq, got_x = _enumerate_minimum(mu, norms, bound_sq)
        ref_sq, ref_x = gram_cholesky_minimum(reduced, bound_sq)
        assert got_sq == pytest.approx(ref_sq, rel=1e-9)
        assert got_x in (ref_x, [-c for c in ref_x])


def integer_det(u) -> int:
    """Leibniz expansion: exact for the small integer transforms."""
    n = len(u)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                         if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(u[i][perm[i]] for i in range(n))
    return total


@st.composite
def lattice_basis(draw):
    n = draw(st.integers(2, 5))
    cells = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                      allow_subnormal=False)
    return np.array([draw(st.lists(cells, min_size=n, max_size=n))
                     for _ in range(n)])


class TestSizeReduce:
    @settings(max_examples=150, deadline=None)
    @given(lattice_basis())
    def test_lll_reduced_unimodular_transform(self, basis):
        assume(abs(np.linalg.det(basis)) > 1e-2 and np.linalg.cond(basis) < 1e6)
        reduced, u, gs_mu, gs_norms = _size_reduce(basis)
        u = np.array(u)
        assert u.dtype.kind == "i"
        assert integer_det(u.tolist()) in (1, -1)
        reduced = np.array(reduced)
        scale = np.abs(basis).max() * np.abs(u).max()
        assert np.allclose(reduced, basis @ u, rtol=0, atol=1e-9 * scale)
        # Gram-Schmidt of the result from numpy's QR: mu[i][j] = R[j, i] / R[j, j].
        r = np.linalg.qr(reduced, mode="r")
        sq = np.diag(r) ** 2
        dim = basis.shape[1]
        assert np.allclose(gs_norms, sq, rtol=1e-6, atol=0)
        for i in range(dim):
            for j in range(i):
                assert abs(r[j, i] / r[j, j]) <= 0.5 + 1e-9
                assert gs_mu[i][j] == pytest.approx(r[j, i] / r[j, j], abs=1e-6)
        for k in range(1, dim):
            mu = r[k - 1, k] / r[k - 1, k - 1]
            assert sq[k] >= (0.99 - mu * mu) * sq[k - 1] * (1 - 1e-9)


class TestOrbitProbe:
    def _witness_sequence(self, n_values):
        spec = GroupSpec(2, 2)
        a = delta_line_subspace(2, 2)
        verdict = check_torus(spec, a)
        config = torus_config(spec, a)
        witness = build_escape_witness(verdict.certificate, config)
        return realize_divergence_sequence(verdict.certificate, witness.v, n_values)

    def test_identity_baseline_positive(self):
        stats = orbit_probe(QuadraticOrder(2), (np.eye(2), np.eye(2)), 2.0, 5)
        assert stats.maximum >= stats.minimum > 0

    def test_covolume_constant_over_grid(self):
        order = QuadraticOrder(2)
        g0 = self._witness_sequence([4])[0]
        ts = np.linspace(-5, 5, 21)
        vols = []
        for t in ts:
            a = np.diag([math.exp(t), math.exp(-t)])
            basis = embed_lattice(order, (a @ g0[0], a @ g0[1]))
            vols.append(abs(np.linalg.det(basis)))
        assert max(vols) / min(vols) == pytest.approx(1.0, rel=1e-9)

    def test_witness_coherence_decreasing(self):
        prev = None
        for mats in self._witness_sequence([0, 2, 4, 6]):
            stats = orbit_probe(QuadraticOrder(2), mats, 5.0, 21)
            if prev is not None:
                assert stats.maximum < prev
            prev = stats.maximum

    def test_probe_requires_rank_one_setup(self):
        with pytest.raises(ValueError):
            orbit_probe(QuadraticOrder(2), (np.eye(3), np.eye(3)), 5.0, 21)


# --- float kernels ------------------------------------------------------------

entries = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
                    allow_subnormal=False)


@st.composite
def square(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


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
        assert det(float_diagonal(values)) == float(np.linalg.det(np.diag(values)))

    def test_singular_is_zero(self):
        assert det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
        assert det([[0.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_overflow_is_inf(self):
        assert det(float_diagonal([1e200, 1e200])) == math.inf
        assert det(float_diagonal([-1e200, 1e200])) == -math.inf


class TestExp:
    def test_overflow_is_inf(self):
        assert exp(1000.0) == math.inf
        assert exp(math.inf) == math.inf

    def test_underflow_and_ordinary(self):
        assert exp(-1000.0) == 0.0
        for x in itertools.chain(range(-5, 6), (0.5, -2.25)):
            assert exp(x) == math.exp(x)


# --- the divergence sequence, read off the columns of w' -----------------------

rational_entries = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
nonzero_rationals = rational_entries.filter(bool)


@st.composite
def realization_case(draw, max_n=4, max_m=3):
    """A certificate's (w, w') and an escape vector: w' has determinant-one
    factors, each monomial or a monomial between unit lower and unit upper
    triangular factors, and v is trace zero per factor with |N v| <= 12."""
    n, m = draw(st.integers(2, max_n)), draw(st.integers(1, max_m))
    perms = tuple(tuple(draw(st.permutations(range(n)))) for _ in range(m))
    factors = []
    for _ in range(m):
        q = draw(st.permutations(range(n)))
        d = [draw(nonzero_rationals) for _ in range(n - 1)]
        sign = round(np.linalg.det(np.eye(n)[q]))
        d.append(sign / math.prod(d))
        f = tuple(tuple(d[i] if q[i] == j else F(0) for j in range(n)) for i in range(n))
        if draw(st.booleans()):
            lower, upper = ([[draw(rational_entries) if (j < i if low else j > i)
                              else F(int(i == j)) for j in range(n)] for i in range(n)]
                            for low in (True, False))
            f = mat_mul(mat_mul(lower, f), upper)
        factors.append(f)
    n_val = draw(st.integers(0, 4))
    v = []
    for _ in range(m):
        block = [draw(st.builds(F, st.integers(-2, 2), st.integers(2, 4)))
                 for _ in range(n - 1)]
        v += block + [-sum(block, F(0))]
    cert = SimpleNamespace(w=WeylElement(perms),
                           w_prime=CentralizerWeylElement(tuple(factors)))
    return cert, GroupSpec(n, m), tuple(v), n_val


class TestRealization:
    @settings(max_examples=100, deadline=None)
    @given(realization_case())
    def test_bit_identical_to_two_products(self, case):
        # Column j of w' exp(N v) S(w) is s_j e^{N v_p(j)} times column p(j)
        # of w': every entry, zero signs included, is the two-product
        # reference's, and both match numpy's product.
        cert, spec, v, n_val = case
        got, = realize_divergence_sequence(cert, v, [n_val])
        ref, = two_product_divergence_sequence(cert, spec, v, [n_val])
        assert repr(got) == repr(ref)
        for f, wp, p, k in zip(got, cert.w_prime.matrices, cert.w.perms, itertools.count()):
            e = np.diag(np.exp([float(x) * n_val for x in v[k * spec.n:(k + 1) * spec.n]]))
            s = np.array(signed_permutation_matrix(p), dtype=float)
            assert np.allclose(f, np.array(wp, dtype=float) @ e @ s, rtol=1e-12, atol=0)

    def test_shapes_and_types(self):
        config, cert, witness = probe_setup((CONFIGS / "example1-m4.cfg").read_text())
        elements = realize_divergence_sequence(cert, witness.v, [0, 3])
        assert len(elements) == 2
        for factors in elements:
            assert len(factors) == config.spec.m == 4
            assert all(type(x) is float for f in factors for row in f for x in row)
            assert all(len(f) == len(row) == 2 for f in factors for row in f)


def probe_setup(text, name="instance.cfg"):
    config = build_config(parse_problem(text, name))
    cert = check_general(config).certificate
    return config, cert, build_escape_witness(cert, config)


def bit_identity_texts():
    """example1-m2 and example1-m4 (divergent, so each factor reads its own
    block of v), example1-m2 with the skew explicit w' of the CLI tests, and
    seeded witness-probe lines c (1, -1, s, -s) in place of its Lie(A)."""
    m2 = (CONFIGS / "example1-m2.cfg").read_text()
    texts = {"example1-m2": m2,
             "example1-m4": (CONFIGS / "example1-m4.cfg").read_text(),
             "skew-w-prime": m2.replace(
                 "mode = auto-trivial-m",
                 'mode = explicit\nelements = [[[["3", "0"], ["0", "1/3"]], '
                 '[["0", "-7/5"], ["5/7", "0"]]]]')}
    rng = random.Random(41)
    for i in range(6):
        c = F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
        s = rng.choice((1, -1))
        line = ", ".join(f'"{x}"' for x in (c, -c, s * c, -s * c))
        texts[f"witness-probe-{i}"] = m2.replace('basis = [["1", "-1", "1", "-1"]]',
                                                 f"basis = [[{line}]]")
    assert len(set(texts.values())) == len(texts)
    return texts


BIT_IDENTITY_TEXTS = bit_identity_texts()


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_TEXTS))
def test_realization_bit_identical_on_probe_instances(name):
    config, cert, witness = probe_setup(BIT_IDENTITY_TEXTS[name], name)
    n_values = [0, 1, 2, 6, 20, 100, 400]
    got = realize_divergence_sequence(cert, witness.v, n_values)
    ref = two_product_divergence_sequence(cert, config.spec, witness.v, n_values)
    for n_val, factors, ref_factors in zip(n_values, got, ref):
        for f, r in zip(factors, ref_factors):
            assert repr(f) == repr(r), (n_val, f, r)


def test_orbit_samples_bit_identical_to_diagonal_products(monkeypatch):
    # Scaling the rows of each factor by e^t and e^-t gives the product
    # diag(e^t, e^-t) g bit for bit.
    _, cert, witness = probe_setup((CONFIGS / "example1-m2.cfg").read_text())
    seen = []
    embed = lattice.embed_lattice
    monkeypatch.setattr(lattice, "embed_lattice",
                        lambda order, g: seen.append(g) or embed(order, g))
    for g in realize_divergence_sequence(cert, witness.v, [0, 3, 6]):
        seen.clear()
        stats = orbit_probe(QuadraticOrder(2), g, 5.0, 21)
        assert len(seen) == len(stats.values) == 21
        for (t, _), sample in zip(stats.values, seen):
            a = float_diagonal([math.exp(t), math.exp(-t)])
            assert repr(tuple(sample)) == repr(tuple(float_mat_mul(a, f) for f in g))

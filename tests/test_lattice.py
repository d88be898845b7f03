import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nondiv import lattice
from nondiv.floatmat import dot, fmat, transpose
from nondiv.lattice import (
    MAX_D,
    QuadraticOrder,
    _enumerate_minimum,
    _size_reduce,
    _vector_norm,
    embed_lattice,
    orbit_probe,
    shortest_vector,
)
from nondiv.rootdata import GroupSpec
from nondiv.witness import build_escape_witness, realize_divergence_sequence

from helpers import check_torus, delta_line_subspace, gram_cholesky_minimum, torus_config


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
        return realize_divergence_sequence(verdict.certificate, witness,
                                           config, n_values)

    def test_identity_baseline_positive(self):
        stats = orbit_probe(QuadraticOrder(2), (np.eye(2), np.eye(2)),
                            grid_radius=2.0, grid_points=5)
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
            stats = orbit_probe(QuadraticOrder(2), mats)
            if prev is not None:
                assert stats.maximum < prev
            prev = stats.maximum

    def test_probe_requires_rank_one_setup(self):
        with pytest.raises(ValueError):
            orbit_probe(QuadraticOrder(2), (np.eye(3), np.eye(3)))

import itertools
import math

import numpy as np
import pytest

from nondiv.criterion import check_torus
from nondiv.lattice import (
    QuadraticOrder,
    embed_lattice,
    orbit_probe,
    shortest_vector,
)
from nondiv.rootdata import GroupSpec
from nondiv.witness import build_escape_witness, realize_divergence_sequence

from helpers import delta_line_subspace, torus_config


def brute_force_shortest(basis: np.ndarray) -> float:
    """Independent oracle: exhaustive search in a provably sufficient box.

    For any lattice vector Bx with |Bx|^2 <= Q, Cauchy-Schwarz in the Gram
    metric gives |x_i| <= sqrt((G^-1)_ii * Q); the shortest column norm
    supplies Q.
    """
    gram = basis.T @ basis
    ginv = np.linalg.inv(gram)
    q = float(min(np.sum(basis * basis, axis=0)))
    bounds = [int(math.floor(math.sqrt(ginv[i, i] * q) + 1e-9))
              for i in range(basis.shape[1])]
    best = math.inf
    for xs in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if not any(xs):
            continue
        best = min(best, float(np.linalg.norm(basis @ np.array(xs, dtype=float))))
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


class TestEmbedLattice:
    def test_degenerate_demo_covolume(self):
        basis = embed_lattice(QuadraticOrder(2), 1,
                              (np.array([[1.0]]), np.array([[1.0]])))
        covolume = abs(np.linalg.det(basis))
        assert covolume == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert basis[0, 0] == 1.0 and basis[1, 1] == pytest.approx(-math.sqrt(2))

    def test_identity_pair_block_pattern(self):
        basis = embed_lattice(QuadraticOrder(2), 2, (np.eye(2), np.eye(2)))
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
        base = abs(np.linalg.det(embed_lattice(order, 2, (np.eye(2), np.eye(2)))))
        for c in (0.5, 2.0, 3.7):
            a = np.diag([c, 1.0 / c])
            basis = embed_lattice(order, 2, (a, a))
            assert abs(np.linalg.det(basis)) == pytest.approx(base, rel=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            embed_lattice(QuadraticOrder(2), 2,
                          (np.zeros((2, 2)), np.eye(2)))


class TestShortestVector:
    def test_standard_z4(self):
        assert shortest_vector(np.eye(4)) == pytest.approx(1.0)

    def test_scaled_z4(self):
        assert shortest_vector(0.5 * np.eye(4)) == pytest.approx(0.5)

    def test_d2_identity_pair(self):
        basis = embed_lattice(QuadraticOrder(2), 2, (np.eye(2), np.eye(2)))
        assert shortest_vector(basis) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            basis = rng.normal(size=(4, 4))
            while abs(np.linalg.det(basis)) < 0.2:
                basis = rng.normal(size=(4, 4))
            assert shortest_vector(basis) == brute_force_shortest(basis)


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
        stats = orbit_probe(QuadraticOrder(2), 2, (np.eye(2), np.eye(2)),
                            grid_radius=2.0, grid_points=5)
        assert stats.maximum >= stats.minimum > 0

    def test_covolume_constant_over_grid(self):
        order = QuadraticOrder(2)
        seq = self._witness_sequence([4])
        g0 = seq.elements[0]
        ts = np.linspace(-5, 5, 21)
        vols = []
        for t in ts:
            a = np.diag([math.exp(t), math.exp(-t)])
            basis = embed_lattice(order, 2, (a @ g0[0], a @ g0[1]))
            vols.append(abs(np.linalg.det(basis)))
        assert max(vols) / min(vols) == pytest.approx(1.0, rel=1e-9)

    def test_witness_coherence_decreasing(self):
        seq = self._witness_sequence([0, 2, 4, 6])
        prev = None
        for n_val, mats in zip(seq.n_values, seq.elements):
            stats = orbit_probe(QuadraticOrder(2), 2, mats)
            if prev is not None:
                assert stats.maximum < prev
            prev = stats.maximum

    def test_probe_requires_rank_one_setup(self):
        with pytest.raises(ValueError):
            orbit_probe(QuadraticOrder(2), 3,
                        (np.eye(3), np.eye(3)))

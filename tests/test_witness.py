import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from nondiv import witness as witness_module
from nondiv.config import build_config, parse_problem
from nondiv.criterion import Certificate, check_general
from nondiv.floatmat import fmat, inverse, mat_mul
from nondiv.linalg import Subspace, dot
from nondiv.rootdata import GroupSpec, ParabolicSide
from nondiv.witness import (
    HSampler,
    WedgeLine,
    build_escape_witness,
    check_witness_exact,
    decay_table,
    escape_vector,
    first_missed_orthant,
    realize_divergence_sequence,
    realize_weyl_matrices,
    verify_divergence,
    wedge_norm,
)

from helpers import (
    check_torus,
    closed_form_torus_norm,
    delta_line_subspace,
    dense_wedge_norm,
    float_decay_table,
    m_words,
    so21_config,
    torus_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def example1_m2_setup():
    spec = GroupSpec(2, 2)
    a = delta_line_subspace(2, 2)
    config = torus_config(spec, a)
    verdict = check_torus(spec, a)
    witness = build_escape_witness(verdict.certificate, config)
    return config, verdict.certificate, witness


def so21_line_setup():
    a = [tuple([F(0)] * 4 + [F(1), F(-1), F(0), F(0)])]
    config = so21_config(a)
    verdict = check_general(config)
    witness = build_escape_witness(verdict.certificate, config)
    return config, verdict.certificate, witness


def shipped_setup(name):
    path = CONFIGS / name
    config = build_config(parse_problem(path.read_text(encoding="utf-8"), str(path)))
    verdict = check_general(config)
    witness = build_escape_witness(verdict.certificate, config)
    return config, verdict.certificate, witness


def random_torus_line_setups(count=12, seed=31):
    """Divergent trivial-M instances on seeded random lines Lie(A) in the
    Cartan of SL_3 and Res SL_3 (m = 2); some certify a two-index subset,
    whose lines' exponents vary over the a-grid."""
    rng = random.Random(seed)
    setups = []
    while len(setups) < count:
        spec = GroupSpec(3, rng.choice((1, 2)))
        v = []
        for _ in range(spec.m):
            block = [F(rng.randint(-3, 3)) for _ in range(2)]
            v += block + [-sum(block)]
        if not any(v):
            continue
        a = Subspace.span(spec.ambient_dim, [v])
        verdict = check_torus(spec, a)
        if verdict.nondivergent:
            continue
        config = torus_config(spec, a)
        setups.append((config, verdict.certificate,
                       build_escape_witness(verdict.certificate, config)))
    return setups


class TestMissedOrthant:
    def test_plane_with_diagonal(self):
        funcs = [(F(1), F(0)), (F(0), F(1))]
        u_prime = Subspace.span(2, [[1, 1]])
        sigma0 = first_missed_orthant(funcs, u_prime)
        assert sigma0.signs == (1, -1)
        v = escape_vector(funcs, funcs, sigma0)
        assert v == (F(2), F(-2))

    def test_zero_subspace_takes_first(self):
        funcs = [(F(1), F(0)), (F(0), F(1))]
        sigma0 = first_missed_orthant(funcs, Subspace(2, ()))
        assert sigma0.signs == (1, 1)

    def test_line_case(self):
        funcs = [(F(1),)]
        sigma0 = first_missed_orthant(funcs, Subspace(1, ()))
        assert sigma0.signs == (1,)
        assert escape_vector(funcs, funcs, sigma0) == (F(2),)


class TestEscapeWitness:
    def test_example1_m2(self):
        config, cert, witness = example1_m2_setup()
        assert witness.sigma0.signs == (1,)
        assert witness.u_prime.is_zero()
        assert witness.v == (F(1), F(-1), F(-1), F(1))
        assert all(dot(u, witness.v) == 2 * s
                   for u, s in zip(witness.u_vectors, witness.sigma0.signs))

    def test_so21_line(self):
        config, cert, witness = so21_line_setup()
        assert witness.u_prime.dim < witness.u_space.dim
        check_witness_exact(witness)

    def test_rejects_unreplayable_certificate(self):
        config, cert, _ = example1_m2_setup()
        bad = Certificate((2,) if cert.subset == (1,) else (1,), cert.w, cert.w_prime,
                          cert.w_prime_index, cert.dependence, cert.integer_dependence)
        with pytest.raises(ValueError):
            build_escape_witness(bad, config)


def norm_at(line, g):
    """`wedge_norm` at g, with the factor inverses formed here."""
    g = [fmat(f) for f in g]
    return wedge_norm(line, g, [inverse(f) for f in g])


class TestWedgeNorm:
    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(808)
        checked = 0
        for n, m in ((2, 1), (3, 2), (4, 2)):
            spec = GroupSpec(n, m)
            for _ in range(10):
                g = [rng.normal(size=(n, n)) for _ in range(m)]
                for f in g:
                    while abs(np.linalg.det(f)) < 0.2:
                        f[:] = rng.normal(size=(n, n))
                for j in range(1, n):
                    for side in ParabolicSide:
                        line = WedgeLine.of(spec, j, side)
                        assert norm_at(line, g) == pytest.approx(
                            dense_wedge_norm(line, g), rel=1e-12)
                        checked += 1
        assert checked == 10 * 2 * (1 + 2 + 3)

    def test_identity_is_one(self):
        line = WedgeLine.of(GroupSpec(2, 1), 1, ParabolicSide.STANDARD)
        assert norm_at(line, [np.eye(2)]) == pytest.approx(1.0, abs=1e-12)

    def test_sl2_weight(self):
        line = WedgeLine.of(GroupSpec(2, 1), 1, ParabolicSide.STANDARD)
        for t in (0.5, -1.0, 2.0):
            g = [np.diag([math.exp(t), math.exp(-t)])]
            assert norm_at(line, g) == pytest.approx(math.exp(2 * t), rel=1e-9)

    def test_sl2_t_minus_one(self):
        line = WedgeLine.of(GroupSpec(2, 1), 1, ParabolicSide.STANDARD)
        g = [np.diag([math.exp(-1.0), math.exp(1.0)])]
        assert norm_at(line, g) == pytest.approx(0.1353352832366127, abs=1e-9)

    def test_sign_independence(self):
        # Norms are blind to the representative sign correction.
        config, cert, witness = example1_m2_setup()
        line = WedgeLine.of(config.spec, 1, ParabolicSide.STANDARD)
        mats = realize_weyl_matrices(cert.w)
        flipped = list(mats)
        flipped[1] = (tuple(-x for x in mats[1][0]),) + mats[1][1:]
        assert norm_at(line, mats) == pytest.approx(
            norm_at(line, flipped), rel=1e-12)


class TestDivergenceSequence:
    def test_determinants_one(self):
        config, cert, witness = example1_m2_setup()
        seq = realize_divergence_sequence(cert, witness, config, [0, 5, 10])
        for mats in seq.elements:
            for f in mats:
                assert abs(np.linalg.det(f) - 1.0) < 1e-9

    def test_escape_vector_is_diagonal_cartan(self):
        config, cert, witness = example1_m2_setup()
        assert config.spec.is_trace_zero(witness.v)


class TestClosedForm:
    def test_matches_gram_on_random_instances(self):
        rng = random.Random(2024)
        checked = 0
        for config, cert, witness in (example1_m2_setup(), so21_line_setup()):
            spec = config.spec
            w_mats = realize_weyl_matrices(cert.w)
            wp_mats = [fmat(f) for f in cert.w_prime.matrices]
            g0 = tuple(mat_mul(wp, wm) for wp, wm in zip(wp_mats, w_mats))
            lines = [WedgeLine.of(spec, j, side)
                     for j in cert.subset for side in ParabolicSide]
            bases = {id(ln): norm_at(ln, g0) for ln in lines}
            for _ in range(50):
                coeffs = [F(rng.randint(-8, 8), rng.randint(1, 2))
                          for _ in config.a_basis.basis]
                a_vec = tuple(sum((c * b[j] for c, b in
                                   zip(coeffs, config.a_basis.basis)), F(0))
                              for j in range(spec.ambient_dim))
                n_val = rng.randint(0, 3)
                seq = realize_divergence_sequence(cert, witness, config, [n_val])
                from nondiv.witness import _exp_cartan
                h = _exp_cartan(spec, a_vec)
                hg = tuple(mat_mul(hf, gf) for hf, gf in zip(h, seq.elements[0]))
                for ln in lines:
                    expected = closed_form_torus_norm(
                        config, cert, witness, ln, a_vec, n_val, bases[id(ln)])
                    actual = norm_at(ln, hg)
                    assert actual == pytest.approx(expected, rel=1e-9)
                    checked += 1
        assert checked >= 100


class TestMInvariance:
    def test_wedge_line_fixed_by_m_words(self):
        # M moves no certified line's norm, which is why the decay table
        # samples Lie(A) alone: checked on seeded words in exp(Lie(M)).
        for config, cert, witness in (so21_line_setup(),
                                      shipped_setup("example2-nonmonomial.cfg")):
            words = m_words(config)
            assert len(words) == 9
            seq = realize_divergence_sequence(cert, witness, config, [0, 1, 2])
            lines = [WedgeLine.of(config.spec, j, side)
                     for j in cert.subset for side in ParabolicSide]
            for g in seq.elements:
                for line in lines:
                    base = norm_at(line, g)
                    for _, word in words[1:]:
                        moved = norm_at(line, [w @ np.array(gf)
                                               for w, gf in zip(word, g)])
                        assert moved == pytest.approx(base, rel=1e-9)


class TestSampler:
    def test_grid_shape_and_determinism(self):
        config, _, _ = example1_m2_setup()
        s1 = HSampler.default(config)
        s2 = HSampler.default(config)
        assert len(s1.a_points) == 21
        assert s1 == s2
        assert (s1.a_labels[0], s1.a_labels[10]) == ("t=(-5)", "t=(0)")


class TestFloatReference:
    """The exact-order decay table against float sampling of H = A M."""

    @staticmethod
    def compare(config, cert, witness, grid_points=21):
        seq = realize_divergence_sequence(cert, witness, config, [0, 1, 2, 3])
        sampler = HSampler.default(config, grid_points=grid_points)
        rows = decay_table(seq, sampler, config)
        ref = float_decay_table(seq, sampler, config)
        assert [r.n_value for r in rows] == [r["N"] for r in ref]
        decided = 0
        for row, r in zip(rows, ref):
            assert row.max_min_norm == pytest.approx(r["max_min_norm"], rel=1e-9)
            assert sum(count for _, count in row.fired) == len(sampler.a_points)
            top = sorted(r["a_values"], reverse=True)
            if top[0] - top[1] > 1e-9 * top[0]:
                assert row.worst_sample == r["worst_sample"].rsplit(";", 1)[0]
                decided += 1
        return decided

    @pytest.mark.parametrize("setup", [
        example1_m2_setup,
        so21_line_setup,
        lambda: shipped_setup("example2-nonmonomial.cfg"),
    ], ids=["example1-m2", "so21-line", "example2-nonmonomial"])
    def test_matches_float_sampling(self, setup):
        self.compare(*setup())

    def test_matches_float_sampling_on_random_torus_lines(self):
        decided = sum(self.compare(*setup) for setup in random_torus_line_setups())
        assert decided > 0


class TestVerifyDivergence:
    def test_baseline_and_decay(self):
        config, cert, witness = example1_m2_setup()
        seq = realize_divergence_sequence(cert, witness, config, [0, 10])
        sampler = HSampler.default(config)
        report = verify_divergence(seq, sampler, 1000, config)
        assert report.exact_passed
        rows = {r.n_value: r.max_min_norm for r in report.rows}
        assert rows[0] == pytest.approx(1.0, rel=1e-9)
        assert rows[10] < math.exp(-10) * rows[0]
        assert not report.anomalies

    def test_decay_monotone_on_samples(self):
        config, cert, witness = so21_line_setup()
        seq = realize_divergence_sequence(cert, witness, config, [0, 1, 2, 3])
        sampler = HSampler.default(config, grid_points=5)
        rows = decay_table(seq, sampler, config)
        values = [r.max_min_norm for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        for row in rows:
            assert row.max_min_norm <= math.exp(-row.n_value) * values[0] * (1 + 1e-9)

    def test_decay_inverts_only_g0(self, monkeypatch):
        # Rows print the closed form, so the m factors of g_0 are the only
        # inverses and the wedge norms are one per certified line.
        config, cert, witness = example1_m2_setup()
        seq = realize_divergence_sequence(cert, witness, config, [0, 2, 4, 6])
        sampler = HSampler.default(config)
        calls, norms = [], []
        inverse = witness_module.inverse
        monkeypatch.setattr(witness_module, "inverse",
                            lambda f: calls.append(f) or inverse(f))
        wedge_norm = witness_module.wedge_norm
        monkeypatch.setattr(witness_module, "wedge_norm",
                            lambda *args: norms.append(args) or wedge_norm(*args))
        rows = decay_table(seq, sampler, config)
        assert len(cert.subset) * 2 == 2 and len(rows) == 4
        assert len(calls) == config.spec.m
        assert len(norms) == 2

    def test_decay_exponentiates_no_h_sample(self, monkeypatch):
        # Samples are ordered and printed by exact exponents: g_0 is
        # realized once, at scale 0, whether or not 0 is among the n-values,
        # and no a-point is exponentiated.
        config, cert, witness = example1_m2_setup()
        sampler = HSampler.default(config)
        exp_cartan = witness_module._exp_cartan
        for n_values in ([0, 2, 4, 6], [3, 5]):
            seq = realize_divergence_sequence(cert, witness, config, n_values)
            scales = []
            monkeypatch.setattr(witness_module, "_exp_cartan",
                                lambda spec, v, scale=1.0: scales.append(scale)
                                or exp_cartan(spec, v, scale))
            rows = decay_table(seq, sampler, config)
            assert [r.n_value for r in rows] == sorted({0, *n_values})
            assert scales == [0.0]

import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from nondiv import (lattice as lattice_module, linalg as linalg_module,
                    witness as witness_module)
from nondiv.config import build_config, parse_problem
from nondiv.criterion import Certificate, check_general
from nondiv.linalg import Orthant, Subspace, det as exact_det, dot
from nondiv.rootdata import GroupSpec, ParabolicSide
from nondiv.lattice import realize_divergence_sequence
from nondiv.weyl import CentralizerWeylElement, WeylElement, identity_centralizer_element
from nondiv.witness import (
    EscapeWitness,
    ExactCheckFailedError,
    HSampler,
    build_escape_witness,
    check_witness_exact,
    decay_table,
    sqrt_rounded,
    verify_divergence,
    wedge_norm,
)

import reference_linalg
from helpers import (
    a_point,
    check_torus,
    closed_form_torus_norm,
    block_centralizer_torus_vectors,
    delta_line_subspace,
    dense_wedge_norm,
    float_decay_table,
    m_words,
    mat_mul as exact_mat_mul,
    nilradical_basis,
    signed_permutation_matrix,
    sl2_swap_config,
    so21_config,
    so21_d_vectors,
    torus_config,
)
from reference_linalg import (escape_vector, exp_cartan, factor_grams, float_mat_mul,
                              gram_wedge_norm, orthant_meets_subspace, project_subspace)

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


def shipped_setup(name, edit=None):
    """The witness of a shipped config, its text first replaced by `edit`,
    an (old, new) pair."""
    path = CONFIGS / name
    text = path.read_text(encoding="utf-8")
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    config = build_config(parse_problem(text, str(path)))
    verdict = check_general(config)
    witness = build_escape_witness(verdict.certificate, config)
    return config, verdict.certificate, witness


def zero_coefficient_setups():
    """Hand-built certificates on I = {1, 2} with dependence (c, 0) for
    c = 1 and c = -2: chi_1 alone vanishes on Lie(A)."""
    spec = GroupSpec(3, 1)
    config = torus_config(spec, Subspace.span(3, [[0, 1, -1]]))
    setups = []
    for c in (F(1), F(-2)):
        cert = Certificate((1, 2), WeylElement(((0, 1, 2),)),
                           identity_centralizer_element(spec), 0, (c, F(0)), None)
        setups.append((config, cert, build_escape_witness(cert, config)))
    return setups


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


def seeded_torus_setups(count=60, seed=32):
    """Divergent trivial-M instances, n x m up to 5x1 and 4x2, on seeded
    random Lie(A) of dimension 1 to 3; most certify |I| >= 2."""
    rng = random.Random(seed)
    setups = []
    while len(setups) < count:
        spec = GroupSpec(*rng.choice(((3, 1), (4, 1), (5, 1), (3, 2), (4, 2))))
        a = Subspace.span(spec.ambient_dim, [
            spec.trace_zero_part([F(rng.randint(-3, 3)) for _ in range(spec.ambient_dim)])
            for _ in range(rng.randint(1, min(3, spec.rank)))])
        verdict = check_torus(spec, a)
        if a.dim == 0 or verdict.nondivergent:
            continue
        config = torus_config(spec, a)
        setups.append((config, verdict.certificate,
                       build_escape_witness(verdict.certificate, config)))
    return setups


def block_setups(seed=5):
    """Divergent SO(2,1)- and SL_2-block instances, Lie(A) spanned by seeded
    random combinations of the Lie(D) basis; some certify w' != id."""
    rng = random.Random(seed)
    setups = []
    for make, d in ((so21_config, so21_d_vectors()),
                    (sl2_swap_config, block_centralizer_torus_vectors(4, 1, {0}, 2, 2))):
        for _ in range(12):
            rows = [[rng.randint(-3, 3) for _ in d] for _ in range(rng.randint(1, len(d) - 1))]
            a = [tuple(sum((c * v[j] for c, v in zip(row, d)), F(0))
                       for j in range(len(d[0])))
                 for row in rows]
            if not any(map(any, a)):
                continue
            config = make(a)
            verdict = check_general(config)
            if not verdict.nondivergent:
                setups.append((config, verdict.certificate,
                               build_escape_witness(verdict.certificate, config)))
    return setups


def shipped_divergent_setups():
    setups = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        config = build_config(parse_problem(path.read_text(encoding="utf-8"), str(path)))
        verdict = check_general(config)
        if not verdict.nondivergent:
            setups.append((config, verdict.certificate,
                           build_escape_witness(verdict.certificate, config)))
    return setups


def reference_missed_orthants(witness):
    """The orthants, +1 before -1 per index, that Fourier-Motzkin finds
    missed by U'."""
    return [Orthant(signs)
            for signs in itertools.product((1, -1), repeat=len(witness.u_vectors))
            if not orthant_meets_subspace(witness.u_vectors, Orthant(signs),
                                          witness.u_prime)]


def edited(witness, **fields):
    return EscapeWitness(**{**witness.__dict__, **fields})


class TestMissedOrthant:
    """sigma0 is the sign pattern of the certified dependence; the
    Fourier-Motzkin reference is the oracle."""

    def test_matches_reference_on_certificates(self):
        shipped, blocks = shipped_divergent_setups(), block_setups()
        setups = shipped + seeded_torus_setups() + blocks
        for config, cert, witness in setups:
            missed = reference_missed_orthants(witness)
            # the first missed orthant, and (the weights being a circuit,
            # Stiemke) the only other one is its negative
            assert witness.sigma0 == missed[0]
            assert missed == [witness.sigma0,
                              Orthant(tuple(-s for s in witness.sigma0.signs))]
            check_witness_exact(witness, cert.dependence)
        assert len(shipped) == 6
        assert sum(len(cert.subset) >= 2 for _, cert, _ in setups) >= 20
        assert any(len(cert.subset) >= 3 for _, cert, _ in setups)
        assert any(cert.w_prime_index for _, cert, _ in blocks)

    def test_plane_with_diagonal(self):
        # U' = span(1, 1) in the plane of f_1 = e_1, f_2 = e_2, and
        # f_1 - f_2 vanishes on it: sigma0 = (1, -1), and v = (2, -2).
        funcs = ((F(1), F(0)), (F(0), F(1)))
        u_prime = Subspace.span(2, [[1, 1]])
        sigma0 = Orthant((1, -1))
        v = escape_vector(funcs, sigma0)
        assert v == (F(2), F(-2))
        witness = EscapeWitness(funcs, u_prime, sigma0, v)
        check_witness_exact(witness, (F(1), F(-1)))
        assert reference_missed_orthants(witness) == [Orthant((1, -1)), Orthant((-1, 1))]

    def test_line_case(self):
        funcs = ((F(1),),)
        v = escape_vector(funcs, Orthant((1,)))
        assert v == (F(2),)
        check_witness_exact(EscapeWitness(funcs, Subspace(1, ()), Orthant((1,)), v),
                            (F(1),))

    def test_zero_coefficient_takes_plus(self):
        # The zero coefficient of a hand-built certificate gets +1, the audit
        # passes, and every orthant misses U', on which f_1 is 0.
        for (config, cert, witness), signs in zip(zero_coefficient_setups(),
                                                  ((1, 1), (-1, 1))):
            assert witness.sigma0.signs == signs
            check_witness_exact(witness, cert.dependence)
            assert len(reference_missed_orthants(witness)) == 4


class TestCheckWitnessExact:
    """Each failing branch of the audit, one witness field edited at a time."""

    def setup_method(self):
        self.config, self.cert, self.witness = next(
            s for s in seeded_torus_setups(count=10) if len(s[1].subset) >= 2)
        check_witness_exact(self.witness, self.cert.dependence)

    def test_u_prime_equal_to_u_fails(self):
        u_space = Subspace.span(self.config.spec.ambient_dim, self.witness.u_vectors)
        with pytest.raises(ExactCheckFailedError, match="not proper"):
            check_witness_exact(edited(self.witness, u_prime=u_space),
                                self.cert.dependence)

    def test_each_flipped_sign_fails(self):
        signs = self.witness.sigma0.signs
        for i in range(len(signs)):
            flipped = Orthant(signs[:i] + (-signs[i],) + signs[i + 1:])
            with pytest.raises(ExactCheckFailedError, match="orthant"):
                check_witness_exact(edited(self.witness, sigma0=flipped),
                                    self.cert.dependence)

    def test_quarter_v_fails(self):
        v = tuple(x / 4 for x in self.witness.v)
        with pytest.raises(ExactCheckFailedError, match="weight values"):
            check_witness_exact(edited(self.witness, v=v), self.cert.dependence)

    def test_dependence_that_certifies_nothing_fails(self):
        c = self.cert.dependence
        for bad in (tuple(F(0) for _ in c), (c[0] + 1,) + c[1:], c[:-1]):
            with pytest.raises(ExactCheckFailedError, match="orthant"):
                check_witness_exact(self.witness, bad)


class TestEscapeWitness:
    def test_example1_m2(self):
        config, cert, witness = example1_m2_setup()
        assert witness.sigma0.signs == (1,)
        assert witness.u_prime.dim == 0
        assert witness.v == (F(1), F(-1), F(-1), F(1))
        assert all(dot(u, witness.v) == 2 * s
                   for u, s in zip(witness.u_vectors, witness.sigma0.signs))

    def test_so21_line(self):
        config, cert, witness = so21_line_setup()
        assert witness.u_prime.dim < len(witness.u_vectors)
        check_witness_exact(witness, cert.dependence)

    def test_matches_projection_reference(self):
        # The one elimination [G | 2 sigma0 | (f_i | b_j)] gives the U', v and
        # sigma0 of the reference: U' the projection of the transported
        # Lie(A) onto span(f) by one solve per basis vector, v by one more.
        blocks = block_setups()
        torus = [s for s in seeded_torus_setups() if len(s[1].subset) >= 2]
        zero_a = shipped_setup("example1-m2.cfg", ('[torus-a]\nbasis = [["1", "-1", "1", "-1"]]',
                                                   "[torus-a]\nbasis = []"))
        setups = (shipped_divergent_setups() + torus + blocks + [zero_a]
                  + zero_coefficient_setups())
        for config, cert, witness in setups:
            d = config.spec.ambient_dim
            moved = Subspace.span(d, [cert.w_prime.transport_inverse(b)
                                      for b in config.a_basis.basis])
            sigma0 = Orthant(tuple(-1 if c < 0 else 1 for c in cert.dependence))
            assert witness.sigma0 == sigma0
            assert witness.u_prime == project_subspace(moved, Subspace.span(d, witness.u_vectors))
            assert witness.v == escape_vector(witness.u_vectors, sigma0)
        assert any(cert.w_prime_index for _, cert, _ in blocks)
        assert zero_a[0].a_basis.dim == 0 and len(torus) >= 20
        assert {(config.spec.n, config.spec.m) for config, _, _ in torus} >= {(5, 1), (4, 2)}
        assert any(witness.u_prime.dim for _, _, witness in setups)

    def test_two_eliminations(self, monkeypatch):
        # Whatever dim A is (2 here), one Gauss-Jordan pass reduces
        # [G | 2 sigma0 | (f_i | b_j)] and one spans U'.
        config, cert, _ = shipped_setup("example1-n3-m2.cfg")
        calls = []
        for module in (witness_module, linalg_module):
            monkeypatch.setattr(module, "_rref", lambda rows, rref=module._rref:
                                calls.append(rows) or rref(rows))
        witness = build_escape_witness(cert, config)
        assert len(calls) == 2
        assert len(cert.subset) == config.a_basis.dim == 2 and witness.u_prime.dim == 1

    def test_failed_elimination_raises(self, monkeypatch):
        # A singular reduction raises the "singular system" ValueError; a v
        # whose weight values are not 2 sigma0 fails an exact check (exit 3).
        config, cert, _ = example1_m2_setup()
        rref = witness_module._rref
        monkeypatch.setattr(witness_module, "_rref", lambda rows: (rref(rows)[0], [1]))
        with pytest.raises(ValueError, match="singular system"):
            build_escape_witness(cert, config)
        monkeypatch.setattr(witness_module, "_rref", lambda rows: (
            [[x / 2 for x in row] for row in rref(rows)[0]], rref(rows)[1]))
        with pytest.raises(ExactCheckFailedError, match="weight values"):
            build_escape_witness(cert, config)

    def test_rejects_unreplayable_certificate(self):
        config, cert, _ = example1_m2_setup()
        bad = Certificate((2,) if cert.subset == (1,) else (1,), cert.w, cert.w_prime,
                          cert.w_prime_index, cert.dependence, cert.integer_dependence)
        with pytest.raises(ValueError):
            build_escape_witness(bad, config)


def exact_beta(line, w, w_prime):
    """The exact squared base norm of the line (cut, side) under w' w."""
    return wedge_norm(*line, w, w_prime)


def reference_beta(spec, line, w, w_prime):
    """The same by the Kronecker Gram determinant of the line's matrix units."""
    return gram_wedge_norm(nilradical_basis(spec, *line), factor_grams(w, w_prime))


def base_norms(cert, lines):
    """Each line's base norm at g_0 = w' w, as the decay table rounds it."""
    return [sqrt_rounded(exact_beta(line, cert.w, cert.w_prime)) for line in lines]


def skew_factor(rng, n, dense=False):
    """A rational diagonal times a signed permutation, of determinant 1; when
    `dense`, between unit lower and upper triangular factors with nonzero
    rational entries, so that C = g^T g is not diagonal."""
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1)]
    diag.append(1 / math.prod(diag))
    signs = [rng.choice((1, -1)) for _ in range(n - 1)]
    signs.append(round(np.linalg.det(np.eye(n)[perm])) * math.prod(signs))
    f = tuple(tuple(diag[i] * signs[i] if perm[i] == j else F(0) for j in range(n))
              for i in range(n))
    if not dense:
        return f

    def unit_triangular(lower):
        return tuple(tuple(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                           if (j < i if lower else j > i) else F(int(i == j))
                           for j in range(n)) for i in range(n))

    return exact_mat_mul(exact_mat_mul(unit_triangular(True), f), unit_triangular(False))


def float_g0(w, w_prime):
    """g_0 = w' w in floats, with numpy, for the dense reference."""
    return [np.array(wp, dtype=float) @ np.array(signed_permutation_matrix(p), dtype=float)
            for wp, p in zip(w_prime.matrices, w.perms)]


def random_instance(rng, n, m, dense):
    """A random Weyl element and a w' of `skew_factor`s, checked to have
    determinant 1 in every factor."""
    w = WeylElement(tuple(tuple(rng.sample(range(n), n)) for _ in range(m)))
    w_prime = CentralizerWeylElement(tuple(skew_factor(rng, n, dense) for _ in range(m)))
    assert all(exact_det(f) == 1 for f in w_prime.matrices)
    return w, w_prime


class TestWedgeNorm:
    def test_equals_kronecker_gram_determinant(self):
        # The product of principal minors against the determinant of the
        # d x d Gram matrix of the moved matrix units, exactly, on dense
        # det-1 w': every cut, both sides, (n, m) in {2..5} x {1, 2}.
        rng = random.Random(3535)
        checked = skewed = 0
        for n, m in itertools.product(range(2, 6), (1, 2)):
            spec = GroupSpec(n, m)
            for _ in range(3):
                w, w_prime = random_instance(rng, n, m, dense=True)
                assert all(sum(e != 0 for row in f for e in row) > n
                           for f in w_prime.matrices)
                for line in itertools.product(range(1, n), ParabolicSide):
                    beta = exact_beta(line, w, w_prime)
                    assert type(beta) is F
                    assert beta == reference_beta(spec, line, w, w_prime)
                    checked += 1
                    skewed += beta != 1
        assert checked == 3 * 2 * 2 * (1 + 2 + 3 + 4)
        assert skewed > 0.9 * checked

    def test_hand_values(self):
        # n = 3, w' = ((2,1,0),(1,1,0),(0,0,1)): the columns of w' indexed by
        # p[S] have Gram determinants 5, 2, 1, 1 under w = id and 2, 5, 1, 1
        # under w = (1,0,2), each cubed.
        spec = GroupSpec(3, 1)
        w_prime = CentralizerWeylElement(((tuple(map(F, (2, 1, 0))),
                                           tuple(map(F, (1, 1, 0))),
                                           tuple(map(F, (0, 0, 1)))),))
        lines = [(1, ParabolicSide.STANDARD), (1, ParabolicSide.OPPOSITE),
                 (2, ParabolicSide.STANDARD), (2, ParabolicSide.OPPOSITE)]
        for perm, expected in (((0, 1, 2), [125, 8, 1, 1]), ((1, 0, 2), [8, 125, 1, 1])):
            w = WeylElement((perm,))
            assert [exact_beta(line, w, w_prime) for line in lines] == expected
            assert [reference_beta(spec, line, w, w_prime) for line in lines] == expected

    def test_matches_dense_conjugation(self):
        # Exact beta against dense float conjugation on seeded trivial-M
        # instances: every line of a random Weyl element w, under an explicit
        # non-orthogonal w' of determinant 1, monomial and dense in turn.  A
        # dense w' is worse conditioned, and the float inverse and Gram
        # determinant of the reference lose digits to it.
        rng = random.Random(808)
        checked = skewed = 0
        for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
            for trial in range(10):
                dense = trial % 2 == 1
                w, w_prime = random_instance(rng, n, m, dense)
                for line in itertools.product(range(1, n), ParabolicSide):
                    beta = exact_beta(line, w, w_prime)
                    assert type(beta) is F
                    assert sqrt_rounded(beta) == pytest.approx(
                        dense_wedge_norm(line, float_g0(w, w_prime)),
                        rel=1e-10 if dense else 1e-12)
                    checked += 1
                    skewed += beta != 1
        assert checked == 10 * 2 * (1 + 1 + 2 + 2)
        assert skewed > checked // 2

    def test_identity_is_one(self):
        w = WeylElement(((0, 1, 2), (0, 1, 2)))
        w_prime = CentralizerWeylElement(tuple(
            tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
            for _ in range(2)))
        for line in itertools.product((1, 2), ParabolicSide):
            assert exact_beta(line, w, w_prime) == 1

    def test_sl2_weight(self):
        # Under diag(q, 1/q) the line E_12 scales by q^2 and E_21 by q^-2, in
        # the exact routine at g_0 and in the dense reference at any diagonal.
        w = WeylElement(((0, 1),))
        for q in (F(1, 2), F(3), F(7, 5)):
            w_prime = CentralizerWeylElement((((q, F(0)), (F(0), 1 / q)),))
            assert exact_beta((1, ParabolicSide.STANDARD), w, w_prime) == q ** 4
            assert exact_beta((1, ParabolicSide.OPPOSITE), w, w_prime) == q ** -4
        for t in (0.5, -1.0, 2.0):
            g = [np.diag([math.exp(t), math.exp(-t)])]
            assert dense_wedge_norm((1, ParabolicSide.STANDARD), g) == pytest.approx(
                math.exp(2 * t), rel=1e-9)

    def test_sl2_t_minus_one(self):
        g = [np.diag([math.exp(-1.0), math.exp(1.0)])]
        assert dense_wedge_norm((1, ParabolicSide.STANDARD), g) == pytest.approx(
            0.1353352832366127, abs=1e-9)

    def test_sign_independence(self):
        # Base norms are blind to the representative's signs: the Kronecker
        # reference gives the engine's beta exactly when the signs of w's
        # representative flip.
        rng = random.Random(4)
        for n, m in ((2, 2), (3, 2)):
            spec = GroupSpec(n, m)
            for trial in range(6):
                w, w_prime = random_instance(rng, n, m, dense=trial % 2 == 1)
                lines = list(itertools.product(range(1, n), ParabolicSide))
                betas = [exact_beta(line, w, w_prime) for line in lines]
                flips = [rng.choice((1, -1)) for _ in range(n)]

                def flipped(p):
                    return tuple(tuple(x * s for x, s in zip(row, flips))
                                 for row in signed_permutation_matrix(p))

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(reference_linalg, "signed_permutation_matrix", flipped)
                    assert [reference_beta(spec, line, w, w_prime)
                            for line in lines] == betas


class TestSqrtRounded:
    @staticmethod
    def assert_correctly_rounded(beta):
        r = sqrt_rounded(beta)
        lo = (F(math.nextafter(r, 0.0)) + F(r)) / 2
        hi = (F(r) + F(math.nextafter(r, math.inf))) / 2
        assert lo * lo <= beta <= hi * hi, beta

    def test_random_rationals(self):
        rng = random.Random(1931)
        for _ in range(2000):
            digits = rng.randint(1, 40)
            beta = F(rng.randint(1, 10 ** digits), rng.randint(1, 10 ** rng.randint(1, 40)))
            self.assert_correctly_rounded(beta)

    def test_squares_and_powers_of_four(self):
        rng = random.Random(1932)
        for _ in range(500):
            root = F(rng.randint(1, 10 ** 20), rng.randint(1, 10 ** 20))
            assert sqrt_rounded(root * root) == float(root)
            self.assert_correctly_rounded(root * root)
        for e in range(-70, 71):
            beta = F(4) ** e
            assert sqrt_rounded(beta) == 2.0 ** e
            self.assert_correctly_rounded(beta)
        # the base norms of the skew-w' probe in test_config_cli, where a
        # float Gram determinant at g_0 gives 0.2177777777777777, one ulp low
        assert sqrt_rounded(F(2401, 50625)) == float(F(49, 225)) == 0.21777777777777776
        assert sqrt_rounded(F(50625, 2401)) == float(F(225, 49)) == 4.591836734693878


class TestDivergenceSequence:
    def test_determinants_one(self):
        config, cert, witness = example1_m2_setup()
        for mats in realize_divergence_sequence(cert, witness.v, [0, 5, 10]):
            for f in mats:
                assert abs(np.linalg.det(f) - 1.0) < 1e-9

    def test_escape_vector_is_diagonal_cartan(self):
        config, cert, witness = example1_m2_setup()
        assert config.spec.is_trace_zero(witness.v)


class TestClosedForm:
    def test_matches_gram_on_random_instances(self):
        # The closed form over exact base norms against dense norms at the
        # realized h * g_N.
        rng = random.Random(2024)
        checked = 0
        for config, cert, witness in (example1_m2_setup(), so21_line_setup()):
            spec = config.spec
            lines = [(j, side)
                     for j in cert.subset for side in ParabolicSide]
            bases = base_norms(cert, lines)
            for _ in range(50):
                coeffs = [F(rng.randint(-8, 8), rng.randint(1, 2))
                          for _ in config.a_basis.basis]
                a_vec = a_point(config, coeffs)
                n_val = rng.randint(0, 3)
                g = realize_divergence_sequence(cert, witness.v, [n_val])[0]
                h = exp_cartan(spec, a_vec)
                hg = tuple(float_mat_mul(hf, gf) for hf, gf in zip(h, g))
                for ln, base in zip(lines, bases):
                    expected = closed_form_torus_norm(
                        config, cert, witness, ln, a_vec, n_val, base)
                    actual = dense_wedge_norm(ln, hg)
                    assert actual == pytest.approx(expected, rel=1e-9)
                    checked += 1
        assert checked >= 100


class TestMInvariance:
    def test_wedge_line_fixed_by_m_words(self):
        # M moves no certified line's norm, which is why the decay table
        # samples Lie(A) alone: checked on seeded words in exp(Lie(M)), with
        # dense norms at g_N and the exact base norm at N = 0.
        for config, cert, witness in (so21_line_setup(),
                                      shipped_setup("example2-nonmonomial.cfg")):
            words = m_words(config)
            assert len(words) == 9
            elements = realize_divergence_sequence(cert, witness.v, [0, 1, 2])
            lines = [(j, side)
                     for j in cert.subset for side in ParabolicSide]
            for line, exact in zip(lines, base_norms(cert, lines)):
                assert dense_wedge_norm(line, elements[0]) == pytest.approx(exact,
                                                                            rel=1e-12)
            for g in elements:
                for line in lines:
                    base = dense_wedge_norm(line, g)
                    for _, word in words[1:]:
                        moved = dense_wedge_norm(line, [w @ np.array(gf)
                                                        for w, gf in zip(word, g)])
                        assert moved == pytest.approx(base, rel=1e-9)


class TestSampler:
    def test_grid_shape_and_determinism(self):
        config, _, _ = example1_m2_setup()
        s1 = HSampler.default(config)
        s2 = HSampler.default(config)
        assert len(s1.a_coords) == 21
        assert s1 == s2
        assert (s1.a_coords[0], s1.a_coords[10]) == ((F(-5),), (F(0),))
        assert (s1.a_labels[0], s1.a_labels[10]) == ("t=(-5)", "t=(0)")


class TestFloatReference:
    """The exact-order decay table against float sampling of H = A M."""

    @staticmethod
    def compare(config, cert, witness):
        sampler = HSampler.default(config)
        rows = decay_table(cert, witness, [0, 1, 2, 3], sampler, config)
        ref = float_decay_table(cert, witness, [0, 1, 2, 3], sampler, config)
        assert [r.n_value for r in rows] == [r["N"] for r in ref]
        decided = 0
        for row, r in zip(rows, ref):
            assert row.max_min_norm == pytest.approx(r["max_min_norm"], rel=1e-9)
            assert sum(count for _, count in row.fired) == len(sampler.a_coords)
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
        sampler = HSampler.default(config)
        report = verify_divergence(cert, witness, [0, 10], sampler, 1000, config)
        assert report.exact_passed
        rows = {r.n_value: r.max_min_norm for r in report.rows}
        assert rows[0] == pytest.approx(1.0, rel=1e-9)
        assert rows[10] < math.exp(-10) * rows[0]
        assert not report.anomalies

    def test_decay_monotone_on_samples(self):
        config, cert, witness = so21_line_setup()
        sampler = HSampler.default(config)
        rows = decay_table(cert, witness, [0, 1, 2, 3], sampler, config)
        values = [r.max_min_norm for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        for row in rows:
            assert row.max_min_norm <= math.exp(-row.n_value) * values[0] * (1 + 1e-9)

    def test_decay_realizes_nothing(self, monkeypatch):
        # Rows print the closed form over exact base norms: no g_N and no
        # exponentiated Cartan element is formed, `wedge_norm` runs once per
        # certified line whatever the n-values, and no Gauss-Jordan
        # elimination runs: no linear system is solved, C^-1 included.
        for config, cert, witness in (example1_m2_setup(), so21_line_setup()):
            sampler = HSampler.default(config)
            calls, norms, rrefs = [], [], []
            for name in ("realize_divergence_sequence", "exp"):
                monkeypatch.setattr(lattice_module, name,
                                    lambda *args, name=name, **kw: calls.append(name))
            wedge_norm = witness_module.wedge_norm
            monkeypatch.setattr(witness_module, "wedge_norm",
                                lambda *args: norms.append(args) or wedge_norm(*args))
            for module in (witness_module, linalg_module):
                monkeypatch.setattr(module, "_rref", lambda *args, rref=module._rref:
                                    rrefs.append(args) or rref(*args))
            rows = decay_table(cert, witness, [0, 2, 4, 6], sampler, config)
            assert len(rows) == 4
            assert calls == []
            assert len(norms) == 2 * len(cert.subset)
            assert rrefs == []
            monkeypatch.undo()

    def test_decay_transports_each_basis_vector_once(self, monkeypatch):
        # The exponents are linear in the Lie(A) coordinates: Ad(w'^-1) runs
        # once per basis vector of Lie(A), not once per grid sample.
        transport_inverse = CentralizerWeylElement.transport_inverse
        for config, cert, witness in (example1_m2_setup(), so21_line_setup(),
                                      shipped_setup("example2-nonmonomial.cfg")):
            sampler = HSampler.default(config)
            calls = []
            monkeypatch.setattr(CentralizerWeylElement, "transport_inverse",
                                lambda self, v: calls.append(v)
                                or transport_inverse(self, v))
            decay_table(cert, witness, [0, 2, 4, 6], sampler, config)
            assert len(calls) == config.a_basis.dim < len(sampler.a_labels)
            monkeypatch.undo()

    def test_decay_exponentiates_no_h_sample(self, monkeypatch):
        # Samples are ordered and printed by exact exponents: nothing is
        # exponentiated as a matrix, whether or not 0 is among the n-values.
        config, cert, witness = example1_m2_setup()
        sampler = HSampler.default(config)
        exp = lattice_module.exp
        for n_values in ([0, 2, 4, 6], [3, 5]):
            exponents = []
            monkeypatch.setattr(lattice_module, "exp",
                                lambda x: exponents.append(x) or exp(x))
            rows = decay_table(cert, witness, n_values, sampler, config)
            assert [r.n_value for r in rows] == sorted({0, *n_values})
            assert exponents == []

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from nondiv.criterion import ConfigError, GroupConfig
from nondiv.linalg import Subspace, det, dot, transpose
from nondiv.rootdata import GroupSpec
from nondiv.weyl import (
    CentralizerWeylElement,
    WeylElement,
    act_on_functional,
    act_on_lie,
    identity_centralizer_element,
    perm_sign,
    weyl_inverse,
    weyl_order,
)

from helpers import (
    diagonal_element,
    diagonal_vector,
    full_cartan_vectors,
    lie_element,
    mat,
    mat_mul,
    scan_order,
    so21_centralizer_elements,
    so21_config,
    so21_d_vectors,
    so21_generators,
    signed_permutation_matrix,
    w_prime,
)
from reference_linalg import solve


def weyl_identity(spec):
    return WeylElement((tuple(range(spec.n)),) * spec.m)


def weyl_compose(w1, w2):
    """(w1*w2)(i) = w1(w2(i))."""
    return WeylElement(tuple(tuple(p1[i] for i in p2)
                             for p1, p2 in zip(w1.perms, w2.perms)))


def random_weyl(rng, spec):
    perms = []
    for _ in range(spec.m):
        p = list(range(spec.n))
        rng.shuffle(p)
        perms.append(tuple(p))
    return WeylElement(tuple(perms))


def random_sl(rng, n):
    """A random integer n x n matrix of trace zero."""
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    rows[-1][-1] -= sum(rows[i][i] for i in range(n))
    return rows


def random_trace_zero(rng, spec):
    raw = [F(rng.randint(-9, 9)) for _ in range(spec.ambient_dim)]
    return spec.trace_zero_part(raw)


class TestEnumeration:
    """The scan's Weyl order (`criterion._weyl_by_index`)."""

    def test_sl2_single(self):
        ws = scan_order(GroupSpec(2, 1))
        assert [w.perms for w in ws] == [((0, 1),), ((1, 0),)]

    def test_sl2_two_factors(self):
        ws = [w.perms for w in scan_order(GroupSpec(2, 2))]
        assert ws == [((0, 1), (0, 1)), ((0, 1), (1, 0)),
                      ((1, 0), (0, 1)), ((1, 0), (1, 0))]

    def test_sl3_two_factors_size(self):
        ws = scan_order(GroupSpec(3, 2))
        assert len(ws) == 36 == weyl_order(GroupSpec(3, 2))

    def test_no_duplicates(self):
        ws = scan_order(GroupSpec(3, 2))
        assert len(set(ws)) == len(ws)

    def test_lexicographic_product_order(self):
        """Factor 1 is the most significant digit, and each factor's
        permutations run in lexicographic order of one-line notation
        (`test_criterion` decodes the 3x2 indices the same way)."""
        for n, m in [(2, 3), (4, 1)]:
            expected = itertools.product(itertools.permutations(range(n)), repeat=m)
            assert [w.perms for w in scan_order(GroupSpec(n, m))] == list(expected)


class TestFunctionalAction:
    def test_identity_fixes(self):
        spec = GroupSpec(3, 1)
        f = (F(1), F(2), F(-3))
        assert act_on_functional(weyl_identity(spec), f) == f

    def test_res_sl2_swap_second_factor(self):
        spec = GroupSpec(2, 2)
        from nondiv.rootdata import fundamental_weight
        chi1 = fundamental_weight(spec, 1)
        w = WeylElement(((0, 1), (1, 0)))
        moved = act_on_functional(w, chi1)
        assert dot(moved, (F(3), F(-3), F(5), F(-5))) == 3 - 5

    def test_sl3_cycle(self):
        spec = GroupSpec(3, 1)
        from nondiv.rootdata import fundamental_weight
        chi1 = fundamental_weight(spec, 1)
        w = WeylElement(((1, 2, 0),))
        moved = act_on_functional(w, chi1)
        assert dot(moved, (F(4), F(6), F(-10))) == 6

    def test_action_laws(self):
        rng = random.Random(3)
        spec = GroupSpec(3, 2)
        for _ in range(30):
            w1, w2 = random_weyl(rng, spec), random_weyl(rng, spec)
            f = random_trace_zero(rng, spec)
            composed = act_on_functional(weyl_compose(w1, w2), f)
            nested = act_on_functional(w1, act_on_functional(w2, f))
            assert composed == nested
        f = random_trace_zero(rng, spec)
        assert act_on_functional(weyl_identity(spec), f) == f

    def test_preserves_pairing(self):
        rng = random.Random(11)
        spec = GroupSpec(4, 2)
        for _ in range(30):
            w = random_weyl(rng, spec)
            u, v = random_trace_zero(rng, spec), random_trace_zero(rng, spec)
            wu = act_on_functional(w, u)
            wv = act_on_functional(w, v)
            assert dot(wu, wv) == dot(u, v)

    def test_compatible_with_lie_action(self):
        rng = random.Random(19)
        spec = GroupSpec(3, 2)
        for _ in range(30):
            w = random_weyl(rng, spec)
            f = random_trace_zero(rng, spec)
            x_vec = random_trace_zero(rng, spec)
            x = diagonal_element(x_vec, spec.n)
            moved = diagonal_vector(act_on_lie(weyl_inverse(w), x))
            assert moved is not None
            assert dot(f, moved) == dot(act_on_functional(w, f), x_vec)


class TestLieAction:
    def test_identity(self):
        spec = GroupSpec(3, 1)
        x = lie_element([[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])
        assert act_on_lie(weyl_identity(spec), x) == x

    def test_swap_transposes_pattern(self):
        x = lie_element([[[0, 1], [0, 0]]])
        y = act_on_lie(WeylElement(((1, 0),)), x)
        assert abs(y.factors[0][1][0]) == 1 and y.factors[0][0][1] == 0

    def test_cycle_moves_unit(self):
        x = lie_element([[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])
        y = act_on_lie(WeylElement(((1, 2, 0),)), x)
        assert abs(y.factors[0][1][2]) == 1

    def test_representatives_have_det_one(self):
        for p in itertools.permutations(range(4)):
            assert det(signed_permutation_matrix(p)) == 1

    def test_matches_conjugation_by_representative(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            for p in itertools.permutations(range(n)):
                w = WeylElement((p, p[::-1]))
                x = lie_element([random_sl(rng, n) for _ in w.perms])
                y = act_on_lie(w, x)
                for q, f, g in zip(w.perms, x.factors, y.factors):
                    # signed permutation matrices are orthogonal
                    s = signed_permutation_matrix(q)
                    assert g == mat_mul(mat_mul(s, f), transpose(s))

    def test_sign_function(self):
        assert perm_sign((0, 1, 2)) == 1
        assert perm_sign((1, 0, 2)) == -1
        assert perm_sign((1, 2, 0)) == 1


def build_all(candidates):
    return tuple(map(w_prime, candidates))


def transport(elem, v):
    """Ad(w') on a diagonal Cartan vector by dense conjugation l diag(v) l^-1,
    or None when the image is not diagonal."""
    return transport_reference(elem.matrices, v,
                               tuple(map(inverse_reference, elem.matrices)))


class TestCentralizerValidation:
    """GroupConfig checks every w'; candidates are numbered from 1."""

    def test_trivial_m_accepts_weyl_representatives(self):
        spec = GroupSpec(3, 1)
        d = Subspace.span(3, full_cartan_vectors(3, 1))
        elems = [(signed_permutation_matrix(p),)
                 for p in itertools.permutations(range(3))]
        validated = GroupConfig(spec, (), d, d, build_all(elems)).centralizer_weyl
        assert len(validated) == 6
        assert validated[0].is_identity()

    def test_rejects_non_normalizing(self):
        spec = GroupSpec(2, 1)
        d = Subspace.span(2, [[F(1), F(-1)]])
        shear = [(((F(1), F(1)), (F(0), F(1))),)]
        with pytest.raises(ConfigError,
                           match="centralizer Weyl candidate #1: does not normalize D"):
            GroupConfig(spec, (), d, d, build_all(shear))

    def test_rejects_moving_a_hyperplane_of_the_torus(self):
        # Lie(D) is a hyperplane of the trace-zero space, so a single
        # annihilator row separates it from the image under w' #2; w' #1
        # maps it onto itself
        spec = GroupSpec(2, 2)
        d = Subspace.span(4, [[F(1), F(-1), F(1), F(-1)]])
        eye = ((F(1), F(0)), (F(0), F(1)))
        turn = ((F(0), F(1)), (F(-1), F(0)))
        with pytest.raises(ConfigError,
                           match="centralizer Weyl candidate #2: does not normalize D$"):
            GroupConfig(spec, (), d, Subspace(4, ()), build_all([(turn, turn), (turn, eye)]))

    def test_rejects_bad_determinant(self):
        spec = GroupSpec(2, 1)
        full = spec.full_subspace()
        scaled = [(((F(2), F(0)), (F(0), F(1))),)]
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #1: "
                                              "determinant is not 1 in factor 1$"):
            GroupConfig(spec, (), full, full, build_all(scaled))

    def test_rejects_non_square_factor(self):
        # the shape check comes first, so `det` never sees this factor
        spec = GroupSpec(2, 1)
        full = spec.full_subspace()
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #1: "
                                              "wrong matrix shape$"):
            GroupConfig(spec, (), full, full, build_all([[[[1, 0, 0], [0, 1, 0]]]]))

    def test_rejects_non_centralizing(self):
        spec = GroupSpec(2, 1)
        d = Subspace.span(2, [[F(1), F(-1)]])
        gen = lie_element([[[0, 1], [0, 0]]])
        swap = [(signed_permutation_matrix((1, 0)),)]
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #1: "
                                              "does not centralize M generator #1"):
            GroupConfig(spec, (gen,), d, d, build_all(swap))

    def test_identity_prepended(self):
        spec = GroupSpec(2, 1)
        d = Subspace.span(2, [[F(1), F(-1)]])
        swap = build_all([(signed_permutation_matrix((1, 0)),)])
        validated = GroupConfig(spec, (), d, d, swap).centralizer_weyl
        assert len(validated) == 2 and validated[0].is_identity()
        assert validated[1:] == swap

    def test_so21_block_configuration(self):
        candidates = so21_centralizer_elements()
        validated = so21_config(so21_d_vectors()).centralizer_weyl
        assert len(validated) == 24
        assert [e.matrices for e in validated] == [
            tuple(mat(f) for f in c) for c in candidates]

    def test_so21_rejects_factor1_swap(self):
        spec = GroupSpec(4, 2)
        gens = so21_generators()
        d = Subspace.span(8, so21_d_vectors())
        eye = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
        bad = [(signed_permutation_matrix((1, 0, 2, 3)), eye)]
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #1: "
                                              "does not centralize"):
            GroupConfig(spec, gens, d, d, build_all(bad))

    def test_transport_inverse_roundtrip(self):
        config = so21_config(so21_d_vectors())
        for elem in config.centralizer_weyl[:6]:
            for v in config.d_basis.basis:
                assert transport(elem, elem.transport_inverse(v)) == v

    def test_transport_rejects_outside_torus(self):
        elem = identity_centralizer_element(GroupSpec(2, 1))
        assert transport(elem, (F(1), F(-1))) == (F(1), F(-1))
        rot = w_prime([[[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]])
        assert transport(rot, (F(1), F(-1))) is None


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_rationals = rationals.filter(bool)


def conjugate_reference(l, block, r):
    """l diag(block) r by dense matrix products."""
    n = len(block)
    diag = tuple(tuple(block[i] if i == j else F(0) for j in range(n))
                 for i in range(n))
    return mat_mul(mat_mul(l, diag), r)


def inverse_reference(l):
    """l^-1 column by column: column j solves l x = e_j."""
    n = len(l)
    return transpose([solve(l, [F(int(i == j)) for i in range(n)]) for j in range(n)])


def transport_reference(left, v, right):
    """Concatenated diagonals, or None if some block image is not diagonal."""
    n = len(left[0])
    out = []
    for k, (l, r) in enumerate(zip(left, right)):
        y = conjugate_reference(l, v[k * n:(k + 1) * n], r)
        if any(y[i][j] != 0 for i in range(n) for j in range(n) if i != j):
            return None
        out.extend(y[i][i] for i in range(n))
    return tuple(out)


@st.composite
def invertible(draw, n, allowed=lambda i, j: True):
    """A random rational matrix, nonzero exactly where `allowed`, with det 1:
    a draw with det != 0 whose row 0 is divided by the determinant."""
    rows = [[draw(nonzero_rationals) if allowed(i, j) else F(0) for j in range(n)]
            for i in range(n)]
    d = det(rows)
    assume(d != 0)
    rows[0] = [e / d for e in rows[0]]
    return mat(rows)


@st.composite
def conjugation_case(draw, structured):
    """(factor matrices of det 1, Cartan vector).  A structured factor is P B
    with P a signed permutation and B dense on the groups of equal entries of
    its block of v, so its image of v is diagonal; other factors have a
    random pattern of nonzero off-diagonal entries (dense, triangular, ...)."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 2))
    factors, v = [], []
    for _ in range(m):
        groups = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        values = draw(st.lists(rationals, min_size=n, max_size=n))
        v.extend(values[g] for g in groups)
        if structured:
            b = draw(invertible(n, lambda i, j: groups[i] == groups[j]))
            perm = draw(st.permutations(range(n)))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
            p = [[F(signs[i]) if perm[i] == j else F(0) for j in range(n)]
                 for i in range(n)]
            if det(p) < 0:
                p[0] = [-e for e in p[0]]
            factors.append(mat_mul(mat(p), b))
        else:
            mask = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
            factors.append(draw(invertible(n, lambda i, j: i == j or mask[i * n + j])))
    return factors, tuple(v)


class TestTransport:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(conjugation_case))
    def test_matches_dense_reference(self, case):
        # transport_inverse reads v o sigma wherever l^-1 diag(v) l is
        # diagonal; `GroupConfig.validate` rejects every w' that leaves Lie(D)
        # off the diagonal, so nothing else reaches it
        factors, v = case
        elem = w_prime(factors)
        inverses = tuple(map(inverse_reference, elem.matrices))
        expected = transport_reference(inverses, v, elem.matrices)
        event("diagonal" if expected is not None else "not diagonal")
        if expected is not None:
            assert elem.transport_inverse(v) == expected

    @settings(max_examples=100, deadline=None)
    @given(conjugation_case(structured=True))
    def test_diagonal_image(self, case):
        factors, v = case
        elem = w_prime(factors)
        image = transport(elem, v)
        assert image is not None
        assert elem.transport_inverse(image) == v

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(invertible(n), st.lists(rationals, min_size=n,
                                                    max_size=n, unique=True))))
    def test_dense_factor_moves_regular_vector_off_the_diagonal(self, case):
        # with distinct entries in v, l diag(v) l^-1 is diagonal only when
        # every row of l has one nonzero entry, so GroupConfig rejects a dense
        # l as soon as Lie(D) holds v
        l, v = case
        elem = w_prime([l])
        inverses = (inverse_reference(elem.matrices[0]),)
        assert transport(elem, tuple(v)) is None
        assert transport_reference(inverses, v, elem.matrices) is None
        spec = GroupSpec(len(v), 1)
        d = Subspace.span(spec.ambient_dim, [spec.trace_zero_part(v)])
        with pytest.raises(ConfigError, match=r"candidate #1: does not normalize D "
                                              r"\(image of Lie\(D\) not diagonal\)$"):
            GroupConfig(spec, (), d, Subspace(spec.ambient_dim, ()), (elem,))


def reference_w_prime_error(n, m, gens, d, elems):
    """The first w' message of the rational check: commutators by exact
    products, Lie(D) images by dense conjugation with the inverse, then
    equality of their span with Lie(D); None when every w' passes."""
    for idx, elem in enumerate(elems, 1):
        for gi, gen in enumerate(gens):
            if any(mat_mul(l, x) != mat_mul(x, l)
                   for l, x in zip(elem.matrices, gen.factors)):
                return (f"centralizer Weyl candidate #{idx}: "
                        f"does not centralize M generator #{gi + 1}")
        inverses = tuple(map(inverse_reference, elem.matrices))
        images = [transport_reference(elem.matrices, v, inverses) for v in d.basis]
        if None in images:
            return (f"centralizer Weyl candidate #{idx}: does not normalize D "
                    "(image of Lie(D) not diagonal)")
        if Subspace.span(n * m, images) != d:
            return f"centralizer Weyl candidate #{idx}: does not normalize D"
    return None


def _power(l, k):
    out = tuple(tuple(F(int(i == j)) for j in range(len(l))) for i in range(len(l)))
    for _ in range(k):
        out = mat_mul(out, l)
    return out


@st.composite
def w_prime_validation_case(draw):
    """(n, m, M generators, Lie(D), w' list).  Per factor, l = P B with P a
    signed permutation and B dense on groups of coordinates (B = 1 gives a
    signed permutation); the w' are powers of l, the identity or an
    unrelated draw; each generator factor is a trace-zero polynomial in l,
    so it commutes with every power, unless an entry is perturbed; Lie(D)
    is spanned by (a prefix of) the orbit of vectors constant on the groups,
    or by arbitrary trace-zero vectors."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 2))
    eye = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))

    def structured(groups):
        if draw(st.booleans()):
            b = eye
        else:
            b = draw(invertible(n, lambda i, j: groups[i] == groups[j]))
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        p = [[F(signs[i]) if perm[i] == j else F(0) for j in range(n)]
             for i in range(n)]
        if det(p) < 0:
            p[0] = [-e for e in p[0]]
        return mat_mul(mat(p), b)

    groups = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
              for _ in range(m)]
    base = [structured(g) for g in groups]
    elems = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("power", "power", "identity", "other")))
        if kind == "power":
            k = draw(st.integers(1, 3))
            factors = [_power(l, k) for l in base]
        elif kind == "identity":
            factors = [eye] * m
        else:
            factors = [structured(g) for g in groups]
        elems.append(w_prime(factors))

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for l in base:
            c = draw(st.lists(rationals, min_size=3, max_size=3))
            x = [[c[0] * e + c[1] * f + c[2] * g for e, f, g in zip(*rows)]
                 for rows in zip(eye, l, mat_mul(l, l))]
            if draw(st.integers(0, 3)) == 0:
                x[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += \
                    draw(nonzero_rationals)
            t = sum(x[i][i] for i in range(n)) / n
            factors.append([[e - t if i == j else e for j, e in enumerate(row)]
                            for i, row in enumerate(x)])
        gens.append(lie_element(factors))

    spec = GroupSpec(n, m)
    if draw(st.integers(0, 4)) == 0:
        raw = draw(st.lists(st.lists(rationals, min_size=n * m, max_size=n * m),
                            min_size=1, max_size=3))
        vectors = [spec.trace_zero_part(v) for v in raw]
    else:
        values = draw(st.lists(rationals, min_size=n * m, max_size=n * m))
        u = spec.trace_zero_part([values[k * n + g[j]] for k, g in enumerate(groups)
                                   for j in range(n)])
        inverses = tuple(map(inverse_reference, base))
        vectors = [u]
        for _ in range(5):
            image = transport_reference(base, vectors[-1], inverses)
            if image is None or image in vectors:
                break
            vectors.append(image)
        vectors = vectors[:draw(st.integers(1, len(vectors)))]
    return n, m, tuple(gens), Subspace.span(n * m, vectors), tuple(elems)


class TestIntegerValidation:
    @settings(max_examples=300, deadline=None)
    @given(w_prime_validation_case())
    def test_matches_rational_reference(self, case):
        """GroupConfig raises the rational check's first w' message, for the
        same (candidate, generator), and no w' message when it passes."""
        n, m, gens, d, elems = case
        expected = reference_w_prime_error(n, m, gens, d, elems)
        event(expected.split(": ", 1)[1] if expected else "accepted")
        try:
            GroupConfig(GroupSpec(n, m), gens, d, Subspace(n * m, ()), elems)
            message = None
        except ConfigError as exc:
            message = str(exc)
            if not message.startswith("centralizer Weyl candidate"):
                message = None  # a later invariant, checked after every w'
        assert message == expected


class TestSupportPermutations:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from((F(0), F(0), F(1), F(-2, 3))), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_first_permutation_in_lexicographic_order(self, rows):
        """The depth-first search finds the permutation the first match of an
        itertools.permutations scan finds, and fails exactly when none
        exists (a structurally singular factor)."""
        n = len(rows)
        expected = next((p for p in itertools.permutations(range(n))
                         if all(rows[p[j]][j] for j in range(n))), None)
        elem = CentralizerWeylElement((mat(rows),))
        if expected is None:
            with pytest.raises(ValueError, match="factor 1 is singular"):
                elem.support_permutations()
        else:
            assert elem.support_permutations() == (expected,)

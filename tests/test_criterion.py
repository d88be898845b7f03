import ast
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nondiv import criterion
from nondiv import config as config_module
from nondiv.config import ConfigError, GroupConfig, ProblemFile, build_config, parse_problem
from nondiv.criterion import (
    Certificate,
    ConfigInconsistencyError,
    check_general,
    dependence_coefficients,
    replay_certificate,
)
from nondiv.linalg import Subspace, dot, rank, transpose
from nondiv.rootdata import (
    GroupSpec,
    ParabolicSide,
    fundamental_weight,
    parabolic_contains,
)
from nondiv.weyl import (
    CentralizerWeylElement,
    WeylElement,
    act_on_functional,
    act_on_lie,
    identity_centralizer_element,
    weyl_inverse,
)

from helpers import (
    assert_first_hit,
    block_centralizer_torus_vectors,
    check_torus,
    delta_line_subspace,
    delta_vectors,
    diagonal_element,
    diagonal_vector,
    lie_element,
    mat_mul,
    sl2_swap_config,
    sl_block_generators,
    so21_config,
    so21_d_vectors,
    scan_order,
    signed_permutation_matrix,
    torus_config,
    transport_inverse,
    w_prime,
)
from first_hit import first_hit


class TestModuleBoundaries:
    def test_the_instance_is_imported_from_config(self):
        """`criterion` holds the search: no module imports `GroupConfig` or
        `ConfigError` from it, and `config` imports nothing from it."""
        root = Path(__file__).resolve().parent.parent
        files = sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
        assert root / "src" / "nondiv" / "config.py" in files
        for path in files:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    from_criterion = (node.module or "").split(".")[-1] == "criterion"
                    assert not (from_criterion and names & {"GroupConfig", "ConfigError"}), \
                        path
                    if path.name == "config.py":
                        assert not from_criterion and "criterion" not in names
                elif isinstance(node, ast.Import) and path.name == "config.py":
                    assert not any("criterion" in alias.name for alias in node.names)


class TestIntegerEvaluation:
    """E(w) = sum_k T_k[p_k], divided by n and the basis scales, is the
    rational evaluation matrix [w(chi_i)(b)]."""

    @staticmethod
    def _trace_zero_basis(rng, n, m, dim):
        basis = []
        for _ in range(dim):
            v = []
            for _ in range(m):
                block = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                mean = sum(block, F(0)) / n
                v.extend(x - mean for x in block)
            basis.append(tuple(v))
        return basis

    def test_weyl_index_decode(self):
        spec = GroupSpec(3, 2)
        perms = itertools.product(itertools.permutations(range(3)), repeat=2)
        for idx, p in enumerate(perms):
            assert criterion._weyl_by_index(spec, idx) == WeylElement(p)

    def test_evaluation_matches_rational_dot(self):
        rng = random.Random(2209)
        for _ in range(40):
            n, m = rng.randint(2, 4), rng.randint(1, 3)
            spec = GroupSpec(n, m)
            basis = self._trace_zero_basis(rng, n, m, rng.randint(0, 3))
            scales = [math.lcm(*(x.denominator for x in b)) for b in basis]
            tables = criterion._factor_tables(spec, basis)
            base, total = math.factorial(n), math.factorial(n) ** m
            for idx in rng.sample(range(total), min(total, 30)):
                digits = criterion._weyl_digits(idx, base, m)
                evaluation = criterion._evaluation(tables, digits)
                w = criterion._weyl_by_index(spec, idx)
                for i in range(1, spec.rank + 1):
                    f = act_on_functional(w, fundamental_weight(spec, i))
                    assert all(isinstance(e, int) for e in evaluation[i - 1])
                    assert [F(e, n * s) for e, s in zip(evaluation[i - 1], scales)] \
                        == [dot(f, b) for b in basis]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_config(name):
    return build_config(parse_problem((CONFIGS / name).read_text(encoding="utf-8")))


def exact_good_cuts(spec, gens, w):
    """G(w) by exact conjugation: the cuts at which every generator moved by
    w^-1 lies in both the standard and the opposite parabolic."""
    moved = [act_on_lie(weyl_inverse(w), g) for g in gens]
    return tuple(i for i in range(1, spec.rank + 1)
                 if all(parabolic_contains(spec, [i], g, side)
                        for g in moved for side in ParabolicSide))


def mask_good_cuts(spec, masks, idx):
    good = -1
    for table, d in zip(masks, criterion._weyl_digits(idx, math.factorial(spec.n), spec.m)):
        good &= table[d]
    return tuple(i for i in range(1, spec.rank + 1) if good >> (i - 1) & 1)


@st.composite
def sparse_generators(draw):
    """(spec, generators, Weyl indices): a few trace-zero generators with a
    random sparse pattern of integer entries."""
    n, m = draw(st.sampled_from((3, 4))), draw(st.sampled_from((1, 2)))
    spec = GroupSpec(n, m)
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [[[F(0)] * n for _ in range(n)] for _ in range(m)]
        for k, a, b in draw(st.lists(cells, min_size=1, max_size=4)):
            if a != b:
                factors[k][a][b] = F(draw(st.integers(1, 3) | st.integers(-3, -1)))
        k, a = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 2))
        factors[k][a][a], factors[k][a + 1][a + 1] = F(1), F(-1)
        gens.append(lie_element(factors))
    indices = draw(st.lists(st.integers(0, math.factorial(n) ** m - 1),
                            min_size=1, max_size=12))
    return spec, tuple(gens), indices


class TestCutMasks:
    """G(w) from the per-factor masks is the exact parabolic filter."""

    @pytest.mark.parametrize("name", ["example2.cfg", "example2-line.cfg", "so21-helper"])
    def test_matches_exact_filter_on_every_w(self, name):
        config = (so21_config(so21_d_vectors()) if name == "so21-helper"
                  else shipped_config(name))
        spec, gens = config.spec, config.m_generators
        masks = criterion._cut_masks(spec, gens)
        for idx, w in enumerate(scan_order(spec)):
            assert mask_good_cuts(spec, masks, idx) == exact_good_cuts(spec, gens, w)

    @settings(max_examples=150, deadline=None)
    @given(sparse_generators())
    def test_matches_exact_filter_on_random_generators(self, case):
        spec, gens, indices = case
        masks = criterion._cut_masks(spec, gens)
        for idx in indices:
            assert mask_good_cuts(spec, masks, idx) == \
                exact_good_cuts(spec, gens, criterion._weyl_by_index(spec, idx))

    def test_one_rank_test_per_w_prime_class(self, monkeypatch):
        # example2.cfg: the 24 w' transport Lie(A) to one subspace, and each
        # of the 288 admissible w has one cut and an independent family; the
        # relabelled u fall into 8 orbits of the stabilizers of their masks.
        config = shipped_config("example2.cfg")
        calls = []

        def counted(rows):
            calls.append(rows)
            return rank(rows)

        monkeypatch.setattr(criterion, "rank", counted)
        verdict = check_general(config)
        assert verdict.nondivergent and verdict.stats.pairs_admissible == 288
        assert len(config.centralizer_weyl) == 24 and len(calls) == 8


@st.composite
def relabelling_cases(draw):
    """(config, w index, w' index, subset) on the non-monomial config,
    example2.cfg or an SO(2,1) instance with a random Lie(A) inside Lie(D)."""
    name = draw(st.sampled_from(("example2-nonmonomial.cfg", "example2.cfg", "so21")))
    if name == "so21":
        d = so21_d_vectors()
        coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                               min_size=1, max_size=3))
        config = so21_config([tuple(sum((c * v[j] for c, v in zip(row, d)), F(0))
                                    for j in range(8)) for row in coeffs])
    else:
        config = shipped_config(name)
    spec = config.spec
    w_idx = draw(st.integers(0, math.factorial(spec.n) ** spec.m - 1))
    wp_idx = draw(st.integers(0, len(config.centralizer_weyl) - 1))
    subset = draw(st.lists(st.integers(1, spec.rank), min_size=1, unique=True))
    return config, w_idx, wp_idx, sorted(subset)


class TestRelabelling:
    """The rank of w's rows on Ad(w'^-1) Lie(A) is the rank of the relabelled
    Weyl element's rows on Lie(A) itself."""

    @settings(max_examples=80, deadline=None)
    @given(relabelling_cases())
    def test_relabelled_rank_is_transported_rank(self, case):
        config, w_idx, wp_idx, subset = case
        spec = config.spec
        wp = config.centralizer_weyl[wp_idx]
        [(_, relabel)] = criterion._relabellings(spec, [config.sigmas[wp_idx]])
        digits = criterion._weyl_digits(w_idx, math.factorial(spec.n), spec.m)
        if relabel is not None:
            digits = [table[d] for table, d in zip(relabel, digits)]
        rows = criterion._evaluation(
            criterion._factor_tables(spec, config.a_basis.basis), digits)
        w = criterion._weyl_by_index(spec, w_idx)
        transported = [transport_inverse(wp, b) for b in config.a_basis.basis]
        direct = [[dot(act_on_functional(w, fundamental_weight(spec, i)), t)
                   for t in transported] for i in subset]
        assert rank([rows[i - 1] for i in subset]) == rank(direct)

    def test_non_monomial_w_prime_relabels_lie_d_like_its_monomial_factor(self):
        config = shipped_config("example2-nonmonomial.cfg")
        monomial, rotated = config.centralizer_weyl[1:]
        assert any(e not in (0, 1, -1) for row in rotated.matrices[1] for e in row)
        sigmas = [e.support_permutations() for e in (monomial, rotated)]
        assert sigmas == [((0, 1, 2, 3), (1, 0, 3, 2)), ((0, 1, 2, 3), (0, 1, 3, 2))]
        for v in config.d_basis.basis:
            moved = [tuple(v[4 * k + j] for k, s in enumerate(sigma) for j in s)
                     for sigma in sigmas]
            assert moved[0] == moved[1] == transport_inverse(monomial, v) \
                == transport_inverse(rotated, v)
        assert config.sigmas[1:] == tuple(sigmas)
        assert [i for i, _ in criterion._relabellings(config.spec,
                                                      config.sigmas)] == [0, 1, 2]


def cut_blocks(n, cuts):
    """The blocks of positions between consecutive cuts."""
    bounds = (0, *cuts, n)
    return [tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def cut_rows(n, perms, cuts, basis):
    """Rows [u(chi_i)(b) for b in basis] for i in cuts, from the definition."""
    return [[sum(b[k * n + p[j]] for k, p in enumerate(perms) for j in range(i))
             for b in basis] for i in cuts]


def orbit_key(n, cuts, perms):
    all_perms = list(itertools.permutations(range(n)))
    return criterion._orbit_key(criterion._orbit_tables(n, cuts),
                                [all_perms.index(p) for p in perms])


@st.composite
def stabilizer_cases(draw):
    """(n, cuts, Lie(A) basis, u, u*x) with x in Stab(cuts): a Levi element
    per factor, then one swap of equal-size blocks applied to every factor."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    cuts = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=1))))
    basis = []
    for _ in range(draw(st.integers(0, m * (n - 1)))):
        v = []
        for _ in range(m):
            block = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            v.extend(n * x - sum(block) for x in block)
        basis.append(v)
    u = [tuple(draw(st.permutations(range(n)))) for _ in range(m)]
    blocks = cut_blocks(n, cuts)
    swap = list(range(n))
    pairs = [(s, t) for s, t in itertools.combinations(blocks, 2) if len(s) == len(t)]
    if pairs:
        s, t = draw(st.sampled_from(pairs))
        for a, b in zip(s, t):
            swap[a], swap[b] = b, a
    moved = []
    for p in u:
        levi = [j for block in blocks for j in draw(st.permutations(block))]
        moved.append(tuple(p[levi[swap[j]]] for j in range(n)))
    return n, cuts, basis, u, moved


def stabilizer_orbits(n, m, cuts):
    """The orbits of W = S_n^m under right multiplication by Stab(cuts), by
    closure under its generators: adjacent transpositions inside a block on
    one factor, and swaps of equal-size blocks on every factor."""
    blocks = cut_blocks(n, cuts)
    gens = []
    for block in blocks:
        for a in block[:-1]:
            t = list(range(n))
            t[a], t[a + 1] = a + 1, a
            gens.extend([tuple(t) if k == f else tuple(range(n)) for k in range(m)]
                        for f in range(m))
    for s, t in itertools.combinations(blocks, 2):
        if len(s) == len(t):
            x = list(range(n))
            for a, b in zip(s, t):
                x[a], x[b] = b, a
            gens.append([tuple(x)] * m)
    seen, orbits = set(), []
    for u in itertools.product(itertools.permutations(range(n)), repeat=m):
        if u in seen:
            continue
        orbit, todo = {u}, [u]
        while todo:
            v = todo.pop()
            for g in gens:
                y = tuple(tuple(p[x[j]] for j in range(n)) for p, x in zip(v, g))
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        seen |= orbit
        orbits.append(orbit)
    return orbits


class TestOrbitKey:
    """The cached rank outcome is keyed by the orbit of u under the
    stabilizer of the cut mask."""

    @settings(max_examples=300, deadline=None)
    @given(stabilizer_cases())
    def test_rank_and_key_are_stabilizer_invariant(self, case):
        n, cuts, basis, u, moved = case
        assert rank(cut_rows(n, u, cuts, basis)) == rank(cut_rows(n, moved, cuts, basis))
        assert orbit_key(n, cuts, u) == orbit_key(n, cuts, moved)

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_full_mask_has_one_key_per_diagonal_orbit(self, n, m):
        tables = criterion._orbit_tables(n, tuple(range(1, n)))
        keys = {criterion._orbit_key(tables, digits)
                for digits in itertools.product(range(math.factorial(n)), repeat=m)}
        assert len(keys) == math.factorial(n) ** (m - 1)

    def test_rows_are_built_only_for_first_digits_met(self, monkeypatch):
        """All full-mask rows would be (7!)^2 = 25.4M entries at n = 7; an
        m = 1 exhaust needs none of them, and an m = 2 one a row per x."""
        built = []

        def spy(n, cuts):
            built.append(real(n, cuts))
            return built[-1]

        real = criterion._orbit_tables
        monkeypatch.setattr(criterion, "_orbit_tables", spy)
        for n, m, rows in [(7, 1, 0), (3, 2, 6)]:
            built.clear()
            spec = GroupSpec(n, m)
            verdict = check_torus(spec, spec.full_subspace())
            assert verdict.nondivergent
            assert verdict.stats.weyl_order == math.factorial(n) ** m
            (tables,) = built
            assert sum(row is not None for row in tables[2]) == rows

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 1), (4, 2)])
    def test_keys_are_exactly_the_orbits(self, n, m):
        for size in range(1, n):
            for cuts in itertools.combinations(range(1, n), size):
                keys = [{orbit_key(n, cuts, u) for u in orbit}
                        for orbit in stabilizer_orbits(n, m, cuts)]
                assert all(len(k) == 1 for k in keys), cuts
                assert len(set.union(*keys)) == len(keys), cuts


def block_config(n, m, size, factor, pos, coefficients):
    """An sl_size block M at `pos` in one factor of SL_n^m, Lie(D) its
    centralizer torus and Lie(A) spanned by the given combinations of the
    Lie(D) basis."""
    d = block_centralizer_torus_vectors(n, m, {factor}, pos, size)
    a = [tuple(sum((c * v[j] for c, v in zip(row, d)), F(0)) for j in range(n * m))
         for row in coefficients]
    return GroupConfig(GroupSpec(n, m), sl_block_generators(n, m, factor, pos, size),
                       Subspace.span(n * m, d), Subspace.span(n * m, a), ())


class TestScanAgainstOracle:
    """G(w) takes several cut masks on these configs, and a rank cache
    whose key ignores the mask (one orbit table, or one outcome table, for
    every mask) misses or moves the first hit on each of them."""

    @pytest.mark.parametrize("case", [
        (3, 2, 2, 1, 0, [[-2, 0, -2]]),
        (4, 2, 3, 0, 0, [[0, 1, 2, 0]]),
        (4, 1, 2, 0, 1, [[-1, -1]]),
        (5, 1, 3, 0, 0, [[1, 2]]),
    ])
    def test_block_configs_match_the_engine_free_oracle(self, case):
        config = block_config(*case)
        assert_first_hit(config, check_general(config))


class TestCheckTorus:
    def test_example1_family_n2(self):
        expected = {1: True, 2: False, 3: True, 4: False, 5: True}
        for m, nondiv in expected.items():
            spec = GroupSpec(2, m)
            verdict = check_torus(spec, delta_line_subspace(2, m))
            assert verdict.nondivergent == nondiv, f"m={m}"

    def test_example1_m2_certificate_shape(self):
        verdict = check_torus(GroupSpec(2, 2), delta_line_subspace(2, 2))
        cert = verdict.certificate
        assert cert.subset == (1,)
        assert cert.w.perms == ((0, 1), (1, 0))
        assert cert.dependence == (F(1),)
        assert cert.integer_dependence == (1,)

    def test_example1_higher_rank_m2(self):
        for n in (3, 4):
            spec = GroupSpec(n, 2)
            verdict = check_torus(spec, Subspace.span(2 * n, delta_vectors(n, 2)))
            assert not verdict.nondivergent
            assert replay_certificate(torus_config(spec, Subspace.span(
                2 * n, delta_vectors(n, 2))), verdict.certificate)

    def test_full_diagonal_m1_nondivergent(self):
        for n in (2, 3, 4):
            spec = GroupSpec(n, 1)
            verdict = check_torus(spec, spec.full_subspace())
            assert verdict.nondivergent
            assert verdict.stats.weyl_order == [2, 6, 24][n - 2]

    def test_zero_subspace_diverges(self):
        spec = GroupSpec(3, 1)
        verdict = check_torus(spec, Subspace(3, ()))
        assert not verdict.nondivergent
        assert verdict.certificate.subset == (1,)
        assert verdict.certificate.dependence == (F(1),)

    def test_rejects_non_cartan_vectors(self):
        with pytest.raises(ConfigError):
            check_torus(GroupSpec(2, 1), Subspace.span(2, [[1, 1]]))


class TestDependenceCoefficients:
    def test_diagonal_pair(self):
        w = Subspace.span(2, [[1, 1]])
        funcs = [(F(1), F(0)), (F(0), F(1))]
        assert dependence_coefficients(funcs, w) == (1, -1)

    def test_independent_returns_none(self):
        w = Subspace.span(2, [[1, 0], [0, 1]])
        funcs = [(F(1), F(0)), (F(0), F(1))]
        assert dependence_coefficients(funcs, w) is None

    def test_single_vanishing_functional(self):
        spec = GroupSpec(2, 2)
        w = WeylElement(((0, 1), (1, 0)))
        moved = act_on_functional(w, fundamental_weight(spec, 1))
        coeffs = dependence_coefficients([moved], delta_line_subspace(2, 2))
        assert coeffs == (1,)

    def test_rational_when_not_integral(self):
        w = Subspace.span(2, [[1, 1]])
        funcs = [(F(1, 3), F(0)), (F(0), F(1))]
        coeffs = dependence_coefficients(funcs, w)
        assert coeffs is not None
        assert sum(c * dot(f, (F(1), F(1))) for c, f in zip(coeffs, funcs)) == 0


class TestCheckGeneral:
    def test_so21_a_equals_d_nondivergent(self):
        config = so21_config(so21_d_vectors())
        verdict = check_general(config)
        assert verdict.nondivergent
        assert verdict.stats.pairs_admissible == 288
        assert verdict.stats.pairs_examined == 7 * 576

    def test_so21_factor2_line_certificate(self):
        a = [tuple([F(0)] * 4 + [F(1), F(-1), F(0), F(0)])]
        config = so21_config(a)
        verdict = check_general(config)
        assert not verdict.nondivergent
        cert = verdict.certificate
        assert cert.subset == (1,)
        assert replay_certificate(config, cert)

    def test_later_w_prime_can_hit_an_earlier_subset(self):
        # At w = id, w' = id first hits I = {1, 2}; the swap w' hits I = {1}.
        config = sl2_swap_config([[F(-2), F(0), F(1), F(1)]])
        cert = check_general(config).certificate
        assert (cert.subset, cert.w.perms, cert.w_prime_index) == ((1,), ((0, 1, 2, 3),), 1)

    def test_block_config_a_equals_d(self):
        spec = GroupSpec(4, 1)
        gens = sl_block_generators(4, 1, 0, 0, 2)
        d = Subspace.span(4, block_centralizer_torus_vectors(4, 1, {0}, 0, 2))
        cw = (identity_centralizer_element(spec),)
        config = GroupConfig(spec, gens, d, d, cw)
        verdict = check_general(config)
        assert verdict.nondivergent

    def test_block_config_small_a_certificate(self):
        # Lie(A) = the kernel line of chi_2 inside the block torus diverges.
        spec = GroupSpec(4, 1)
        gens = sl_block_generators(4, 1, 0, 0, 2)
        d = Subspace.span(4, block_centralizer_torus_vectors(4, 1, {0}, 0, 2))
        a = Subspace.span(4, [[F(0), F(0), F(1), F(-1)]])
        cw = (identity_centralizer_element(spec),)
        config = GroupConfig(spec, gens, d, a, cw)
        verdict = check_general(config)
        assert not verdict.nondivergent
        assert replay_certificate(config, verdict.certificate)

    def test_declared_d_not_maximal_aborts(self):
        # With Lie(D) declared as a line, two admissible transported weights
        # become dependent on it, which the runtime audit must flag.
        spec = GroupSpec(4, 1)
        gens = sl_block_generators(4, 1, 0, 0, 2)
        line = Subspace.span(4, [[F(1), F(1), F(-1), F(-1)]])
        cw = (identity_centralizer_element(spec),)
        config = GroupConfig(spec, gens, line, line, cw)
        with pytest.raises(ConfigInconsistencyError) as err:
            check_general(config)
        # Lie(A) = Lie(D), so the audited hit is the least hit on Lie(A).
        subset, perms, _, _ = first_hit(4, 1, [g.factors for g in gens], line.basis,
                                        [e.matrices for e in config.centralizer_weyl])
        w_idx = [w.perms for w in scan_order(spec)].index(perms)
        assert f"weights {subset} are dependent on Lie(D)" in str(err.value)
        assert f"(Weyl #{w_idx});" in str(err.value)
        assert "not maximal" in str(err.value)


EXAMPLE2_V_GENERATORS = (
    # d-basis combinations b0 - 2*b3, b1 - 2*b3, b2: projects onto every
    # transported weight span (certified below).
    tuple([F(3), F(-1), F(-1), F(-1), F(0), F(0), F(-2), F(2)]),
    tuple([F(0), F(0), F(0), F(0), F(1), F(-1), F(-2), F(2)]),
    tuple([F(0), F(0), F(0), F(0), F(0), F(1), F(-1), F(0)]),
)


class TestExample2FullInstance:
    def test_v_projects_onto_every_weight_span(self):
        spec = GroupSpec(4, 2)
        chis = [fundamental_weight(spec, i) for i in (1, 2, 3)]
        config = so21_config(list(EXAMPLE2_V_GENERATORS))
        assert config.a_basis.dim == 3
        funcs_by_w = [[act_on_functional(w, chi) for chi in chis]
                      for w in scan_order(spec)]
        for wp in config.centralizer_weyl:
            transported = [transport_inverse(wp, b) for b in config.a_basis.basis]
            for funcs in funcs_by_w:
                evaluation = [[dot(f, b) for b in transported] for f in funcs]
                assert rank(evaluation) == 3
        verdict = check_general(config)
        assert verdict.nondivergent


class TestReplay:
    def _m2_setup(self):
        spec = GroupSpec(3, 2)
        a = Subspace.span(6, delta_vectors(3, 2))
        config = torus_config(spec, a)
        verdict = check_general(config)
        return config, verdict.certificate

    def test_round_trip(self):
        config, cert = self._m2_setup()
        assert replay_certificate(config, cert)

    def test_perturbed_coefficient_fails(self):
        config, cert = self._m2_setup()
        assert len(cert.dependence) >= 2  # multi-term dependence
        bad = Certificate(cert.subset, cert.w, cert.w_prime, cert.w_prime_index,
                          (cert.dependence[0] + 1,) + cert.dependence[1:], None)
        assert not replay_certificate(config, bad)

    def test_zeroed_coefficients_fail(self):
        config, cert = self._m2_setup()
        bad = Certificate(cert.subset, cert.w, cert.w_prime, cert.w_prime_index,
                          tuple(F(0) for _ in cert.dependence), None)
        assert not replay_certificate(config, bad)

    def test_forged_subset_fails(self):
        a = [tuple([F(0)] * 4 + [F(1), F(-1), F(0), F(0)])]
        config = so21_config(a)
        cert = check_general(config).certificate
        # enlarging I past the admissible cuts must break a containment
        forged = Certificate((1, 2), cert.w, cert.w_prime, cert.w_prime_index,
                             (cert.dependence[0], F(0)), None)
        assert not replay_certificate(config, forged)

    def test_unsorted_subset_rejected(self):
        config, cert = self._m2_setup()
        if len(cert.subset) >= 2:
            bad = Certificate(tuple(reversed(cert.subset)), cert.w, cert.w_prime,
                              cert.w_prime_index, cert.dependence,
                              cert.integer_dependence)
            assert not replay_certificate(config, bad)

    def test_foreign_centralizer_rejected(self):
        config, cert = self._m2_setup()
        bad = Certificate(cert.subset, cert.w, cert.w_prime, 5, cert.dependence,
                          cert.integer_dependence)
        assert not replay_certificate(config, bad)


class TestInvariants:
    def test_dependence_restricts_to_subspaces(self):
        # A vanishing combination on W2 vanishes on every W1 inside W2.
        spec = GroupSpec(3, 2)
        a2 = Subspace.span(6, delta_vectors(3, 2))
        verdict = check_torus(spec, a2)
        cert = verdict.certificate
        funcs = [act_on_functional(cert.w, fundamental_weight(spec, i))
                 for i in cert.subset]
        combo = [sum((c * f[j] for c, f in zip(cert.dependence, funcs)), F(0))
                 for j in range(6)]
        for sub_vec in a2.basis:
            w1 = Subspace.span(6, [sub_vec])
            for b in w1.basis:
                assert dot(combo, b) == 0

    def test_weyl_conjugation_preserves_verdict(self):
        rng = random.Random(77)
        a_vecs = [tuple([F(0)] * 4 + [F(1), F(-1), F(0), F(0)])]
        base_config = so21_config(a_vecs)
        base = check_general(base_config).nondivergent

        perms = []
        for _ in range(2):
            p = list(range(4))
            rng.shuffle(p)
            perms.append(tuple(p))
        g = WeylElement(tuple(perms))

        spec = base_config.spec
        gens = tuple(act_on_lie(g, x) for x in base_config.m_generators)
        relabel = lambda v: diagonal_vector(act_on_lie(g, diagonal_element(v, spec.n)))
        d = Subspace.span(8, [relabel(v) for v in base_config.d_basis.basis])
        a = Subspace.span(8, [relabel(v) for v in base_config.a_basis.basis])
        reps = [signed_permutation_matrix(p) for p in g.perms]
        cws = tuple(
            w_prime(mat_mul(mat_mul(r, f), transpose(r))
                    for r, f in zip(reps, elem.matrices))
            for elem in base_config.centralizer_weyl)
        conj_config = GroupConfig(spec, gens, d, a, cws)
        assert check_general(conj_config).nondivergent == base


class TestConfigValidation:
    def test_a_outside_d_rejected(self):
        # M = the sl_2 block on e_1, e_2 and Lie(D) its centralizer torus, so
        # Lie(A) outside Lie(D) is the only fault.
        spec = GroupSpec(3, 1)
        gens = sl_block_generators(3, 1, 0, 0, 2)
        d = Subspace.span(3, block_centralizer_torus_vectors(3, 1, {0}, 0, 2))
        a = Subspace.span(3, [[F(1), F(-1), F(0)]])
        with pytest.raises(ConfigError, match=r"Lie\(A\) is not contained in Lie\(D\)"):
            GroupConfig(spec, gens, d, a, (identity_centralizer_element(spec),))

    def test_trivial_m_needs_full_d(self):
        spec = GroupSpec(3, 1)
        d = Subspace.span(3, [[F(1), F(-1), F(0)]])
        with pytest.raises(ConfigError):
            GroupConfig(spec, (), d, d, (identity_centralizer_element(spec),))

    def test_non_commuting_d_rejected(self):
        spec = GroupSpec(3, 1)
        gens = sl_block_generators(3, 1, 0, 0, 2)
        d = spec.full_subspace()  # full torus does not commute with the block
        with pytest.raises(ConfigError):
            GroupConfig(spec, gens, d, d, (identity_centralizer_element(spec),))

    def test_zero_generator_rejected(self):
        spec = GroupSpec(2, 1)
        zero = lie_element([[[0, 0], [0, 0]]])
        with pytest.raises(ConfigError):
            GroupConfig(spec, (zero,), spec.full_subspace(), spec.full_subspace(),
                        (identity_centralizer_element(spec),))

    def _sl2_block(self):
        """SL_4 with M = the sl_2 block on e_3, e_4 and Lie(D) its
        centralizer torus."""
        spec = GroupSpec(4, 1)
        gens = sl_block_generators(4, 1, 0, 2, 2)
        d = Subspace.span(4, block_centralizer_torus_vectors(4, 1, {0}, 2, 2))
        return spec, gens, d

    def test_bad_generator_is_named_by_number(self):
        # generator #1 is valid, so the message must count to the bad #2
        spec, gens, d = self._sl2_block()
        identity = (identity_centralizer_element(spec),)
        for bad, message in ((lie_element([[[1, 0], [0, -1]]]), "has wrong shape"),
                             (lie_element([[[0] * 4] * 4]), "is zero")):
            with pytest.raises(ConfigError, match=f"^M generator #2 {message}$"):
                GroupConfig(spec, (gens[0], bad), d, d, identity)

    def test_non_centralizing_w_prime_rejected(self):
        spec, gens, d = self._sl2_block()
        swap = w_prime((signed_permutation_matrix((0, 2, 1, 3)),))
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #2: "
                                              "does not centralize M generator #1"):
            GroupConfig(spec, gens, d, d, (identity_centralizer_element(spec), swap))

    def test_non_normalizing_w_prime_rejected(self):
        spec, gens, d = self._sl2_block()
        shear = w_prime(([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],))
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #1: "
                                              "does not normalize D"):
            GroupConfig(spec, gens, d, d, (shear,))

    def test_singular_w_prime_factor_rejected(self):
        # the determinant check comes before any transport, so the zero
        # column never reaches one
        spec = GroupSpec(2, 1)
        full = spec.full_subspace()
        singular = CentralizerWeylElement((((0, 0), (0, 1)),))
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #1: "
                                              "determinant is not 1 in factor 1$"):
            GroupConfig(spec, (), full, full, (singular,))

    def test_w_prime_with_a_factor_of_determinant_minus_one_rejected(self):
        # diag(-1, 1) in both factors has determinant 1 as a product, and it
        # centralizes trivial M and fixes every Cartan vector; w' must still
        # lie in Res SL_2, so each factor must have determinant 1
        spec = GroupSpec(2, 2)
        full = spec.full_subspace()
        flip = ((F(-1), F(0)), (F(0), F(1)))
        with pytest.raises(ConfigError, match="centralizer Weyl candidate #2: "
                                              "determinant is not 1 in factor 1$"):
            GroupConfig(spec, (), full, full,
                        (identity_centralizer_element(spec), w_prime((flip, flip))))

    def test_build_work_count(self, monkeypatch):
        """example2.cfg (24 w'): Subspace.span runs for Lie(D) and Lie(A)
        only, at most 27 distinct (w' factor, generator factor) pairs are
        decided: factor 1 of every w' is the identity (3 pairs with the
        three generators) and factor 2 of every generator is zero (24), and
        one determinant is taken per distinct w' factor (24: the identity
        and the other 23 signed permutations).  A trivial-M file lists no
        w', and the identity prepended to it takes no determinant."""
        problem = parse_problem((CONFIGS / "example2.cfg").read_text())
        spans, pairs, dets = [], [], []
        span = Subspace.span.__func__
        commutes = config_module.commutes
        det = config_module.det

        def counted_span(cls, ambient_dim, vectors):
            vectors = list(vectors)
            spans.append(tuple(map(tuple, vectors)))
            return span(cls, ambient_dim, vectors)

        def counted_commutes(a, b):
            pairs.append((a, b))
            return commutes(a, b)

        def counted_det(f):
            dets.append(f)
            return det(f)

        monkeypatch.setattr(Subspace, "span", classmethod(counted_span))
        monkeypatch.setattr(config_module, "commutes", counted_commutes)
        monkeypatch.setattr(config_module, "det", counted_det)
        config = build_config(problem)
        assert len(config.centralizer_weyl) == 24 and len(config.m_generators) == 3
        assert spans == [problem.d_vectors, problem.a_vectors]
        assert len(pairs) == len(set(pairs)) <= 27
        assert len(dets) == len(set(dets)) == 24
        assert set(dets) == {f for e in problem.centralizer_elements for f in e}
        dets.clear()
        torus = build_config(parse_problem((CONFIGS / "example1-m2.cfg").read_text()))
        assert torus.centralizer_weyl[0].is_identity() and dets == []

    def test_identity_prepended_as_from_a_file(self):
        problem = parse_problem((CONFIGS / "example2-line.cfg").read_text())
        assert problem.centralizer_elements[0] == (
            identity_centralizer_element(problem.spec).matrices)
        problem = ProblemFile(
            problem.spec, problem.m_generators, problem.d_vectors,
            problem.a_vectors, problem.centralizer_elements[1:], problem.probe)
        in_code = GroupConfig(
            problem.spec, problem.m_generators,
            Subspace.span(8, problem.d_vectors), Subspace.span(8, problem.a_vectors),
            tuple(map(w_prime, problem.centralizer_elements)))
        assert in_code == build_config(problem)
        assert in_code.centralizer_weyl[0] == identity_centralizer_element(problem.spec)
        assert len(in_code.centralizer_weyl) == 24

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_commute_check_matches_reference_commutator(self, data):
        """The closed-form check v_a = v_b at the nonzero off-diagonal X_ab
        rejects exactly when some [diag(v), X] is nonzero, and names the
        first such generator in (Lie(D) basis, generator) order."""
        n = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, 2))
        spec = GroupSpec(n, m)
        raw = data.draw(st.lists(st.lists(st.sampled_from([0, 1, 2]), min_size=n * m,
                                          max_size=n * m), min_size=1, max_size=3))
        d = Subspace.span(n * m, [spec.trace_zero_part([F(x) for x in v]) for v in raw])
        positions = [(k, a, b) for k in range(m) for a in range(n) for b in range(n)
                     if a != b]
        if data.draw(st.booleans()):  # only entries every D vector commutes with
            positions = [(k, a, b) for k, a, b in positions
                         if all(v[k * n + a] == v[k * n + b] for v in d.basis)]
        gens = []
        for _ in range(data.draw(st.integers(1, 3))):
            rows = [[[F(0)] * n for _ in range(n)] for _ in range(m)]
            rows[0][0][0], rows[0][1][1] = F(1), F(-1)
            if positions:
                for k, a, b in data.draw(st.lists(st.sampled_from(positions),
                                                  max_size=3)):
                    rows[k][a][b] = F(data.draw(st.sampled_from([-2, -1, 1, 3])))
            gens.append(lie_element(rows))
        expected = next((gi + 1 for v in d.basis for gi, gen in enumerate(gens)
                         if any(any(row) for row in
                                reference_commutator(diagonal_element(v, n), gen))),
                        None)
        build = lambda: GroupConfig(spec, tuple(gens), d, Subspace(n * m, ()), ())
        if expected is None:
            assert build().d_basis == d
        else:
            with pytest.raises(ConfigError, match=r"Lie\(D\) does not commute with "
                                                  f"M generator #{expected}$"):
                build()


def reference_commutator(x, y):
    """Rows of [x, y] = xy - yx by dense products, factor after factor."""
    rows = []
    for a, b in zip(x.factors, y.factors):
        n = len(a)
        rows.extend([sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n))
                     for j in range(n)] for i in range(n))
    return rows

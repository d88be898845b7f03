"""Acceptance suite: one test (and one printed pass line) per criterion."""

import itertools
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

from nondiv import cli
from nondiv.config import build_config, parse_problem
from nondiv.criterion import GroupConfig, check_general, replay_certificate
from nondiv.lattice import QuadraticOrder, orbit_probe, realize_divergence_sequence
from nondiv.linalg import Subspace, rank
from nondiv.report import verdict_fields
from nondiv.rootdata import GroupSpec, ParabolicSide
from nondiv.weyl import identity_centralizer_element
from nondiv.witness import (
    HSampler,
    build_escape_witness,
    sqrt_rounded,
    verify_divergence,
    wedge_norm,
)

from helpers import (
    a_point,
    assert_first_hit,
    block_centralizer_torus_vectors,
    check_torus,
    closed_form_torus_norm,
    delta_line_subspace,
    delta_vectors,
    dense_wedge_norm,
    sl2_swap_config,
    sl_block_generators,
    so21_config,
    so21_d_vectors,
    torus_config,
)
from reference_linalg import (
    StrictRegion,
    exp_cartan,
    float_mat_mul,
    integral_kernel_vector,
    invdim,
    project_subspace,
    restricted_independent,
)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def _line(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", flush=True)


def test_criterion_1_example1_verdict_table():
    expected = {1: True, 2: False, 3: True, 4: False, 5: True}
    t0 = time.perf_counter()
    verdicts = {}
    for m in range(1, 6):
        spec = GroupSpec(2, m)
        verdicts[m] = check_torus(spec, delta_line_subspace(2, m)).nondivergent
    elapsed = time.perf_counter() - t0
    assert verdicts == expected
    assert elapsed < 5.0
    _line(1, f"n=2 verdicts for m=1..5 exact in {elapsed:.2f}s")


def test_criterion_2_example1_higher_rank():
    t0 = time.perf_counter()
    for n in (3, 4):
        spec = GroupSpec(n, 2)
        a = Subspace.span(2 * n, delta_vectors(n, 2))
        verdict = check_torus(spec, a)
        assert not verdict.nondivergent
        assert replay_certificate(torus_config(spec, a), verdict.certificate)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(2, f"Res SL3/SL4 (m=2) certified divergent with replay in {elapsed:.2f}s")


def test_criterion_3_a_equals_d_property():
    rng = random.Random(0xC0FFEE)
    checked = 0
    for _ in range(50):
        n = rng.choice([3, 3, 4])
        m = rng.choice([1, 2])
        size = rng.randint(2, n - 1)
        pos = rng.randint(0, n - size)
        diagonal = (m == 2 and rng.random() < 0.3)
        factor = rng.randrange(m)
        blocks = set(range(m)) if diagonal else {factor}
        spec = GroupSpec(n, m)
        gens = sl_block_generators(n, m, factor, pos, size, diagonal=diagonal)
        d = Subspace.span(n * m, block_centralizer_torus_vectors(
            n, m, blocks, pos, size))
        config = GroupConfig(spec, gens, d, d,
                             (identity_centralizer_element(spec),))
        verdict = check_general(config)
        assert verdict.nondivergent, (n, m, size, pos, diagonal)
        checked += 1
    assert checked == 50
    _line(3, "50 random block configurations with A = D all uniformly nondivergent")


def test_criterion_4_trivial_m_equivalence():
    """Certificates are the first (I, w, w') of an engine-free oracle, for
    trivial M and for nontrivial M alike."""
    rng = random.Random(0xBEEF)
    shapes = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    configs = []
    for _ in range(100):
        n, m = rng.choice(shapes)
        spec = GroupSpec(n, m)
        dim = rng.randint(0, m * (n - 1))
        vecs = []
        for _ in range(dim):
            raw = [F(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(spec.ambient_dim)]
            vecs.append(spec.trace_zero_part(raw))
        configs.append(torus_config(spec, Subspace.span(spec.ambient_dim, vecs)))
    # Sums of coroots e_a - e_b, one per factor: the least subset often sits
    # at a later w than the first dependent w, which tells the orders apart.
    for _ in range(30):
        n, m = rng.choice(shapes)
        vecs = []
        for _ in range(rng.randint(1, m * (n - 1))):
            v = [F(0)] * (n * m)
            for k in range(m):
                a, b = rng.sample(range(n), 2)
                c = rng.choice([1, -1, 2])
                v[k * n + a] += c
                v[k * n + b] -= c
            vecs.append(v)
        configs.append(torus_config(GroupSpec(n, m), Subspace.span(n * m, vecs)))
    factor2_line = [tuple([F(0)] * 4 + [F(1), F(-1), F(0), F(0)])]
    configs += [so21_config(factor2_line), so21_config(so21_d_vectors()[1:3]),
                sl2_swap_config([[F(-2), F(0), F(1), F(1)]]),
                sl2_swap_config([[F(1), F(-1), F(0), F(0)]])]
    configs += [build_config(parse_problem(path.read_text(encoding="utf-8"), str(path)))
                for path in sorted(CONFIGS.glob("example2*.cfg"))]
    verdicts = [check_general(config) for config in configs]
    for config, verdict in zip(configs, verdicts):
        assert_first_hit(config, verdict)
    assert {v.nondivergent for v in verdicts[:130]} == {True, False}
    assert any(v.certificate and v.certificate.w_prime_index for v in verdicts)
    _line(4, f"{len(configs)} configs (130 with trivial M): certificate = first "
             "(I, w, w') of an engine-free oracle")


def test_criterion_5_linear_algebra_suites():
    rng = random.Random(0x5EC5)

    def rand_frac(span=9):
        return F(rng.randint(-span, span), rng.randint(1, 5))

    # sign-orthant spanning, dims 1..5, 200 instances
    for trial in range(200):
        k = 1 + trial % 5
        vs = [[rand_frac() for _ in range(k)] for _ in range(k)]
        while rank(vs) < k:
            vs = [[rand_frac() for _ in range(k)] for _ in range(k)]
        points = []
        for signs in itertools.product((1, -1), repeat=k):
            coeffs = [s * (F(1) + abs(rand_frac())) for s in signs]
            points.append([sum(c * v[j] for c, v in zip(coeffs, vs))
                           for j in range(k)])
        assert rank(points) == k

    # projection equivalence, 200 instances, dims <= 8
    for trial in range(200):
        n = 2 + trial % 7
        k = rng.randint(1, n)
        funcs = [[rand_frac() for _ in range(n)] for _ in range(k)]
        while rank(funcs) < k:
            funcs = [[rand_frac() for _ in range(n)] for _ in range(k)]
        w = Subspace.span(n, [[rand_frac() for _ in range(n)]
                              for _ in range(rng.randint(1, n))])
        duals = Subspace.span(n, funcs)  # each functional is its own dual
        assert restricted_independent(funcs, w) == (project_subspace(w, duals) == duals)

    # integral kernel integrality, 100 integer matrices
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows + 1, rows + 3)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        v = integral_kernel_vector(m)
        assert v is not None and any(v)
        assert all(isinstance(e, int) for e in v)
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
        g = 0
        for e in v:
            a, b = g, abs(e)
            while b:
                a, b = b, a % b
            g = a
        assert g == 1

    # invdim monotonicity and the n-k bound, 100 nested pairs
    for _ in range(100):
        n = rng.randint(2, 5)
        base = []
        for _ in range(rng.randint(1, 3)):
            f = [rand_frac() for _ in range(n)]
            while all(e == 0 for e in f):
                f = [rand_frac() for _ in range(n)]
            base.append((f, rand_frac()))
        extra = []
        for _ in range(rng.randint(1, 2)):
            f = [rand_frac() for _ in range(n)]
            while all(e == 0 for e in f):
                f = [rand_frac() for _ in range(n)]
            extra.append((f, rand_frac()))
        u2 = StrictRegion.of(n, base)
        u1 = StrictRegion.of(n, base + extra)
        assert invdim(u1) <= invdim(u2)
        k = rng.randint(1, n)
        funcs = [[rand_frac() for _ in range(n)] for _ in range(k)]
        while rank(funcs) < k:
            funcs = [[rand_frac() for _ in range(n)] for _ in range(k)]
        region = StrictRegion.of(n, [(f, rand_frac()) for f in funcs])
        assert invdim(region) == n - k

    _line(5, "sign-orthant, projection-equivalence, integral-kernel, invdim suites exact")


def test_criterion_6_witness_decay():
    spec = GroupSpec(2, 2)
    a = delta_line_subspace(2, 2)
    config = torus_config(spec, a)
    verdict = check_torus(spec, a)
    cert = verdict.certificate
    witness = build_escape_witness(cert, config)
    sampler = HSampler.default(config)  # |t| <= 5, 21 points
    report = verify_divergence(cert, witness, [0, 20], sampler, 10 ** 6, config)
    assert report.exact_passed
    rows = {r.n_value: r.max_min_norm for r in report.rows}
    assert rows[20] < 1e-6 * rows[0]
    assert not report.anomalies

    # closed-form cross-check on every torus sample, both sides, both N
    # values: exact base norms at g_0 against dense norms at h * g_N
    lines = [(j, side) for j in cert.subset for side in ParabolicSide]
    bases = [sqrt_rounded(wedge_norm(j, side, cert.w, cert.w_prime)) for j, side in lines]
    for n_val, mats in zip((0, 20), realize_divergence_sequence(cert, witness.v, [0, 20])):
        for coords in sampler.a_coords:
            a_vec = a_point(config, coords)
            h = exp_cartan(spec, a_vec)
            hg = tuple(float_mat_mul(hf, gf) for hf, gf in zip(h, mats))
            for line, base in zip(lines, bases):
                expected = closed_form_torus_norm(config, cert, witness, line,
                                                  a_vec, n_val, base)
                actual = dense_wedge_norm(line, hg)
                assert abs(actual - expected) <= 1e-9 * expected
    # each decay row is the reference at its a-point and the line that is
    # least there
    for row in report.rows:
        coords = sampler.a_coords[sampler.a_labels.index(row.worst_sample)]
        a_vec = a_point(config, coords)
        assert row.max_min_norm == min(
            closed_form_torus_norm(config, cert, witness, line, a_vec, row.n_value, base)
            for line, base in zip(lines, bases))
    _line(6, f"N=20 decay ratio {rows[20] / rows[0]:.2e} < 1e-6 with 1e-9 closed-form agreement")


def test_criterion_7_lattice_probe():
    spec = GroupSpec(2, 2)
    a = delta_line_subspace(2, 2)
    config = torus_config(spec, a)
    verdict = check_torus(spec, a)
    witness = build_escape_witness(verdict.certificate, config)
    elements = realize_divergence_sequence(verdict.certificate, witness.v, [0, 2, 4, 6])
    order = QuadraticOrder(2)
    maxima = {}
    for n_val, mats in zip((0, 2, 4, 6), elements):
        maxima[n_val] = orbit_probe(order, mats, 5.0, 21).maximum
    series = [maxima[n] for n in (0, 2, 4, 6)]
    assert all(x > y for x, y in zip(series, series[1:]))
    assert maxima[6] < 0.5 * maxima[0]
    _line(7, f"probe maxima strictly decreasing: {['%.4f' % v for v in series]}")


def test_criterion_8_worker_determinism(tmp_path):
    # The scan runs in one process whatever `--workers` says, so the one
    # thing that could make these reports wrong is the orbit-keyed rank
    # cache: each report's verdict is also the engine-free oracle's.
    configs = [f"example1-m{m}.cfg" for m in range(1, 6)]
    configs += ["example1-n3-m2.cfg", "example1-n4-m2.cfg"]
    for name in configs:
        seen = set()
        for workers in ("1", "4", "8"):
            out = tmp_path / f"report-{workers}.json"
            code = cli.main(["check", str(CONFIGS / name), "--workers", workers,
                             "--output", str(out)])
            assert code in (0, 10), name
            data = json.loads(out.read_text())
            data.pop("timing", None)
            seen.add(json.dumps(data, sort_keys=True))
        assert len(seen) == 1, f"{name}: reports differ across worker counts"
        config = build_config(parse_problem((CONFIGS / name).read_text(encoding="utf-8")))
        verdict = check_general(config)
        assert_first_hit(config, verdict)
        assert {k: data[k] for k in ("verdict", "certificate", "stats")} == \
            verdict_fields(verdict), name
    _line(8, "reports byte-identical for 1/4/8 workers on criteria 1-2 configs, "
             "each verdict the engine-free oracle's")

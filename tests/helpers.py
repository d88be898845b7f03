"""Shared builders for test configurations."""

import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
from scipy.linalg import expm

from nondiv.config import GroupConfig
from nondiv.criterion import SearchStats, _weyl_by_index, check_general
from nondiv.lattice import realize_divergence_sequence
from nondiv.linalg import Mat, Subspace, dot, vec
from nondiv.rootdata import GroupSpec, LieElement, ParabolicSide, _check_index
from nondiv.weyl import (
    CentralizerWeylElement,
    act_on_functional,
    identity_centralizer_element,
    representative_signs,
    weyl_order,
)

from first_hit import dependence_vanishes, first_hit


def mat(rows) -> Mat:
    """Nested rows as an exact matrix of Fractions; ragged rows are rejected."""
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def signed_permutation_matrix(p):
    """Determinant-one representative of the permutation p: entry (p[i], i)
    is the sign `representative_signs(p)[i]`, every other entry 0."""
    n = len(p)
    rows = [[F(0)] * n for _ in range(n)]
    for i, s in enumerate(representative_signs(p)):
        rows[p[i]][i] = F(s)
    return tuple(tuple(r) for r in rows)


def full_cartan_vectors(n, m):
    out = []
    for k in range(m):
        for j in range(n - 1):
            v = [F(0)] * (n * m)
            v[k * n + j] = F(1)
            v[k * n + j + 1] = F(-1)
            out.append(tuple(v))
    return out


def delta_vectors(n, m):
    """Basis of the diagonally embedded trace-zero torus."""
    out = []
    for j in range(n - 1):
        v = [F(0)] * (n * m)
        for k in range(m):
            v[k * n + j] = F(1)
            v[k * n + j + 1] = F(-1)
        out.append(tuple(v))
    return out


def delta_line_subspace(n, m):
    return Subspace.span(n * m, delta_vectors(n, m))


def w_prime(factors):
    """The centralizer Weyl representative of the given factor matrices, with
    entries converted by `mat`; `GroupConfig` validates it."""
    return CentralizerWeylElement(tuple(mat(f) for f in factors))


def transport_inverse(elem, v):
    """Ad(w'^-1) v = v o sigma on each factor, sigma the support permutations
    of w' (the engine stores it per w' as `GroupConfig.transported_a`)."""
    n = len(elem.matrices[0])
    return tuple(v[k * n + i] for k, sigma in enumerate(elem.support_permutations())
                 for i in sigma)


def scan_order(spec):
    """Every Weyl element, in the order the scan visits them."""
    return [_weyl_by_index(spec, idx) for idx in range(weyl_order(spec))]


def lie_element(factors):
    """The Lie element of nested factor matrices, entries converted by
    `mat`; `LieElement` checks squareness and trace zero."""
    return LieElement(tuple(mat(f) for f in factors))


def _mat_json_obj(m):
    return [[str(e) for e in row] for row in m]


def serialize_problem(problem):
    """Deterministic problem-file text of a parsed `ProblemFile`: the
    round-trip tests' reference writer (`parse_problem` must read it back
    to an equal problem).  The centralizer mode is auto-trivial-m exactly
    when M and the element list are both empty."""
    lines = []
    lines.append("[group]")
    lines.append("family = res-sl")
    lines.append(f"n = {problem.spec.n}")
    lines.append(f"m = {problem.spec.m}")
    lines.append("")
    lines.append("[subgroup-m]")
    if not problem.m_generators:
        lines.append("generators = trivial")
    else:
        gens = [[_mat_json_obj(f) for f in g.factors] for g in problem.m_generators]
        lines.append(f"generators = {json.dumps(gens)}")
    lines.append("")
    lines.append("[torus-d]")
    lines.append("basis = " + json.dumps([[str(e) for e in v]
                                          for v in problem.d_vectors]))
    lines.append("")
    lines.append("[torus-a]")
    lines.append("basis = " + json.dumps([[str(e) for e in v]
                                          for v in problem.a_vectors]))
    lines.append("")
    lines.append("[centralizer-weyl]")
    if not problem.m_generators and not problem.centralizer_elements:
        lines.append("mode = auto-trivial-m")
    else:
        lines.append("mode = explicit")
        elems = [[_mat_json_obj(f) for f in e] for e in problem.centralizer_elements]
        lines.append(f"elements = {json.dumps(elems)}")
    if problem.probe is not None:
        p = problem.probe
        lines.append("")
        lines.append("[probe]")
        lines.append(f"d = {p.d}")
        radius = p.grid_radius
        lines.append(f"grid-radius = {int(radius) if radius == int(radius) else radius}")
        lines.append(f"grid-points = {p.grid_points}")
        lines.append(f"n-values = {json.dumps(list(p.n_values))}")
    return "\n".join(lines) + "\n"


def torus_config(spec, a_basis):
    """Trivial-M configuration over the full Cartan torus."""
    return GroupConfig(spec, (), spec.full_subspace(), a_basis,
                       (identity_centralizer_element(spec),))


def check_torus(spec, a_basis):
    """The torus criterion: the general check of `torus_config`."""
    return check_general(torus_config(spec, a_basis))


def assert_first_hit(config, verdict):
    """The verdict is the engine-free oracle's: the same first (I, w, w') with
    a dependence that vanishes, or the same statistics when there is none."""
    n, m = config.spec.n, config.spec.m
    a = config.a_basis.basis
    mats = [e.matrices for e in config.centralizer_weyl]
    subset, perms, wp_index, admissible = first_hit(
        n, m, [g.factors for g in config.m_generators], a, mats)
    if subset is None:
        assert verdict.nondivergent
        weyl_order = math.factorial(n) ** m
        assert verdict.stats == SearchStats((2 ** (n - 1) - 1) * weyl_order,
                                            admissible, weyl_order)
        return
    cert = verdict.certificate
    assert (cert.subset, cert.w.perms, cert.w_prime_index) == (subset, perms, wp_index)
    for coeffs in (cert.dependence, cert.integer_dependence):
        if coeffs is not None:
            assert any(coeffs)
            assert dependence_vanishes(n, m, a, mats[wp_index], subset, perms, coeffs)


def mat_mul(x, y):
    """Exact square product over the nonzero entries of both operands only:
    a reference for the engine's integer checks, which form no rational
    products."""
    n = len(x)
    y_rows = [[(j, e) for j, e in enumerate(row) if e != 0] for row in y]
    out = []
    for row in x:
        acc = [F(0)] * n
        for k, a in enumerate(row):
            if a != 0:
                for j, b in y_rows[k]:
                    acc[j] += a * b
        out.append(tuple(acc))
    return tuple(out)


def diagonal_element(v, n):
    """The Lie element diag(v), one n x n block per factor."""
    return LieElement(tuple(
        tuple(tuple(v[k + i] if i == j else F(0) for j in range(n)) for i in range(n))
        for k in range(0, len(v), n)))


def diagonal_vector(x):
    """Cartan coordinates of a Lie element, or None if some factor is not
    diagonal."""
    if any(f[i][j] for f in x.factors for i in range(len(f))
           for j in range(len(f)) if i != j):
        return None
    return tuple(f[i][i] for f in x.factors for i in range(len(f)))


def so21_block_element(rows, n=4, m=2, factor=0, offset=1):
    """Embed a 3x3 generator into the given factor at the given offset."""
    mats = []
    for k in range(m):
        mat = [[F(0)] * n for _ in range(n)]
        if k == factor:
            for i in range(3):
                for j in range(3):
                    mat[i + offset][j + offset] = F(rows[i][j])
        mats.append(tuple(tuple(r) for r in mat))
    return LieElement(tuple(mats))


def so21_generators():
    """so(2,1) for the form diag(1,1,-1): one rotation, two boosts."""
    return (
        so21_block_element([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        so21_block_element([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        so21_block_element([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    )


def so21_d_vectors():
    """Lie(D) for the SO(2,1)-block instance: a line in factor 1, full T' in factor 2."""
    vs = [tuple([F(3), F(-1), F(-1), F(-1)] + [F(0)] * 4)]
    for j in range(3):
        v = [F(0)] * 8
        v[4 + j] = F(1)
        v[4 + j + 1] = F(-1)
        vs.append(tuple(v))
    return vs


def so21_centralizer_elements():
    eye4 = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
    return [(eye4, signed_permutation_matrix(p))
            for p in itertools.permutations(range(4))]


def so21_config(a_vectors):
    """Res SL_4 (m=2) with M = SO(2,1) in the lower-right block of factor 1."""
    spec = GroupSpec(4, 2)
    gens = so21_generators()
    d = Subspace.span(8, so21_d_vectors())
    cws = tuple(w_prime(e) for e in so21_centralizer_elements())
    a = Subspace.span(8, a_vectors)
    return GroupConfig(spec, gens, d, a, cws)


def sl2_swap_config(a_vectors):
    """SL_4 with M = SL_2 in the lower-right block, Lie(D) its centralizer
    torus and w' = [id, the signed swap of e_1 and e_2]."""
    spec = GroupSpec(4, 1)
    gens = sl_block_generators(4, 1, 0, 2, 2)
    d = Subspace.span(4, block_centralizer_torus_vectors(4, 1, {0}, 2, 2))
    eye = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
    cws = (w_prime((eye,)),
           w_prime((signed_permutation_matrix((1, 0, 2, 3)),)))
    return GroupConfig(spec, gens, d, Subspace.span(4, a_vectors), cws)


def sl_block_generators(n, m, factor, pos, size, diagonal=False):
    """Generators of an sl_size block at the given position.

    With diagonal=True the block is embedded diagonally across all factors.
    """
    gens = []
    for a in range(pos, pos + size - 1):
        for (i, j) in ((a, a + 1), (a + 1, a)):
            mats = []
            for k in range(m):
                mat = [[F(0)] * n for _ in range(n)]
                if diagonal or k == factor:
                    mat[i][j] = F(1)
                mats.append(tuple(tuple(r) for r in mat))
            gens.append(LieElement(tuple(mats)))
    return tuple(gens)


def block_centralizer_torus_vectors(n, m, factors_with_block, pos, size):
    """Basis of the diagonals commuting with an sl_size block at pos.

    On factors carrying the block the entries over the block are equal; the
    remaining factors contribute their full trace-zero space.
    """
    out = []
    block = set(range(pos, pos + size))
    for k in range(m):
        if k in factors_with_block:
            for u in range(n):
                if u in block:
                    continue
                v = [F(0)] * (n * m)
                v[k * n + u] = F(1)
                for b in block:
                    v[k * n + b] = F(-1, size)
                out.append(tuple(v))
        else:
            for j in range(n - 1):
                v = [F(0)] * (n * m)
                v[k * n + j] = F(1)
                v[k * n + j + 1] = F(-1)
                out.append(tuple(v))
    return out


def gram_cholesky_minimum(basis, bound_sq):
    """Reference Fincke-Pohst search below bound_sq on the columns of `basis`,
    from the Cholesky factor r of the Gram matrix (gram = r^T r), formed from
    the basis itself rather than from any Gram-Schmidt data.

    Returns (min norm squared, integer coefficient vector).
    """
    cols = list(zip(*basis))
    dim = len(cols)
    gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    r = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            s = gram[i][j] - sum(r[k][i] * r[k][j] for k in range(i))
            if j == i:
                if not s > 0.0:
                    raise ValueError("lattice Gram matrix is not positive definite")
                r[i][i] = math.sqrt(s)
            else:
                r[i][j] = s / r[i][i]
    r_cols = list(zip(*r))  # ||Bx||^2 = ||r x||^2
    best_sq = bound_sq * (1 + 1e-12)
    best_x = None
    x = [0] * dim

    def descend(level, partial_sq, carry):
        nonlocal best_sq, best_x
        if level < 0:
            if any(x) and partial_sq < best_sq:
                best_sq, best_x = partial_sq, list(x)
            return
        rem = best_sq - partial_sq
        if rem < 0:
            return
        r_ll = r[level][level]
        center = -carry[level] / r_ll
        half = math.sqrt(rem) / r_ll
        for xi in range(math.ceil(center - half - 1e-9),
                        math.floor(center + half + 1e-9) + 1):
            x[level] = xi
            y = r_ll * xi + carry[level]
            if partial_sq + y * y <= best_sq * (1 + 1e-12):
                descend(level - 1, partial_sq + y * y,
                        [c + xi * rc for c, rc in zip(carry, r_cols[level])])
        x[level] = 0

    descend(dim - 1, 0.0, [0.0] * dim)
    return best_sq, best_x


def m_words(config, count=8, max_len=3, seed=0x5EED):
    """The identity and `count` seeded words in exp(Lie(M)), each a product
    of one to `max_len` factors exp(+-X_i) of the M generators, as (label,
    m float factor arrays); the exponentials come from `scipy.linalg.expm`.
    Trivial M gives the identity alone."""
    n, m = config.spec.n, config.spec.m
    words = [("id", tuple(np.eye(n) for _ in range(m)))]
    gens = [[np.array(f, dtype=float) for f in g.factors]
            for g in config.m_generators]
    rng = random.Random(seed)
    for _ in range(count if gens else 0):
        mats = [np.eye(n) for _ in range(m)]
        label = []
        for _ in range(rng.randint(1, max_len)):
            gi = rng.randrange(len(gens))
            sign = rng.choice((1, -1))
            label.append(f"{'+' if sign > 0 else '-'}X{gi + 1}")
            mats = [mk @ expm(sign * gk) for mk, gk in zip(mats, gens[gi])]
        words.append(("*".join(label), tuple(mats)))
    return words


def nilradical_basis(spec, i, side):
    """Positions (factor, row, column) of the matrix units spanning the
    nilradical at cut i.

    Factor-major, then row-major in the standard side's positions; the
    opposite side lists the transposed positions in the same order.
    """
    _check_index(spec, i)
    n, m = spec.n, spec.m
    out = []
    for k in range(m):
        for a in range(i):
            for b in range(i, n):
                out.append((k, a, b) if side is ParabolicSide.STANDARD else (k, b, a))
    return out


def dense_wedge_norm(line, g):
    """Norm of the wedge line (cut, side) under Ad(g) by dense conjugation:
    each matrix unit of `nilradical_basis` as an m-tuple, g E_ab g^-1 in
    every factor, and the Gram determinant summed over factors."""
    g = [np.asarray(f, dtype=float) for f in g]
    g_inv = [np.linalg.inv(f) for f in g]
    n = g[0].shape[0]
    moved = []
    for k, a, b in nilradical_basis(GroupSpec(n, len(g)), *line):
        units = [np.zeros((n, n)) for _ in g]
        units[k][a, b] = 1.0
        moved.append([gf @ u @ gi for gf, u, gi in zip(g, units, g_inv)])
    gram = np.array([[sum(float(np.sum(x * y)) for x, y in zip(mi, mj))
                      for mj in moved] for mi in moved])
    return math.sqrt(max(np.linalg.det(gram), 0.0))


def weight_of_nilradical(spec, i, side):
    """Character of the Cartan action on the wedge line of the nilradical at
    cut i: the sum of the roots e_r - e_c of its matrix units (k, r, c), from
    the unit positions alone (the engine uses n*chi_i and its negative)."""
    n = spec.n
    v = [F(0)] * spec.ambient_dim
    for k, r, c in nilradical_basis(spec, i, side):
        v[k * n + r] += 1
        v[k * n + c] -= 1
    return tuple(v)


def a_point(config, coords):
    """The point of Lie(A) with the given coordinates in its basis."""
    return tuple(sum((c * b[j] for c, b in zip(coords, config.a_basis.basis)), F(0))
                 for j in range(config.spec.ambient_dim))


def closed_form_torus_norm(config, cert, witness, line, a_vec, n_val, base_norm):
    """Norm of the wedge line under exp(a) * g_N for a torus sample a in
    Lie(A): exp((w omega)(Ad(w'^-1) a) + N (w omega)(v)) * base_norm, omega
    the weight of the line's nilradical and base_norm its norm under w'w.
    The exponent is exact; only the final exponential is floating point."""
    w_omega = act_on_functional(cert.w, weight_of_nilradical(config.spec, *line))
    x_prime = transport_inverse(cert.w_prime, a_vec)
    exponent = dot(w_omega, x_prime) + n_val * dot(w_omega, witness.v)
    return math.exp(float(exponent)) * base_norm


def float_decay_table(cert, witness, n_values, sampler, config):
    """Reference decay table by float sampling of H = A M: every a-point of
    `sampler` times every M-word of `m_words`, the min over the
    certified lines of their dense Gram norms at h * g_N, g_N realized in
    floats for N = 0 and each of `n_values`, and the max over samples, first
    sample winning float ties.  One dict per N, sorted, with
    `max_min_norm`, `worst_sample` ("<a label>;<word label>") and `a_values`,
    per a-point the max over words."""
    spec = config.spec
    words = m_words(config)
    lines = [(j, side) for j in cert.subset
             for side in (ParabolicSide.STANDARD, ParabolicSide.OPPOSITE)]
    n_sorted = sorted({0, *n_values})
    rows = []
    for n_val, mats in zip(n_sorted, realize_divergence_sequence(cert, witness.v,
                                                                 n_sorted)):
        g = [np.array(f) for f in mats]
        worst, worst_label, a_values = -1.0, "", []
        for coords, a_label in zip(sampler.a_coords, sampler.a_labels):
            exps = np.exp([float(x) for x in a_point(config, coords)])
            a_mats = [np.diag(exps[k * spec.n:(k + 1) * spec.n])
                      for k in range(spec.m)]
            a_best = -1.0
            for w_label, word in words:
                hg = [am @ wm @ gf for am, wm, gf in zip(a_mats, word, g)]
                best = min(dense_wedge_norm(line, hg) for line in lines)
                if best > worst:
                    worst = best
                    worst_label = a_label + ";" + w_label
                a_best = max(a_best, best)
            a_values.append(a_best)
        rows.append({"N": n_val, "max_min_norm": worst,
                     "worst_sample": worst_label, "a_values": a_values})
    return rows

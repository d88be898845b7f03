"""Decision engine for uniform nondivergence of H = A*M acting on the
arithmetic quotient of an SL_n product.

The search runs in one order: nonempty index subsets I (by cardinality,
then lexicographic), then Weyl elements w (`_weyl_digits` order), then
centralizer Weyl representatives w' (list order, the identity first when it
was not listed).  A pair (I, w) is admissible when the conjugated M
generators land in both the standard and the opposite parabolic at every
cut in I, i.e. when I lies in the set G(w) of admissible cuts of w; the
least admissible triple whose transported fundamental weights become
dependent on Lie(A) yields a replayable certificate, and exhaustion proves
uniform nondivergence.  Trivial M is the case G(w) = all cuts, Lie(D) = the
full Cartan space and w' = {id}.  `GroupConfig` is the one place that
validates a problem instance, on integers: commutators of denominator-free
multiples, and Lie(D) membership of transported basis vectors (Ad(w')
permutes coordinates, so it is injective; see `GroupConfig.validate`).

A cut splits a nonzero entry of a conjugated generator by position alone,
so G(w) is the AND over factors k of bitmasks mask_k[p_k] (`_cut_masks`);
only `replay_certificate` conjugates, exactly.  A subset of G(w) can be
dependent only when the whole family {w(chi_i) : i in G(w)} is, so one rank
test per (w, w') rules out every admissible subset at once, and subsets are
searched only behind a dependent family.  Every w' maps Lie(D) onto itself
(`GroupConfig` checks it), and on Lie(D) it acts as a Weyl element: each
factor of w' is invertible, so some permutation sigma_k has every entry
(sigma_k(j), j) nonzero, and Ad(w'^-1) sends v to v o sigma_k on factor k.
The rows of w on transported Lie(A) are therefore those of the relabelled
Weyl element u = (sigma_k o p_k) on Lie(A) itself, so (I, w, w') is the
w' = id rank test at u, with the cuts of w: admissibility stays tied to w.
The rank test depends on u only through its orbit under Stab(cut mask).
Take the cuts c_1 < ... < c_s of w and the blocks B_0, ..., B_s of positions
between consecutive cuts.  Lie(A) is trace zero on every factor, so the
rows `cuts` of E(u) span the same functionals on it as {a -> sum_k sum_{b in
B_t} a[k, p_k(b)]}.  Stab(cut mask) = (Levi of the blocks)^m x| {a
permutation of equal-size blocks, applied to every factor} leaves that span
fixed (W_I fixes every chi_i with i in I: Humphreys, Reflection Groups and
Coxeter Groups, 1.10).  So the outcome is cached per cut mask met, one byte
per orbit key (`_orbit_tables`), and the w' are tried in list order: the
least (subset, w, w') hit is the one the documented order certifies.
`_first_dependent` runs on the actual u.  The scan only searches, in the
calling process: `check_general` audits the one hit it returns against the
declared maximality of D.  Weights dependent on Lie(D) are dependent for
every w', since w' maps Lie(D) onto itself, so the audit is one rank of the
hit's weights w(chi_i) on Lie(D), untransported.

The scan runs in exact integer arithmetic.  Scaling each chi_i by n and each
basis vector of Lie(A) and Lie(D) by the LCM of its denominators changes no
rank, and makes the evaluation matrix of w the sum E(w) = sum_k T_k[p_k] of
small integer matrices tabulated once per factor k and permutation p_k; its
rank is decided by fraction-free elimination.  Only the dependence of the
certificate, computed once for the hit, is rational.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from ._record import record
from .linalg import (
    Subspace,
    Vec,
    _kernel_vectors,
    clear_denominators,
    commutes,
    det,
    dot,
    primitive_vector,
    rank,
    sparse_integer_rows,
    transpose,
    vec,
)
from .rootdata import (
    GroupSpec,
    LieElement,
    ParabolicSide,
    fundamental_weight,
    parabolic_contains,
)
from .weyl import (
    CentralizerWeylElement,
    WeylElement,
    act_on_functional,
    act_on_lie,
    identity_centralizer_element,
    weyl_inverse,
    weyl_order,
)


class ConfigError(ValueError):
    """A problem configuration violates a structural invariant."""


class ConfigInconsistencyError(RuntimeError):
    """The declared data contradicts itself at the certified hit.

    Raised by `check_general` when the hit's transported fundamental weights
    are dependent on Lie(D), which signals that D is not maximal in the
    centralizer of M as declared.
    """


@record
class SearchStats:
    pairs_examined: int
    pairs_admissible: int
    weyl_order: int


@record
class Certificate:
    """Replayable witness for failure of uniform nondivergence."""

    subset: tuple[int, ...]            # nonempty, sorted, 1-based indices
    w: WeylElement
    w_prime: CentralizerWeylElement
    w_prime_index: int
    dependence: tuple[Fraction, ...]   # sum_i c_i * (w'w(chi_i)) = 0 on Lie(A)
    integer_dependence: Optional[tuple[int, ...]]


@record
class Verdict:
    nondivergent: bool
    certificate: Optional[Certificate]
    stats: Optional[SearchStats]

    @classmethod
    def uniformly_nondivergent(cls, stats: SearchStats) -> "Verdict":
        return cls(True, None, stats)

    @classmethod
    def not_uniformly_nondivergent(cls, cert: Certificate) -> "Verdict":
        return cls(False, cert, None)


@record
class GroupConfig:
    """Full problem instance: the group, Lie(M) generators, Lie(D), Lie(A),
    and centralizer Weyl representatives.

    Construction runs `validate`, so every instance, built from a problem
    file or in code, satisfies every invariant the scan, replay and witness
    rely on; the identity representative is then prepended when absent, so
    w' = id is always searched."""

    spec: GroupSpec
    m_generators: tuple[LieElement, ...]
    d_basis: Subspace
    a_basis: Subspace
    centralizer_weyl: tuple[CentralizerWeylElement, ...]

    def __post_init__(self):
        self.validate()
        if not any(e.is_identity() for e in self.centralizer_weyl):
            object.__setattr__(self, "centralizer_weyl",
                               (identity_centralizer_element(self.spec),
                                *self.centralizer_weyl))

    def validate(self) -> None:
        """Raise ConfigError naming the first violated invariant.

        Shapes first (every w' factor square and of determinant 1, decided
        once per distinct factor), then each w' (numbered from 1 in list
        order) must centralize every M generator and map Lie(D) onto itself;
        then Lie(A) lies in Lie(D), no M generator is zero, Lie(D) commutes
        with M, and trivial M comes with the full Cartan space as Lie(D).

        The w' checks run on integers.  l x = x l iff the denominator-free
        multiples of l and x commute, decided once per distinct pair of
        factors.  A factor of determinant 1 has a nonzero term in its
        Leibniz expansion, so a support permutation sigma.  l diag(v) l^-1 =
        diag(y) iff y_i = v_j at every nonzero l_ij, so y = v o sigma^-1 is
        the only candidate image, and Ad(w') is diagonal on Lie(D) iff that
        holds for each basis vector v.  Ad(w') is then injective on Lie(D),
        so the images of a basis span Lie(D) iff each lies in it: one
        annihilator of Lie(D) on the trace-zero coordinates (each block
        without its last entry) must kill them all.
        """
        spec = self.spec
        n, m = spec.n, spec.m
        for name, sub in (("Lie(D)", self.d_basis), ("Lie(A)", self.a_basis)):
            if sub.ambient_dim != spec.ambient_dim:
                raise ConfigError(f"{name} has wrong ambient dimension")
            for v in sub.basis:
                if not spec.is_trace_zero(v):
                    raise ConfigError(f"{name} basis vector is not trace zero per factor")
        for gi, gen in enumerate(self.m_generators):
            if len(gen.factors) != m or any(len(f) != n for f in gen.factors):
                raise ConfigError(f"M generator #{gi + 1} has wrong shape")
        unimodular: dict = {}  # w' factor -> det == 1, each decided once
        for idx, elem in enumerate(self.centralizer_weyl, 1):
            if len(elem.matrices) != m or any(
                    len(f) != n or any(len(r) != n for r in f) for f in elem.matrices):
                raise ConfigError(f"centralizer Weyl candidate #{idx}: wrong matrix shape")
            for k, f in enumerate(elem.matrices, 1):
                one = unimodular.get(f)
                if one is None:
                    one = unimodular[f] = det(f) == 1
                if not one:
                    raise ConfigError(f"centralizer Weyl candidate #{idx}: "
                                      f"determinant is not 1 in factor {k}")
        gen_factors = [[sparse_integer_rows(f) for f in gen.factors]
                       for gen in self.m_generators]
        decided: dict = {}
        d_vectors = [clear_denominators(v) for v in self.d_basis.basis]
        kept = [i for i in range(spec.ambient_dim) if i % n != n - 1]
        annihilator = [[(kept[i], c) for i, c in enumerate(clear_denominators(u)) if c]
                       for u in _kernel_vectors([[v[i] for i in kept]
                                                 for v in self.d_basis.basis], len(kept))]
        for idx, elem in enumerate(self.centralizer_weyl, 1):
            factors = [sparse_integer_rows(f) for f in elem.matrices]
            for gi, gen in enumerate(gen_factors):
                for pair in zip(factors, gen):
                    ok = decided.get(pair)
                    if ok is None:
                        ok = decided[pair] = commutes(*pair)
                    if not ok:
                        raise ConfigError(f"centralizer Weyl candidate #{idx}: "
                                          f"does not centralize M generator #{gi + 1}")
            source = [0] * spec.ambient_dim  # y[k n + sigma_k(j)] = v[k n + j]
            for k, sigma in enumerate(elem.support_permutations()):
                for j, i in enumerate(sigma):
                    source[k * n + i] = k * n + j
            images = [[v[j] for j in source] for v in d_vectors]
            if any(y[k * n + i] != v[k * n + j] for v, y in zip(d_vectors, images)
                   for k, f in enumerate(factors) for i, row in enumerate(f)
                   for j, _ in row):
                raise ConfigError(f"centralizer Weyl candidate #{idx}: does not "
                                  "normalize D (image of Lie(D) not diagonal)")
            if any(sum(c * y[i] for i, c in row) for y in images for row in annihilator):
                raise ConfigError(f"centralizer Weyl candidate #{idx}: "
                                  "does not normalize D")
        if rank(self.d_basis.basis + self.a_basis.basis) != self.d_basis.dim:
            raise ConfigError("Lie(A) is not contained in Lie(D)")
        for gi, gen in enumerate(self.m_generators):
            if gen.is_zero():
                raise ConfigError(f"M generator #{gi + 1} is zero")
        # [diag(v), X]_ab = (v_a - v_b) X_ab, so Lie(D) commutes with X iff
        # v_a = v_b at every nonzero off-diagonal entry (a, b) of X.
        entries = [[(k * n + a, k * n + b) for k, f in enumerate(gen.factors)
                    for a, row in enumerate(f) for b, x in enumerate(row)
                    if a != b and x != 0]
                   for gen in self.m_generators]
        for v in self.d_basis.basis:
            for gi, gen_entries in enumerate(entries):
                if any(v[a] != v[b] for a, b in gen_entries):
                    raise ConfigError(
                        f"Lie(D) does not commute with M generator #{gi + 1}")
        if not self.m_generators and self.d_basis != spec.full_subspace():
            raise ConfigError("with trivial M, Lie(D) must be the full Cartan space")


def dependence_coefficients(functionals: Sequence[Sequence],
                            w: Subspace) -> Optional[tuple]:
    """Nonzero coefficients of a vanishing combination on w, or None.

    Kernel of the transposed evaluation matrix; when the evaluations are all
    integral the coefficients come back as integers with gcd 1.  The first
    nonzero coefficient is normalized positive.
    """
    vecs = [vec(f) for f in functionals]
    k = len(vecs)
    if k == 0:
        return None
    evaluation = [[dot(f, b) for b in w.basis] for f in vecs]
    kern = _kernel_vectors(transpose(evaluation), k)
    if not kern:
        return None
    c = kern[0]
    if all(e.denominator == 1 for row in evaluation for e in row):
        c = primitive_vector(c)
    if next(x for x in c if x != 0) < 0:
        c = [-x for x in c]
    return tuple(c)


def _subsets_by_size(r: int) -> list[tuple[int, ...]]:
    out = []
    for s in range(1, r + 1):
        out.extend(itertools.combinations(range(1, r + 1), s))
    return out


# --- integer evaluation kernel ----------------------------------------------

IntMat = tuple[tuple[int, ...], ...]


def _weyl_digits(idx: int, base: int, m: int) -> list[int]:
    """Per-factor permutation indices of the idx-th Weyl element.

    This defines the scan order of w: the lexicographic product order of
    the factors' one-line notations, factor 1 the most significant digit
    and each digit indexing `itertools.permutations(range(n))`, itself in
    lexicographic order."""
    digits = [0] * m
    for k in range(m - 1, -1, -1):
        idx, digits[k] = divmod(idx, base)
    return digits


def _weyl_by_index(spec: GroupSpec, idx: int) -> WeylElement:
    perms = list(itertools.permutations(range(spec.n)))
    return WeylElement(tuple(perms[d] for d in _weyl_digits(idx, len(perms), spec.m)))


def _factor_tables(spec: GroupSpec, basis: Sequence[Vec]) -> list[list[IntMat]]:
    """T[k][d][i][b]: factor k's share of n*w(chi_{i+1}) evaluated on basis
    vector b (scaled to integers) when w permutes factor k by the d-th
    permutation of `itertools.permutations(range(n))` (`_weyl_digits`)."""
    n, r = spec.n, spec.rank
    scaled = [clear_denominators(v) for v in basis]
    perms = list(itertools.permutations(range(n)))
    tables = []
    for k in range(spec.m):
        blocks = [v[k * n:(k + 1) * n] for v in scaled]
        tables.append([
            tuple(tuple(sum((n - i if j < i else -i) * blk[p[j]] for j in range(n))
                        for blk in blocks)
                  for i in range(1, r + 1))
            for p in perms])
    return tables


def _evaluation(tables: list[list[IntMat]], digits: Sequence[int]) -> IntMat:
    """E(w) = sum_k T_k[p_k]."""
    return tuple(tuple(map(sum, zip(*rows)))
                 for rows in zip(*[table[d] for table, d in zip(tables, digits)]))


def _build_certificate(subset, w, w_prime, w_prime_index, coeffs) -> Certificate:
    if coeffs is None:
        raise AssertionError("certificate requested without a dependence")
    if all(isinstance(c, int) for c in coeffs):
        dependence = tuple(Fraction(c) for c in coeffs)
        integer_dependence: Optional[tuple[int, ...]] = tuple(coeffs)
    else:
        dependence = tuple(coeffs)
        integer_dependence = None
    return Certificate(tuple(subset), w, w_prime, w_prime_index,
                       dependence, integer_dependence)


# --- the scan ---------------------------------------------------------------

def _cut_masks(spec: GroupSpec, gens: Sequence[LieElement]) -> list[list[int]]:
    """mask[k][d]: bit i-1 is set when cut i splits no nonzero off-diagonal
    entry (a, b) of a generator's factor k moved by w^-1, where w permutes
    factor k by the d-th permutation p.  The entry moves to (q[a], q[b]) with
    q = p^-1, and cut i splits it when min(q[a], q[b]) < i <= max(q[a], q[b])."""
    full = (1 << spec.rank) - 1
    masks = []
    for k in range(spec.m):
        entries = {(a, b) for g in gens for a, row in enumerate(g.factors[k])
                   for b, x in enumerate(row) if a != b and x != 0}
        table = []
        for p in itertools.permutations(range(spec.n)):
            mask = full
            for a, b in entries:
                lo, hi = sorted((p.index(a), p.index(b)))
                mask &= ~((1 << hi) - (1 << lo))
            table.append(mask)
        masks.append(table)
    return masks


def _first_dependent(evaluation: IntMat, cuts: tuple[int, ...],
                     subset_index: dict, bound: int) -> Optional[int]:
    """Index of the first subset of `cuts`, below `bound`, whose rows of the
    evaluation are dependent, or None; the rows of all of `cuts` are."""
    for size in range(1, len(cuts) + 1):
        for subset in itertools.combinations(cuts, size):
            si = subset_index[subset]
            if si >= bound:
                return None
            if rank([evaluation[i - 1] for i in subset]) < size:
                return si
    return None


def _relabellings(spec: GroupSpec,
                  centralizer_weyl: Sequence[CentralizerWeylElement]) -> list:
    """(w' index, R) for each w' whose support permutations sigma_k differ
    from every earlier w''s (equal ones give equal ranks), in list order.
    R[k][d] is the index of sigma_k o p, p the d-th permutation of factor k,
    so the digits R[k][p_k] of w make the relabelled Weyl element u; R is
    None when every sigma_k is the identity, so u = w."""
    perms = list(itertools.permutations(range(spec.n)))
    position = {p: d for d, p in enumerate(perms)}
    seen: dict = {}
    for wp_idx, wp in enumerate(centralizer_weyl):
        seen.setdefault(wp.support_permutations(), wp_idx)
    return [(wp_idx, None if all(s == perms[0] for s in sigmas) else
             [[position[tuple(s[x] for x in p)] for p in perms] for s in sigmas])
            for sigmas, wp_idx in seen.items()]


def _orbit_tables(n: int, cuts: tuple[int, ...]) -> tuple:
    """(first, canon, rows, relabellings, getters, cosets): the orbit key of
    u = (p_1, ..., p_m) under Stab(cuts) has, in base len(cosets), the digits
    first[d_1], then rows[canon[d_1]][d_k] for k >= 2, d_k the index of p_k.

    The Levi coset of p is its label: the block of the position p sends each
    value to; `cosets` numbers the labels.  canon[d] indexes the relabelling
    x of equal-size blocks that orders the blocks of p_d by least value
    within each size, so x makes factor 1 canonical, with coset first[d].
    rows[x][d] is the coset id of p_d relabelled by x, the same x on every
    factor.  A row is built when `_orbit_key` first needs it: all of them
    would be |relabellings| * n! entries, (n!)^2 on the full mask, while the
    scan enters n!^(m-1) elements per first digit."""
    block = [sum(j >= c for c in cuts) for j in range(n)]
    sizes = [block.count(t) for t in range(len(cuts) + 1)]
    slots = sorted(range(len(sizes)), key=sizes.__getitem__)
    labels = [tuple(block[p.index(v)] for v in range(n))
              for p in itertools.permutations(range(n))]
    cosets = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    relabellings: dict = {}
    first, canon = [], []
    for label in labels:
        x = [0] * len(sizes)
        for t, slot in zip(sorted(dict.fromkeys(label), key=sizes.__getitem__), slots):
            x[t] = slot
        first.append(cosets[tuple(x[t] for t in label)])
        canon.append(relabellings.setdefault(tuple(x), len(relabellings)))
    getters = [operator.itemgetter(*label) for label in labels]
    return first, canon, [None] * len(relabellings), list(relabellings), getters, cosets


def _orbit_key(tables: tuple, digits: Sequence[int]) -> int:
    first, canon, rows, relabellings, getters, cosets = tables
    if len(digits) == 1:
        return first[digits[0]]
    x = canon[digits[0]]
    row = rows[x]
    if row is None:
        relabel = relabellings[x]
        row = rows[x] = [cosets[get(relabel)] for get in getters]
    size = len(cosets)
    key = 0
    for d in digits:
        key = key * size + row[d]
    return key


def _scan(config: GroupConfig) -> tuple:
    """Scan every Weyl element in the documented order.

    Returns (key, admissible_count): key is the least (subset index, w
    index, w' index) hit, or None.  The count is complete only when no hit
    was found.  The scan only searches: `check_general` audits the hit.
    """
    spec = config.spec
    r, m = spec.rank, spec.m
    subsets = _subsets_by_size(r)
    subset_index = {s: k for k, s in enumerate(subsets)}
    cuts_of = [tuple(i for i in range(1, r + 1) if mask >> (i - 1) & 1)
               for mask in range(1 << r)]
    masks = _cut_masks(spec, config.m_generators)
    base = math.factorial(spec.n)
    a_tables = _factor_tables(spec, config.a_basis.basis)
    relabellings = _relabellings(spec, config.centralizer_weyl)
    # family[mask] = (orbit tables, outcomes): outcomes[key] is 0 untested,
    # 1 independent, 2 dependent rows cuts_of[mask] of E(u), u in the orbit.
    family: dict[int, tuple] = {}
    best = None
    admissible = 0
    all_digits = itertools.product(range(base), repeat=m)  # `_weyl_digits` order
    for w_idx, digits in enumerate(all_digits):
        good = -1
        for table, d in zip(masks, digits):
            good &= table[d]
        cuts = cuts_of[good]
        if not cuts:
            continue
        admissible += 2 ** len(cuts) - 1
        cached = family.get(good)
        if cached is None:
            tables = _orbit_tables(spec.n, cuts)
            cached = family[good] = (tables, bytearray(len(tables[-1]) ** m))
        tables, known = cached
        # A later w' can hit an earlier subset, so every w' is tried.
        for wp_idx, relabel in relabellings:
            u_digits = digits if relabel is None else \
                [table[d] for table, d in zip(relabel, digits)]
            key = _orbit_key(tables, u_digits)
            outcome = known[key]
            if outcome == 1:
                continue
            rows = _evaluation(a_tables, u_digits)
            if not outcome:
                if rank([rows[i - 1] for i in cuts]) == len(cuts):
                    known[key] = 1
                    continue
                known[key] = 2
            bound = best[0] if best else len(subsets)
            si = _first_dependent(rows, cuts, subset_index, bound)
            if si is not None:
                best = (si, w_idx, wp_idx)
        if best and best[0] == 0:
            break  # no later w can hit the first subset earlier
    return best, admissible


def check_general(config: GroupConfig, workers: int = 1) -> Verdict:
    """Full criterion for H = A*M: the first admissible (I, w, w') in the
    documented order whose transported weights are dependent on Lie(A).
    That hit is audited once: its weights must stay independent on Lie(D),
    or ConfigInconsistencyError is raised.

    `workers` is accepted and has no effect: the scan runs in the calling
    process."""
    spec = config.spec
    hit, admissible = _scan(config)
    if hit is None:
        total_w = weyl_order(spec)
        pairs = (2 ** spec.rank - 1) * total_w
        return Verdict.uniformly_nondivergent(SearchStats(pairs, admissible, total_w))
    si, w_idx, wp_idx = hit
    subset = _subsets_by_size(spec.rank)[si]
    w = _weyl_by_index(spec, w_idx)
    funcs = [act_on_functional(w, fundamental_weight(spec, i)) for i in subset]
    # w' maps Lie(D) onto itself, so dependence on Lie(D) needs no transport.
    if rank([[dot(f, b) for b in config.d_basis.basis] for f in funcs]) < len(subset):
        raise ConfigInconsistencyError(
            f"transported weights {subset} are dependent on Lie(D) for an "
            f"admissible pair (Weyl #{w_idx}); "
            "Lie(D) is not maximal in the centralizer of M as declared")
    wp = config.centralizer_weyl[wp_idx]
    coeffs = dependence_coefficients(funcs, Subspace.span(
        spec.ambient_dim, [wp.transport_inverse(b) for b in config.a_basis.basis]))
    cert = _build_certificate(subset, w, wp, wp_idx, coeffs)
    return Verdict.not_uniformly_nondivergent(cert)


def replay_certificate(config: GroupConfig, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch: both parabolic containments and
    the exact vanishing of the dependence on Lie(A)."""
    spec = config.spec
    r = spec.rank
    subset = cert.subset
    if (not subset or list(subset) != sorted(set(subset))
            or subset[0] < 1 or subset[-1] > r):
        return False
    coefficient_vectors = [cert.dependence]
    if cert.integer_dependence is not None:
        coefficient_vectors.append(cert.integer_dependence)
    if any(len(coeffs) != len(subset) or all(c == 0 for c in coeffs)
           for coeffs in coefficient_vectors):
        return False
    if not (0 <= cert.w_prime_index < len(config.centralizer_weyl)):
        return False
    if config.centralizer_weyl[cert.w_prime_index] != cert.w_prime:
        return False
    try:
        w_inv = weyl_inverse(cert.w)
        for gen in config.m_generators:
            moved = act_on_lie(w_inv, gen)
            if not parabolic_contains(spec, subset, moved, ParabolicSide.STANDARD):
                return False
            if not parabolic_contains(spec, subset, moved, ParabolicSide.OPPOSITE):
                return False
        funcs = [act_on_functional(cert.w, fundamental_weight(spec, i)) for i in subset]
        transported = [cert.w_prime.transport_inverse(b) for b in config.a_basis.basis]
        for coeffs in coefficient_vectors:
            for tb in transported:
                if sum((c * dot(f, tb) for c, f in zip(coeffs, funcs)), Fraction(0)) != 0:
                    return False
    except (ValueError, IndexError):
        return False
    return True

"""Decision engine for uniform nondivergence of H = A*M acting on the
arithmetic quotient of an SL_n product.

The search enumerates nonempty index subsets I (by cardinality then
lexicographic), Weyl elements w (lexicographic), and validated centralizer
Weyl representatives w' (list order).  A pair (I, w) is admissible when the
conjugated M generators land in both the standard and the opposite parabolic
at every cut in I; the first admissible triple whose transported fundamental
weights become dependent on Lie(A) yields a replayable certificate, and
exhaustion proves uniform nondivergence.

With trivial M the centralizer Weyl group coincides with the full Weyl group,
so the w' loop is provably redundant; both the torus check and the general
check then share the same specialized scan, which keeps their verdicts and
certificates bit-identical.

The scan runs in exact integer arithmetic.  Scaling each chi_i by n and each
basis vector of Lie(A), transported Lie(A) and Lie(D) by the LCM of its
denominators changes no rank, and makes the evaluation matrix of w the sum
E(w) = sum_k T_k[p_k] of small integer matrices tabulated once per factor k
and permutation p_k; its rank is decided by fraction-free elimination.  Only
the dependence of the certificate, computed once for the hit, is rational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Optional, Sequence

from .linalg import (
    Subspace,
    Vec,
    _kernel_vectors,
    clear_denominators,
    dot,
    primitive_vector,
    rank,
    transpose,
    vec,
)
from .rootdata import (
    CartanSpace,
    Functional,
    GroupSpec,
    LieElement,
    ParabolicSide,
    commutator,
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
    """The declared data contradicts itself during enumeration.

    Raised when transported fundamental weights become dependent on Lie(D)
    for an admissible pair, which signals that D is not maximal in the
    centralizer of M as declared.
    """


@dataclass(frozen=True)
class SearchStats:
    pairs_examined: int
    pairs_admissible: int
    weyl_order: int


@dataclass(frozen=True)
class Certificate:
    """Replayable witness for failure of uniform nondivergence."""

    subset: tuple[int, ...]            # nonempty, sorted, 1-based indices
    w: WeylElement
    w_prime: CentralizerWeylElement
    w_prime_index: int
    dependence: tuple[Fraction, ...]   # sum_i c_i * (w'w(chi_i)) = 0 on Lie(A)
    integer_dependence: Optional[tuple[int, ...]]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GroupConfig:
    """Full problem instance: group family, Lie(M) generators, Lie(D), Lie(A),
    and validated centralizer Weyl representatives."""

    spec: GroupSpec
    m_generators: tuple[LieElement, ...]
    d_basis: Subspace
    a_basis: Subspace
    centralizer_weyl: tuple[CentralizerWeylElement, ...]

    def validate(self) -> None:
        space = CartanSpace(self.spec)
        n, m = self.spec.n, self.spec.m
        for name, sub in (("Lie(D)", self.d_basis), ("Lie(A)", self.a_basis)):
            if sub.ambient_dim != space.ambient_dim:
                raise ConfigError(f"{name} has wrong ambient dimension")
            for v in sub.basis:
                if not space.contains(v):
                    raise ConfigError(f"{name} basis vector is not trace zero per factor")
        if not self.d_basis.contains_subspace(self.a_basis):
            raise ConfigError("Lie(A) is not contained in Lie(D)")
        for gi, gen in enumerate(self.m_generators):
            if len(gen.factors) != m or any(len(f) != n for f in gen.factors):
                raise ConfigError(f"M generator #{gi + 1} has wrong shape")
            if gen.is_zero():
                raise ConfigError(f"M generator #{gi + 1} is zero")
        for v in self.d_basis.basis:
            d_elem = space.diagonal_element(v)
            for gi, gen in enumerate(self.m_generators):
                if not commutator(d_elem, gen).is_zero():
                    raise ConfigError(
                        f"Lie(D) does not commute with M generator #{gi + 1}")
        if not self.m_generators and self.d_basis != space.full_subspace():
            raise ConfigError("with trivial M, Lie(D) must be the full Cartan space")
        if not self.centralizer_weyl:
            raise ConfigError("centralizer Weyl list must not be empty")
        for idx, elem in enumerate(self.centralizer_weyl):
            if len(elem.matrices) != m or any(len(f) != n for f in elem.matrices):
                raise ConfigError(f"centralizer Weyl element #{idx} has wrong shape")


def dependence_coefficients(functionals: Sequence[Functional],
                            w: Subspace) -> Optional[tuple]:
    """Nonzero coefficients of a vanishing combination on w, or None.

    Kernel of the transposed evaluation matrix; when the evaluations are all
    integral the coefficients come back as integers with gcd 1.  The first
    nonzero coefficient is normalized positive.
    """
    vecs = [f.vector if isinstance(f, Functional) else vec(f) for f in functionals]
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
    """Per-factor permutation indices of the idx-th element of
    `enumerate_weyl` (factor 1 is the most significant digit)."""
    digits = [0] * m
    for k in range(m - 1, -1, -1):
        idx, digits[k] = divmod(idx, base)
    return digits


def _nth_permutation(n: int, d: int) -> tuple[int, ...]:
    """The d-th permutation of range(n) in lexicographic order."""
    pool = list(range(n))
    out = []
    for k in range(n - 1, -1, -1):
        q, d = divmod(d, math.factorial(k))
        out.append(pool.pop(q))
    return tuple(out)


def _weyl_by_index(spec: GroupSpec, idx: int) -> WeylElement:
    digits = _weyl_digits(idx, math.factorial(spec.n), spec.m)
    return WeylElement(tuple(_nth_permutation(spec.n, d) for d in digits))


def _factor_tables(spec: GroupSpec, basis: Sequence[Vec]) -> list[list[IntMat]]:
    """T[k][d][i][b]: factor k's share of n*w(chi_{i+1}) evaluated on basis
    vector b (scaled to integers) when w permutes factor k by the d-th
    permutation in `enumerate_weyl` order."""
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


def _mat_add(a: IntMat, b: IntMat) -> IntMat:
    return tuple([tuple([x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])


def _evaluation(tables: list[list[IntMat]], digits: Sequence[int]) -> IntMat:
    """E(w) = sum_k T_k[p_k]."""
    total = tables[0][digits[0]]
    for table, d in zip(tables[1:], digits[1:]):
        total = _mat_add(total, table[d])
    return total


def _evaluations(tables: list[list[IntMat]], start: int, end: int):
    """(index, E(w)) for the Weyl elements start..end-1 in `enumerate_weyl`
    order; the partial sums over leading factors are kept while only later
    digits change."""
    m, base = len(tables), len(tables[0])
    digits = _weyl_digits(start, base, m)
    sums: list[IntMat] = [()] * m
    stale = 0  # first factor whose partial sum is out of date
    for idx in range(start, end):
        for j in range(stale, m):
            entry = tables[j][digits[j]]
            sums[j] = _mat_add(sums[j - 1], entry) if j else entry
        yield idx, sums[-1]
        stale = m - 1
        while stale >= 0 and digits[stale] == base - 1:
            digits[stale] = 0
            stale -= 1
        if stale < 0:
            return
        digits[stale] += 1


# --- torus scan (trivial M) --------------------------------------------------

def _minimal_dependent_subset(evaluation: IntMat, r: int) -> tuple[int, ...]:
    """Smallest (cardinality, then lexicographic) dependent subset, 1-based."""
    for s in range(1, r + 1):
        for subset in itertools.combinations(range(r), s):
            if rank([evaluation[i] for i in subset]) < s:
                return tuple(i + 1 for i in subset)
    raise AssertionError("dependent family has no dependent subset")


def act_on_functional_vec(w: WeylElement, f: Functional) -> Vec:
    return act_on_functional(w, f).vector


def _torus_chunk(args) -> Optional[tuple[int, tuple[int, ...]]]:
    spec, a_basis, start, end = args
    r = spec.rank
    for idx, evaluation in _evaluations(_factor_tables(spec, a_basis.basis),
                                        start, end):
        if rank(evaluation) < r:
            return idx, _minimal_dependent_subset(evaluation, r)
    return None


def _split_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total)) if total else 1
    size, extra = divmod(total, workers)
    ranges, lo = [], 0
    for i in range(workers):
        hi = lo + size + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _run_chunks(fn, payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    try:
        ctx = get_context("fork")
    except ValueError:  # platform without fork: scan sequentially
        return [fn(p) for p in payloads]
    with ctx.Pool(processes=min(workers, len(payloads))) as pool:
        return pool.map(fn, payloads)


def check_torus(spec: GroupSpec, a_basis: Subspace, workers: int = 1) -> Verdict:
    """Torus criterion: nondivergent iff every Weyl image of the fundamental
    weight family stays independent as functionals on Lie(A)."""
    space = CartanSpace(spec)
    if a_basis.ambient_dim != space.ambient_dim:
        raise ConfigError("Lie(A) has wrong ambient dimension")
    for v in a_basis.basis:
        if not space.contains(v):
            raise ConfigError("Lie(A) basis vector is not trace zero per factor")
    total = weyl_order(spec)
    hits = _run_chunks(_torus_chunk,
                       [(spec, a_basis, lo, hi) for lo, hi in _split_ranges(total, workers)],
                       workers)
    hits = [h for h in hits if h is not None]
    r = spec.rank
    if hits:
        w_idx, subset = min(hits)
        w = _weyl_by_index(spec, w_idx)
        chis = [fundamental_weight(space, i) for i in subset]
        funcs = [Functional(act_on_functional_vec(w, chi)) for chi in chis]
        coeffs = dependence_coefficients(funcs, a_basis)
        cert = _build_certificate(spec, subset, w, identity_centralizer_element(spec),
                                  0, coeffs)
        return Verdict.not_uniformly_nondivergent(cert)
    pairs = (2 ** r - 1) * total
    return Verdict.uniformly_nondivergent(SearchStats(pairs, pairs, total))


def _build_certificate(spec: GroupSpec, subset, w, w_prime, w_prime_index,
                       coeffs) -> Certificate:
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


# --- general scan (nontrivial M) ---------------------------------------------

def _good_cuts(spec: GroupSpec, gens: Sequence[LieElement], w: WeylElement) -> set[int]:
    """Cuts where every conjugated generator is block diagonal (both sides)."""
    space = CartanSpace(spec)
    w_inv = weyl_inverse(w)
    moved = [act_on_lie(w_inv, g) for g in gens]
    good = set()
    for i in range(1, spec.rank + 1):
        if all(parabolic_contains(space, [i], g, ParabolicSide.STANDARD)
               and parabolic_contains(space, [i], g, ParabolicSide.OPPOSITE)
               for g in moved):
            good.add(i)
    return good


def _general_chunk(args):
    """Scan a contiguous range of the (I, w) pair space.

    Returns (first_certificate_hit, first_audit_violation, admissible_count)
    where hits are (global_index, subset, w_index, w_prime_index) tuples.
    """
    config, start, end = args
    spec = config.spec
    r = spec.rank
    subsets = _subsets_by_size(r)
    base = math.factorial(spec.n)
    total_w = weyl_order(spec)
    # Validated w' map the span of Lie(D) onto itself, so the Lie(D) audit is
    # independent of w'; only Lie(A) needs the w'-transported basis.
    d_tables = _factor_tables(spec, config.d_basis.basis)
    a_tables = [_factor_tables(spec, _transport_subspace(config.a_basis, wp).basis)
                for wp in config.centralizer_weyl]
    good_cuts_cache: dict[int, set[int]] = {}
    eval_cache: dict[int, tuple[IntMat, list[IntMat]]] = {}

    def evaluations(w_idx: int) -> tuple[IntMat, list[IntMat]]:
        """E(w) on Lie(D) and on each w'-transported Lie(A)."""
        if w_idx not in eval_cache:
            digits = _weyl_digits(w_idx, base, spec.m)
            eval_cache[w_idx] = (_evaluation(d_tables, digits),
                                 [_evaluation(t, digits) for t in a_tables])
        return eval_cache[w_idx]

    cert_hit = None
    audit_hit = None
    admissible = 0
    for gidx in range(start, end):
        si, w_idx = divmod(gidx, total_w)
        subset = subsets[si]
        if w_idx not in good_cuts_cache:
            good_cuts_cache[w_idx] = _good_cuts(spec, config.m_generators,
                                                _weyl_by_index(spec, w_idx))
        if not set(subset) <= good_cuts_cache[w_idx]:
            continue
        admissible += 1
        rows = [i - 1 for i in subset]
        d_eval, a_evals = evaluations(w_idx)
        if rank([d_eval[i] for i in rows]) < len(subset):
            audit_hit = (gidx, subset, w_idx, 0)
            return cert_hit, audit_hit, admissible
        for wp_idx, a_eval in enumerate(a_evals):
            if rank([a_eval[i] for i in rows]) < len(subset):
                cert_hit = (gidx, subset, w_idx, wp_idx)
                return cert_hit, audit_hit, admissible
    return cert_hit, audit_hit, admissible


def _transport_subspace(sub: Subspace, w_prime: CentralizerWeylElement) -> Subspace:
    """Ad(w'^-1) applied to a subspace of the normalized torus."""
    try:
        images = [w_prime.transport_inverse(v) for v in sub.basis]
    except ValueError as exc:
        raise ConfigInconsistencyError(str(exc)) from exc
    return Subspace.span(sub.ambient_dim, images)


def check_general(config: GroupConfig, workers: int = 1) -> Verdict:
    """Full criterion for H = A*M; dispatches to the torus scan when M is trivial."""
    config.validate()
    spec = config.spec
    if not config.m_generators:
        return check_torus(spec, config.a_basis, workers=workers)
    r = spec.rank
    total = (2 ** r - 1) * weyl_order(spec)
    results = _run_chunks(_general_chunk,
                          [(config, lo, hi) for lo, hi in _split_ranges(total, workers)],
                          workers)
    cert_hits = [c for c, _, _ in results if c is not None]
    audit_hits = [a for _, a, _ in results if a is not None]
    best_cert = min(cert_hits) if cert_hits else None
    best_audit = min(audit_hits) if audit_hits else None
    if best_audit is not None and (best_cert is None or best_audit[0] < best_cert[0]):
        gidx, subset, w_idx, wp_idx = best_audit
        raise ConfigInconsistencyError(
            f"transported weights {subset} are dependent on Lie(D) for an "
            f"admissible pair (Weyl #{w_idx}, centralizer #{wp_idx}); "
            "Lie(D) is not maximal in the centralizer of M as declared")
    if best_cert is not None:
        _, subset, w_idx, wp_idx = best_cert
        space = CartanSpace(spec)
        w = _weyl_by_index(spec, w_idx)
        wp = config.centralizer_weyl[wp_idx]
        funcs = [Functional(act_on_functional_vec(w, fundamental_weight(space, i)))
                 for i in subset]
        coeffs = dependence_coefficients(funcs, _transport_subspace(config.a_basis, wp))
        cert = _build_certificate(spec, subset, w, wp, wp_idx, coeffs)
        return Verdict.not_uniformly_nondivergent(cert)
    admissible = sum(adm for _, _, adm in results)
    return Verdict.uniformly_nondivergent(SearchStats(total, admissible,
                                                      weyl_order(spec)))


def replay_certificate(config: GroupConfig, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch: both parabolic containments and
    the exact vanishing of the dependence on Lie(A)."""
    spec = config.spec
    space = CartanSpace(spec)
    r = spec.rank
    subset = cert.subset
    if (not subset or list(subset) != sorted(set(subset))
            or subset[0] < 1 or subset[-1] > r):
        return False
    if len(cert.dependence) != len(subset) or all(c == 0 for c in cert.dependence):
        return False
    if not (0 <= cert.w_prime_index < len(config.centralizer_weyl)):
        return False
    if config.centralizer_weyl[cert.w_prime_index] != cert.w_prime:
        return False
    try:
        w_inv = weyl_inverse(cert.w)
        for gen in config.m_generators:
            moved = act_on_lie(w_inv, gen)
            if not parabolic_contains(space, subset, moved, ParabolicSide.STANDARD):
                return False
            if not parabolic_contains(space, subset, moved, ParabolicSide.OPPOSITE):
                return False
        funcs = [act_on_functional_vec(cert.w, fundamental_weight(space, i))
                 for i in subset]
        for b in config.a_basis.basis:
            tb = cert.w_prime.transport_inverse(b)
            total = sum((c * dot(f, tb) for c, f in zip(cert.dependence, funcs)),
                        Fraction(0))
            if total != 0:
                return False
        if cert.integer_dependence is not None:
            ints = cert.integer_dependence
            if len(ints) != len(subset) or all(c == 0 for c in ints):
                return False
            for b in config.a_basis.basis:
                tb = cert.w_prime.transport_inverse(b)
                total = sum((c * dot(f, tb) for c, f in zip(ints, funcs)),
                            Fraction(0))
                if total != 0:
                    return False
    except (ValueError, IndexError):
        return False
    return True

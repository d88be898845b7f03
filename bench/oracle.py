"""Independent correctness oracle.

Shares no code with the engine: it re-derives the criterion from its
definitions with its own exact arithmetic.

- chi_i(x) is the sum over factors of the first i coordinates of each block
  (exact on trace-zero x).
- w = (p_1, ..., p_m) acts by w(chi_i)(x) = sum_k sum_{l < i} x[k, p_k(l)].
- (I, w) is admissible when Ad(w^-1) of every M generator is block diagonal
  at every cut in I, i.e. it lies in both the standard and the opposite
  parabolic.  Ad(w^-1) moves entry (a, b) to (p^-1(a), p^-1(b)); the signs
  of the permutation representatives do not change the support.
- w' transports Lie(A) by x -> W'^-1 diag(x) W'.

The verdict is "not uniformly nondivergent" exactly when some admissible
(I, w) and some w' leave {w(chi_i) : i in I} dependent on the transported
Lie(A).  Dependent subsets of the admissible cuts G(w) exist iff the rows for
all of G(w) are dependent, so one rank per (w, w') decides it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


def rank(rows) -> int:
    """Exact rank over Q (plain Gaussian elimination on Fractions)."""
    work = [[Fraction(x) for x in r] for r in rows]
    rk, cols = 0, len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        for i in range(rk + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[rk][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
        rk += 1
    return rk


def inverse(mat) -> tuple:
    """Gauss-Jordan inverse of an invertible rational matrix."""
    n = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def _matmul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0))
             for j in range(len(y[0]))] for i in range(len(x))]


def transported_basis(problem, element) -> list[tuple]:
    """Lie(A) basis moved by W'^-1 diag(.) W', factor by factor."""
    n = problem.n
    inv = [inverse(f) for f in element]
    out = []
    for b in problem.a_basis:
        vec = []
        for k, f in enumerate(element):
            diag = [[Fraction(b[k * n + i]) if i == j else Fraction(0)
                     for j in range(n)] for i in range(n)]
            y = _matmul(_matmul(inv[k], diag), f)
            if any(y[i][j] for i in range(n) for j in range(n) if i != j):
                raise ValueError("w' does not normalize the torus")
            vec += [y[i][i] for i in range(n)]
        out.append(tuple(vec))
    return out


def _integral(vectors) -> list[tuple[int, ...]]:
    """Scale each vector to integers; the span (hence every rank) is unchanged."""
    out = []
    for v in vectors:
        den = math.lcm(*(Fraction(x).denominator for x in v))
        out.append(tuple(int(x * den) for x in v))
    return out


def admissible_cuts(problem, perms) -> tuple[int, ...]:
    """Cuts i at which every Ad(w^-1)-moved generator is block diagonal."""
    n = problem.n
    inv = []
    for p in perms:
        q = [0] * n
        for i, pi in enumerate(p):
            q[pi] = i
        inv.append(q)
    support = [(inv[k][a], inv[k][b])
               for g in problem.generators for k, f in enumerate(g)
               for a in range(n) for b in range(n) if a != b and f[a][b] != 0]
    return tuple(i for i in range(1, n) if all((a < i) == (b < i) for a, b in support))


def weight_value(n: int, perms, i: int, x) -> Fraction:
    """w(chi_i)(x)."""
    return sum(x[k * n + p[l]] for k, p in enumerate(perms) for l in range(i))


@dataclass(frozen=True)
class OracleVerdict:
    nondivergent: bool
    pairs_examined: int
    pairs_admissible: int   # only meaningful when nondivergent
    weyl_order: int

    @property
    def verdict(self) -> str:
        return ("uniformly-nondivergent" if self.nondivergent
                else "not-uniformly-nondivergent")

    def expected_stats(self):
        if not self.nondivergent:
            return None
        return {"pairs_examined": self.pairs_examined,
                "pairs_admissible": self.pairs_admissible,
                "weyl_order": self.weyl_order}


def decide(problem) -> OracleVerdict:
    n, m, r = problem.n, problem.m, problem.rank
    bases = [_integral(transported_basis(problem, e))
             for e in problem.centralizer_list()]
    admissible = 0
    weyl_order = 0
    for perms in itertools.product(itertools.permutations(range(n)), repeat=m):
        weyl_order += 1
        cuts = admissible_cuts(problem, perms)
        if not cuts:
            continue
        admissible += 2 ** len(cuts) - 1
        for basis in bases:
            rows = [[weight_value(n, perms, i, b) for b in basis] for i in cuts]
            if rank(rows) < len(cuts):
                return OracleVerdict(False, 0, 0, 0)
    return OracleVerdict(True, (2 ** r - 1) * weyl_order, admissible, weyl_order)


# --- checks of the engine's reports ------------------------------------------

def _fractions(raw) -> list[Fraction]:
    return [Fraction(str(x)) for x in raw]


def check_certificate(problem, cert: dict) -> list[str]:
    """Re-verify a reported certificate: a valid admissible (I, w, w') whose
    stated dependence vanishes on the transported Lie(A)."""
    n, m, r = problem.n, problem.m, problem.rank
    try:
        subset = [int(i) for i in cert["subset"]]
        perms = [tuple(int(i) - 1 for i in p) for p in cert["weyl"]["one_line"]]
        index = int(cert["centralizer"]["index"])
        mats = tuple(tuple(tuple(_fractions(row)) for row in f)
                     for f in cert["centralizer"]["matrices"])
        dependence = _fractions(cert["dependence"])
        ints = cert.get("integer_dependence")
        ints = None if ints is None else _fractions(ints)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"certificate is malformed: {exc!r}"]
    if not subset or subset != sorted(set(subset)) or subset[0] < 1 or subset[-1] > r:
        return [f"subset {subset} is not a nonempty sorted subset of 1..{r}"]
    if len(perms) != m or any(sorted(p) != list(range(n)) for p in perms):
        return ["Weyl element is not an m-tuple of permutations"]
    elems = problem.centralizer_list()
    if not 0 <= index < len(elems) or elems[index] != mats:
        return [f"centralizer element #{index} is not the declared one"]
    problems = []
    if not set(subset) <= set(admissible_cuts(problem, perms)):
        problems.append("(I, w) is not admissible")
    basis = transported_basis(problem, mats)
    for label, coeffs in (("dependence", dependence),
                          ("integer_dependence", ints)):
        if coeffs is None:
            continue
        if len(coeffs) != len(subset) or not any(coeffs):
            problems.append(f"{label} is empty or zero")
            continue
        for b in basis:
            if sum(c * weight_value(n, perms, i, b)
                   for c, i in zip(coeffs, subset)) != 0:
                problems.append(f"{label} does not vanish on the transported Lie(A)")
                break
    return problems


def check_witness(problem, cert: dict, witness: dict) -> list[str]:
    """The escape data: u_j = w(chi_i) as trace-zero vectors, every weight
    value on v exactly 2 * sigma0_j, and every reported check true."""
    n = problem.n
    try:
        perms = [tuple(int(i) - 1 for i in p) for p in cert["weyl"]["one_line"]]
        u_basis = [_fractions(u) for u in witness["u_basis"]]
        v = _fractions(witness["v"])
        sigma = [int(s) for s in witness["sigma0"]]
        checks = witness["checks"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"witness is malformed: {exc!r}"]
    problems = []
    if len(u_basis) != len(cert["subset"]) or len(sigma) != len(u_basis):
        return ["witness sizes do not match the certificate"]
    for u, i, s in zip(u_basis, cert["subset"], sigma):
        expected = [Fraction(0)] * len(v)
        for k, p in enumerate(perms):
            for l in range(n):
                expected[k * n + p[l]] = Fraction(int(l < i)) - Fraction(i, n)
        if u != expected:
            problems.append(f"u for index {i} is not w(chi_{i})")
        if sum(a * b for a, b in zip(u, v)) != 2 * s:
            problems.append(f"weight value of index {i} on v is not {2 * s}")
    if not isinstance(checks, dict) or not checks or not all(checks.values()):
        problems.append(f"witness checks not all true: {checks}")
    return problems


def _finite_positive(values) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) and x > 0
               for x in values)


def check_probe(problem, report: dict) -> list[str]:
    """Shape and finiteness of the decay and lattice-probe tables."""
    settings = problem.probe
    problems = []
    decay = report.get("decay") or []
    if [row.get("N") for row in decay] != sorted(set(settings["n-values"]) | {0}):
        problems.append("decay rows do not cover 0 and the n-values")
    if not _finite_positive(row.get("max_min_norm") for row in decay):
        problems.append("decay table holds a non-finite or non-positive norm")
    rows = (report.get("probe") or {}).get("rows") or []
    if [row.get("N") for row in rows] != list(settings["n-values"]):
        problems.append("probe rows do not follow the n-values")
    for row in rows:
        values = [v for _, v in row.get("values", [])]
        if len(values) != settings["grid-points"] or not _finite_positive(values):
            problems.append(f"probe row N={row.get('N')} is incomplete or non-finite")
        elif row.get("min") != min(values) or row.get("max") != max(values):
            problems.append(f"probe row N={row.get('N')} min/max disagree with values")
    return problems


def check_report(problem, expected: OracleVerdict, command: str,
                 report: dict) -> list[str]:
    """Everything the benchmark checks in one report."""
    problems = []
    if report.get("verdict") != expected.verdict:
        return [f"verdict {report.get('verdict')!r}, oracle says {expected.verdict!r}"]
    cert = report.get("certificate")
    if expected.nondivergent:
        if cert is not None:
            problems.append("nondivergent report carries a certificate")
        if report.get("stats") != expected.expected_stats():
            problems.append(f"stats {report.get('stats')} != {expected.expected_stats()}")
        return problems
    if cert is None:
        return ["divergent report has no certificate"]
    problems += check_certificate(problem, cert)
    if problems:
        return problems
    if command in ("certify", "probe"):
        problems += check_witness(problem, cert, report.get("witness") or {})
    if command == "probe":
        problems += check_probe(problem, report)
    return problems

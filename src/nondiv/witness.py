"""Constructive divergence pipeline behind a certificate.

From a replayable certificate this module builds an escape vector v in the
span U of the transported weight duals, a sign orthant missed by the
projection U' of the transported Lie(A), and so the divergence sequence
g_N = w' exp(N v) w, and a two-part verification: the exact part re-checks the
rational conditions that carry the universal quantifier over H, the numeric
part measures wedge-line norm decay along h * g_N over a grid of H = A M from
exact exponents and exact base norms.  The module is exact-only: it forms
no float matrix.

The missed orthant is the sign pattern of the certified dependence c, with
f_i = w(chi_i) and sum_i c_i f_i = 0 on the transported Lie(A): sigma0_i = -1
where c_i < 0 and +1 elsewhere.  Each f_i lies in U, so the sum vanishes on U'
too, and sigma0 misses U': a point x of U' with sign pattern sigma0 would give
0 = sum_i c_i f_i(x) = sum_i (sigma0_i c_i)(sigma0_i f_i(x)) > 0, as every
sigma0_i c_i >= 0 and c != 0.  The audit checks exactly these three facts, so
it holds for any such c, zero coefficients included.  A certificate from the
scan has none: its subset I is the least hit, and every proper subset of I is
admissible for the same (w, w') and comes earlier, so it is independent.  The
certified weights are then a circuit on the transported Lie(A), c is unique
up to scale with c_1 > 0, and by Stiemke's transposition theorem (Schrijver,
Theory of Linear and Integer Programming, 7.8) the orthants U' misses are
exactly +-sign(c): sigma0 is the first of them with +1 before -1 per index.
The f_i are independent (the chi_i of distinct cuts are, and w is
invertible), so dim U = |I| and U' is proper when its dimension is below |I|.

v and U' come from one exact elimination: with G = [(f_i | f_j)] nonsingular
and b_j = Ad(w'^-1) of the Lie(A) basis, the rows [G | 2 sigma0 | (f_i | b_j)]
reduce to [I | y | T].  So v = sum_i y_i f_i is the one vector of U with
(f_i | v) = 2 sigma0_i, and sum_i T_ij f_i is the projection of b_j onto U;
these span U', whose reduced-echelon basis is that of any spanning set.

H acts on a certified wedge line through A alone.  Take mu in M: it commutes
with w', which centralizes M, and with exp(N v), since D centralizes M, so
mu g_N = g_N (w^-1 mu w).  The two parabolic containments that replay checks
put w^-1 mu w in the Levi of P_I, which acts on the top wedge of the
nilradical by a character, trivial on the semisimple M.  With
exp(a) w' = w' exp(Ad(w'^-1) a), the norm of the line l under exp(a) mu g_N
is exp((w omega)(Ad(w'^-1) a + N v)) * |Ad(w' w) l|, omega the nilradical's
weight: an exact rational exponent times one base norm per line.  At cut i
omega is the sum of the roots e_a - e_b of the units (a < i <= b in every
factor), which is n chi_i on the standard side and -n chi_i on the
opposite one, so w omega = +-n f_i, the certified weight the witness holds,
and the slope (w omega)(v) = +-n (f_i | v) = +-2n sigma0_i: every certified
index has one line of slope -2n.  So the H samples are coordinates in the
Lie(A) basis only, the exponent is linear in them, and `decay_table`
transports each basis vector once, orders the samples by their exact
exponents and prints that closed form.

The base norms are exact too.  In factor k, Ad(g)E_ab is the outer product of
column a of g and row b of g^-1, so with C = g^T g the cut-i line has Gram
matrix C[A,A] (x) C^-1[B,B], A = {0..i-1}, B = {i..n-1} (swapped on the
opposite side), of determinant det C[A,A]^|B| det C^-1[B,B]^|A|; as det C = 1,
Jacobi's identity (Horn and Johnson, Matrix Analysis, 0.8.4) makes
det C^-1[B,B] = det C[A,A], so beta = prod_k det C_k[S,S]^n, S = A standard
and B opposite.  Column j of g = w' w is +-column p[j] of w', so C[S,S] is the
Gram matrix of the columns p[S] of w'.  The decay table realizes nothing:
each row rounds the one exact square root and the one exponential, so the
module holds no float kernel.  Only the lattice probe reads g_N, and
`lattice.realize_divergence_sequence` realizes it there.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from ._record import record
from .criterion import Certificate, GroupConfig, replay_certificate
from .linalg import Orthant, Subspace, Vec, _rref, det as exact_det, dot, transpose
from .rootdata import ParabolicSide, fundamental_weight
from .weyl import CentralizerWeylElement, WeylElement, act_on_functional


class ExactCheckFailedError(RuntimeError):
    """An exact witness condition failed, in construction or on
    re-verification; either contradicts the certificate."""


@record
class EscapeWitness:
    u_vectors: tuple[Vec, ...]   # duals of the w-transported weights, a basis of U
    u_prime: Subspace            # projection of the transported Lie(A) onto U
    sigma0: Orthant              # orthant missed by u_prime
    v: Vec                       # escape vector, each weight value exactly +-2


def build_escape_witness(cert: Certificate, config: GroupConfig) -> EscapeWitness:
    """Escape data for a certificate: U, the missed orthant (the sign pattern
    of the dependence), and U' and v from one elimination (module docstring)."""
    if not replay_certificate(config, cert):
        raise ValueError("certificate does not replay against the configuration")
    spec = config.spec
    # standard form: dual vector = coefficient vector
    funcs = tuple(act_on_functional(cert.w, fundamental_weight(spec, i))
                  for i in cert.subset)
    sigma0 = Orthant(tuple(-1 if c < 0 else 1 for c in cert.dependence))
    moved = [cert.w_prime.transport_inverse(b) for b in config.a_basis.basis]
    k = len(funcs)
    red, pivots = _rref([[dot(f, g) for g in funcs] + [2 * s] + [dot(f, b) for b in moved]
                         for f, s in zip(funcs, sigma0.signs)])
    if pivots[:k] != list(range(k)):
        raise ValueError("singular system")
    # each column c past G gives the vector sum_i red[i][c] f_i of U
    v, *images = [tuple(dot(c, x) for x in transpose(funcs)) for c in transpose(red)[k:]]
    u_prime = Subspace.span(spec.ambient_dim, images)
    if u_prime.dim >= k:
        raise ExactCheckFailedError("projection of Lie(A) covers the weight span")
    if any(dot(f, v) != 2 * s for f, s in zip(funcs, sigma0.signs)):
        raise ExactCheckFailedError("escape vector weight values are not +-2")
    return EscapeWitness(funcs, u_prime, sigma0, v)


# --- exact base norms -------------------------------------------------------

def wedge_norm(cut: int, side: ParabolicSide, w: WeylElement,
               w_prime: CentralizerWeylElement) -> Fraction:
    """Squared norm beta of the wedge line at `cut` on `side` under Ad(w' w),
    exactly: the product over factors of det C_k[S,S]^n, a Gram determinant
    of columns of w'_k (module docstring)."""
    beta = Fraction(1)
    for wp, p in zip(w_prime.matrices, w.perms):
        n = len(p)
        s = range(cut) if side is ParabolicSide.STANDARD else range(cut, n)
        cols = [[row[p[j]] for row in wp] for j in s]
        beta *= exact_det([[dot(x, y) for y in cols] for x in cols]) ** n
    return beta


def sqrt_rounded(q: Fraction) -> float:
    """sqrt(q) of a positive rational, correctly rounded to the nearest double.

    The root of q 4^s is taken in integers with s chosen so that it has at
    least 56 bits; an inexact root gets its last bit set (round to odd), so
    the one rounding in the int-to-float conversion is the correct one, and
    scaling by 2^-s is exact in the normal range.
    """
    p, r = q.numerator, q.denominator
    s = (112 - p.bit_length() + r.bit_length()) // 2
    num, den = (p << 2 * s, r) if s >= 0 else (p, r << -2 * s)
    root = math.isqrt(num // den)
    return math.ldexp(float(root | (root * root * den != num)), -s)


GRID_RADIUS = 5  # half-width of the H grid in each Lie(A) basis coordinate
GRID_POINTS = 21  # grid points per Lie(A) basis coordinate


@record
class HSampler:
    """Deterministic H samples: a grid in Lie(A), GRID_RADIUS wide on each
    side, held as coordinates in the Lie(A) basis and labelled by them (a
    zero-dimensional Lie(A) has the one sample t=()).  M moves no certified
    wedge line's norm (module docstring), so it needs no samples."""

    a_coords: tuple[tuple[Fraction, ...], ...]
    a_labels: tuple[str, ...]

    @classmethod
    def default(cls, config: GroupConfig) -> "HSampler":
        step = Fraction(2 * GRID_RADIUS, GRID_POINTS - 1)
        coords = [-GRID_RADIUS + k * step for k in range(GRID_POINTS)]
        grid = tuple(itertools.product(coords, repeat=config.a_basis.dim))
        return cls(grid, tuple("t=(" + ",".join(map(str, c)) + ")" for c in grid))


@record
class DecayRow:
    n_value: int
    max_min_norm: float
    worst_sample: str
    fired: tuple[tuple[str, int], ...]  # which (index, side) achieved the min


@record
class WitnessReport:
    exact_passed: bool
    n_target: int
    baseline: float
    n_zero_required: float
    rows: tuple[DecayRow, ...]
    anomalies: tuple[tuple[int, float, str], ...]


def check_witness_exact(witness: EscapeWitness, dependence: Sequence[Fraction]) -> None:
    """Exact part of the divergence verification, in rational arithmetic.

    The dependence c certifies that sigma0 misses U' (module docstring):
    sigma0_i c_i >= 0 for every i, c != 0, and sum_i c_i (f_i | b) = 0 for
    every basis vector b of U'.  That plus the weight values on v exceeding 1
    with the sign pattern sigma0 carry the uniform bound over all of H; any
    failure means the certificate or the witness construction is unsound.
    """
    funcs = witness.u_vectors
    signs = witness.sigma0.signs
    if witness.u_prime.dim >= len(funcs):
        raise ExactCheckFailedError("projected subspace is not proper")
    if (not (len(dependence) == len(signs) == len(funcs)) or not any(dependence)
            or any(s * c < 0 for s, c in zip(signs, dependence))
            or any(sum((c * dot(f, b) for c, f in zip(dependence, funcs)), Fraction(0))
                   for b in witness.u_prime.basis)):
        raise ExactCheckFailedError("the dependence does not certify that the "
                                    "witness orthant misses the projected subspace")
    for f, s in zip(funcs, signs):
        val = dot(f, witness.v)
        if not (abs(val) > 1 and (val > 0) == (s > 0)):
            raise ExactCheckFailedError("escape vector weight values are not as certified")


def decay_table(cert: Certificate, witness: EscapeWitness, n_values: Sequence[int],
                sampler: HSampler, config: GroupConfig) -> tuple[DecayRow, ...]:
    """Max over H samples of the min wedge-line norm, one row per N.

    The minimum ranges over the certified indices and both parabolic sides;
    a row for N = 0 is always included as the baseline.  By the module
    docstring the norm of line l at the a-point a = sum_j c_j b_j is
    exp(x_l(a) + N y_l) B_l, with the line weight +-n f_q (f_q the certified
    weight of the line's cut, + on the standard side), exact exponents
    x_l(a) = sum_j c_j (+-n f_q | Ad(w'^-1) b_j), slopes y_l = (+-n f_q | v)
    = +-2n sigma0_q and the exact base norm B_l = sqrt(beta_l), beta_l = p/q
    from `wedge_norm`.  Lines within a sample, and samples within a row, are
    ordered by the key float(x_l(a) + N y_l) + (log p - log q)/2; ties go to
    the first line, then to the first sample, and equal exponents over equal
    bases tie exactly.  Each row prints exp(x_l(a) + N y_l) times B_l rounded
    once, of its chosen line at the chosen a-point, so nothing is realized
    and no norm underflows before exp does.
    """
    spec = config.spec
    lines = [(j, side) for j in cert.subset
             for side in (ParabolicSide.STANDARD, ParabolicSide.OPPOSITE)]
    names = [f"{j}:{side.value}" for j, side in lines]
    betas = [wedge_norm(j, side, cert.w, cert.w_prime) for j, side in lines]
    bases = [sqrt_rounded(b) for b in betas]
    log_bases = [(math.log(b.numerator) - math.log(b.denominator)) / 2 for b in betas]
    # the line weights +-n f_q, in the order of `lines`
    weights = [tuple(sign * spec.n * x for x in f)
               for f in witness.u_vectors for sign in (1, -1)]
    slopes = [dot(w_omega, witness.v) for w_omega in weights]
    moved = [cert.w_prime.transport_inverse(b) for b in config.a_basis.basis]
    on_basis = [[dot(w_omega, b) for b in moved] for w_omega in weights]
    offsets = [[sum((c * x for c, x in zip(coords, xs)), Fraction(0)) for xs in on_basis]
               for coords in sampler.a_coords]

    rows = []
    for n_val in sorted({0, *n_values}):
        # (key, line index) of each sample's min; the first line wins ties
        chosen = [min((float(x + n_val * y) + lb, i)
                      for i, (x, y, lb) in enumerate(zip(xs, slopes, log_bases)))
                  for xs in offsets]
        worst = max(range(len(chosen)), key=lambda i: chosen[i][0])
        best = chosen[worst][1]
        value = math.exp(float(offsets[worst][best] + n_val * slopes[best])) * bases[best]
        fired = Counter(names[i] for _, i in chosen)
        rows.append(DecayRow(n_val, value, sampler.a_labels[worst],
                             tuple(sorted(fired.items()))))
    return tuple(rows)


def verify_divergence(cert: Certificate, witness: EscapeWitness,
                      n_values: Sequence[int], sampler: HSampler,
                      n_target: int, config: GroupConfig) -> WitnessReport:
    """Two-part divergence verification.

    Exact part: re-checks, in rational arithmetic, that the certified
    dependence shows the witness orthant missing the projected subspace and
    that every weight value on v exceeds 1 in absolute value with the witness
    sign pattern.  Numeric part: samples H, evaluates the minimum wedge-line
    norm over the certified indices and both parabolic sides on h * g_N, and
    reports the maximum over samples per N; rows at N beyond the derived
    threshold must drop below 1/n_target, and violations are reported (not
    fatal) with the offending sample.
    """
    check_witness_exact(witness, cert.dependence)
    rows = decay_table(cert, witness, n_values, sampler, config)
    baseline = next(r.max_min_norm for r in rows if r.n_value == 0)
    n_zero_required = math.log(max(n_target * baseline, 1e-300))
    anomalies = []
    for row in rows:
        if row.n_value >= n_zero_required and row.max_min_norm >= 1.0 / n_target:
            anomalies.append((row.n_value, row.max_min_norm, row.worst_sample))
    return WitnessReport(True, n_target, baseline, n_zero_required,
                         rows, tuple(anomalies))

"""Problem instances for the benchmark: an in-memory model, a writer and a
reader for the shipped INI problem format, and the seeded generator of each
workload's batch.

Nothing here imports the engine.  The generator hands the engine only the
files it writes; the oracle reads the same files back with `read_problem`,
so a writer bug shows up as an oracle disagreement instead of hiding.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from oracle import rank

Vec = tuple  # of Fraction
Mat = tuple  # of row tuples of Fraction


@dataclass(frozen=True)
class Problem:
    """One problem file: SL_n^m with Lie(M) generators, Lie(D), Lie(A), the
    explicit centralizer Weyl list (empty for mode auto-trivial-m) and the
    optional [probe] settings."""

    n: int
    m: int
    generators: tuple        # each an m-tuple of n x n matrices
    d_basis: tuple
    a_basis: tuple
    centralizer: tuple = ()  # each an m-tuple of n x n matrices
    probe: Optional[dict] = None

    @property
    def rank(self) -> int:
        return self.n - 1

    @property
    def weyl_order(self) -> int:
        f = 1
        for k in range(2, self.n + 1):
            f *= k
        return f ** self.m

    def centralizer_list(self) -> list:
        """The representatives the scan ranges over: the explicit list with
        the identity prepended when absent, or the identity alone."""
        eye = identity(self.n)
        ident = tuple(eye for _ in range(self.m))
        elems = list(self.centralizer)
        if not any(all(f == eye for f in e) for e in elems):
            elems.insert(0, ident)
        return elems


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def zero_matrix(n: int) -> Mat:
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


# --- INI format ---------------------------------------------------------------

def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _vecs_json(vectors) -> str:
    return json.dumps([[_q(e) for e in v] for v in vectors])


def _tuples_json(elements) -> str:
    return json.dumps([[[[_q(e) for e in row] for row in f] for f in el]
                       for el in elements])


def write_problem(p: Problem) -> str:
    """Serialize in the shipped problem-file format."""
    lines = ["[group]", "family = res-sl", f"n = {p.n}", f"m = {p.m}", "",
             "[subgroup-m]",
             "generators = " + (_tuples_json(p.generators) if p.generators
                                else "trivial"),
             "", "[torus-d]", "basis = " + _vecs_json(p.d_basis),
             "", "[torus-a]", "basis = " + _vecs_json(p.a_basis),
             "", "[centralizer-weyl]"]
    if p.centralizer:
        lines += ["mode = explicit", "elements = " + _tuples_json(p.centralizer)]
    else:
        lines += ["mode = auto-trivial-m"]
    if p.probe is not None:
        s = p.probe
        lines += ["", "[probe]", f"d = {s['d']}", f"grid-radius = {s['grid-radius']}",
                  f"grid-points = {s['grid-points']}",
                  f"n-values = {json.dumps(s['n-values'])}", f"seed = {s['seed']}"]
    return "\n".join(lines) + "\n"


def _frac_tuple(raw) -> tuple:
    return tuple(Fraction(str(e)) for e in raw)


def _element(raw) -> tuple:
    return tuple(tuple(_frac_tuple(row) for row in f) for f in raw)


def read_problem(text: str) -> Problem:
    """Parse a problem file (the subset of the format the oracle needs)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    n, m = int(cp["group"]["n"]), int(cp["group"]["m"])
    raw_gens = cp["subgroup-m"]["generators"].strip()
    gens = () if raw_gens == "trivial" else tuple(
        _element(g) for g in json.loads(raw_gens))
    d = tuple(_frac_tuple(v) for v in json.loads(cp["torus-d"]["basis"]))
    a = tuple(_frac_tuple(v) for v in json.loads(cp["torus-a"]["basis"]))
    cw = cp["centralizer-weyl"]
    elems = (tuple(_element(e) for e in json.loads(cw["elements"]))
             if cw["mode"].strip() == "explicit" else ())
    probe = None
    if cp.has_section("probe"):
        s = cp["probe"]
        probe = {"d": int(s.get("d", "2")),
                 "grid-radius": float(Fraction(s.get("grid-radius", "5"))),
                 "grid-points": int(s.get("grid-points", "21")),
                 "n-values": json.loads(s.get("n-values", "[0, 2, 4, 6]")),
                 "seed": int(s.get("seed", "24301"), 0)}
    return Problem(n, m, gens, d, a, elems, probe)


# --- seeded generator ---------------------------------------------------------

@dataclass(frozen=True)
class Slot:
    """One position of a workload's batch: what kind of instance goes there."""

    kind: str           # "exhaust", "early-certificate", "certificate", "known-defect"
    n: int
    m: int
    dim_a: int
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Instance:
    name: str
    slot: Slot
    problem: Problem
    text: str
    expected: object        # the oracle's verdict, computed at generation


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if x or not nonzero:
            return x


def _trace_zero_vector(rng: random.Random, n: int, m: int) -> Vec:
    out = []
    for _ in range(m):
        block = [_rational(rng) for _ in range(n - 1)]
        out += block + [-sum(block, Fraction(0))]
    return tuple(out)


def _independent(count, draw) -> tuple:
    while True:
        vecs = tuple(draw() for _ in range(count))
        if rank(vecs) == count:
            return vecs


def full_cartan(n: int, m: int) -> tuple:
    """Basis e_j - e_{j+1} of the trace-zero Cartan space of SL_n^m."""
    out = []
    for k in range(m):
        for j in range(n - 1):
            v = [Fraction(0)] * (n * m)
            v[k * n + j], v[k * n + j + 1] = Fraction(1), Fraction(-1)
            out.append(tuple(v))
    return tuple(out)


def torus_problem(n: int, m: int, a_basis) -> Problem:
    return Problem(n, m, (), full_cartan(n, m), tuple(a_basis))


def _signed_permutation(p) -> Mat:
    """Determinant-one matrix of the permutation: row 0 negated when odd."""
    n = len(p)
    inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if p[i] > p[j])
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[p[i]][i] = Fraction(1)
    if inversions % 2:
        rows[0] = [-x for x in rows[0]]
    return tuple(tuple(r) for r in rows)


def so21_family() -> Problem:
    """Res SL_4 with m = 2 and M the SO(2,1) block on coordinates 2..4 of the
    first factor; D is the centralizer torus and the centralizer Weyl list is
    every determinant-one permutation matrix of the second factor (24)."""
    n, m = 4, 2

    def gen(entries):
        f = [[Fraction(0)] * n for _ in range(n)]
        for a, b, c in entries:
            f[a][b] = Fraction(c)
        return (tuple(tuple(r) for r in f), zero_matrix(n))

    gens = (gen([(1, 2, 1), (2, 1, -1)]), gen([(1, 3, 1), (3, 1, 1)]),
            gen([(2, 3, 1), (3, 2, 1)]))
    d1 = tuple(Fraction(x) for x in (3, -1, -1, -1, 0, 0, 0, 0))
    d = (d1,) + full_cartan(n, m)[n - 1:]
    cw = tuple((identity(n), _signed_permutation(p))
               for p in itertools.permutations(range(n)))
    return Problem(n, m, gens, d, (), cw)


def _torus_slot(rng: random.Random, slot: Slot) -> Problem:
    vecs = _independent(slot.dim_a, lambda: _trace_zero_vector(rng, slot.n, slot.m))
    return torus_problem(slot.n, slot.m, vecs)


def _m_scan_slot(rng: random.Random, slot: Slot) -> Problem:
    base = so21_family()
    # "exhaust" slots keep the first-factor direction d1 in the seeded subset,
    # so Lie(A) meets it; certificate slots stay inside the second factor.
    if slot.kind == "exhaust":
        subset = [0] + sorted(rng.sample(range(1, 4), rng.randint(0, 3)))
    else:
        subset = sorted(rng.sample(range(1, 4), rng.randint(slot.dim_a, 3)))
    span = [base.d_basis[i] for i in subset]

    def combo():
        coeffs = [_rational(rng, nonzero=True) for _ in span]
        return tuple(sum((c * v[j] for c, v in zip(coeffs, span)), Fraction(0))
                     for j in range(base.n * base.m))

    a = _independent(slot.dim_a, combo)
    return Problem(base.n, base.m, base.generators, base.d_basis, a,
                   base.centralizer)


SQUAREFREE_D = tuple(d for d in range(2, 48) if d % 4 in (2, 3)
                     and all(d % (k * k) for k in range(2, 7)))


def _probe_slot(rng: random.Random, slot: Slot) -> Problem:
    c = _rational(rng, nonzero=True)
    s = rng.choice((1, -1))
    line = tuple(c * x for x in (1, -1, s, -s))
    n_values = slot.extra.get("n-values") or \
        [0] + sorted(rng.sample(range(1, 9), 3))
    probe = {"d": rng.choice(SQUAREFREE_D), "grid-radius": rng.randint(2, 5),
             "grid-points": slot.extra["grid-points"], "n-values": n_values,
             "seed": rng.randrange(1, 1 << 16)}
    return dataclasses.replace(torus_problem(2, 2, (line,)), probe=probe)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # the nondiv subcommand each instance gets
    replay: bool            # follow each report with `nondiv replay`
    pool: bool              # run the untraced batch with min(2, nproc) workers
    why: str
    slots: tuple
    make: Callable


# Every batch has a fixed mix of slot kinds and sizes: the seed changes the
# numbers in the files, not how much work a pass is, so runs with different
# seeds stay comparable.  Each optimization the criterion may get has a
# workload that exercises it and one that bypasses it.
WORKLOADS = {
    "torus-exhaust": Workload(
        "torus-exhaust", "check", False, False,
        "trivial M: the (I, w) scan and exact rank tests do almost all the "
        "work; the parabolic filter, w' loop, pool, witness and lattice are "
        "bypassed",
        (Slot("exhaust", 4, 2, 6), Slot("exhaust", 4, 2, 5),
         Slot("early-certificate", 4, 2, 2),
         Slot("exhaust", 3, 4, 8), Slot("exhaust", 3, 4, 7),
         Slot("exhaust", 3, 4, 6), Slot("early-certificate", 3, 4, 1)),
        _torus_slot),
    "m-scan": Workload(
        "m-scan", "certify", True, True,
        "SO(2,1) block of Res SL_4, m = 2: centralizer validation, two-sided "
        "parabolic filter, 24-way w' loop and the worker pool, then a serial "
        "replay of every report",
        (Slot("exhaust", 4, 2, 1), Slot("certificate", 4, 2, 1),
         Slot("certificate", 4, 2, 2)),
        _m_scan_slot),
    "witness-probe": Workload(
        "witness-probe", "probe", False, False,
        "divergent n = m = 2 lines: the scan is ~1 ms, so the escape witness, "
        "decay table, lattice reduction/enumeration and process start dominate",
        tuple(Slot("certificate", 2, 2, 1, {"grid-points": g})
              for g in (13, 17, 21, 25, 29))
        # N = 400 overflows the float realization of g_N: a known defect,
        # kept in the batch so that it keeps showing until it is fixed.
        + (Slot("known-defect", 2, 2, 1,
                {"grid-points": 21, "n-values": [0, 400]}),),
        _probe_slot),
}


def generate(workload: Workload, seed: int,
             classify: Callable[[Slot, Problem], object]) -> list[Instance]:
    """The workload's batch for `seed`.  Each slot draws from its own
    stream, redrawing until `classify` (the oracle's class check) returns a
    verdict instead of None, so the same seed always gives byte-identical
    files."""
    out = []
    for i, slot in enumerate(workload.slots):
        rng = random.Random(f"{workload.name}/{seed}/{i}")
        for _ in range(1000):
            problem = workload.make(rng, slot)
            text = write_problem(problem)
            problem = read_problem(text)
            expected = classify(slot, problem)
            if expected is not None:
                break
        else:
            raise RuntimeError(f"{workload.name} slot {i}: no accepted draw")
        out.append(Instance(f"{workload.name}-{i:02d}.cfg", slot, problem, text,
                            expected))
    return out

"""Problem-file parsing and the validated problem instance.

A problem file is INI-structured text with JSON-encoded values for vectors and
matrices; rational entries are strings like "3/4" (or bare integers).  Parsing
checks shapes and entries, `build_config` checks trace zero and independence
of the torus bases, and `GroupConfig` every other invariant of the decision
engine; each error names the offending section, field or candidate.

`GroupConfig` is the one place that validates a problem instance, on
integers (`GroupConfig.validate`).  It keeps the support permutations sigma
of each w' that validation reads, with the Lie(A) basis they transport,
Ad(w'^-1) b = b o sigma, so no later stage derives either again.
"""

from __future__ import annotations

import configparser
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from ._record import record
from .linalg import (Mat, Subspace, Vec, _kernel_vectors, clear_denominators, commutes,
                     det, rank, sparse_integer_rows)
from .rootdata import GroupSpec, LieElement
from .weyl import CentralizerWeylElement, identity_centralizer_element

DEFAULT_PROBE_N_VALUES = (0, 2, 4, 6)
# The probe evaluates exp(t) for |t| up to the grid radius.
MAX_GRID_RADIUS = math.log(sys.float_info.max)
# Each (grid point, N) pair of the probe costs one lattice reduction and
# enumeration, so both counts are bounded before any work starts.
MAX_GRID_POINTS = 1001
MAX_N_VALUES = 64
# Every section and key a problem file may hold; [probe] seed has no effect.
KNOWN_KEYS = {
    "group": {"family", "n", "m"},
    "subgroup-m": {"generators"},
    "torus-d": {"basis"}, "torus-a": {"basis"},
    "centralizer-weyl": {"mode", "elements"},
    "probe": {"d", "grid-radius", "grid-points", "n-values", "seed"},
}


class ConfigError(ValueError):
    """A problem configuration violates a structural invariant."""


@record
class ProbeSettings:
    d: int
    grid_radius: float
    grid_points: int
    n_values: tuple[int, ...]


@record
class ProblemFile:
    spec: GroupSpec
    m_generators: tuple[LieElement, ...]
    d_vectors: tuple[Vec, ...]
    a_vectors: tuple[Vec, ...]
    centralizer_elements: tuple[tuple[Mat, ...], ...]
    probe: Optional[ProbeSettings]


def _rational(raw, where: str, memo: dict) -> Fraction:
    """The entry as a Fraction: an integer, or a string such as "3/4".
    `memo` holds the strings and integers already parsed in this file (a
    bool or float never reaches the lookup, where it would equal an int)."""
    kind = type(raw)
    if kind is not str and kind is not int:
        raise ConfigError(f"{where}: invalid rational {raw!r}")
    q = memo.get(raw)
    if q is None:
        try:
            q = Fraction(raw.strip()) if kind is str else Fraction(raw)
        except ZeroDivisionError:
            raise ConfigError(f"{where}: invalid rational {raw!r}: zero denominator")
        except ValueError:
            raise ConfigError(f"{where}: invalid rational {raw!r}")
        memo[raw] = q
    return q


def _json_value(section: str, key: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"[{section}] {key}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    except RecursionError:
        raise ConfigError(f"[{section}] {key}: JSON is nested too deeply")


def _vector(raw, where: str, length: int, memo: dict) -> Vec:
    if not isinstance(raw, list) or len(raw) != length:
        raise ConfigError(f"{where}: expected a vector of length {length}")
    return tuple(_rational(e, where, memo) for e in raw)


def _matrix(raw, where: str, n: int, memo: dict) -> Mat:
    if not isinstance(raw, list) or len(raw) != n:
        raise ConfigError(f"{where}: expected an {n} x {n} matrix")
    rows = []
    for ri, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{where}: row {ri + 1} is not a list of {n} entries")
        where_row = f"{where} row {ri + 1}"
        rows.append(tuple(_rational(e, where_row, memo) for e in row))
    return tuple(rows)


def _factor_tuple(raw, where: str, spec: GroupSpec, memo: dict) -> tuple[Mat, ...]:
    if not isinstance(raw, list) or len(raw) != spec.m:
        raise ConfigError(f"{where}: expected a list of {spec.m} factor matrices")
    return tuple(_matrix(f, f"{where} factor {k + 1}", spec.n, memo)
                 for k, f in enumerate(raw))


def parse_problem(text: str, name: str = "<config>") -> ProblemFile:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}")
    for section in parser.sections():  # a [DEFAULT] key shows in every section
        known = KNOWN_KEYS.get(section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"[{section}]: unknown key {key!r}")

    def need(section: str, key: str) -> str:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        if not parser.has_option(section, key):
            raise ConfigError(f"[{section}]: missing key {key!r}")
        return parser.get(section, key)

    family = need("group", "family").strip()
    try:
        n = int(need("group", "n"))
        m = int(need("group", "m"))
    except ValueError as exc:
        raise ConfigError(f"[group]: {exc}")
    if family != "res-sl":
        raise ConfigError(f"[group]: unsupported group family {family!r}")
    try:
        spec = GroupSpec(n, m)
    except ValueError as exc:
        raise ConfigError(f"[group]: {exc}")
    ambient = spec.ambient_dim
    memo: dict = {}  # entry -> Fraction, for this file only

    gens_raw = need("subgroup-m", "generators").strip()
    if gens_raw == "trivial":
        gens: tuple[LieElement, ...] = ()
    else:
        data = _json_value("subgroup-m", "generators", gens_raw)
        if not isinstance(data, list):
            raise ConfigError("[subgroup-m] generators: expected a list")
        out = []
        for gi, g in enumerate(data):
            where = f"[subgroup-m] generators #{gi + 1}"
            factors = _factor_tuple(g, where, spec, memo)
            try:
                out.append(LieElement(factors))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}")
        gens = tuple(out)

    def basis_vectors(section: str) -> tuple[Vec, ...]:
        data = _json_value(section, "basis", need(section, "basis"))
        if not isinstance(data, list):
            raise ConfigError(f"[{section}] basis: expected a list of vectors")
        return tuple(_vector(v, f"[{section}] basis vector #{i + 1}", ambient, memo)
                     for i, v in enumerate(data))

    d_vectors = basis_vectors("torus-d")
    a_vectors = basis_vectors("torus-a")

    mode = need("centralizer-weyl", "mode").strip()
    elements: tuple[tuple[Mat, ...], ...] = ()
    if mode == "auto-trivial-m":
        if gens:
            raise ConfigError(
                "[centralizer-weyl]: mode auto-trivial-m requires trivial M")
    elif mode == "explicit":
        data = _json_value("centralizer-weyl", "elements",
                           need("centralizer-weyl", "elements"))
        if not isinstance(data, list):
            raise ConfigError("[centralizer-weyl] elements: expected a list")
        elements = tuple(
            _factor_tuple(e, f"[centralizer-weyl] elements #{i + 1}", spec, memo)
            for i, e in enumerate(data))
    else:
        raise ConfigError(f"[centralizer-weyl]: unknown mode {mode!r}")

    probe = None
    if parser.has_section("probe"):
        sec = parser["probe"]
        try:
            d = int(sec.get("d", "2"))
            radius = float(Fraction(sec.get("grid-radius", "5")))
            points = int(sec.get("grid-points", "21"))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"[probe]: {exc}")
        nv_raw = sec.get("n-values", None)
        if nv_raw is None:
            n_values = DEFAULT_PROBE_N_VALUES
        else:
            data = _json_value("probe", "n-values", nv_raw)
            if (not isinstance(data, list) or not data
                    or any(type(x) is not int or x < 0 for x in data)):
                raise ConfigError("[probe] n-values: expected nonempty list of "
                                  "nonnegative integers")
            if max(data) > sys.float_info.max:
                raise ConfigError("[probe] n-values: each value must be at most "
                                  f"the largest float, {sys.float_info.max:.2g}")
            if len(data) > MAX_N_VALUES:
                raise ConfigError(f"[probe] n-values: at most {MAX_N_VALUES} values")
            n_values = tuple(data)
        if points < 2:
            raise ConfigError("[probe] grid-points: need at least 2")
        if points > MAX_GRID_POINTS:
            raise ConfigError(f"[probe] grid-points: need at most {MAX_GRID_POINTS}")
        if radius <= 0:
            raise ConfigError("[probe] grid-radius: must be positive")
        if radius > MAX_GRID_RADIUS:
            raise ConfigError(f"[probe] grid-radius: must be at most "
                              f"{MAX_GRID_RADIUS:.2f}, or exp(radius) overflows")
        probe = ProbeSettings(d, radius, points, n_values)

    return ProblemFile(spec, gens, d_vectors, a_vectors, elements, probe)


@record
class GroupConfig:
    """Full problem instance: the group, Lie(M) generators, Lie(D), Lie(A),
    and centralizer Weyl representatives.

    Construction runs `validate`, so every instance, built from a problem
    file or in code, satisfies every invariant the scan, replay and witness
    rely on; the identity representative is then prepended when absent, so
    w' = id is always searched.  Outside the fields (so not in ==, hash or
    repr) it holds, per w' in list order, `sigmas[i]`, the support
    permutations, and `transported_a[i]`, the Lie(A) basis b o sigma."""

    spec: GroupSpec
    m_generators: tuple[LieElement, ...]
    d_basis: Subspace
    a_basis: Subspace
    centralizer_weyl: tuple[CentralizerWeylElement, ...]

    def __post_init__(self):
        sigmas = self.validate()
        if not any(e.is_identity() for e in self.centralizer_weyl):
            identity = identity_centralizer_element(self.spec)
            object.__setattr__(self, "centralizer_weyl", (identity, *self.centralizer_weyl))
            sigmas.insert(0, identity.support_permutations())
        n = self.spec.n
        object.__setattr__(self, "sigmas", tuple(sigmas))
        object.__setattr__(self, "transported_a", tuple(
            tuple(tuple(b[k * n + i] for k, s in enumerate(sigma) for i in s)
                  for b in self.a_basis.basis) for sigma in sigmas))

    def validate(self) -> list:
        """Raise ConfigError naming the first violated invariant, else return
        each w''s support permutations (the Lie(D) test reads them).

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
        sigmas = []
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
            sigma = elem.support_permutations()
            sigmas.append(sigma)
            images = [[v[k * n + s.index(i)] for k, s in enumerate(sigma) for i in range(n)]
                      for v in d_vectors]  # y = v o sigma^-1 on each factor
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
        return sigmas


def build_config(problem: ProblemFile) -> GroupConfig:
    """Instantiate the decision-engine configuration.

    Trace zero and independence are checked here, where the offending
    section can be named; every other invariant is `GroupConfig`'s."""
    spec = problem.spec
    ambient = spec.ambient_dim
    for section, vectors in (("torus-d", problem.d_vectors),
                             ("torus-a", problem.a_vectors)):
        for i, v in enumerate(vectors):
            if not spec.is_trace_zero(v):
                raise ConfigError(
                    f"[{section}] basis vector #{i + 1} is not trace zero per factor")
    try:
        d = Subspace.from_independent(ambient, problem.d_vectors)
    except ValueError as exc:
        raise ConfigError(f"[torus-d] basis: {exc}")
    try:
        a = Subspace.from_independent(ambient, problem.a_vectors)
    except ValueError as exc:
        raise ConfigError(f"[torus-a] basis: {exc}")
    return GroupConfig(spec, problem.m_generators, d, a,
                       tuple(map(CentralizerWeylElement, problem.centralizer_elements)))


"""Problem-file parsing and validation.

A problem file is INI-structured text with JSON-encoded values for vectors and
matrices; rational entries are strings like "3/4" (or bare integers).  Parsing
checks shapes and entries, `build_config` checks trace zero and independence
of the torus bases, and `GroupConfig` every other invariant of the decision
engine; each error names the offending section, field or candidate.
"""

from __future__ import annotations

import configparser
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from ._record import record
from .criterion import ConfigError, GroupConfig
from .linalg import Mat, Subspace, Vec
from .rootdata import GroupSpec, LieElement
from .weyl import CentralizerWeylElement

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


"""Every exit case of the `nondiv` command line, kept once: a new exit case
is added here and nowhere else.  A row of `CASES` is a `Case`:

- `id`, as tier-1 and this script print it;
- `argv`, where "{input}" and "{output}" stand for the input and report paths;
- `source`, the input: a config name (shipped, an `EDITED_CONFIGS` entry,
  or shipped nowhere: a missing file), the input file's bytes, or
  `Report(case id, edit)`, the report that row writes, after `edit(report)`;
- `code`, the exit code;
- `message`, a substring of stderr, which starts with the error prefix, or
  None for an empty stderr;
- `written`, whether a report is written to "{output}";
- `check`, None or `check(report, stdout, stderr)`, true when the report
  (None if none is written) and the streams are as the row expects.

`check_case` checks one row through `invoke(argv) -> (code, stdout,
stderr)`.  Tier-1 (`test_config_cli.py::test_exit_code_table`) passes
`cli.main` with captured streams.  `PYTHONPATH=src python -S
tests/cli_cases.py` runs every row, then each function of `FUNCTIONS`, in a
fresh interpreter in which numpy, scipy, dataclasses and multiprocessing
cannot be imported, and prints one line per case: it is the CI job on the
standard library alone.  This module imports the standard library only.
"""

import json
import math
import subprocess
import sys
import tempfile
import traceback
from collections import namedtuple
from fractions import Fraction as F
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"
ERROR = "nondiv: error: "

Case = namedtuple("Case", "id argv source code message written check", defaults=(None,))
Report = namedtuple("Report", "case edit", defaults=(None,))


class CaseFailed(Exception):
    """A row or a shared function found something other than it expects."""


def _require(ok, what):
    if not ok:
        raise CaseFailed(what)


W2_FACTOR2 = ('[["1", "0", "0", "0"], ["0", "1", "0", "0"], '
               '["0", "0", "0", "1"], ["0", "0", "-1", "0"]]')

# An sl_2 block M in SL_4 with Lie(D) = Lie(A) declared as a line: the
# least hit's weights are dependent on Lie(D) itself, so D is not maximal.
D_NOT_MAXIMAL = """[group]
family = res-sl
n = 4
m = 1

[subgroup-m]
generators = [[[["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]], [[["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]]]

[torus-d]
basis = [["1", "1", "-1", "-1"]]

[torus-a]
basis = [["1", "1", "-1", "-1"]]

[centralizer-weyl]
mode = explicit
elements = []
"""

# Inputs of the exit-code table that are a config with one edit: name ->
# (source, old text, new text), the source a shipped config or another
# entry here; (None, None, text) is a whole file.  Any other name is read
# from configs/ as it is, so a name not shipped there is a missing file.
EDITED_CONFIGS = {
    "d-not-maximal.cfg": (None, None, D_NOT_MAXIMAL),
    "zero-denominator.cfg": ("example1-m2.cfg", '"1", "-1", "1", "-1"',
                             '"1/0", "-1", "1", "-1"'),
    "dependent-d.cfg": ("example1-m2.cfg",
                        'basis = [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]]',
                        'basis = [["1", "-1", "0", "0"], ["2", "-2", "0", "0"]]'),
    "n3-with-probe.cfg": ("example1-n3-m2.cfg", "mode = auto-trivial-m\n",
                          "mode = auto-trivial-m\n\n[probe]\nd = 2\n"),
    "probe-d5.cfg": ("example1-m2.cfg", "d = 2", "d = 5"),
    # 2 mod 4 and far above the bound: trial division to sqrt(d) would not end
    "probe-d-30-digits.cfg": ("example1-m2.cfg", "d = 2",
                              "d = 100000000000000000000000000002"),
    "split-so.cfg": ("example1-m2.cfg", "family = res-sl", "family = split-so"),
    # exp(800) overflows a float; 1e400 overflows the float conversion
    "grid-radius-800.cfg": ("example1-m2.cfg", "grid-radius = 5", "grid-radius = 800"),
    "grid-radius-1e400.cfg": ("example1-m2.cfg", "grid-radius = 5",
                              "grid-radius = 1e400"),
    "full-cartan-a.cfg": ("example1-m2.cfg",
                          '[torus-a]\nbasis = [["1", "-1", "1", "-1"]]',
                          '[torus-a]\nbasis = [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]]'),
    "full-cartan-a-d5.cfg": ("full-cartan-a.cfg", "d = 2", "d = 5"),
    # factor 2 of the second centralizer Weyl element, scaled to det 2 and
    # sheared so that it no longer maps the diagonal Lie(D) to diagonals
    "w-prime-det-2.cfg": ("example2-line.cfg", W2_FACTOR2,
                          W2_FACTOR2.replace('[["1", "0"', '[["2", "0"')),
    "w-prime-shear.cfg": ("example2-line.cfg", W2_FACTOR2,
                          W2_FACTOR2.replace('[["1", "0"', '[["1", "1"')),
    # one explicit w' that is not orthogonal
    "skew-w-prime.cfg": ("example1-m2.cfg", "mode = auto-trivial-m",
                         'mode = explicit\nelements = [[[["3", "0"], ["0", "1/3"]], '
                         '[["0", "-7/5"], ["5/7", "0"]]]]'),
    # factor 1 of w' #1 a quarter turn of e_1, e_2: it does not centralize
    # the SO(2,1) block
    "not-centralizing.cfg": ("example2.cfg",
                             'elements = [[[["1", "0", "0", "0"], ["0", "1", "0", "0"]',
                             'elements = [[[["0", "1", "0", "0"], ["-1", "0", "0", "0"]'),
    # deeper than the JSON decoder's recursion limit
    "deeply-nested-a.cfg": ("example1-m2.cfg", 'basis = [["1", "-1", "1", "-1"]]',
                            "basis = " + "[" * 100_000 + "]" * 100_000),
    # generator #1 stays valid and every entry of #2 is zero
    "zero-generator-2.cfg": ("example2-line.cfg",
                             '["0", "0", "0", "1"], ["0", "0", "0", "0"], ["0", "1", "0", "0"]',
                             '["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]'),
    # v = (1, -1, -1, 1), so exp(710) overflows: g_N holds inf and NaN entries
    "n-values-710.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                         "n-values = [0, 710]"),
    # g_400 is finite, but the lattice reduction of its orbit goes NaN
    "n-values-400.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                         "n-values = [0, 400]"),
    # a squared norm taken at g_N in floats, exp(-8N), underflows from N ~ 93
    "n-values-100-150.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                             "n-values = [0, 100, 150]"),
    # JSON booleans are not integers, although Python's bool is an int
    "n-values-bool.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                          "n-values = [false, true, 2]"),
    "n-values-true.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                          "n-values = [true]"),
    # one past each bound on the probe's work: rejected before the scan
    "grid-points-1002.cfg": ("example1-m2.cfg", "grid-points = 21",
                             "grid-points = 1002"),
    "n-values-65.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                        f"n-values = {list(range(65))}"),
    # 400 digits: past the largest float, so float(N) would overflow
    "n-values-400-digits.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                                f"n-values = [0, 1{'0' * 399}]"),
    # a typo of grid-points, and a section and a [DEFAULT] key no one reads
    "grid-point-typo.cfg": ("example1-m2.cfg", "grid-points = 21", "grid-point = 5"),
    "unknown-section.cfg": ("example1-m2.cfg", "[probe]\n", "[probes]\nd = 2\n\n[probe]\n"),
    "default-key.cfg": ("example1-m2.cfg", "[group]\n", "[DEFAULT]\nseed = 1\n\n[group]\n"),
    # Lie(A) = 0: the H grid is the one empty sample t=()
    "zero-dim-a.cfg": ("example1-m2.cfg", '[torus-a]\nbasis = [["1", "-1", "1", "-1"]]',
                       "[torus-a]\nbasis = []"),
}

# (command and extra flags, input, exit code, stderr substring, report written)
EXIT_TABLE = [
    ("check", "example1-m2.cfg", 10, None, True),
    ("check", "example1-m3.cfg", 0, None, True),
    ("check", "no-such-file.cfg", 2, "No such file", False),
    ("check", "zero-denominator.cfg", 2, "torus-a", False),
    ("check", "dependent-d.cfg", 2, "torus-d", False),
    ("check", "split-so.cfg", 2, "[group]: unsupported group family 'split-so'", False),
    ("check", "w-prime-det-2.cfg", 2,
     "centralizer Weyl candidate #2: determinant is not 1 in factor 2", False),
    ("check", "w-prime-shear.cfg", 2,
     "centralizer Weyl candidate #2: does not normalize D", False),
    ("check", "deeply-nested-a.cfg", 2, "[torus-a] basis: JSON is nested too deeply",
     False),
    ("check", "d-not-maximal.cfg", 2, "not maximal", False),
    ("check", "zero-generator-2.cfg", 2, "M generator #2 is zero", False),
    ("check --workers 0", "example1-m2.cfg", 2, "at least 1", False),
    # the last --output wins, and a directory cannot be opened as a file
    ("check --output .", "example1-m2.cfg", 2, "cannot write report: ", False),
    ("certify", "example1-m2.cfg", 10, None, True),
    ("certify", "example1-m3.cfg", 0, None, True),
    ("certify --workers 0", "example1-m2.cfg", 2, "at least 1", False),
    ("probe", "example1-m2.cfg", 10, None, True),
    ("probe --seed 7", "example1-m2.cfg", 2,
     "nondiv: error: unrecognized arguments: --seed 7", False),
    ("probe", "no-such-file.cfg", 2, "No such file", False),
    ("probe", "example1-m3.cfg", 2, "the [probe] section is missing", False),
    ("probe", "n3-with-probe.cfg", 2, "n = 2, m = 2", False),
    ("probe", "probe-d5.cfg", 2, "[probe] d:", False),
    ("probe", "full-cartan-a-d5.cfg", 2, "[probe] d:", False),
    ("probe", "probe-d-30-digits.cfg", 2, "[probe] d: d must be at most 1000000000000",
     False),
    ("probe", "grid-radius-800.cfg", 2, "grid-radius", False),
    ("probe", "grid-radius-1e400.cfg", 2, "[probe]", False),
    ("probe", "full-cartan-a.cfg", 4, "verdict is uniformly nondivergent", True),
    ("probe", "n-values-710.cfg", 3, "audit failed", False),
    ("probe", "n-values-bool.cfg", 2,
     "[probe] n-values: expected nonempty list of nonnegative integers", False),
    ("probe", "grid-points-1002.cfg", 2, "[probe] grid-points: need at most 1001", False),
    ("probe", "n-values-65.cfg", 2, "[probe] n-values: at most 64 values", False),
    ("probe", "n-values-400-digits.cfg", 2,
     "[probe] n-values: each value must be at most the largest float, 1.8e+308", False),
    ("probe", "grid-point-typo.cfg", 2, "[probe]: unknown key 'grid-point'", False),
    ("check", "unknown-section.cfg", 2, "unknown section [probes]", False),
    ("check", "default-key.cfg", 2, "[group]: unknown key 'seed'", False),
]


def table_text(name):
    if name not in EDITED_CONFIGS:
        return (CONFIGS / name).read_text()
    source, old, new = EDITED_CONFIGS[name]
    if source is None:
        return new
    text = table_text(source)
    if old not in text:
        raise CaseFailed(f"EDITED_CONFIGS[{name!r}]: its old text is not in {source}")
    return text.replace(old, new)


def table_input(name, tmp_path):
    if name not in EDITED_CONFIGS:
        return CONFIGS / name
    path = tmp_path / name
    path.write_text(table_text(name))
    return path


def replay_ok(report, stdout, stderr):
    return json.loads(stdout)["replay"] == "ok"


def _stderr_starts(text):
    """A check that stderr starts with the error line `nondiv: error: <text>`."""
    def stderr_starts(report, stdout, stderr):
        return stderr.startswith(ERROR + text)
    return stderr_starts


def two_index_witness(report, stdout, stderr):
    witness = report["witness"]
    return (witness["sigma0"] == [1, -1]
            and witness["v"] == ["1", "-2", "1", "1", "1", "-2"]
            and witness["u_prime_basis"] == [["1", "-1/2", "-1/2", "1", "-1/2", "-1/2"]])


def rows_are_exact_below_the_gram_underflow(report, stdout, stderr):
    """Each row is the closed form exp(x + N y) B, here exp(-4N) with B = 1,
    not a squared Gram norm that underflows to 0.0; no `seed` is echoed."""
    rows = report["decay"]
    return ([row["N"] for row in rows] == [0, 100, 150]
            and all(row["max_min_norm"] > 0.0
                    and math.isclose(row["max_min_norm"], math.exp(-4 * row["N"]),
                                     rel_tol=1e-12) for row in rows)
            and "seed" not in report["probe"])


def non_orthogonal_w_prime_rows_round_once(report, stdout, stderr):
    """The base norm is sqrt(2401/50625) = 49/225, rounded once from integers
    (a float Gram determinant at g_0 gives 0.2177777777777777, one ulp low),
    and each row is exp(exact exponent) times it."""
    rows = {row["N"]: row["max_min_norm"] for row in report["decay"]}
    return (report["certificate"]["centralizer"]["index"] == 1
            and rows[0] == float(F(49, 225)) == 0.21777777777777776
            and [rows[n] for n in (2, 4, 6)] == [
                7.305630563210258e-05, 2.4507660272194207e-08, 8.221404118652257e-12])


def only_the_empty_sample(report, stdout, stderr):
    """With Lie(A) = 0 each row's worst sample is t=() and one line fires."""
    decay = report["decay"]
    return ([row["N"] for row in decay] == [0, 2, 4, 6]
            and all(row["worst_sample"] == "t=()" and sum(row["fired"].values()) == 1
                    for row in decay))


def set_subset_to_2(report):
    report["certificate"]["subset"] = [2]


def double_decay_row_1(report):
    report["decay"][1]["max_min_norm"] *= 2


IN, OUT = "{input}", "{output}"
REPLAY = ("replay", IN)


def _pipeline(command, name, code, check=None):
    """`command` on `name` with --output: exits `code`, writes a report."""
    stem = name.removesuffix(".cfg")
    return Case(f"{command}-{stem}", (command, IN, "--output", OUT), name, code, None,
                True, check)


def _replay_of(case_id):
    """`replay` of the report that row `case_id` writes: exits 0."""
    return Case(f"replay-{case_id}", REPLAY, Report(case_id), 0, None, False, replay_ok)


CASES = [
    *(Case("-".join(map(str, row)), (row[0].split()[0], IN, "--output", OUT,
                                     *row[0].split()[1:]), *row[1:])
      for row in EXIT_TABLE),
    _pipeline("check", "example2.cfg", 0),
    _pipeline("check", "example2-line.cfg", 10),
    _pipeline("certify", "example2-line.cfg", 10),
    _pipeline("check", "example2-nonmonomial.cfg", 10),
    _pipeline("certify", "example2-nonmonomial.cfg", 10),
    _pipeline("certify", "example1-n3-m2.cfg", 10, two_index_witness),
    _pipeline("probe", "n-values-100-150.cfg", 10, rows_are_exact_below_the_gram_underflow),
    _pipeline("probe", "skew-w-prime.cfg", 10, non_orthogonal_w_prime_rows_round_once),
    _pipeline("probe", "zero-dim-a.cfg", 10, only_the_empty_sample),
    Case("check-not-centralizing", ("check", IN, "--output", OUT), "not-centralizing.cfg",
         2, "centralizer Weyl candidate #1: does not centralize M generator #1", False),
    Case("probe-n-values-true", ("probe", IN, "--output", OUT), "n-values-true.cfg", 2,
         "[probe] n-values: expected nonempty list of nonnegative integers", False),
    # the scan runs in one process, whatever --workers says
    Case("check-example1-n4-m2-workers-8", ("check", IN, "--workers", "8", "--output", OUT),
         "example1-n4-m2.cfg", 10, None, True),
    Case("certify-example2-workers-2", ("certify", IN, "--workers", "2", "--output", OUT),
         "example2.cfg", 0, None, True),
    _replay_of("check-example1-m2.cfg-10-None-True"),
    _replay_of("certify-example1-m2.cfg-10-None-True"),
    _replay_of("probe-example1-m2.cfg-10-None-True"),
    _replay_of("certify-example2-line"),
    _replay_of("certify-example2-nonmonomial"),
    _replay_of("probe-zero-dim-a"),
    Case("replay-certify-subset-edited", REPLAY,
         Report("certify-example1-m2.cfg-10-None-True", set_subset_to_2), 3,
         "replay mismatch", False),
    Case("replay-probe-decay-row-edited", REPLAY,
         Report("probe-example1-m2.cfg-10-None-True", double_decay_row_1), 3,
         "replay mismatch", False),
    Case("replay-not-an-object", REPLAY, b"[]", 2, "not a JSON object", False),
    Case("replay-input-not-an-object", REPLAY, b'{"format": "report-v1", "input": "x"}', 2,
         "'input' is not an object", False),
    Case("replay-content-not-a-string", REPLAY,
         json.dumps({"format": "report-v1", "input": {"content": 7, "sha256": "0"},
                     "verdict": "nondivergent", "certificate": None,
                     "stats": {}}).encode(), 2,
         "'input.content' is not a string", False),
    # nesting deeper than the JSON decoder's recursion limit
    Case("replay-deeply-nested", REPLAY, b"[" * 100_000 + b"]" * 100_000, 2,
         "report is not valid JSON", False, _stderr_starts("report is not valid JSON")),
    Case("replay-not-utf8", REPLAY, b'{"format": "report-v1", "x": "\xff"}', 2,
         "report is not valid UTF-8", False, _stderr_starts("report is not valid UTF-8")),
    # Python's JSON decoder refuses an integer longer than its conversion
    # limit (4300 digits by default) with a plain ValueError
    Case("replay-integer-too-long", REPLAY,
         b'{"format": "report-v1", "exit_code": ' + b"7" * 5000 + b"}", 2,
         "report ", False, _stderr_starts("report ")),
]
CASE_BY_ID = {case.id: case for case in CASES}


def _input(source, invoke, tmp):
    """The path of a row's input, written under tmp unless it is shipped."""
    if isinstance(source, str):
        return table_input(source, tmp)
    if isinstance(source, Report):
        earlier = tmp / "earlier"
        earlier.mkdir()
        report = check_case(CASE_BY_ID[source.case], invoke, earlier)
        if source.edit is None:
            return earlier / "report.json"
        source.edit(report)
        source = json.dumps(report).encode()
    path = tmp / "input.json"
    path.write_bytes(source)
    return path


def check_case(case, invoke, tmp):
    """Run one row through invoke(argv) -> (code, stdout, stderr), with its
    files under the directory tmp; raise CaseFailed where the run differs
    from the row, and return the report written (None if none was)."""
    out = tmp / "report.json"
    path = str(_input(case.source, invoke, tmp))
    argv = [arg.replace(IN, path).replace(OUT, str(out)) for arg in case.argv]
    code, stdout, stderr = invoke(argv)
    _require(code == case.code, f"exit {code}, want {case.code}; stderr: {stderr[-500:]!r}")
    if case.message is None:
        _require(stderr == "", f"stderr is not empty: {stderr[-500:]!r}")
    else:
        # argparse prints a usage line first; the message quotes its error line
        prefix = "usage: nondiv " if case.message.startswith(ERROR) else ERROR
        _require(stderr.startswith(prefix) and case.message in stderr,
                 f"stderr {stderr[-500:]!r} does not start {prefix!r} and hold "
                 f"{case.message!r}")
    if OUT in case.argv or case.message is not None:
        _require(stdout == "", f"stdout is not empty: {stdout[:500]!r}")
    _require(out.exists() == case.written,
             "a report was written" if out.exists() else "no report was written")
    report = json.loads(out.read_text()) if case.written else None
    if report is not None:
        _require(report["exit_code"] == case.code,
                 f"the report's exit_code is {report['exit_code']}")
    if case.check is not None:
        _require(case.check(report, stdout, stderr), f"{case.check.__name__} fails")
    return report


def nontrivial_m_decay_table():
    """The decay table of example2-line.cfg (SO(2,1) M, a line Lie(A)) at
    N = 0..3: strictly falling, with one fired line per a-point in each row."""
    from nondiv.config import build_config, parse_problem
    from nondiv.criterion import check_general
    from nondiv.witness import HSampler, build_escape_witness, decay_table

    config = build_config(parse_problem(table_text("example2-line.cfg"), "example2-line.cfg"))
    cert = check_general(config).certificate
    witness = build_escape_witness(cert, config)
    sampler = HSampler.default(config)
    rows = decay_table(cert, witness, [0, 1, 2, 3], sampler, config)
    points = len(sampler.a_coords)
    _require((len(config.m_generators), points) == (3, 21),
             f"{len(config.m_generators)} generators and {points} a-points, want 3 and 21")
    _require([row.n_value for row in rows] == [0, 1, 2, 3], "rows are not N = 0..3")
    norms = [row.max_min_norm for row in rows]
    _require(all(a > b for a, b in zip(norms, norms[1:])), f"norms {norms} do not fall")
    _require(all(sum(count for _, count in row.fired) == points for row in rows),
             "a row fires other than one line per a-point")


def hand_wedge_norms(beta=None):
    """n = 3, w' = ((2,1,0),(1,1,0),(0,0,1)): the columns of w' indexed by
    p[S] have Gram determinants 5, 2, 1, 1 under w = id and 2, 5, 1, 1
    under w = (1,0,2), each cubed.  `beta(line, w, w_prime)` is
    `witness.wedge_norm` unless given."""
    from nondiv.rootdata import ParabolicSide
    from nondiv.weyl import CentralizerWeylElement, WeylElement
    from nondiv.witness import wedge_norm

    if beta is None:
        def beta(line, w, w_prime):
            return wedge_norm(*line, w, w_prime)
    w_prime = CentralizerWeylElement(((tuple(map(F, (2, 1, 0))),
                                       tuple(map(F, (1, 1, 0))),
                                       tuple(map(F, (0, 0, 1)))),))
    lines = [(1, ParabolicSide.STANDARD), (1, ParabolicSide.OPPOSITE),
             (2, ParabolicSide.STANDARD), (2, ParabolicSide.OPPOSITE)]
    for perm, want in (((0, 1, 2), [125, 8, 1, 1]), ((1, 0, 2), [8, 125, 1, 1])):
        got = [beta(line, WeylElement((perm,)), w_prime) for line in lines]
        _require(got == want, f"w = {perm}: beta {[str(b) for b in got]}, want {want}")


def witness_loads_no_float_module():
    """`import nondiv.witness` loads no float module; it needs a fresh
    interpreter, so run it with `run_in_child`."""
    _require("nondiv" not in sys.modules, "nondiv is already imported")
    import nondiv.witness  # noqa: F401

    loaded = sorted({"nondiv.lattice", "nondiv.floatmat"} & set(sys.modules))
    _require(not loaded, f"import nondiv.witness loaded {loaded}")


FUNCTIONS = (nontrivial_m_decay_table, hand_wedge_norms, witness_loads_no_float_module)

# A fresh interpreter in which importing these modules fails.  Its argv is
# ["cli", *argv] to run `nondiv.cli.main(argv)`, or ["function", name] to
# call the function `name` of this module.
BLOCKED = ("numpy", "scipy", "dataclasses", "multiprocessing")
CHILD = f"""
import sys
for name in {BLOCKED!r}:
    sys.modules[name] = None
if sys.argv[1] == "cli":
    from nondiv import cli
    sys.exit(cli.main(sys.argv[2:]))
sys.path.insert(0, {str(TESTS)!r})
import cli_cases
getattr(cli_cases, sys.argv[2])()
"""


def _child(args):
    command = [sys.executable, *(["-S"] if sys.flags.no_site else []), "-c", CHILD, *args]
    try:
        res = subprocess.run(command, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        raise CaseFailed(f"{' '.join(args)}: no exit within 20 s")
    return res.returncode, res.stdout, res.stderr


def invoke_in_child(argv):
    """`nondiv` with argv in a fresh interpreter: (code, stdout, stderr)."""
    return _child(["cli", *argv])


def run_in_child(name):
    """Call the function `name` of this module in a fresh interpreter."""
    code, _, stderr = _child(["function", name])
    _require(code == 0, f"{name} exits {code} in a fresh interpreter: {stderr[-1000:]}")


def main():
    runs = [(case.id, lambda tmp, case=case: check_case(case, invoke_in_child, tmp))
            for case in CASES]
    runs += [(f.__name__, lambda tmp, f=f: run_in_child(f.__name__)) for f in FUNCTIONS]
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        for i, (name, run) in enumerate(runs):
            tmp = Path(root, str(i))
            tmp.mkdir()
            try:
                run(tmp)
            except Exception:  # a failed check, or a check that could not run
                failed += 1
                print(f"FAIL  {name}\n{traceback.format_exc()}", flush=True)
            else:
                print(f"ok    {name}", flush=True)
    print(f"{len(runs) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

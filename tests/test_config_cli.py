import copy
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

from nondiv import cli, criterion, lattice, witness
from nondiv.config import ProbeSettings, ProblemFile, build_config, parse_problem
from nondiv.criterion import ConfigError
from nondiv.report import input_digest
from nondiv.rootdata import GroupSpec, LieElement

from helpers import serialize_problem

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "nondiv.cli", *args],
                          capture_output=True, text=True, **kw)


def stripped_report(path):
    data = json.loads(Path(path).read_text())
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True)


class TestParsing:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_round_trip(self, name):
        text = (CONFIGS / name).read_text()
        problem = parse_problem(text, name)
        again = parse_problem(serialize_problem(problem), name)
        assert again == problem
        build_config(problem)

    def test_zero_denominator_cites_field(self):
        text = (CONFIGS / "example1-m2.cfg").read_text()
        bad = text.replace('"1", "-1", "1", "-1"', '"1/0", "-1", "1", "-1"')
        with pytest.raises(ConfigError) as err:
            parse_problem(bad)
        assert "torus-a" in str(err.value) and "1/0" in str(err.value)

    def test_json_error_reports_position(self):
        text = (CONFIGS / "example1-m2.cfg").read_text()
        bad = text.replace('basis = [["1", "-1", "1", "-1"]]',
                           'basis = [["1", "-1", "1", "-1"]')
        with pytest.raises(ConfigError) as err:
            parse_problem(bad)
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_missing_section(self):
        with pytest.raises(ConfigError) as err:
            parse_problem("[group]\nfamily = res-sl\nn = 2\nm = 1\n")
        assert "subgroup-m" in str(err.value)

    def test_dependent_basis_rejected(self):
        text = (CONFIGS / "example1-m2.cfg").read_text()
        bad = text.replace(
            'basis = [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]]',
            'basis = [["1", "-1", "0", "0"], ["2", "-2", "0", "0"]]')
        with pytest.raises(ConfigError) as err:
            build_config(parse_problem(bad))
        assert "torus-d" in str(err.value)

    def test_auto_mode_requires_trivial_m(self):
        text = (CONFIGS / "example2.cfg").read_text()
        bad = text.replace("mode = explicit", "mode = auto-trivial-m")
        with pytest.raises(ConfigError) as err:
            parse_problem(bad)
        assert "auto-trivial-m" in str(err.value)

    def test_unsupported_family_rejected(self):
        text = (CONFIGS / "example1-m2.cfg").read_text()
        bad = text.replace("family = res-sl", "family = split-so")
        with pytest.raises(ConfigError) as err:
            parse_problem(bad)
        assert str(err.value) == "[group]: unsupported group family 'split-so'"

    def test_non_trace_zero_vector_rejected(self):
        text = (CONFIGS / "example1-m2.cfg").read_text()
        bad = text.replace('[["1", "-1", "1", "-1"]]', '[["1", "0", "1", "-1"]]')
        with pytest.raises(ConfigError) as err:
            build_config(parse_problem(bad))
        assert "trace zero" in str(err.value)


entries = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def problem_files(draw):
    """A ProblemFile the parser accepts: parsing checks shapes and entries,
    and generators are trace zero; nothing else is required of the data."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 2))

    def matrix(trace_zero=False):
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
        if trace_zero:
            rows[-1][-1] -= sum(rows[i][i] for i in range(n))
        return tuple(map(tuple, rows))

    def vectors():
        return tuple(tuple(draw(entries) for _ in range(n * m))
                     for _ in range(draw(st.integers(0, 3))))

    gens = tuple(LieElement(tuple(matrix(True) for _ in range(m)))
                 for _ in range(draw(st.integers(0, 2))))
    elements = ()
    if gens or draw(st.booleans()):
        elements = tuple(tuple(matrix() for _ in range(m))
                         for _ in range(draw(st.integers(0, 2))))
    probe = None
    if draw(st.booleans()):
        probe = ProbeSettings(
            draw(st.integers(1, 50)), draw(st.sampled_from((0.5, 2.0, 5.0, 12.25))),
            draw(st.integers(2, 30)),
            tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))))
    return ProblemFile(GroupSpec(n, m), gens, vectors(), vectors(), elements, probe)


def respell(text, spell):
    """The problem text with every rational entry string of its JSON values
    replaced by spell(entry)."""
    def walk(x):
        return [walk(e) for e in x] if isinstance(x, list) else spell(x)

    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("generators", "basis", "elements") and value != "trivial":
            line = f"{key} = {json.dumps(walk(json.loads(value)))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# (JSON text of a malformed entry, the repr the error message cites)
MALFORMED_ENTRIES = [
    ('"1/0"', "'1/0'"),
    ("true", "True"),
    ("1.5", "1.5"),
    ('["1"]', "['1']"),
    ('[["1"]]', "[['1']]"),
    ('"abc"', "'abc'"),
    ('"nan"', "'nan'"),
    ('""', "''"),
    ("null", "None"),
]


class TestParserFuzz:
    @settings(max_examples=80, deadline=None)
    @given(problem_files())
    def test_serialize_round_trip(self, problem):
        text = serialize_problem(problem)
        again = parse_problem(text)
        assert again == problem
        assert serialize_problem(again) == text

    @settings(max_examples=50, deadline=None)
    @given(problem_files(), st.data())
    def test_equal_spellings_parse_equal(self, problem, data):
        """"2", 2, "4/2" and " 2 " are one entry; so are repeated strings."""
        def spell(entry):
            q = F(entry)
            forms = [entry, f" {entry} ", f"{q.numerator * 3}/{q.denominator * 3}"]
            if q.denominator == 1:
                forms.append(q.numerator)
            return data.draw(st.sampled_from(forms))

        text = respell(serialize_problem(problem), spell)
        assert parse_problem(text) == problem

    @pytest.mark.parametrize("bad, cited", MALFORMED_ENTRIES)
    def test_malformed_entry_is_a_config_error(self, bad, cited, tmp_path, capsys):
        """The same bad entry in two vectors: ConfigError naming the first
        position, and exit 2 from the CLI."""
        text = (CONFIGS / "example1-m2.cfg").read_text()
        old = 'basis = [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]]'
        assert old in text
        text = text.replace(old, f'basis = [[{bad}, "-1", "0", "0"], '
                                 f'["0", "0", {bad}, "-1"]]')
        with pytest.raises(ConfigError) as err:
            parse_problem(text)
        message = str(err.value)
        assert message.startswith("[torus-d] basis vector #1") and cited in message
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["check", str(path), "--output", str(tmp_path / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("nondiv: error: [torus-d] basis vector #1")

    @pytest.mark.parametrize("bad", ["true", "1.0", '"1/0"'])
    def test_malformed_matrix_entry_after_a_good_one(self, bad):
        """A bool or float equals an int that the file already holds, and a
        bad string may follow the good one; neither may reach the parsed
        entries."""
        text = (CONFIGS / "example2-line.cfg").read_text()
        assert _W2_FACTOR2 in text
        bad_factor = _W2_FACTOR2.replace('["0", "0", "-1", "0"]',
                                         f'[1, "0", {bad}, "0"]')
        with pytest.raises(ConfigError) as err:
            parse_problem(text.replace(_W2_FACTOR2, bad_factor, 1))
        assert "factor 2 row 4" in str(err.value)

    def test_entry_memo_is_per_call(self):
        """Equal entry strings share one Fraction within a file, and no
        Fraction is shared between two parses."""
        text = (CONFIGS / "example2-line.cfg").read_text()
        first, second = parse_problem(text), parse_problem(text)
        assert first == second
        ones = [f[i][i] for e in first.centralizer_elements for f in e for i in range(4)
                if f[i][i] == 1]
        assert len(ones) > 1 and all(x is ones[0] for x in ones)
        seen = {id(x) for e in first.centralizer_elements for f in e
                for row in f for x in row}
        assert not any(id(x) in seen for e in second.centralizer_elements
                       for f in e for row in f for x in row)


_W2_FACTOR2 = ('[["1", "0", "0", "0"], ["0", "1", "0", "0"], '
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
    "w-prime-det-2.cfg": ("example2-line.cfg", _W2_FACTOR2,
                          _W2_FACTOR2.replace('[["1", "0"', '[["2", "0"')),
    "w-prime-shear.cfg": ("example2-line.cfg", _W2_FACTOR2,
                          _W2_FACTOR2.replace('[["1", "0"', '[["1", "1"')),
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
    # JSON booleans are not integers, although Python's bool is an int
    "n-values-bool.cfg": ("example1-m2.cfg", "n-values = [0, 2, 4, 6]",
                          "n-values = [false, true, 2]"),
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
    assert old in text
    return text.replace(old, new)


def table_input(name, tmp_path):
    if name not in EDITED_CONFIGS:
        return CONFIGS / name
    path = tmp_path / name
    path.write_text(table_text(name))
    return path


@pytest.mark.parametrize("command, name, code, message, written", EXIT_TABLE)
def test_exit_code_table(command, name, code, message, written, tmp_path, capsys):
    command, *flags = command.split()
    out = tmp_path / "report.json"
    prefix = "nondiv: error: "
    try:
        got = cli.main([command, str(table_input(name, tmp_path)), "--workers", "1",
                        "--output", str(out), *flags])
    except SystemExit as exc:  # argparse: a usage line, then the error
        got, prefix = exc.code, "usage: nondiv "
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if message is None:
        assert captured.err == ""
    else:
        assert captured.err.startswith(prefix)
        assert message in captured.err
    assert out.exists() == written
    if written:
        assert json.loads(out.read_text())["exit_code"] == code


def test_probe_bounds_d_before_any_work(tmp_path, monkeypatch, capsys):
    """A d above the bound exits 2 before trial division or the scan."""
    def forbidden(*args):
        raise AssertionError("ran past the bound on d")

    monkeypatch.setattr(lattice, "_is_squarefree", forbidden)
    monkeypatch.setattr(cli, "check_general", forbidden)
    out = tmp_path / "report.json"
    assert cli.main(["probe", str(table_input("probe-d-30-digits.cfg", tmp_path)),
                     "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "nondiv: error: [probe] d: d must be at most 1000000000000\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["n-values-bool.cfg", "grid-points-1002.cfg",
                                  "n-values-65.cfg", "n-values-400-digits.cfg",
                                  "grid-point-typo.cfg"])
def test_probe_bounds_its_work_before_the_scan(name, tmp_path, monkeypatch, capsys):
    """Boolean n-values, too many grid points or n-values, an n-value past
    the largest float and an unknown [probe] key exit 2 at parse time,
    before the scan or any lattice probe."""
    def forbidden(*args, **kw):
        raise AssertionError("ran past the [probe] checks")

    monkeypatch.setattr(cli, "check_general", forbidden)
    monkeypatch.setattr(cli, "realize_divergence_sequence", forbidden)
    monkeypatch.setattr(cli, "orbit_probe", forbidden)
    assert cli.main(["probe", str(table_input(name, tmp_path)),
                     "--output", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err.startswith("nondiv: error: [probe]")


def test_probe_on_zero_dimensional_lie_a(tmp_path, capsys):
    """With Lie(A) = 0 the decay table samples only t=(): each row's worst
    sample is t=() and one line fires, and the report replays."""
    out = tmp_path / "report.json"
    assert cli.main(["probe", str(table_input("zero-dim-a.cfg", tmp_path)),
                     "--output", str(out)]) == 10
    decay = json.loads(out.read_text())["decay"]
    assert [row["N"] for row in decay] == [0, 2, 4, 6]
    assert all(row["worst_sample"] == "t=()" and sum(row["fired"].values()) == 1
               for row in decay)
    assert cli.main(["replay", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_probe_at_n_400_still_raises_nan(tmp_path):
    """A known defect, pinned as the benchmark's witness-probe workload
    expects it: the probe at N = 400 ends in an uncaught ValueError out of
    `cli.main` and writes no report.  Only parse and build errors are caught
    as ValueError."""
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
        cli.main(["probe", str(table_input("n-values-400.cfg", tmp_path)),
                  "--output", str(out)])
    assert not out.exists()


class TestCliCheck:
    def test_example1_m2_exits_10(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("check", str(CONFIGS / "example1-m2.cfg"),
                      "--workers", "1", "--output", str(out))
        assert res.returncode == 10
        data = json.loads(out.read_text())
        assert data["verdict"] == "not-uniformly-nondivergent"
        assert data["certificate"]["subset"] == [1]

    def test_example1_m3_exits_0(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("check", str(CONFIGS / "example1-m3.cfg"),
                      "--workers", "1", "--output", str(out))
        assert res.returncode == 0
        data = json.loads(out.read_text())
        assert data["certificate"] is None and data["stats"] is not None

    def test_certificate_fields_are_exact_strings(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("check", str(CONFIGS / "example1-m2.cfg"), "--workers", "1",
                "--output", str(out))
        cert = json.loads(out.read_text())["certificate"]

        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(cert)

    def test_certificate_that_does_not_replay_exits_3(self, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(cli, "replay_certificate", lambda config, cert: False)
        out = tmp_path / "r.json"
        code = cli.main(["check", str(CONFIGS / "example1-m2.cfg"), "--output", str(out)])
        assert code == 3
        assert "audit failed: certificate does not replay" in capsys.readouterr().err
        assert not out.exists()


class TestCliCertify:
    def test_certificate_audit_passes(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("certify", str(CONFIGS / "example1-m2.cfg"),
                      "--workers", "1", "--output", str(out))
        assert res.returncode == 10
        data = json.loads(out.read_text())
        assert data["witness"]["checks"]["certificate_replay"] is True
        assert data["witness"]["sigma0"] == [1]
        assert data["witness"]["v"] == ["1", "-1", "-1", "1"]

    def test_certificate_that_does_not_replay_exits_3(self, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(witness, "replay_certificate", lambda config, cert: False)
        out = tmp_path / "r.json"
        code = cli.main(["certify", str(CONFIGS / "example1-m2.cfg"),
                         "--workers", "1", "--output", str(out)])
        assert code == 3
        assert "does not replay" in capsys.readouterr().err
        assert not out.exists()

    def test_nondivergent_certify_exits_0(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("certify", str(CONFIGS / "example2.cfg"),
                      "--workers", "2", "--output", str(out))
        assert res.returncode == 0
        data = json.loads(out.read_text())
        assert data["certificate"] is None
        assert data["stats"]["pairs_admissible"] == 288


class TestCliProbe:
    def test_probe_table_decreasing(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("probe", str(CONFIGS / "example1-m2.cfg"),
                      "--workers", "1", "--output", str(out))
        assert res.returncode == 10
        data = json.loads(out.read_text())
        rows = data["probe"]["rows"]
        assert [r["N"] for r in rows] == [0, 2, 4, 6]
        maxima = [r["max"] for r in rows]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))
        assert data["decay"] is not None

    def test_two_runs_give_one_report(self, tmp_path):
        # H is sampled on a fixed grid of Lie(A), so nothing varies by run.
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("probe", str(CONFIGS / "example1-m2.cfg"), "--workers", "1",
                "--output", str(out1))
        run_cli("probe", str(CONFIGS / "example1-m2.cfg"), "--workers", "1",
                "--output", str(out2))
        assert stripped_report(out1) == stripped_report(out2)

    def test_exact_ties_go_to_the_first_line_and_sample(self, tmp_path):
        # At N = 0 every a-point has exponent 0 and both sides base norm 1,
        # an exact tie: the first line and the first a-point win it.
        out = tmp_path / "r.json"
        assert cli.main(["probe", str(CONFIGS / "example1-m2.cfg"), "--workers", "1",
                         "--output", str(out)]) == 10
        row = json.loads(out.read_text())["decay"][0]
        assert row == {"N": 0, "max_min_norm": 1.0, "worst_sample": "t=(-5)",
                       "fired": {"1:standard": 21}}

    def test_rows_are_exact_below_the_gram_underflow(self, tmp_path):
        # A squared norm taken at g_N in floats, exp(-8N), underflows from
        # N ~ 93, but each row is the closed form exp(x + N y) B: here
        # exp(-4N), with B = 1.
        text = (CONFIGS / "example1-m2.cfg").read_text()
        path = tmp_path / "n100.cfg"
        path.write_text(text.replace("n-values = [0, 2, 4, 6]", "n-values = [0, 100, 150]"))
        out = tmp_path / "r.json"
        assert cli.main(["probe", str(path), "--output", str(out)]) == 10
        rows = json.loads(out.read_text())["decay"]
        assert [r["N"] for r in rows] == [0, 100, 150]
        for row in rows:
            assert row["max_min_norm"] > 0.0
            assert row["max_min_norm"] == pytest.approx(math.exp(-4 * row["N"]),
                                                        rel=1e-12)

    def test_non_orthogonal_w_prime_rows_round_once(self, tmp_path):
        # example1-m2 with one explicit w' that is not orthogonal: the base
        # norm is sqrt(2401/50625) = 49/225, rounded once from integers (a
        # float Gram determinant at g_0 gives 0.2177777777777777, one ulp
        # low), and each row is exp(exact exponent) times it.
        path = tmp_path / "skew.cfg"
        path.write_text(SKEW_W_PRIME_CFG)
        out = tmp_path / "r.json"
        assert cli.main(["probe", str(path), "--output", str(out)]) == 10
        data = json.loads(out.read_text())
        assert data["certificate"]["centralizer"]["index"] == 1
        rows = {r["N"]: r["max_min_norm"] for r in data["decay"]}
        assert rows[0] == float(F(49, 225)) == 0.21777777777777776
        assert [rows[n] for n in (2, 4, 6)] == [
            7.305630563210258e-05, 2.4507660272194207e-08, 8.221404118652257e-12]

    def test_seed_key_is_ignored(self, tmp_path):
        # `seed` is the one [probe] key that has no effect: it changes no
        # byte of the decay and probe sections.
        text = (CONFIGS / "example1-m2.cfg").read_text()
        assert "seed = 24301\n" in text
        path = tmp_path / "seed7.cfg"
        path.write_text(text.replace("seed = 24301\n", "seed = 7\n"))
        reports = []
        for source in (CONFIGS / "example1-m2.cfg", path):
            out = tmp_path / f"{source.stem}.json"
            assert cli.main(["probe", str(source), "--output", str(out)]) == 10
            reports.append(json.loads(out.read_text()))
        assert "seed" not in reports[0]["probe"]
        for section in ("decay", "probe"):
            assert reports[0][section] == reports[1][section]

    def test_drifted_realization_exits_3(self, tmp_path, monkeypatch, capsys):
        exp = lattice.exp
        monkeypatch.setattr(lattice, "exp", lambda x: 2 * exp(x))
        out = tmp_path / "r.json"
        code = cli.main(["probe", str(CONFIGS / "example1-m2.cfg"),
                         "--workers", "1", "--output", str(out)])
        assert code == 3
        assert "determinant drifted" in capsys.readouterr().err
        assert not out.exists()


SKEW_W_PRIME_CFG = """\
[group]
family = res-sl
n = 2
m = 2

[subgroup-m]
generators = trivial

[torus-d]
basis = [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]]

[torus-a]
basis = [["1", "-1", "1", "-1"]]

[centralizer-weyl]
mode = explicit
elements = [[[["3", "0"], ["0", "1/3"]], [["0", "-7/5"], ["5/7", "0"]]]]

[probe]
d = 2
grid-radius = 5
grid-points = 21
n-values = [0, 2, 4, 6]
"""


# (report JSON that replay reads, stderr substring); each must exit 2.
MALFORMED_REPORTS = [
    ([], "not a JSON object"),
    ({"format": "report-v1", "input": "x"}, "'input' is not an object"),
    ({"format": "report-v1", "input": {"content": 7, "sha256": "0"},
      "verdict": "nondivergent", "certificate": None, "stats": {}},
     "'input.content' is not a string"),
]


@pytest.mark.parametrize("report, message", MALFORMED_REPORTS)
def test_replay_malformed_report_exits_2(report, message, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nondiv: error: ")
    assert message in captured.err


def test_replay_deeply_nested_report_exits_2(tmp_path, capsys):
    """Nesting deeper than the JSON decoder's recursion limit is reported,
    not raised."""
    path = tmp_path / "report.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nondiv: error: report is not valid JSON")


def test_replay_non_utf8_report_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"format": "report-v1", "x": "\xff"}')
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nondiv: error: report is not valid UTF-8")


def test_replay_of_an_integer_too_long_to_read_exits_2(tmp_path, capsys):
    """Python's JSON decoder refuses an integer longer than its conversion
    limit (4300 digits by default) with a plain ValueError: reported, not
    raised."""
    path = tmp_path / "report.json"
    path.write_text('{"format": "report-v1", "exit_code": ' + "7" * 5000 + "}")
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nondiv: error: report ")


def _paths(node, prefix=()):
    """Every key path into a JSON value, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# What a malformed report puts in place of a field.
WRONG_VALUES = [None, True, 0, -3, 1.5, "", "x", "report-v1", [], [[]], ["1"], {}, {"k": 1}]
# Characters a tampered problem text takes in place of one of its own.
TEXT_CHARS = '0123456789-/"[],= #\nabn'


def _tampered_content(rng, text):
    """One random edit of a problem text whose n and m stay at most 4:
    set n or m, replace one character, delete or repeat a line, or swap two
    lines."""
    while True:
        lines = text.split("\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        kind = rng.randrange(5)
        if kind == 0:
            key = rng.choice("nm")
            edited = re.sub(rf"^{key} = \d+$", f"{key} = {rng.randint(1, 4)}", text,
                            flags=re.M)
        elif kind == 1:
            k = rng.randrange(len(text))
            edited = text[:k] + rng.choice(TEXT_CHARS) + text[k + 1:]
        elif kind == 2:
            edited = "\n".join(lines[:i] + lines[i + 1:])
        elif kind == 3:
            edited = "\n".join(lines[:i] + [lines[i]] + lines[i:])
        else:
            lines[i], lines[j] = lines[j], lines[i]
            edited = "\n".join(lines)
        if all(int(v) <= 4 for v in re.findall(r"^\s*[nm]\s*=\s*(\d+)\s*$", edited, re.M)):
            return edited


def _untimed_unnamed(report):
    """A report's JSON text with `timing` and `input.name` blanked: all that
    a replay that exits 0 must leave as it was."""
    body = dict(report, timing=None)
    if isinstance(body.get("input"), dict):
        body["input"] = dict(body["input"], name=None)
    return json.dumps(body, sort_keys=True)


def test_replay_of_malformed_reports_exits_0_2_or_3(tmp_path, capsys):
    """Seeded fuzz of `replay` over certify reports: fields replaced by
    values of the wrong type, deleted keys, the report inside a non-object,
    and an edited embedded problem text with its digest recomputed.  Every
    case is decided (0), rejected (2) or fails its audit (3); none raises.
    A field edit is decided only if it leaves, outside `timing` and
    `input.name`, the report as it was or the one `check` writes (the
    certify report with `witness` null)."""
    rng = random.Random(0x28F0)
    cases = [(7, None), ("report", None), (None, None), (True, None)]
    for name in ("example1-m2.cfg", "example2-line.cfg"):
        out = tmp_path / f"{name}.json"
        assert cli.main(["certify", str(CONFIGS / name), "--output", str(out)]) == 10
        report = json.loads(out.read_text())
        assert cli.main(["check", str(CONFIGS / name), "--output", str(out)]) == 10
        allowed = {_untimed_unnamed(report), _untimed_unnamed(json.loads(out.read_text()))}
        cases.append(([report], None))
        paths = list(_paths(report))
        for _ in range(150):
            data = copy.deepcopy(report)
            *parents, key = rng.choice(paths)
            target = data
            for step in parents:
                target = target[step]
            if rng.random() < 0.3:
                del target[key]
            else:
                target[key] = rng.choice(WRONG_VALUES)
            cases.append((data, allowed))
        for _ in range(100):
            data = copy.deepcopy(report)
            data["input"]["content"] = _tampered_content(rng, data["input"]["content"])
            data["input"]["sha256"] = input_digest(data["input"]["content"])
            cases.append((data, None))
    seen = set()
    for i, (data, allowed) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(data))
        code = cli.main(["replay", str(path)])
        assert code in (0, 2, 3), json.dumps(data)[:2000]
        if code == 0 and allowed is not None:
            assert _untimed_unnamed(data) in allowed, json.dumps(data)[:2000]
        seen.add(code)
    capsys.readouterr()
    assert seen == {0, 2, 3}


@pytest.mark.parametrize("name", ["n-values-400-digits.cfg", "grid-point-typo.cfg"])
def test_replay_of_a_report_whose_input_is_rejected_exits_3(name, tmp_path, capsys):
    """A probe report whose embedded text holds an n-value past the largest
    float, or an unknown [probe] key, fails its replay at parse time."""
    out = tmp_path / "r.json"
    assert cli.main(["probe", str(CONFIGS / "example1-m2.cfg"), "--output", str(out)]) == 10
    data = json.loads(out.read_text())
    data["input"]["content"] = table_text(name)
    data["input"]["sha256"] = input_digest(data["input"]["content"])
    edited = tmp_path / "e.json"
    edited.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["replay", str(edited)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "nondiv: error: embedded configuration no longer checks out: [probe]")


class TestCliReplay:
    def test_replay_ok(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("check", str(CONFIGS / "example1-m2.cfg"), "--workers", "1",
                "--output", str(out))
        res = run_cli("replay", str(out))
        assert res.returncode == 0
        assert json.loads(res.stdout)["replay"] == "ok"

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=".".join(path)) for path, value in [
            (("subset",), [2]),
            (("weyl", "one_line"), [[1, 2], [1, 2]]),
            (("centralizer", "index"), 1),
            (("centralizer", "matrices"), [[["2", "0"], ["0", "1"]],
                                           [["1", "0"], ["0", "1"]]]),
            (("dependence",), ["3"]),
            (("integer_dependence",), [3]),
        ]])
    def test_tampered_certificate_exits_3(self, path, value, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(["check", str(CONFIGS / "example1-m2.cfg"),
                         "--output", str(out)]) == 10
        data = json.loads(out.read_text())
        *parents, field = path
        target = data["certificate"]
        for key in parents:
            target = target[key]
        assert target[field] != value
        target[field] = value
        tampered = tmp_path / "t.json"
        tampered.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["replay", str(tampered)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "replay mismatch" in captured.err

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=".".join(map(str, path))) for path, value in [
            (("witness", "v"), "x"),
            (("decay", 1, "max_min_norm"), "wrong"),
            (("probe",), None),
            (("exit_code",), 0),
            (("tool", "version"), "0.0.0"),
        ]])
    def test_edited_probe_report_exits_3(self, path, value, tmp_path, capsys):
        # Every field outside `timing` is compared, not just the verdict.
        out = tmp_path / "r.json"
        assert cli.main(["probe", str(CONFIGS / "example1-m2.cfg"),
                         "--output", str(out)]) == 10
        data = json.loads(out.read_text())
        *parents, field = path
        target = data
        for key in parents:
            target = target[key]
        assert target[field] != value
        target[field] = value
        edited = tmp_path / "e.json"
        edited.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["replay", str(edited)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "replay mismatch" in captured.err

    def test_every_written_report_replays(self, tmp_path, capsys):
        # The exit-4 probe report of full-cartan-a.cfg included.
        names = sorted(p.name for p in CONFIGS.glob("*.cfg")) + ["full-cartan-a.cfg"]
        written = []
        for name in names:
            for command in ("check", "certify", "probe"):
                out = tmp_path / f"{name}.{command}.json"
                code = cli.main([command, str(table_input(name, tmp_path)),
                                 "--output", str(out)])
                if out.exists():
                    written.append((name, command, code))
                    assert cli.main(["replay", str(out)]) == 0, (name, command)
        capsys.readouterr()
        assert len(written) == 24
        assert ("full-cartan-a.cfg", "probe", 4) in written

    def test_tampered_content_exits_3(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("check", str(CONFIGS / "example1-m2.cfg"), "--workers", "1",
                "--output", str(out))
        data = json.loads(out.read_text())
        data["input"]["content"] = data["input"]["content"].replace("m = 2", "m = 3")
        tampered = tmp_path / "t.json"
        tampered.write_text(json.dumps(data))
        res = run_cli("replay", str(tampered))
        assert res.returncode == 3
        assert "digest" in res.stderr


@pytest.mark.parametrize("name", ["example1-m2.cfg", "example2-line.cfg"])
def test_each_divergent_verdict_is_reverified_once(name, tmp_path, monkeypatch, capsys):
    """One `replay_certificate` call per divergent check, certify and probe
    run, and per replay of its report, wherever an engine module holds it."""
    calls = []
    original = criterion.replay_certificate

    def counted(config, cert):
        calls.append(cert)
        return original(config, cert)

    for module_name, module in list(sys.modules.items()):
        if (module_name.split(".")[0] == "nondiv"
                and getattr(module, "replay_certificate", None) is original):
            monkeypatch.setattr(module, "replay_certificate", counted)
    commands = ("check", "certify", "probe") if name == "example1-m2.cfg" \
        else ("check", "certify")
    for command in commands:
        out = tmp_path / f"{command}.json"
        calls.clear()
        assert cli.main([command, str(CONFIGS / name), "--output", str(out)]) == 10
        assert len(calls) == 1, command
        calls.clear()
        assert cli.main(["replay", str(out)]) == 0
        assert len(calls) == 1, f"replay of {command}"
    capsys.readouterr()


class TestExitCodeStability:
    def test_workers_do_not_change_exit_or_report(self, tmp_path):
        # `--workers` is accepted and has no effect: the scan runs in one
        # process, and `timing` reports the seconds only.
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"r{workers}.json"
            code = cli.main(["check", str(CONFIGS / "example1-m2.cfg"),
                             "--workers", workers, "--output", str(out)])
            assert code == 10
            assert list(json.loads(out.read_text())["timing"]) == ["seconds"]
            reports.append(stripped_report(out))
        assert reports[0] == reports[1]


FOOTPRINT_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
startup = set(sys.modules)  # what the interpreter's own start loaded
from nondiv import cli

configs, tmp = sys.argv[1], sys.argv[2]

def heavy():
    return sorted({k.split(".")[0] for k in sys.modules} & {"numpy", "scipy"})

def loaded(names):
    return sorted(set(names) & (set(sys.modules) - startup))

codes = []
with redirect_stdout(io.StringIO()):
    for name in ("example1-m2.cfg", "example2-line.cfg"):
        report = f"{tmp}/{name}.json"
        codes.append(cli.main(["check", f"{configs}/{name}", "--workers", "1"]))
        codes.append(cli.main(["certify", f"{configs}/{name}", "--workers", "1",
                               "--output", report]))
        codes.append(cli.main(["replay", report]))
    exact = heavy()
    # The scan runs in one process, whatever --workers says.
    codes.append(cli.main(["certify", f"{configs}/example2.cfg", "--workers", "2"]))
    pool = loaded({"multiprocessing"})
    codes.append(cli.main(["probe", f"{configs}/example1-m2.cfg", "--workers", "1"]))
print(json.dumps({"codes": codes, "exact": exact, "probe": heavy(),
                  "codegen": loaded({"dataclasses", "inspect"}), "pool": pool}))
"""


# Runs the CLI in a fresh interpreter where importing numpy or scipy fails.
BLOCKED_CLI = """
import sys
sys.modules["numpy"] = sys.modules["scipy"] = None
from nondiv import cli
sys.exit(cli.main(sys.argv[1:]))
"""


# Builds the decay table of a nontrivial-M certificate where importing numpy
# or scipy fails; prints the generator count, the a-grid size and the rows.
BLOCKED_DECAY = """
import json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
from nondiv.config import build_config, parse_problem
from nondiv.criterion import check_general
from nondiv.report import decay_dict
from nondiv.witness import HSampler, build_escape_witness, decay_table
path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    config = build_config(parse_problem(fh.read(), path))
cert = check_general(config).certificate
witness = build_escape_witness(cert, config)
sampler = HSampler.default(config)
print(json.dumps([len(config.m_generators), len(sampler.a_coords),
                  decay_dict(decay_table(cert, witness, [0, 1, 2, 3], sampler, config))]))
"""


class TestImportFootprint:
    def test_exact_commands_load_neither_numpy_nor_scipy(self, tmp_path):
        res = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT,
                              str(CONFIGS), str(tmp_path)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        seen = json.loads(res.stdout.splitlines()[-1])
        assert seen["codes"] == [10, 10, 0, 10, 10, 0, 0, 10]
        assert seen["exact"] == []
        assert seen["probe"] == []
        assert seen["codegen"] == []
        assert seen["pool"] == []

    def test_probe_runs_with_numpy_and_scipy_blocked(self, tmp_path):
        blocked, free = tmp_path / "blocked.json", tmp_path / "free.json"
        args = ["probe", str(CONFIGS / "example1-m2.cfg"), "--workers", "1"]
        res = subprocess.run([sys.executable, "-c", BLOCKED_CLI, *args,
                              "--output", str(blocked)],
                             capture_output=True, text=True)
        assert res.returncode == 10, res.stderr
        assert run_cli(*args, "--output", str(free)).returncode == 10
        assert stripped_report(blocked) == stripped_report(free)

    def test_nontrivial_m_sampler_builds_with_numpy_and_scipy_blocked(self):
        res = subprocess.run([sys.executable, "-c", BLOCKED_DECAY,
                              str(CONFIGS / "example2-line.cfg")],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        gens, points, rows = json.loads(res.stdout)
        assert (gens, points) == (3, 21)  # SO(2,1) M, a line Lie(A)
        norms = [row["max_min_norm"] for row in rows]
        assert [row["N"] for row in rows] == [0, 1, 2, 3]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert all(sum(row["fired"].values()) == points for row in rows)

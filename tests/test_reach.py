"""Reach: every function in `src/nondiv` runs on some CLI path, or is pinned.

One child interpreter imports the package under `sys.setprofile` and runs
`check`, `certify` and `probe` on every shipped config, then `replay` on each
report written.  A function that none of these calls enter is library code
that no command needs.  It is allowed only when an acceptance criterion
pins it (named below), when only such a function reaches it, or when it is
a closure of `_record.record` that no record in the package exercises.
Anything else unreached is code to wire into a command, move into the
tests or delete; anything allowed here that a command starts to reach is
taken off the list.  Definitions the engine's rank test is equivalent to
(the projection criterion and the invariance dimension) live in
`tests/reference_linalg.py`, and other test-only references in
`tests/helpers.py`.
"""

import json
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# "module.qualname" -> why no CLI run needs to reach it
ALLOWED_UNREACHED = {
    "witness.verify_divergence": "acceptance criterion 6",
    "_record.record.<locals>.bind": "record closure: keyword or wrong-arity construction",
    "_record.record.<locals>.__repr__": "record closure: no command prints a record",
    "_record.record.<locals>.__hash__": "record closure: no command hashes a record",
    "_record.record.<locals>.__setattr__": "record closure: records are never assigned",
    "_record.record.<locals>.__delattr__": "record closure: records are never deleted from",
}

REACH_SCRIPT = r"""
import inspect, json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from nondiv import cli
import nondiv
out_dir, configs = sys.argv[1], sys.argv[2:]
reports = []
for path in configs:
    for command in ("check", "certify", "probe"):
        out = os.path.join(out_dir, f"{os.path.basename(path)}.{command}.json")
        cli.main([command, path, "--output", out])
        if os.path.exists(out):
            reports.append(out)
for out in reports:
    cli.main(["replay", out])
sys.setprofile(None)

# Every named function of the package, by its code object's key, with its
# qualified name built from the enclosing classes and functions (code
# objects carry no qualified name before Python 3.11).
package = os.path.dirname(nondiv.__file__)
unreached = []
for name in sorted(os.listdir(package)):
    if not name.endswith(".py"):
        continue
    path = os.path.join(package, name)
    with open(path, encoding="utf-8") as fh:
        stack = [(compile(fh.read(), path, "exec"), name[:-3] + ".")]
    while stack:
        code, prefix = stack.pop()
        for child in code.co_consts:
            if not inspect.iscode(child) or child.co_name.startswith("<"):
                continue
            qualname = prefix + child.co_name
            if child.co_flags & inspect.CO_NEWLOCALS:
                if (path, child.co_firstlineno, child.co_name) not in entered:
                    unreached.append(qualname)
                stack.append((child, qualname + ".<locals>."))
            else:  # a class body
                stack.append((child, qualname + "."))
sys.stdout.write("\nREACH " + json.dumps(sorted(unreached)) + "\n")
"""


def test_every_unpinned_function_runs_on_a_cli_path(tmp_path):
    configs = sorted(str(p) for p in CONFIGS.glob("*.cfg"))
    res = subprocess.run([sys.executable, "-c", REACH_SCRIPT, str(tmp_path), *configs],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    line = next(l for l in res.stdout.splitlines() if l.startswith("REACH "))
    unreached = set(json.loads(line[len("REACH "):]))
    assert unreached == set(ALLOWED_UNREACHED), (
        f"unreached but not allowed: {sorted(unreached - set(ALLOWED_UNREACHED))}; "
        f"allowed but reached: {sorted(set(ALLOWED_UNREACHED) - unreached)}")

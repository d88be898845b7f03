#!/usr/bin/env python3
"""Benchmark of the `nondiv` command line, run from the repository root:

    python3 bench/run.py --workload m-scan --seed 1 --seconds 20 --trace 0

It drives the CLI as a batch user does: a closed loop with one client, one
invocation at a time.  From `--seed` it generates the workload's problem
files (see instances.py); the program receives only those files.  The
verdicts the program must reach come from an independent oracle
(oracle.py), computed before any timing starts.

`--trace 0` runs the batch through fresh `python3 -m nondiv.cli` processes
for about `--seconds` (at least three passes) and reports

    wall_s       time to all verdicts of the batch: the sum over its
                 invocations of each one's median time over the passes
    setup_s      median time from a fresh interpreter to a validated
                 GroupConfig (import nondiv.cli, parse_problem, build_config)
    peak_rss_mb  largest resident set of any invocation, forked workers included

`--trace 1` runs the same batch in this process with one worker, first
untraced and then with spans around public calls into each engine module
(spans.py), and reports the per-layer metrics listed in BENCHMARK.json.

An invocation fails when it exits with an undocumented code, reaches a
verdict or exit code the oracle disagrees with, reports a certificate,
witness, statistics or probe table the benchmark's own checks reject, writes
report bytes (minus `timing`) that change between passes, or fails
`nondiv replay`.  The one instance of a known defect (probe n-values with
N = 400 overflow to NaN and the CLI exits 1 with a traceback) is counted as
an expected failure while it shows exactly that signature; any other
outcome of it is judged like every other instance.

Lines before the last one give provenance, the instance manifest, the
SHA-256 digest of every report with `timing` removed, and a summary that
includes `ops_failed_frac`; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import instances
import oracle
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"                # relative to ROOT, which is the cwd
DOCUMENTED_EXITS = {0, 2, 3, 4, 10}
MIN_PASSES = 3
SETUP_PER_PASS = 3
INVOCATION_TIMEOUT_S = 150
SWEEP = ((2, 4), (2, 8), (3, 2), (3, 3), (4, 2))

SETUP_CODE = """\
import sys, time
import nondiv.cli
from nondiv import build_config, parse_problem
with open(sys.argv[1], encoding="utf-8") as fh:
    build_config(parse_problem(fh.read(), sys.argv[1]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""
IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import nondiv.cli
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# --- the batch -----------------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    instance: instances.Instance
    command: str
    argv: tuple
    report: str           # the report this invocation writes (or replays)

    @property
    def expected_exit(self) -> int:
        if self.command == "replay":
            return 0
        if self.instance.expected.nondivergent:
            return 4 if self.command == "probe" else 0
        return 10


def plan(workload: instances.Workload, batch, workers: int) -> list[Invocation]:
    out = []
    for inst in batch:
        path = f"{WORK}/{workload.name}/{inst.name}"
        report = path[:-len(".cfg")] + f".{workload.command}.json"
        out.append(Invocation(inst, workload.command,
                              (workload.command, path, "--workers", str(workers),
                               "--output", report), report))
        if workload.replay:
            out.append(Invocation(inst, "replay", ("replay", report), report))
    return out


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Judge:
    """Classifies each invocation as ok, expected failure or failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.expected_failures: list[str] = []
        self.digests: dict[str, str] = {}

    def __call__(self, inv: Invocation, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        label = f"{inv.instance.name} {inv.command}"
        problem = self._problem(inv, code, stdout, stderr)
        if problem is None:
            return
        if (inv.instance.slot.kind == "known-defect" and code == 1
                and "Traceback" in stderr and "NaN" in stderr):
            self.expected_failures.append(f"{label}: exit 1, NaN traceback")
            return
        self.failures.append(f"{label}: {problem}")

    def _problem(self, inv, code, stdout, stderr) -> Optional[str]:
        if code not in DOCUMENTED_EXITS:
            return f"undocumented exit code {code}: {stderr.strip()[-300:]}"
        if code != inv.expected_exit:
            return f"exit {code}, the oracle expects {inv.expected_exit}"
        if inv.command == "replay":
            lines = stdout.strip().splitlines()
            try:
                got = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                got = None
            want = {"replay": "ok", "verdict": inv.instance.expected.verdict}
            return None if got == want else f"replay printed {stdout.strip()[:200]!r}"
        try:
            with open(inv.report, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return f"no readable report: {exc}"
        problems = oracle.check_report(inv.instance.problem, inv.instance.expected,
                                       inv.command, report)
        if report.get("exit_code") != code:
            problems.append(f"report exit_code {report.get('exit_code')} != {code}")
        digest = report_digest(report)
        key = f"{inv.instance.name} {inv.command}"
        if self.digests.setdefault(key, digest) != digest:
            problems.append("report bytes (minus timing) changed between passes")
        return "; ".join(problems) or None


# --- running the CLI -------------------------------------------------------------

def run_cli(argv, stdout_path: str, stderr_path: str) -> tuple[int, float, int]:
    """One CLI process; returns (exit code, seconds, max RSS in KiB of the
    process and every child it waited for)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nondiv.cli", *argv],
                                cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def run_and_judge(inv: Invocation, judge: "Judge", workload) -> tuple[float, int]:
    """Run one CLI invocation, judge its outputs; returns (seconds, max RSS KiB)."""
    out_path = f"{WORK}/{workload.name}/stdout.txt"
    err_path = f"{WORK}/{workload.name}/stderr.txt"
    code, seconds, rss = run_cli(inv.argv, out_path, err_path)
    judge(inv, code, read_text(out_path), read_text(err_path))
    return seconds, rss


def setup_sample(judge: "Judge", path: str) -> Optional[float]:
    """Seconds from spawning a fresh interpreter to a validated GroupConfig."""
    judge.attempted += 1
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    res = subprocess.run([sys.executable, "-c", SETUP_CODE, path], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=INVOCATION_TIMEOUT_S)
    try:
        return float(res.stdout.strip().splitlines()[-1]) - t0
    except (IndexError, ValueError):
        judge.failures.append(f"{path} setup: exit {res.returncode}: "
                              f"{res.stderr.strip()[-300:]}")
        return None


def untraced(workload, batch, workers, seconds) -> tuple[dict, Judge, dict]:
    """Passes over the batch, each followed by a few set-up samples, for
    about `seconds` (the last pass ends within half a pass of it)."""
    judge = Judge()
    invocations = plan(workload, batch, workers)
    times = [[] for _ in invocations]
    setup = []
    peak_kib, passes = 0, 0
    start = time.perf_counter()
    while True:
        for inv, samples in zip(invocations, times):
            dt, rss = run_and_judge(inv, judge, workload)
            samples.append(dt)
            peak_kib = max(peak_kib, rss)
        for k in range(SETUP_PER_PASS):
            inst = batch[(passes * SETUP_PER_PASS + k) % len(batch)]
            sample = setup_sample(judge, f"{WORK}/{workload.name}/{inst.name}")
            if sample is not None:
                setup.append(sample)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (1 + 0.5 / passes) >= seconds:
            break
    metrics = {
        # one pass of the batch, each invocation at its median over passes
        "wall_s": (sum(statistics.median(s) for s in times), "s"),
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    detail = {"passes": passes, "pass_wall_s": [sum(p) for p in zip(*times)],
              "setup_samples_s": setup}
    return metrics, judge, detail


# --- the traced, in-process run --------------------------------------------------

def _stats_attrs(verdict) -> dict:
    stats = getattr(verdict, "stats", None)
    if stats is None:
        return {}
    return {"pairs": stats.pairs_examined, "pairs_admissible": stats.pairs_admissible}


HOOKS = (
    # span name, defining module, function, calling module (None: every
    # engine module), attributes taken from the result
    ("config.parse", "nondiv.config", "parse_problem", None, None),
    ("config.build", "nondiv.config", "build_config", None,
     lambda c: {"centralizer_elements": len(c.centralizer_weyl)}),
    ("criterion.scan", "nondiv.criterion", "check_general", None, _stats_attrs),
    ("criterion.filter", "nondiv.rootdata", "parabolic_contains",
     "nondiv.criterion", None),
    ("criterion.rank", "nondiv.linalg", "rank", "nondiv.criterion", None),
    ("criterion.replay", "nondiv.criterion", "replay_certificate", None, None),
    ("witness.escape", "nondiv.witness", "build_escape_witness", None, None),
    ("witness.decay", "nondiv.witness", "decay_table", None, None),
    ("witness.wedge_norm", "nondiv.witness", "wedge_norm", None, None),
    ("lattice.probe", "nondiv.lattice", "orbit_probe", None, None),
    ("lattice.svp", "nondiv.lattice", "shortest_vector", None, None),
    ("report.json", "nondiv.report", "to_json", None,
     lambda text: {"bytes": len(text.encode("utf-8"))}),
)

LAYER_METRICS = (
    # metric, span, how: "s" (busy seconds), "calls", or an attribute sum
    ("config.parse_s", "config.parse", "s"),
    ("config.build_s", "config.build", "s"),
    ("config.centralizer_elements", "config.build", "centralizer_elements"),
    ("criterion.scan_s", "criterion.scan", "s"),
    ("criterion.pairs", "criterion.scan", "pairs"),
    ("criterion.pairs_admissible", "criterion.scan", "pairs_admissible"),
    ("criterion.filter_calls", "criterion.filter", "calls"),
    ("criterion.filter_s", "criterion.filter", "s"),
    ("criterion.rank_calls", "criterion.rank", "calls"),
    ("criterion.rank_s", "criterion.rank", "s"),
    ("criterion.replay_calls", "criterion.replay", "calls"),
    ("criterion.replay_s", "criterion.replay", "s"),
    ("witness.escape_s", "witness.escape", "s"),
    ("witness.decay_s", "witness.decay", "s"),
    ("witness.wedge_norm_calls", "witness.wedge_norm", "calls"),
    ("lattice.probe_s", "lattice.probe", "s"),
    ("lattice.svp_calls", "lattice.svp", "calls"),
    ("lattice.svp_s", "lattice.svp", "s"),
    ("report.json_s", "report.json", "s"),
    ("report.bytes", "report.json", "bytes"),
)


def run_inprocess(cli, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what an uncaught error does to the CLI process
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def _fresh_python(args) -> str:
    res = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"python {args[:2]} exited {res.returncode}: {res.stderr[-300:]}")
    return res.stdout + res.stderr


def _scipy_import_seconds(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules in an
    `-X importtime` log (children are logged before their parents)."""
    total, ancestors = 0, []
    for line in reversed(importtime.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:      # the header line
            continue
        name = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip())
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a_scipy for _, a_scipy in ancestors):
            total += cumulative
        ancestors.append((depth, is_scipy))
    return total / 1e6


def startup_metrics() -> dict:
    """Import time of nondiv.cli in fresh interpreters, and the part of it
    spent importing scipy."""
    total, scipy = [], []
    for _ in range(3):
        total.append(float(_fresh_python(["-c", IMPORT_CODE]).split()[-1]))
        scipy.append(_scipy_import_seconds(
            _fresh_python(["-X", "importtime", "-c", "import nondiv.cli"])))
    return {"startup.import_s": (statistics.median(total), "s"),
            "startup.import_scipy_s": (statistics.median(scipy), "s")}


def _config_of(text: str):
    from nondiv import build_config, parse_problem
    return build_config(parse_problem(text))


def scan_metrics(batch) -> tuple[dict, list[str]]:
    """The scan at 2 workers over the batch, and the (n, m) sweep of the
    exhaustive torus scan (Lie(A) = the full Cartan) at 1 worker."""
    criterion = sys.modules["nondiv.criterion"]
    check = getattr(criterion, "check_general", None)
    if check is None:
        return {}, []
    metrics, errors = {}, []
    elapsed = 0.0
    for inst in batch:
        config = _config_of(inst.text)
        t0 = time.perf_counter()
        verdict = check(config, workers=2)
        elapsed += time.perf_counter() - t0
        if verdict.nondivergent != inst.expected.nondivergent:
            errors.append(f"{inst.name} scan at 2 workers: wrong verdict")
    metrics["criterion.scan_w2_s"] = (elapsed, "s")
    for n, m in SWEEP:
        p = instances.torus_problem(n, m, instances.full_cartan(n, m))
        config = _config_of(instances.write_problem(p))
        t0 = time.perf_counter()
        verdict = check(config, workers=1)
        metrics[f"criterion.scan_s.{n}x{m}"] = (time.perf_counter() - t0, "s")
        if not verdict.nondivergent:
            errors.append(f"sweep {n}x{m}: full Cartan reported divergent")
    return metrics, errors


def traced(workload, batch, seconds) -> tuple[dict, Judge, dict]:
    """In-process, 1 worker: untraced and traced passes alternate for about
    `seconds`; span metrics come from the median traced pass."""
    metrics = startup_metrics()
    sys.path.insert(0, SRC)
    import nondiv.cli as cli

    judge = Judge()
    invocations = plan(workload, batch, 1)
    plain, runs = [], []
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start) * (1 + 0.5 / len(runs)) < seconds:
        wall = 0.0
        for inv in invocations:
            code, dt, out, err = run_inprocess(cli, inv.argv)
            wall += dt
            judge(inv, code, out, err)
        plain.append(wall)
        tracer = spans.Tracer()
        for hook in HOOKS:
            tracer.hook(*hook)
        wall = 0.0
        try:
            for request, inv in enumerate(invocations):
                tracer.request = request
                code, dt, out, err = run_inprocess(cli, inv.argv)
                wall += dt
                judge(inv, code, out, err)
        finally:
            tracer.remove()
        runs.append((wall, tracer))
    wall, tracer = sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2]
    for name, span, how in LAYER_METRICS:
        if span in tracer.absent:
            continue
        if how == "s":
            metrics[name] = (tracer.seconds(span), "s")
        elif how == "calls":
            metrics[name] = (tracer.calls(span), "count")
        else:
            metrics[name] = (tracer.attr_sum(span, how), "bytes" if how == "bytes" else "count")
    metrics["trace.overhead_s"] = (wall - statistics.median(plain), "s")
    extra, errors = scan_metrics(batch)
    metrics.update(extra)
    judge.attempted += len(batch) + len(SWEEP)
    judge.failures += errors
    with open(f"{WORK}/{workload.name}/spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    detail = {"pass_pairs": len(runs), "absent": tracer.absent,
              "untraced_pass_s": plain, "traced_pass_s": [w for w, _ in runs]}
    return metrics, judge, detail


# --- provenance, manifest, output ------------------------------------------------

def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args, workers: int) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "nondiv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workers": workers, "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "numpy": _version("numpy"), "scipy": _version("scipy")}


def manifest(workload, batch) -> dict:
    return {"workload": workload.name, "why": workload.why,
            "command": workload.command, "replay": workload.replay,
            "instances": [{
                "file": inst.name, "n": inst.problem.n, "m": inst.problem.m,
                "weyl_order": inst.problem.weyl_order,
                "w_prime": len(inst.problem.centralizer_list()),
                "dim_a": len(inst.problem.a_basis),
                "class": inst.slot.kind, "verdict": inst.expected.verdict,
            } for inst in batch]}


def classify(slot: instances.Slot, problem: instances.Problem):
    """Oracle verdict when the draw has the slot's verdict class, else None."""
    verdict = oracle.decide(problem)
    return verdict if verdict.nondivergent == (slot.kind == "exhaust") else None


def prepare(workload, seed: int) -> list[instances.Instance]:
    batch = instances.generate(workload, seed, classify)
    folder = os.path.join(WORK, workload.name)
    os.makedirs(folder, exist_ok=True)
    for inst in batch:
        with open(os.path.join(folder, inst.name), "w", encoding="utf-8") as fh:
            fh.write(inst.text)
    with open(os.path.join(folder, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest(workload, batch), fh, indent=2)
    return batch


def workers_for(workload) -> int:
    """`--workers` of the untraced run."""
    return min(2, os.cpu_count() or 1) if workload.pool else 1


def emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nondiv", "cli.py")):
        print(f"bench: no nondiv sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   stdout=subprocess.DEVNULL, timeout=INVOCATION_TIMEOUT_S)

    workload = instances.WORKLOADS[args.workload]
    workers = workers_for(workload)
    batch = prepare(workload, args.seed)
    emit({"provenance": provenance(args, 1 if args.trace else workers)})
    emit({"manifest": manifest(workload, batch)})

    if args.trace:
        metrics, judge, detail = traced(workload, batch, args.seconds)
    else:
        metrics, judge, detail = untraced(workload, batch, workers, args.seconds)

    emit({"digests": judge.digests,
          "batch_sha256": hashlib.sha256("\n".join(
              f"{k} {v}" for k, v in sorted(judge.digests.items())).encode()).hexdigest()})
    failed = len(judge.failures)
    emit({"summary": {
        **{name: value for name, (value, _) in metrics.items()},
        "ops_failed_frac": (failed + len(judge.expected_failures)) / max(judge.attempted, 1),
        "expected_failures": judge.expected_failures,
        "failures": judge.failures, **detail}})
    emit({"correct": failed == 0, "attempted": judge.attempted, "failed": failed,
          "metrics": {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

1. The generator is deterministic: the same seed gives byte-identical files
   and another seed gives other files.
2. The oracle agrees with the engine on every shipped config (verdict,
   certificate, statistics) and rejects tampered certificates, so its
   checks are not vacuous.
3. One pass of every workload through the CLI has no failure except the
   N = 400 probe instance, which fails with the known overflow signature.

Prints one line per failed check and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import copy
import glob
import os
import sys

import instances
import oracle
import run


def check_generator(errors: list[str]) -> None:
    for wl in instances.WORKLOADS.values():
        first = [i.text for i in instances.generate(wl, 7, run.classify)]
        again = [i.text for i in instances.generate(wl, 7, run.classify)]
        other = [i.text for i in instances.generate(wl, 8, run.classify)]
        if first != again:
            errors.append(f"{wl.name}: seed 7 gave different files on a second draw")
        if first == other:
            errors.append(f"{wl.name}: seeds 7 and 8 gave the same files")


def check_oracle(errors: list[str]) -> None:
    sys.path.insert(0, run.SRC)
    from nondiv import build_config, check_general, parse_problem
    from nondiv.report import verdict_fields

    for path in sorted(glob.glob(os.path.join(run.ROOT, "configs", "*.cfg"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        problem = instances.read_problem(text)
        expected = oracle.decide(problem)
        fields = verdict_fields(check_general(build_config(parse_problem(text, path)),
                                              workers=1))
        problems = oracle.check_report(problem, expected, "check", fields)
        if problems:
            errors.append(f"{name}: oracle disagrees with the engine: {problems}")
        cert = fields["certificate"]
        if cert is None:
            continue
        # On the full Cartan no dependence among Weyl-moved weights survives.
        full = instances.Problem(problem.n, problem.m, problem.generators,
                                 problem.d_basis,
                                 instances.full_cartan(problem.n, problem.m),
                                 problem.centralizer)
        if not oracle.check_certificate(full, cert):
            errors.append(f"{name}: certificate accepted against the full Cartan")
        if problem.generators:
            moved = copy.deepcopy(cert)
            moved["weyl"]["one_line"][0] = [2, 1, 3, 4]  # splits the M block
            if not any("admissible" in p for p in oracle.check_certificate(problem, moved)):
                errors.append(f"{name}: inadmissible Weyl element accepted")


def check_one_pass(errors: list[str]) -> None:
    os.chdir(run.ROOT)
    known, got = [], []
    for wl in instances.WORKLOADS.values():
        batch = run.prepare(wl, 1)
        known += [(wl.name, i.name) for i in batch if i.slot.kind == "known-defect"]
        workers = run.workers_for(wl)
        judge = run.Judge()
        for inv in run.plan(wl, batch, workers):
            run.run_and_judge(inv, judge, wl)
        errors.extend(f"{wl.name}: {f}" for f in judge.failures)
        got += [(wl.name, f.split(" ")[0]) for f in judge.expected_failures]
    if got != known:
        errors.append(f"expected failures {got}, the known defect is {known}")


def main() -> int:
    errors: list[str] = []
    for check in (check_generator, check_oracle, check_one_pass):
        before = len(errors)
        check(errors)
        print(f"{check.__name__}: {'ok' if len(errors) == before else 'FAILED'}")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: check / certify / probe / replay.

Exit codes: 0 uniformly nondivergent, 10 not uniformly nondivergent,
2 configuration error, 3 audit failure, 4 probe requested on a nondivergent
verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .config import build_config, parse_problem
from .criterion import (
    ConfigInconsistencyError,
    check_general,
    replay_certificate,
)
from .lattice import QuadraticOrder, orbit_probe, realize_divergence_sequence
from .report import (
    REPORT_FORMAT,
    build_report,
    decay_dict,
    input_digest,
    probe_dict,
    to_json,
    witness_dict,
)
from .witness import (
    ExactCheckFailedError,
    HSampler,
    build_escape_witness,
    check_witness_exact,
    decay_table,
)

EXIT_NONDIVERGENT = 0
EXIT_CONFIG_ERROR = 2
EXIT_AUDIT_FAILED = 3
EXIT_PROBE_MISMATCH = 4
EXIT_DIVERGENT = 10


def _fail(message: str, code: int) -> int:
    print(f"nondiv: error: {message}", file=sys.stderr)
    return code


def _emit(report: dict, output) -> None:
    text = to_json(report)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _StageFailed(Exception):
    """A stage stopped the pipeline: args are (message, exit code)."""


def run_pipeline(command: str, name: str, text: str) -> tuple[int, dict]:
    """check, certify and probe of one problem text: parse and build -> check
    -> audit and witness -> probe, up to the command's stage; (code, report)."""
    try:
        problem = parse_problem(text, name)
        config = build_config(problem)
    except ValueError as exc:
        raise _StageFailed(str(exc), EXIT_CONFIG_ERROR)
    if command == "probe":
        if problem.probe is None:
            raise _StageFailed("probe requested but the [probe] section is missing",
                               EXIT_CONFIG_ERROR)
        if config.spec.n != 2 or config.spec.m != 2:
            raise _StageFailed("the lattice probe supports n = 2, m = 2 instances only",
                               EXIT_CONFIG_ERROR)
        try:
            order = QuadraticOrder(problem.probe.d)
        except ValueError as exc:
            raise _StageFailed(f"[probe] d: {exc}", EXIT_CONFIG_ERROR)
    t0 = time.perf_counter()
    try:
        verdict = check_general(config)
    except ConfigInconsistencyError as exc:
        raise _StageFailed(str(exc), EXIT_CONFIG_ERROR)
    code = EXIT_NONDIVERGENT if verdict.nondivergent else EXIT_DIVERGENT
    cert = verdict.certificate
    sections = {}
    if command == "probe" and verdict.nondivergent:
        code = EXIT_PROBE_MISMATCH
    elif command == "check":  # certify and probe re-verify in the witness
        if cert is not None and not replay_certificate(config, cert):
            raise _StageFailed("audit failed: certificate does not replay",
                               EXIT_AUDIT_FAILED)
    elif cert is not None:
        try:
            witness = build_escape_witness(cert, config)
            check_witness_exact(witness, cert.dependence)
        except (ExactCheckFailedError, ValueError) as exc:
            raise _StageFailed(f"audit failed: {exc}", EXIT_AUDIT_FAILED)
        sections["witness"] = witness_dict(witness)
        if command == "probe":
            settings = problem.probe
            try:
                elements = realize_divergence_sequence(cert, witness.v,
                                                       settings.n_values)
            except ExactCheckFailedError as exc:
                raise _StageFailed(f"audit failed: {exc}", EXIT_AUDIT_FAILED)
            sections["decay"] = decay_dict(decay_table(
                cert, witness, settings.n_values, HSampler.default(config), config))
            rows = [(n_val, orbit_probe(order, mats, settings.grid_radius,
                                        settings.grid_points))
                    for n_val, mats in zip(settings.n_values, elements)]
            sections["probe"] = probe_dict(settings.d, settings.grid_radius,
                                           settings.grid_points, rows)
    return code, build_report(name, text, verdict, **sections,
                              timing={"seconds": time.perf_counter() - t0},
                              exit_code=code)


def cmd_pipeline(args) -> int:
    """check, certify and probe: read the file, run, write the report."""
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        return _fail(str(exc), EXIT_CONFIG_ERROR)
    try:
        code, report = run_pipeline(args.command, args.path, text)
    except _StageFailed as exc:
        return _fail(*exc.args)
    try:
        _emit(report, args.output)
    except OSError as exc:
        return _fail(f"cannot write report: {exc}", EXIT_CONFIG_ERROR)
    if code == EXIT_PROBE_MISMATCH:
        return _fail("probe follows the divergence witness, but the verdict "
                     "is uniformly nondivergent", EXIT_PROBE_MISMATCH)
    return code


def cmd_replay(args) -> int:
    """Re-run the stage that wrote a report and compare all but `timing`; an
    edited report that names the wrong stage gets a different report."""
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _fail(str(exc), EXIT_CONFIG_ERROR)
    except UnicodeDecodeError as exc:
        return _fail(f"report is not valid UTF-8: {exc}", EXIT_CONFIG_ERROR)
    except ValueError as exc:
        return _fail(f"report is not valid JSON: {exc}", EXIT_CONFIG_ERROR)
    except RecursionError:
        return _fail("report is not valid JSON: nested too deeply", EXIT_CONFIG_ERROR)
    if not isinstance(data, dict):
        return _fail("report is not a JSON object", EXIT_CONFIG_ERROR)
    if data.get("format") != REPORT_FORMAT:
        return _fail(f"unsupported report format {data.get('format')!r}",
                     EXIT_CONFIG_ERROR)
    if not isinstance(data.get("input", {}), dict):
        return _fail("report field 'input' is not an object", EXIT_CONFIG_ERROR)
    try:
        content, stored_digest = data["input"]["content"], data["input"]["sha256"]
    except KeyError as exc:
        return _fail(f"report is missing field {exc}", EXIT_CONFIG_ERROR)
    if not isinstance(content, str):
        return _fail("report field 'input.content' is not a string",
                     EXIT_CONFIG_ERROR)
    if input_digest(content) != stored_digest:
        return _fail("input digest mismatch: report was tampered with",
                     EXIT_AUDIT_FAILED)
    stage = ("probe" if data.get("probe") is not None or data.get("exit_code") == 4
             else "certify" if data.get("witness") is not None else "check")
    try:
        _, fresh = run_pipeline(stage, data["input"].get("name"), content)
    except _StageFailed as exc:
        return _fail(f"embedded configuration no longer checks out: {exc.args[0]}",
                     EXIT_AUDIT_FAILED)
    data["timing"] = fresh["timing"]
    if json.dumps(fresh, sort_keys=True) != json.dumps(data, sort_keys=True):
        return _fail("replay mismatch: the recomputed report differs from the "
                     "stored one", EXIT_AUDIT_FAILED)
    sys.stdout.write(json.dumps({"replay": "ok", "verdict": fresh["verdict"]}) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nondiv",
        description="Exact uniform-nondivergence checker for SL_n-product quotients")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (
            ("check", "decide the verdict and re-verify its certificate"),
            ("certify", "decide, replay the certificate, and audit the witness"),
            ("probe", "lattice-probe corroboration along the witness sequence")):
        p = sub.add_parser(command, help=text)
        p.add_argument("path", help="problem configuration file")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and has no effect: "
                            "the scan runs in one process (must be at least 1)")
        p.add_argument("--output", help="write the report to this file instead of stdout")
        p.set_defaults(func=cmd_pipeline)

    p_replay = sub.add_parser(
        "replay", help="re-run the stage that wrote a report and compare the "
                       "whole report but its timing")
    p_replay.add_argument("path", help="report JSON file")
    p_replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        return _fail("--workers must be at least 1", EXIT_CONFIG_ERROR)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

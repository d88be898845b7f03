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
from .lattice import QuadraticOrder, orbit_probe
from .report import (
    REPORT_FORMAT,
    build_report,
    decay_dict,
    input_digest,
    probe_dict,
    to_json,
    verdict_fields,
    witness_dict,
)
from .witness import (
    ExactCheckFailedError,
    HSampler,
    build_escape_witness,
    check_witness_exact,
    decay_table,
    realize_divergence_sequence,
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


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    problem = parse_problem(text, path)
    return text, problem, build_config(problem)


def cmd_pipeline(args) -> int:
    """check, certify and probe: load -> check -> audit and witness -> probe
    -> emit, stopping at the stage the command asks for."""
    command = args.command
    try:
        text, problem, config = _load(args.path)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), EXIT_CONFIG_ERROR)
    if command == "probe":
        if problem.probe is None:
            return _fail("probe requested but the [probe] section is missing",
                         EXIT_CONFIG_ERROR)
        if config.spec.n != 2 or config.spec.m != 2:
            return _fail("the lattice probe supports n = 2, m = 2 instances only",
                         EXIT_CONFIG_ERROR)
        try:
            order = QuadraticOrder(problem.probe.d)
        except ValueError as exc:
            return _fail(f"[probe] d: {exc}", EXIT_CONFIG_ERROR)
    t0 = time.perf_counter()
    try:
        verdict = check_general(config)
    except ConfigInconsistencyError as exc:
        return _fail(str(exc), EXIT_CONFIG_ERROR)
    code = EXIT_NONDIVERGENT if verdict.nondivergent else EXIT_DIVERGENT
    sections = {}
    if command == "probe" and verdict.nondivergent:
        code = EXIT_PROBE_MISMATCH
    elif command != "check" and not verdict.nondivergent:
        cert = verdict.certificate
        try:
            witness = build_escape_witness(cert, config)
            check_witness_exact(witness)
        except (ExactCheckFailedError, ValueError) as exc:
            return _fail(f"audit failed: {exc}", EXIT_AUDIT_FAILED)
        sections["witness"] = witness_dict(witness)
        if command == "probe":
            settings = problem.probe
            try:
                seq = realize_divergence_sequence(cert, witness, config,
                                                  settings.n_values)
            except ExactCheckFailedError as exc:
                return _fail(f"audit failed: {exc}", EXIT_AUDIT_FAILED)
            sections["decay"] = decay_dict(
                decay_table(seq, HSampler.default(config), config))
            rows = [(n_val, orbit_probe(order, mats,
                                        grid_radius=settings.grid_radius,
                                        grid_points=settings.grid_points))
                    for n_val, mats in zip(seq.n_values, seq.elements)]
            sections["probe"] = probe_dict(settings.d, settings.grid_radius,
                                           settings.grid_points, rows)
    report = build_report(args.path, text, verdict, **sections,
                          timing={"seconds": time.perf_counter() - t0},
                          exit_code=code)
    try:
        _emit(report, args.output)
    except OSError as exc:
        return _fail(f"cannot write report: {exc}", EXIT_CONFIG_ERROR)
    if code == EXIT_PROBE_MISMATCH:
        return _fail("probe follows the divergence witness, but the verdict "
                     "is uniformly nondivergent", EXIT_PROBE_MISMATCH)
    return code


def cmd_replay(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _fail(str(exc), EXIT_CONFIG_ERROR)
    except UnicodeDecodeError as exc:
        return _fail(f"report is not valid UTF-8: {exc}", EXIT_CONFIG_ERROR)
    except json.JSONDecodeError as exc:
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
        content = data["input"]["content"]
        stored_digest = data["input"]["sha256"]
        stored = {key: data[key] for key in ("verdict", "certificate", "stats")}
    except KeyError as exc:
        return _fail(f"report is missing field {exc}", EXIT_CONFIG_ERROR)
    if not isinstance(content, str):
        return _fail("report field 'input.content' is not a string",
                     EXIT_CONFIG_ERROR)
    if input_digest(content) != stored_digest:
        return _fail("input digest mismatch: report was tampered with",
                     EXIT_AUDIT_FAILED)
    try:
        problem = parse_problem(content, "<embedded>")
        config = build_config(problem)
        verdict = check_general(config)
    except (ConfigInconsistencyError, ValueError) as exc:
        return _fail(f"embedded configuration no longer checks out: {exc}",
                     EXIT_AUDIT_FAILED)
    fresh = verdict_fields(verdict)
    if fresh != stored:
        return _fail("replay mismatch: recomputed verdict differs from the report",
                     EXIT_AUDIT_FAILED)
    if (verdict.certificate is not None
            and not replay_certificate(config, verdict.certificate)):
        return _fail("stored certificate fails re-verification",
                     EXIT_AUDIT_FAILED)
    sys.stdout.write(json.dumps({"replay": "ok",
                                 "verdict": stored["verdict"]}) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nondiv",
        description="Exact uniform-nondivergence checker for SL_n-product quotients")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", help="problem configuration file")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and has no effect: "
                            "the scan runs in one process (must be at least 1)")
        p.add_argument("--output", help="write the report to this file instead of stdout")

    p_check = sub.add_parser("check", help="decide the verdict")
    add_common(p_check)
    p_check.set_defaults(func=cmd_pipeline)

    p_certify = sub.add_parser("certify",
                               help="decide, replay the certificate, and audit the witness")
    add_common(p_certify)
    p_certify.set_defaults(func=cmd_pipeline)

    p_probe = sub.add_parser("probe",
                             help="lattice-probe corroboration along the witness sequence")
    add_common(p_probe)
    p_probe.set_defaults(func=cmd_pipeline)

    p_replay = sub.add_parser("replay", help="re-run a report and compare bit for bit")
    p_replay.add_argument("path", help="report JSON file")
    p_replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        return _fail("--workers must be at least 1", EXIT_CONFIG_ERROR)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Machine-readable run reports ("report-v1").

Certificate data is serialized as exact rational strings only; floating point
appears solely in the numeric witness/probe tables.  Reports embed the full
input text, so `replay` re-runs the stage that wrote one and compares the
whole report, `timing` excepted.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional

from . import __version__
from .criterion import Certificate, SearchStats, Verdict
from .lattice import ProbeStats
from .witness import DecayRow, EscapeWitness

REPORT_FORMAT = "report-v1"


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fracs(seq) -> list[str]:
    return [str(Fraction(x)) for x in seq]


def _mat_strs(m) -> list[list[str]]:
    return [[str(Fraction(e)) for e in row] for row in m]


def certificate_dict(cert: Certificate) -> dict:
    return {
        "subset": list(cert.subset),
        "weyl": {"one_line": [[i + 1 for i in p] for p in cert.w.perms]},
        "centralizer": {
            "index": cert.w_prime_index,
            "matrices": [_mat_strs(f) for f in cert.w_prime.matrices],
        },
        "dependence": _fracs(cert.dependence),
        "integer_dependence": (list(cert.integer_dependence)
                               if cert.integer_dependence is not None else None),
    }


def stats_dict(stats: SearchStats) -> dict:
    return {
        "pairs_examined": stats.pairs_examined,
        "pairs_admissible": stats.pairs_admissible,
        "weyl_order": stats.weyl_order,
    }


def verdict_fields(verdict: Verdict) -> dict:
    return {
        "verdict": ("uniformly-nondivergent" if verdict.nondivergent
                    else "not-uniformly-nondivergent"),
        "certificate": (certificate_dict(verdict.certificate)
                        if verdict.certificate is not None else None),
        "stats": stats_dict(verdict.stats) if verdict.stats is not None else None,
    }


# The exact conditions `check_witness_exact` enforces after
# `build_escape_witness` has replayed the certificate.  Any failure exits 3
# and writes no report, so a written report lists each one as passed.
WITNESS_CHECKS = ("certificate_replay", "projection_proper", "orthant_missed",
                  "weight_values_exceed_one")


def witness_dict(witness: EscapeWitness) -> dict:
    return {
        "sigma0": list(witness.sigma0.signs),
        "v": _fracs(witness.v),
        "u_basis": [_fracs(u) for u in witness.u_vectors],
        "u_prime_basis": [_fracs(u) for u in witness.u_prime.basis],
        "weight_values_on_v": _fracs(
            [sum((a * b for a, b in zip(u, witness.v)), Fraction(0))
             for u in witness.u_vectors]),
        "checks": {name: True for name in WITNESS_CHECKS},
    }


def decay_dict(rows: tuple[DecayRow, ...]) -> list[dict]:
    return [{
        "N": row.n_value,
        "max_min_norm": row.max_min_norm,
        "worst_sample": row.worst_sample,
        "fired": {k: v for k, v in row.fired},
    } for row in rows]


def probe_dict(d: int, grid_radius: float, grid_points: int,
               rows: list[tuple[int, ProbeStats]]) -> dict:
    return {
        "d": d,
        "role": "corroborative",
        "note": ("the divergence verdict is certified by the exact criterion; "
                 "this table only demonstrates it on a finite grid"),
        "grid": {"radius": grid_radius, "points": grid_points},
        "rows": [{
            "N": n_val,
            "max": st.maximum,
            "min": st.minimum,
            "argmin_t": st.argmin_t,
            "values": [[t, v] for t, v in st.values],
        } for n_val, st in rows],
    }


def build_report(name: str, content: str, verdict: Verdict, timing: dict,
                 exit_code: int, witness: Optional[dict] = None,
                 decay: Optional[list] = None,
                 probe: Optional[dict] = None) -> dict:
    return {
        "format": REPORT_FORMAT,
        "tool": {"name": "nondiv", "version": __version__},
        "input": {
            "name": name,
            "sha256": input_digest(content),
            "content": content,
        },
        **verdict_fields(verdict),
        "witness": witness,
        "decay": decay,
        "probe": probe,
        "timing": timing,
        "exit_code": exit_code,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"

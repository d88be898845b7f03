"""Report bytes pinned on the shipped configs.

Each digest is the SHA-256 of a CLI report with its non-deterministic
`timing` block removed (canonical JSON, sorted keys).  The digests were
captured from the rational-arithmetic scan that preceded the integer
evaluation kernel, so a change of search order, statistics, certificate or
witness bytes shows up here.

The two `example1-n4-m2.cfg` digests were re-pinned when the trivial-M scan
was folded into the one subset-major (I, w, w') order.  The old torus scan
went Weyl element first and returned I = {2, 3} at w = (id, 1243); the
documented order reaches I = {2} at w = (id, 3412) first.  That certificate
passes `bench/oracle.py::check_certificate`.  Every other digest is unchanged.

The `example2-nonmonomial.cfg` digests were captured from the scan that
transported Lie(A) by each w' class, before w' became a relabelling of w.

The `example1-m2.cfg` probe digest was re-pinned when the decay table began
to order its H samples by exact exponents.  Only its N = 0 row moved, from
"t=(-1/2);id" with 1.0000000000000002 to "t=(-5);id" with 1.0: every a-point
has exponent 0 there and both lines base norm 1, an exact tie, which now
goes to the first sample instead of to the last bits of the float norms.
It was re-pinned once more when `[probe] seed` stopped being read and the
sample labels lost their constant ";id" suffix: the report no longer has
`probe.seed`, and "t=(-5);id" is now "t=(-5)".  No decay or probe value
moved; every row here already equalled the closed form the rows now print.

The `probe` report holds float tables (decay norms, lattice minima), so its
floats are rounded to 10 significant digits before hashing; last-digit
differences between BLAS builds then do not change the digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nondiv import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CHECK_SHA256 = {
    "example1-m1.cfg":
        "ffc97edfde175e086904170ba258bcf0b51cc3a630c0ad979546c1c8b077a9a7",
    "example1-m2.cfg":
        "9be5713c1545ef2ee587badbbb00221b02d3db3274edc5edf204802ea340c602",
    "example1-m3.cfg":
        "9197db06294e3ec74278214a7ad64bcd253f8e2e967f6d3c6630e014d3539ae5",
    "example1-m4.cfg":
        "e3c62b17aa9da7e856695559f8bc5b371cd9c580d8e741836ccb8aae1ba740ca",
    "example1-m5.cfg":
        "2a1cb1cc72093ece090f67ff24b741ac23b5be40babab20ce0a5bf6643f0061e",
    "example1-n3-m2.cfg":
        "75cbce4f49e0ceb626490dd001870c70440c2a062b11957ef7de5cc0a91b81f2",
    "example1-n4-m2.cfg":
        "7bdd6079f24fd4c4b4fe00c7971a5ec0d5c271e8c96002edce5c204beb36e29e",
    "example2-line.cfg":
        "b270e4c54e61941099ba2ba1dcacf9bac0fb8712d3cce7cbc6c05c239dc82c8a",
    "example2-nonmonomial.cfg":
        "514f0c4fbc4ccd4fb5af61ef095f125af5ff030bb862afea722796269fa8042e",
    "example2.cfg":
        "8e2162142da57250ec987d22f8702d730589d6e9aec672f6ef3d5cd13c0722a5",
}

CERTIFY_SHA256 = {
    "example1-m2.cfg":
        "952e13cc8c9463b173ea09af8c16b475de6c1853b7a67cc2d50ce14fdc3e68cb",
    "example1-m4.cfg":
        "361ff7881773da5d94456ec9fc06a2b313304a16fbd60080ee8c344f2e18a003",
    "example1-n3-m2.cfg":
        "220016f8defff72474c2ef6ace6d646dd4ac866b3ad7c788313191e2021a5070",
    "example1-n4-m2.cfg":
        "0cf48e29f98359fa7230482d324ba43d130d2c53b43cded0b65227dabcbed5ae",
    "example2-line.cfg":
        "54908265aa46020740d61f4aea45b624964fdeb4e26475520c7f0c9e9a020952",
    "example2-nonmonomial.cfg":
        "70b30f64fb399955ef573f70309d4a7351e702d676f68d61b2bea72da739c17c",
}

PROBE_SHA256 = {
    "example1-m2.cfg":
        "f6e7b39d417515dc24a048f9b9c59976c7769ff14ac19ea365269a8dd4d1340b",
}


def _rounded(node):
    if isinstance(node, float):
        return float(f"{node:.10g}")
    if isinstance(node, dict):
        return {k: _rounded(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_rounded(v) for v in node]
    return node


def report_sha256(command: str, name: str, tmp_path, monkeypatch) -> str:
    monkeypatch.chdir(CONFIGS)
    out = tmp_path / f"{command}-{name}.json"
    cli.main([command, name, "--workers", "1", "--output", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    body = _rounded({k: v for k, v in report.items() if k != "timing"})
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_shipped_config_is_pinned():
    assert set(CHECK_SHA256) == {p.name for p in CONFIGS.glob("*.cfg")}


@pytest.mark.parametrize("name", sorted(CHECK_SHA256))
def test_check_report_bytes(name, tmp_path, monkeypatch):
    assert report_sha256("check", name, tmp_path, monkeypatch) == CHECK_SHA256[name]


@pytest.mark.parametrize("name", sorted(CERTIFY_SHA256))
def test_certify_report_bytes(name, tmp_path, monkeypatch):
    assert report_sha256("certify", name, tmp_path, monkeypatch) == CERTIFY_SHA256[name]


@pytest.mark.parametrize("name", sorted(PROBE_SHA256))
def test_probe_report_bytes(name, tmp_path, monkeypatch):
    assert report_sha256("probe", name, tmp_path, monkeypatch) == PROBE_SHA256[name]

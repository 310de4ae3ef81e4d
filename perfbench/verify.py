"""Exact verification of every CLI output the benchmark produces.

Two layers of checks:

* byte-for-byte comparison with the outputs recorded in `references.json`
  (JSON with `elapsed_ms` zeroed; SVG by SHA-256 and length);
* independent checks that do not trust the references: each art bracket lies
  inside the certified full-measure enclosure, certify reports the documented
  center and radius, selftest passes all eleven checks, and each member
  verdict matches how its input was built.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import Command

REFERENCES = Path(__file__).resolve().parent / "references.json"

# the certified enclosures documented in the package README
FULL_CENTER = Fraction(91782451, 113374080)
FULL_RADIUS = Fraction(11, 19840464)
LEVEL3_CENTER = Fraction(91782451, 170061120)
LEVEL3_RADIUS = Fraction(1, 34012224)
SELFTEST_CHECKS = 11

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def normalise(stdout: str) -> str:
    """Zero the only field allowed to differ between runs."""
    return _ELAPSED.sub('"elapsed_ms": 0', stdout)


def reference_entry(cmd: Command, stdout: str) -> dict:
    """What `references.json` stores for one command's output."""
    if cmd.kind == "render_svg":
        data = stdout.encode()
        return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return {"stdout": normalise(stdout)}


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _check_art(out: dict) -> Optional[str]:
    n = out["n"]
    value = _frac(out["set_measure"])
    tail = _frac(out["tail_bound"])
    if tail != Fraction(1, 63) * Fraction(2, 9) ** max(n - 1, 0):
        return f"tail_bound {tail} is not (1/63)(2/9)^(n-1)"
    if _frac(out["full_value"]) != Fraction(3, 2) * value:
        return "full_value is not (3/2) set_measure"
    lo, hi = Fraction(3, 2) * (value - tail), Fraction(3, 2) * value
    if not FULL_CENTER - FULL_RADIUS <= lo <= hi <= FULL_CENTER + FULL_RADIUS:
        return f"bracket [{lo}, {hi}] leaves the certified enclosure"
    return None


def _check_certify(out: dict) -> Optional[str]:
    if out["verified"] is not True:
        return "certificate not verified"
    want = {"prop3": (LEVEL3_CENTER, LEVEL3_RADIUS), "theorem": (FULL_CENTER, FULL_RADIUS)}
    center, radius = want[out["target"]]
    if (_frac(out["center"]), _frac(out["radius"])) != (center, radius):
        return f"center/radius {out['center']} +/- {out['radius']} differ from the documented ones"
    return None


def _check_member(cmd: Command, out: dict) -> Optional[str]:
    x = cmd.argv[cmd.argv.index("--x") + 1]
    if out["x"] != x:
        return f"echoed x {out['x']} != {x}"
    if out["verdict"] != cmd.expect:
        return f"verdict {out['verdict']} != constructed {cmd.expect}"
    return None


def _check_selftest(stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    ok = [line for line in lines if line.startswith("ok - ")]
    if len(lines) != SELFTEST_CHECKS or len(ok) != SELFTEST_CHECKS:
        return f"{len(ok)} of {len(lines)} selftest lines ok, want {SELFTEST_CHECKS}"
    return None


_JSON_CHECKS = {
    "art": _check_art,
    "certify": _check_certify,
    "render_json": lambda out: None,
}


def verify(cmd: Command, returncode: int, stdout: str, references: dict) -> Optional[str]:
    """None if the output is right, else a one-line reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    if cmd.kind == "member":
        try:
            return _check_member(cmd, json.loads(stdout))
        except (ValueError, KeyError) as exc:
            return f"unreadable member output: {exc!r}"
    ref = references.get(cmd.label)
    if ref is None:
        return "no reference output recorded"
    if reference_entry(cmd, stdout) != ref:
        return "output differs from the reference"
    if cmd.kind == "selftest":
        return _check_selftest(stdout)
    if cmd.kind == "render_svg":
        return None if stdout.startswith("<svg") else "not an SVG document"
    try:
        return _JSON_CHECKS[cmd.kind](json.loads(stdout))
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"

"""Tests for the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod import cli, gaps
from cantorprod.gaps import EXPECTED
from cantorprod.render import render_svg


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """Invoke main() and return (exit code, stdout, stderr)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv: str) -> str:
    """Invoke main() on a bad command line; return the error line after checking exit 2."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    return err.splitlines()[-1]


# ---------------------------------------------------------------------------
# the JSON writer, with json as its oracle

# quote, backslash, the short escapes, other controls, DEL, non-ASCII, a lone
# surrogate and astral characters, besides anything st.characters() draws
JSON_CHARS = st.sampled_from(
    '"\\\b\f\n\r\t\x00\x1f\x7f ~aé±\u2028\ud800\uffff\U0001f600\U0010ffff')
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**300), 2**300)
    | st.text(JSON_CHARS | st.characters(), max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(JSON_CHARS | st.characters(), max_size=4), children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(json_values)
@example({"": [], "a": {}, "b": [{}, []]})
@example({"families": [{"side": "±"}], "n": -(10**40)})
def test_dump_json_matches_json(value):
    assert cli._dump_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [0.5, {"x": 1.0}, [float("nan")], (1, 2), {1: "one"}])
def test_dump_json_rejects_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        cli._dump_json(value)


# ---------------------------------------------------------------------------
# art


def test_art_json(capsys):
    code, out, err = run_cli(capsys, "art", "--n", "2", "--format", "json")
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["n"] == 2
    assert data["set_measure"] == "44/81"
    assert data["full_value"] == "22/27"
    assert data["tail_bound"] == "2/567"
    assert data["component_count"] == 2


def test_art_text(capsys):
    code, out, _ = run_cli(capsys, "art", "--n", "1", "--format", "text")
    assert code == 0
    assert "set_measure = 5/9" in out
    assert "full_value = 5/6" in out


def test_art_out_file(capsys, tmp_path):
    target = tmp_path / "estimate.json"
    code, out, _ = run_cli(capsys, "art", "--n", "1", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["set_measure"] == "5/9"


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.json"
    assert usage_error(capsys, "certify", "--out", str(missing)) == (
        f"cantorprod: error: cannot write --out {missing}: No such file or directory"
    )
    assert usage_error(capsys, "member", "--x", "1/3", "--out", str(tmp_path)) == (
        f"cantorprod: error: cannot write --out {tmp_path}: Is a directory"
    )


def test_art_deterministic_apart_from_timing(capsys):
    _, first, _ = run_cli(capsys, "art", "--n", "3", "--format", "json")
    _, second, _ = run_cli(capsys, "art", "--n", "3", "--format", "json")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_art_usage_errors(capsys):
    assert usage_error(capsys, "art", "--n", "99") == (
        "cantorprod: error: standard route supports 0 <= n <= 20"
    )
    assert usage_error(capsys, "art", "--n", "21") == (
        "cantorprod: error: standard route supports 0 <= n <= 20"
    )
    assert run_cli(capsys, "art", "--n", "2", "--digits", "0")[0] == 2
    assert run_cli(capsys, "art", "--n", "2", "--digits", "99")[0] == 2
    assert run_cli(capsys, "art", "--n", "3", "--threads", "2")[0] == 2


# ---------------------------------------------------------------------------
# fast


def test_fast_json(capsys):
    code, out, _ = run_cli(capsys, "fast", "--n", "1", "--K", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1
    assert data["gap_depth"] == 4
    lower = Fraction(*map(int, data["lower"].split("/")))
    upper = Fraction(*map(int, data["upper"].split("/")))
    assert lower <= Fraction(175, 324) <= upper


def test_fast_usage_errors(capsys):
    assert usage_error(capsys, "fast", "--n", "9") == (
        "cantorprod: error: fast brute force supports 0 <= n <= 3"
    )
    assert usage_error(capsys, "fast", "--n", "1", "--K", "0") == (
        "cantorprod: error: gap_depth must be >= 1"
    )
    assert usage_error(capsys, "fast", "--n", "1", "--K", "11") == (
        "cantorprod: error: fast brute force supports gap_depth <= 10"
    )
    assert run_cli(capsys, "fast", "--n", "1", "--K", "2", "--threads", "2")[0] == 2


# ---------------------------------------------------------------------------
# certify


def test_certify_level3(capsys):
    code, out, err = run_cli(capsys, "certify", "--target", "prop3")
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["verified"] is True
    assert data["center"] == "91782451/170061120"


def test_certify_full_default_target(capsys):
    code, out, _ = run_cli(capsys, "certify")
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "prop3"


def test_certify_theorem(capsys):
    code, out, _ = run_cli(capsys, "certify", "--target", "theorem")
    assert code == 0
    data = json.loads(out)
    assert data["center"] == "91782451/113374080"
    assert data["radius"] == "11/19840464"
    names = [entry["name"] for entry in data["chain"]]
    assert names[0] == "level1_gap_total"
    assert "full_radius_tolerance" in names


def test_certify_reports_tampering(capsys, monkeypatch):
    monkeypatch.setitem(EXPECTED, "level1_gap_total", Fraction(1, 7))
    code, out, err = run_cli(capsys, "certify", "--target", "prop3")
    assert code == 1
    assert "verification failed: level1_gap_total" in err
    data = json.loads(out)
    assert data["verified"] is False


def test_certify_reports_a_broken_threshold_pattern(capsys, monkeypatch):
    # the derivation itself raises, before there is a chain to print
    real = gaps.high_cover_threshold
    monkeypatch.setattr(gaps, "high_cover_threshold", lambda q, k: real(q, k) + (k == 3))
    code, out, err = run_cli(capsys, "certify")
    assert (code, out) == (1, "")
    assert err == "verification failed: high covering threshold pattern broke at q=2, k=3: 6 != 5\n"


def test_certify_unknown_target(capsys):
    assert run_cli(capsys, "certify", "--target", "nonsense")[0] == 2


# ---------------------------------------------------------------------------
# render


def test_render_svg(capsys):
    code, out, _ = run_cli(capsys, "render", "--n", "0", "--K", "2")
    assert code == 0
    root = ET.fromstring(out)
    assert root.get("data-q") == "2"


def test_render_json(capsys):
    code, out, _ = run_cli(capsys, "render", "--n", "0", "--K", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["depth"] == 0
    assert data["k_max"] == 1
    assert data["cell"] == {"lo": "2/3", "hi": "1/1", "q": 2}
    first = data["families"][0]
    assert first == {"k": 0, "side": "±", "p": ["16/27", "7/9"], "g": ["7/9", "64/81"]}
    assert len(data["families"]) == 3


def test_render_text(capsys):
    code, out, _ = run_cli(capsys, "render", "--n", "0", "--K", "1", "--format", "text")
    assert code == 0
    assert "16/27" in out


def test_render_usage_errors(capsys):
    assert usage_error(capsys, "render", "--n", "3") == "cantorprod: error: depth must be in 0..2"
    assert usage_error(capsys, "render", "--format", "json", "--n", "-1") == (
        "cantorprod: error: depth must be in 0..2"
    )
    assert run_cli(capsys, "render", "--n", "5")[0] == 2
    assert run_cli(capsys, "render", "--n", "0", "--K", "9")[0] == 2
    assert run_cli(capsys, "render", "--format", "json", "--n", "3")[0] == 2
    assert run_cli(capsys, "render", "--format", "text", "--n", "0", "--K", "7")[0] == 2


def test_render_writes_utf8_whatever_the_locale(tmp_path):
    # the "±" labels used to raise UnicodeEncodeError on an ASCII stdout or locale
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUTF8", None)
    argv = ["-m", "cantorprod.cli", "render", "--n", "0", "--K", "1"]
    svg = render_svg(0, 1).encode("utf-8")
    for extra, want in (([], svg), (["--format", "text"], "side = ±".encode("utf-8"))):
        proc = subprocess.run([sys.executable, *argv, *extra], capture_output=True,
                              env={**env, "PYTHONIOENCODING": "ascii"})
        assert proc.returncode == 0, proc.stderr
        assert want in proc.stdout
    target = tmp_path / "f.svg"
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", *argv, "--out", str(target)],
                          capture_output=True, env={**env, "LC_ALL": "C"})
    assert proc.returncode == 0, proc.stderr
    assert target.read_bytes() == svg


# ---------------------------------------------------------------------------
# member


def test_member_text(capsys):
    code, out, _ = run_cli(capsys, "member", "--x", "1/4")
    assert code == 0
    assert "member" in out
    assert "0.(02)*" in out


def test_member_json_non_member(capsys):
    code, out, _ = run_cli(capsys, "member", "--x", "1/2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "non_member"
    assert data["x"] == "1/2"
    assert data["period_length"] == 1


def test_member_endpoint(capsys):
    code, out, _ = run_cli(capsys, "member", "--x", "2/3", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "member"


def test_member_rejects_decimals(capsys):
    assert usage_error(capsys, "member", "--x", "0.5") == (
        "cantorprod: error: not an exact rational literal: '0.5'"
    )
    assert usage_error(capsys, "member", "--x", "5/3") == (
        "cantorprod: error: expected a number in [0, 1], got 5/3"
    )


# ---------------------------------------------------------------------------
# selftest and general plumbing


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 11
    assert all(line.startswith("ok - ") for line in lines)


def test_selftest_reports_a_raising_check_with_its_traceback(capsys, monkeypatch):
    def broken():
        raise ZeroDivisionError("division by zero")

    def checks():
        yield "passes", lambda: True
        yield "raises", broken
        yield "fails", lambda: False
        yield "still runs", lambda: True

    monkeypatch.setattr(cli, "_selftest_checks", checks)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 1
    assert out == ("ok - passes\nFAIL - raises (division by zero)\nFAIL - fails\n"
                   "ok - still runs\n")
    assert err.count("Traceback") == 1  # a check that returns False prints none
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in err
    assert err.endswith("ZeroDivisionError: division by zero\n")


def run_module(argv, stdout) -> tuple[int, bytes]:
    """Run `python -m cantorprod.cli` with the given stdout; (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "cantorprod.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [["selftest"], ["member", "--x", "1/4"], ["certify"]],
                         ids=["selftest", "member", "certify"])
def test_closed_stdout_pipe_exits_1_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: its first write fails
    try:
        code, err = run_module(argv, write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (1, b"")  # no traceback, no "Exception ignored" at exit


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["render", "--n", "0", "--K", "1"], ["selftest"],
                                  ["member", "--x", "1/4", "--format", "json"]],
                         ids=["render", "selftest", "member"])
def test_failed_write_is_an_error_not_a_usage_error(argv):
    want = (1, b"cantorprod: error: cannot write output: No space left on device\n")
    with open("/dev/full", "wb") as full:
        assert run_module(argv, full) == want
    if argv[0] != "selftest":  # --out opens /dev/full fine; the write fails
        assert run_module([*argv, "--out", "/dev/full"], subprocess.DEVNULL) == want


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "orbit")[0] == 2

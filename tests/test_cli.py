"""Tests for the command line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod import cli, gaps, render
from cantorprod.gaps import EXPECTED
from cantorprod.render import render_svg
from test_reachability import COMMAND_LINES


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
    monkeypatch.setitem(EXPECTED, "level1_gap_total", (1, 7))
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


def test_rejected_render_creates_no_out_file(capsys, tmp_path):
    # the ranges are checked before the figure streams, so no file is opened
    target = tmp_path / "fig.svg"
    for argv in (["--n", "3"], ["--K", "7"], ["--n", "-1", "--format", "json"]):
        assert usage_error(capsys, "render", *argv, "--out", str(target)).startswith(
            "cantorprod: error: ")
        assert not target.exists()


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


def traced_peak(call) -> int:
    """Peak bytes of Python allocations while call() runs (tracemalloc)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_selftest_figure_check_streams_the_figure():
    # the check reads the lines one at a time, so it never holds the document
    # that render_svg joins
    check = dict(cli._selftest_checks())["figure renders"]
    assert check() is True  # warms whatever the first call caches
    joined = traced_peak(lambda: render.render_svg(0, 1))
    assert traced_peak(check) <= joined // 2


def test_selftest_fails_a_figure_without_its_closing_tag(capsys, monkeypatch):
    svg = render._svg
    monkeypatch.setattr(render, "_svg", lambda depth, k_max: (
        line for line in svg(depth, k_max) if line != "</svg>\n"))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL - figure renders"
    assert out.count("ok - ") == 10


# a child's stdout is block-buffered, as in a shell pipeline, whatever the
# environment the tests run in
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
CHILD_ENV.pop("PYTHONUNBUFFERED", None)


def run_module(argv, stdout) -> tuple[int, bytes]:
    """Run `python -m cantorprod.cli` with the given stdout; (exit code, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "cantorprod.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=CHILD_ENV)
    return proc.returncode, proc.stderr


# the deepest figure streams in many writes: the first one fails, and the
# chunks after it must not reach the closed stream at exit either
DEEPEST_FIGURE = ["render", "--n", "2", "--K", "6"]


@pytest.mark.parametrize("argv", [["selftest"], ["member", "--x", "1/4"], ["certify"],
                                  DEEPEST_FIGURE, ["--help"], ["certify", "--help"]],
                         ids=["selftest", "member", "certify", "render", "help",
                              "certify-help"])
def test_closed_stdout_pipe_exits_1_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: its first write fails
    try:
        code, err = run_module(argv, write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (1, b"")  # no traceback, no "Exception ignored" at exit


def test_reader_closing_mid_figure_is_a_failed_write():
    # a reader that stops early leaves most of the figure unwritten: that is
    # a failed write, exit 1 and quiet, not a truncated figure and exit 0
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)  # far less than the figure
    proc = subprocess.Popen([sys.executable, "-m", "cantorprod.cli", *DEEPEST_FIGURE],
                            stdout=write_end, stderr=subprocess.PIPE, env=CHILD_ENV)
    os.close(write_end)
    with open(read_end, "rb", buffering=0) as pipe:
        head = pipe.read(100)
    _, err = proc.communicate()
    assert render_svg(2, 6).encode("utf-8").startswith(head)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["render", "--n", "0", "--K", "1"], ["selftest"],
                                  ["member", "--x", "1/4", "--format", "json"],
                                  DEEPEST_FIGURE, ["--help"], ["certify", "--help"]],
                         ids=["render", "selftest", "member", "deepest-render", "help",
                              "certify-help"])
def test_failed_write_is_an_error_not_a_usage_error(argv):
    want = (1, b"cantorprod: error: cannot write output: No space left on device\n")
    with open("/dev/full", "wb") as full:
        assert run_module(argv, full) == want
    # --out opens /dev/full fine and the write fails; selftest and --help write no --out
    if argv[0] != "selftest" and "--help" not in argv:
        assert run_module([*argv, "--out", "/dev/full"], subprocess.DEVNULL) == want


def masked(text: str) -> str:
    """The text with every elapsed_ms value, JSON or text, read as 0."""
    return re.sub(r'("elapsed_ms": |elapsed_ms = )\d+', r"\g<1>0", text)


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_module_run_matches_main_in_process(capsys, argv):
    # `python -m cantorprod.cli` ends through cli.run and os._exit: what it
    # writes and its exit code are main's
    proc = subprocess.run([sys.executable, "-m", "cantorprod.cli", *argv], capture_output=True,
                          env=CHILD_ENV)
    code, out, err = run_cli(capsys, *argv)
    assert proc.returncode == code
    assert masked(proc.stdout.decode("utf-8")) == masked(out)
    assert masked(proc.stderr.decode("utf-8")) == masked(err)


@pytest.mark.parametrize("argv", [["art", "--n", "13"], ["certify", "--target", "theorem"],
                                  DEEPEST_FIGURE], ids=["art", "certify", "render"])
def test_out_file_is_complete_when_the_process_ends(tmp_path, argv):
    target = tmp_path / "out"
    written = subprocess.run([sys.executable, "-m", "cantorprod.cli", *argv, "--out", str(target)],
                             capture_output=True, env=CHILD_ENV)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    printed = subprocess.run([sys.executable, "-m", "cantorprod.cli", *argv],
                             capture_output=True, env=CHILD_ENV)
    assert printed.returncode == 0
    assert masked(target.read_text(encoding="utf-8")) == masked(printed.stdout.decode("utf-8"))


# registers a handler that writes to stdout: os._exit keeps it only if run
# flushes after the handlers have run
ATEXIT_PROBE = """\
import atexit
from cantorprod import cli
atexit.register(print, "atexit handler ran")
cli.run()
"""


@pytest.mark.parametrize("argv, want", [(["member", "--x", "1/4"], 0), (["art", "--n", "99"], 2),
                                        (["--help"], 0), (["certify", "--help"], 0)],
                         ids=["member", "usage-error", "help", "certify-help"])
def test_run_runs_atexit_handlers_and_keeps_the_exit_code(argv, want):
    proc = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *argv], capture_output=True,
                          env=CHILD_ENV)
    assert proc.returncode == want
    assert proc.stdout.endswith(b"atexit handler ran\n")
    assert (proc.stderr == b"") == (want == 0)


def test_run_under_cprofile_prints_the_profile(capsys):
    # cProfile writes its table after the command returns, so run must not
    # end the process itself while a profiler watches
    code, member, _ = run_cli(capsys, "member", "--x", "1/4")
    assert (code, len(member.splitlines())) == (0, 2)
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "cantorprod.cli", "member",
                           "--x", "1/4"], capture_output=True, env=CHILD_ENV, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(member)
    assert "function calls" in proc.stdout


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "orbit")[0] == 2

"""Tests of the benchmark itself: generator, verifier, span arithmetic and host-speed scaling.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import verify
import workloads
from tracing import Recorder, Span, inclusive_times, self_times

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _in_gap_within(x: Fraction, depth: int) -> bool:
    """True if x falls in an open removed middle third within `depth` levels."""
    for _ in range(depth):
        if Fraction(1, 3) < x < Fraction(2, 3):
            return True
        x = 3 * x if x <= Fraction(1, 3) else 3 * x - 2
    return False


def test_generator_is_a_function_of_the_seed():
    assert workloads.commands("light", 7) == workloads.commands("light", 7)
    assert workloads.commands("light", 7) != workloads.commands("light", 8)
    assert workloads.commands("standard", 1) == workloads.commands("standard", 2)


@pytest.mark.parametrize("seed", range(20))
def test_member_inputs_are_right_by_construction(seed):
    cases = workloads.member_inputs(seed)
    assert {str(x) for x in (Fraction(1, 4), Fraction(3, 4), Fraction(2, 3), Fraction(1))} <= {
        str(x) for x, _ in cases
    }
    for x, verdict in cases:
        assert 0 <= x <= 1
        assert _in_gap_within(x, 64) == (verdict == "non_member"), (x, verdict)


def test_target_level_follows_the_tail_formula():
    n = workloads.target_level()
    assert workloads.bracket_width(n) <= Fraction(1, 10**9) < workloads.bracket_width(n - 1)
    assert n == 13


def _light_command(kind):
    return next(c for c in workloads.commands("light", 0) if c.kind == kind)


def test_verifier_accepts_the_references_and_rejects_a_tampered_numerator():
    refs = verify.load_references()
    cmd = workloads.commands("standard", 0)[0]
    good = refs[cmd.label]["stdout"].replace('"elapsed_ms": 0', '"elapsed_ms": 231')
    assert verify.verify(cmd, 0, good, refs) is None
    tampered = good.replace('"set_measure": "16936432907/', '"set_measure": "16936432908/')
    assert tampered != good
    assert verify.verify(cmd, 0, tampered, refs) == "output differs from the reference"
    assert verify.verify(cmd, 1, good, refs) == "exit code 1"


def test_independent_checks_hold_without_the_references():
    cmd = workloads.commands("standard", 0)[0]
    out = json.loads(verify.load_references()[cmd.label]["stdout"])
    value = Fraction(out["set_measure"])
    out["set_measure"] = str(value + Fraction(1, 10**6))
    out["full_value"] = str(Fraction(3, 2) * (value + Fraction(1, 10**6)))
    text = json.dumps(out)
    # even when the tampered output were the reference, the bracket check fires
    assert "leaves the certified enclosure" in verify.verify(cmd, 0, text, {cmd.label: {"stdout": text}})


def test_verifier_rejects_a_flipped_member_verdict():
    cmd = _light_command("member")
    out = {"x": cmd.argv[2], "verdict": cmd.expect}
    assert verify.verify(cmd, 0, json.dumps(out), {}) is None
    out["verdict"] = "non_member" if cmd.expect == "member" else "member"
    assert "verdict" in verify.verify(cmd, 0, json.dumps(out), {})


def test_verifier_rejects_a_failed_selftest_line():
    cmd = _light_command("selftest")
    refs = verify.load_references()
    good = refs[cmd.label]["stdout"]
    assert verify.verify(cmd, 0, good, refs) is None
    bad = good.replace("ok - figure renders", "FAIL - figure renders")
    assert verify.verify(cmd, 0, bad, {cmd.label: {"stdout": bad}}).startswith("10 of 11")


def test_self_time_adds_up_on_a_synthetic_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, None, "w"),
        Span("products.standard_estimate", 1.0, 4.0, 0, "w"),
        Span("products.self_product_stats", 1.5, 3.5, 1, "w"),
        Span("gaps.certify", 5.0, 9.0, 0, "w"),
        Span("gaps.certify", 6.0, 7.0, 3, "w"),
    ]
    own = self_times(spans)
    assert own == {
        "cli.main": 3.0,
        "products.standard_estimate": 1.0,
        "products.self_product_stats": 2.0,
        "gaps.certify": 4.0,
    }
    assert sum(own.values()) == spans[0].end - spans[0].start
    # a span nested in one of its own name is not counted twice
    assert inclusive_times(spans)["gaps.certify"] == 4.0


def test_recorder_links_nested_calls_and_counts():
    rec = Recorder("w")
    inner = rec.wrap("inner", lambda x: x * 2, lambda c, args, result: tracing._add(c, "seen", result))
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(3) == 12
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert rec.counts == {"inner": {"calls": 2, "seen": 12}, "outer": {"calls": 1}}


def test_tail_latency_needs_ten_samples_beyond_it():
    latencies = {"a": [float(i) for i in range(300)]}
    value, label = run.tail_latency(latencies)
    assert label.startswith("p90 ") and value == run.percentile(latencies["a"], 90)
    value, label = run.tail_latency({"a": [1.0] * 60, "b": [5.0, 6.0, 7.0]})
    assert value == 6.0 and "`b`" in label


def test_timeline_divides_by_the_mean_slowness_over_each_run():
    gaps = iter([[1.0, 3.0], [2.0, 2.0], [4.0, 4.0]])
    timeline = hostspeed.Timeline(lambda: next(gaps))
    first = timeline.add(10.0)
    second = timeline.add(10.0, during=(5.0, 5.0, 2.0))
    # gaps around the first run average 2.0; the second run's three in-run
    # samples and its surrounding gaps' mean 3.0 average 3.75
    assert timeline.slowness(first) == 2.0 and timeline.normalized(first) == 5.0
    assert timeline.slowness(second) == 3.75 and timeline.normalized(second) == 10.0 / 3.75


def test_run_child_pauses_to_calibrate_and_keeps_the_output():
    # 0.2 s of CPU time, which a stopped child does not accumulate
    spin = "import time\nend = time.process_time() + 0.2\nwhile time.process_time() < end: pass\nprint('done')"
    result = run.run_child([sys.executable, "-c", spin], {}, calibrate_every=0.02)
    assert result.returncode == 0 and result.stdout == "done\n"
    assert len(result.slowness) >= 3
    assert 0.2 <= result.wall_s < 0.7


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)

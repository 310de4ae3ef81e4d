"""Traced in-process replay: spans and counts around the package's public functions.

The workload's commands run through `cantorprod.cli.main(argv)` with stdout
captured, in three kinds of pass:

1. untraced, for the base wall time of `trace.overhead`;
2. traced: each public function below is wrapped from here, patched under
   every module attribute that holds it (where its callers look it up), and
   every call records a span (name, start, end, parent, workload) plus counts;
3. the sweep's memory peak, from a fresh child per command (sweep_peak.py).

The untraced and traced passes alternate for `--seconds`.  Import cost per
module comes from `python -X importtime` subprocesses.
Spans stay in memory and are written to one JSON file at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from math import lcm
from pathlib import Path
from typing import Callable, Optional

import verify

MODULES = ("intervals", "subdivision", "products", "gaps", "render", "cli")
IMPORT_REPS = 5

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    *((f"import.{m}.self_ms", "ms", "lower") for m in ("cantorprod", *MODULES)),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("subdivision.right_half_subdivision.ms", "ms", "lower"),
    ("subdivision.right_half_subdivision.cells", "count", "lower"),
    ("subdivision.fast_subdivision.ms", "ms", "lower"),
    ("subdivision.fast_subdivision.inner_cells", "count", "lower"),
    ("subdivision.fast_subdivision.outer_cells", "count", "lower"),
    ("subdivision.classify_ternary.ms", "ms", "lower"),
    ("subdivision.classify_ternary.digits", "count", "lower"),
    ("products.self_product_stats.ms", "ms", "lower"),
    ("products.self_product_stats.calls", "count", "lower"),
    ("products.self_product_stats.cells_in", "count", "lower"),
    ("products.self_product_stats.components_out", "count", "lower"),
    ("products.self_product_stats.peak_kb", "kB", "lower"),
    ("products.pairs_computed", "count", "lower"),
    ("products.den_bits_computed", "bits", "lower"),
    ("products.components_per_pair", "ratio", "higher"),
    ("products.standard_estimate.self_ms", "ms", "lower"),
    ("products.fast_bounds.self_ms", "ms", "lower"),
    ("intervals.IntervalSet.ms", "ms", "lower"),
    ("intervals.IntervalSet.calls", "count", "lower"),
    ("intervals.IntervalSet.items", "count", "lower"),
    ("intervals.decimal_string.ms", "ms", "lower"),
    ("gaps.certify.ms", "ms", "lower"),
    ("gaps.certify.entries", "count", "lower"),
    ("gaps.certify.failed_entries", "count", "lower"),
    ("render.render_svg.ms", "ms", "lower"),
    ("render.render_svg.bytes", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    workload: str


class Recorder:
    """In-memory spans with parent links, and per-name counters."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """fn, recording a span per call; count(counters, args, result) adds counts."""
        counters = self.counts.setdefault(name, {"calls": 0})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.workload)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            counters["calls"] += 1
            if count is not None:
                count(counters, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per name: total span time minus the time covered by direct child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - child[i]
    return out


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    """Per name: total time of the spans not nested inside a span of the same name."""
    out: dict[str, float] = {}
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
    return out


def _add(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


def _patch_everywhere(modules: list, attr: str, original, replacement) -> list[tuple]:
    """Rebind attr wherever a module holds `original`; returns what to restore."""
    patched = []
    for module in modules:
        if module.__dict__.get(attr) is original:
            setattr(module, attr, replacement)
            patched.append((module, attr, original))
    return patched


def _restore(patched: list[tuple]) -> None:
    for target, attr, original in patched:
        setattr(target, attr, original)


class Tracer:
    """Installs the span wrappers on the package and removes them again."""

    def __init__(self, recorder: Recorder, package) -> None:
        self.recorder = recorder
        self.package = package
        self.sweep_inputs: list = []

    def install(self) -> list[tuple]:
        pkg = self.package
        modules = [pkg, *(getattr(pkg, name) for name in MODULES)]
        rec = self.recorder

        def sweep(counters, args, result):
            self.sweep_inputs.append(args[0])
            _add(counters, "cells_in", len(args[0]))
            _add(counters, "components_out", result[1])

        functions = [
            ("subdivision", "right_half_subdivision", lambda c, a, r: _add(c, "cells", len(r))),
            ("subdivision", "fast_subdivision",
             lambda c, a, r: (_add(c, "inner_cells", len(r.inner)), _add(c, "outer_cells", len(r.outer)))),
            ("subdivision", "classify_ternary", lambda c, a, r: _add(c, "digits", len(r[1].digits))),
            ("products", "self_product_stats", sweep),
            ("products", "standard_estimate", None),
            ("products", "fast_bounds", None),
            ("intervals", "decimal_string", None),
            ("gaps", "certify",
             lambda c, a, r: (_add(c, "entries", len(r.chain)), _add(c, "failed_entries", len(r.failures())))),
            ("render", "render_svg", lambda c, a, r: _add(c, "bytes", len(r.encode()))),
        ]
        patched = []
        for module, attr, count in functions:
            original = getattr(getattr(pkg, module), attr)
            wrapper = rec.wrap(f"{module}.{attr}", original, count)
            patched += _patch_everywhere(modules, attr, original, wrapper)

        # the canonicalising constructor: every caller reaches it through the class
        cls = pkg.intervals.IntervalSet
        original_init = cls.__init__

        def counted_init(obj, items=()):
            items = list(items)
            _add(rec.counts["intervals.IntervalSet"], "items", len(items))
            original_init(obj, items)

        cls.__init__ = rec.wrap("intervals.IntervalSet", counted_init)
        patched.append((cls, "__init__", original_init))
        return patched


def _replay(main: Callable, commands: list) -> tuple[float, list[tuple[int, str]]]:
    """Run every command through main with stdout captured; wall time and outputs."""
    outputs = []
    start = time.perf_counter()
    for cmd in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = main(list(cmd.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        outputs.append((code, buffer.getvalue()))
    return time.perf_counter() - start, outputs


def sweep_peak_kb(commands: list, env: dict) -> float:
    """Largest growth of peak RSS across the sweeps of one command, each in a fresh child."""
    script = str(Path(__file__).with_name("sweep_peak.py"))
    peaks = []
    for cmd in commands:
        proc = subprocess.run([sys.executable, script, *cmd.argv], env=env,
                              capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout.split()[-1]))
    return float(max(peaks))


def import_self_ms(env: dict, reps: int = IMPORT_REPS) -> dict[str, float]:
    """Median `-X importtime` self time of the package and each module, in ms."""
    samples: dict[str, list[float]] = {}
    argv = [sys.executable, "-X", "importtime", "-c", "import cantorprod.cli"]
    for _ in range(reps):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            # "import time:       412 |       3108 |   cantorprod.gaps"
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name == "cantorprod" or name.startswith("cantorprod."):
                samples.setdefault(name, []).append(int(self_us) / 1000)
    return {name: statistics.median(values) for name, values in samples.items()}


def _sweep_work(inputs: list) -> tuple[int, int]:
    """(i <= j candidate pairs, largest common-denominator bit length) of the sweep inputs."""
    pairs = sum(len(s) * (len(s) + 1) // 2 for s in inputs)
    bits = 0
    for s in inputs:
        den = 1
        for iv in s:
            den = lcm(den, iv.lo.denominator, iv.hi.denominator)
        bits = max(bits, den.bit_length())
    return pairs, bits


def layer_metrics(recorder: Recorder, sweep_inputs: list, passes: int, peak_kb: float,
                  imports: dict[str, float], overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric, times and counts per traced pass."""
    inclusive = {k: 1000 * v / passes for k, v in inclusive_times(recorder.spans).items()}
    own = {k: 1000 * v / passes for k, v in self_times(recorder.spans).items()}
    counts = {name: {k: v / passes for k, v in c.items()} for name, c in recorder.counts.items()}
    pairs, bits = _sweep_work(sweep_inputs)
    pairs /= passes
    sweep = counts.get("products.self_product_stats", {})
    values = {f"import.{m}.self_ms": imports.get(m if m == "cantorprod" else f"cantorprod.{m}", 0.0)
              for m in ("cantorprod", *MODULES)}
    values.update({
        "cli.main.self_ms": own.get("cli.main", 0.0),
        "products.self_product_stats.peak_kb": peak_kb,
        "products.pairs_computed": pairs,
        "products.den_bits_computed": bits,
        "products.components_per_pair": sweep.get("components_out", 0) / pairs if pairs else 0.0,
        "products.standard_estimate.self_ms": own.get("products.standard_estimate", 0.0),
        "products.fast_bounds.self_ms": own.get("products.fast_bounds", 0.0),
        "trace.overhead": overhead,
    })
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if field == "ms":
            values[name] = inclusive.get(span, 0.0)
        else:
            values[name] = counts.get(span, {}).get(field, 0)
    return {name: values[name] for name, _, _ in PER_LAYER}


def traced_run(workload: str, seed: int, commands: list, seconds: float, env: dict,
               references: dict, build: Path, info: dict):
    """The --trace 1 run; returns (metrics, attempted, failures) like run.measure.

    Rounds of one untraced and one traced in-process pass repeat until the
    next round would end after `seconds`; per-layer times and counts are per
    traced pass.
    """
    sys.path.insert(0, env["PYTHONPATH"])
    package = importlib.import_module("cantorprod")
    importlib.import_module("cantorprod.cli")

    # before the in-process passes grow this process, whose RSS forked children inherit
    peak_kb = sweep_peak_kb(commands, env)

    recorder = Recorder(workload)
    tracer = Tracer(recorder, package)
    traced_main = recorder.wrap("cli.main", package.cli.main)
    failures: list[str] = []
    base_s = traced_s = 0.0
    rounds = attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        base, outputs = _replay(package.cli.main, commands)
        patched = tracer.install()
        try:
            traced, traced_outputs = _replay(traced_main, commands)
        finally:
            _restore(patched)
        round_end = time.perf_counter()
        base_s += base
        traced_s += traced
        rounds += 1
        for cmd, (code, out) in zip(commands * 2, outputs + traced_outputs):
            attempted += 1
            problem = verify.verify(cmd, code, out, references)
            if problem:
                failures.append(f"{cmd.label} (in-process): {problem}")
        if round_end + (round_end - round_start) > deadline:
            break

    imports = import_self_ms(env)
    values = layer_metrics(recorder, tracer.sweep_inputs, rounds, peak_kb, imports, traced_s / base_s)
    units = {name: unit for name, unit, _ in PER_LAYER}
    notes = {"products.self_product_stats.peak_kb": "largest peak-RSS growth of one command's sweeps",
             "trace.overhead": f"{traced_s:.3f} s traced / {base_s:.3f} s untraced"}
    notes.update({name: f"median of {IMPORT_REPS} -X importtime" for name in values if name.startswith("import.")})
    per_pass = f"per traced pass, {rounds} passes"
    metrics = {name: (value, units[name], notes.get(name, per_pass)) for name, value in values.items()}

    spans_file = build / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "machine": info,
        "rounds": rounds,
        "untraced_s": base_s,
        "traced_s": traced_s,
        "spans": [asdict(span) for span in recorder.spans],
        "counts": recorder.counts,
    }))
    print(f"spans: {len(recorder.spans)} written to {spans_file.relative_to(build.parent.parent)}")
    return metrics, attempted, failures

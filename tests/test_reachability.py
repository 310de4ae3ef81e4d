"""The reachability gate: every function in src/cantorprod is run by a command,
or is listed here with the role that keeps it.

One fresh interpreter runs the command lines below in process, under
`sys.setprofile`, from before the package is imported, so what runs at import
counts too.  All but the last go through `cli.main`; the last goes through
`cli.run`, the process entry, which under a profiler ends with SystemExit
rather than `os._exit`, so the probe lives on.  It reports every code object
it entered.
Each `def` in the package (methods and nested functions included, lambdas
and comprehensions not) that no run entered must be in UNREACHED, and every
entry there must still exist and still go unreached, so the list cannot go
stale.  The slow references the tests check the package against live in
tests/oracles.py, not here, and each must still be imported by a test.
The perfbench hooks are also installed here with perfbench's own tracer,
so a renamed hook fails this suite, not only a traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import cantorprod
from cantorprod import intervals, products

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cantorprod"

COMMAND_LINES = [
    ["art", "--n", "0"], ["art", "--n", "13"], ["art", "--n", "20"],
    ["fast", "--n", "2", "--K", "4"],
    *(["certify", "--target", target, "--format", fmt]
      for target in ("prop3", "theorem") for fmt in ("json", "text")),
    *(["render", "--n", "2", "--K", "6", "--format", fmt] for fmt in ("svg", "json", "text")),
    ["member", "--x", "1/4"], ["member", "--x", "1/4", "--format", "json"],
    ["selftest"], ["--help"], ["certify", "--help"], ["art", "--n", "99"],
]

PROBE = """\
import contextlib, io, json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_name, code.co_firstlineno))

sys.setprofile(profile)
from cantorprod import cli
*lines, last = json.loads(sys.argv[1])
sys.argv[1:] = last  # the command line cli.run reads
for run in [*(lambda argv=argv: cli.main(argv) for argv in lines), cli.run]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            run()
        except SystemExit:  # --help, the usage error and cli.run
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

PERFBENCH, LIBRARY, FAILURE = "perfbench hook", "library face", "failure path"

# every function no command runs, by module and qualified name, with its role:
# a function perfbench wraps or calls, a public library face, or a path taken
# only when something fails
UNREACHED = {
    # wrapped or called by perfbench's tracer and sweep_peak
    **dict.fromkeys([
        "intervals.IntervalSet.__init__", "intervals.decimal_string",
        "products.self_product_stats", "render.render_svg", "subdivision.fast_subdivision",
        "subdivision.right_half_subdivision",
    ], PERFBENCH),
    # a verification that fails: certify's exit 1 names the first failure
    # (perfbench's tracer counts them too)
    "gaps.Certificate.failures": FAILURE,
    # the library face: Interval, IntervalSet and the Fraction covers, and the
    # enclosures and the squared-length sum, which hand out int pairs
    **dict.fromkeys([
        "__init__.__dir__",
        "gaps._enclosure", "gaps.full_enclosure", "gaps.level3_enclosure",
        *(f"intervals.Interval.{name}" for name in (
            "__delattr__", "__eq__", "__hash__", "__init__", "__reduce__", "__repr__",
            "__setattr__", "contains", "length", "to_json")),
        *(f"intervals.IntervalSet.{name}" for name in (
            "__eq__", "__hash__", "__iter__", "__len__", "__repr__", "_from_ends",
            "affine_image", "contains", "difference", "inf", "intersection", "measure",
            "subset_of", "sup", "union")),
        "intervals._as_interval", "intervals.format_rational", "intervals.rat",
        "products._scaled_endpoints",
        "subdivision.FastNode.cell", "subdivision._cover", "subdivision._gaps",
        "subdivision.gap_set", "subdivision.removed_gaps", "subdivision.squared_length_sum",
        "subdivision.standard_subdivision",
        "ternary._fraction",
    ], LIBRARY),
}


def defined(package: Path) -> dict[tuple[str, str, int], str]:
    """(file, name, first line) of each def's code object -> "module.qualname".

    A decorated function's code starts at its first decorator, so every line
    from there to the `def` is a key.
    """
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                for line in range(first, child.lineno + 1):
                    found[(str(path), child.name, line)] = f"{path.stem}.{name}"
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def entered(package: Path) -> set[tuple[str, str, int]]:
    """What the probe entered running COMMAND_LINES on the package at `package`."""
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, json.dumps(COMMAND_LINES)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return {
        (str(Path(file).resolve()), name, line)
        for file, name, line in json.loads(result.stdout)
    }


def audit(package: Path) -> tuple[list[str], list[str]]:
    """(unreached functions not in UNREACHED, UNREACHED entries gone or now reached)."""
    functions = defined(package)
    reached = {functions[key] for key in entered(package) if key in functions}
    unreached = set(functions.values()) - reached
    return sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)


def test_every_function_is_reached_or_listed_with_its_role():
    assert set(UNREACHED.values()) <= {PERFBENCH, LIBRARY, FAILURE}
    unlisted, stale = audit(PACKAGE)
    assert unlisted == [], "reached by no command and not in UNREACHED"
    assert stale == [], "in UNREACHED, but gone or now reached"


def test_an_unlisted_unreached_function_is_reported(tmp_path):
    copy = tmp_path / "cantorprod"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "ternary.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _never_run():\n    pass\n")
    assert audit(copy) == (["ternary._never_run"], [])


def test_every_oracle_is_imported_by_a_test():
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    defined_here = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    imported = {
        alias.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    assert sorted(defined_here - imported) == [], "in tests/oracles.py, but no test imports it"


def test_perfbench_hooks_install_and_restore(monkeypatch):
    # the tracer wraps its hooks by name, IntervalSet.__init__ as (self,
    # items=()), and perfbench/sweep_peak.py rebinds products.self_product_stats
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # its modules are flat scripts
    tracing = importlib.import_module("tracing")
    recorder = tracing.Recorder("w")
    sweep = products.self_product_stats
    patched = tracing.Tracer(recorder, cantorprod).install()
    try:
        assert products.self_product_stats is not sweep
        right = intervals.IntervalSet([["2/3", "1"]])
        assert intervals.IntervalSet() == intervals.IntervalSet([])
        assert products.self_product_stats(right) == (Fraction(5, 9), 1)
        assert intervals.decimal_string(Fraction(5, 9), 3) == "0.555..."
    finally:
        tracing._restore(patched)
    counts = recorder.counts
    assert counts["intervals.IntervalSet"] == {"calls": 3, "items": 1}
    assert counts["products.self_product_stats"] == {"calls": 1, "cells_in": 1, "components_out": 1}
    assert counts["intervals.decimal_string"] == {"calls": 1}
    assert all(getattr(target, attr) is original for target, attr, original in patched)
    assert products.self_product_stats is sweep

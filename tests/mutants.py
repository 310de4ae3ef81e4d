"""The mutation gate: hand-made faults that the named tier-1 tests must catch.

Each row of MUTANTS names a file, an exact snippet in it, a replacement and
the tier-1 test ids that must fail once the snippet is replaced.  For each
row the runner copies `src/`, `tests/` and `pyproject.toml` into a temporary
directory (pyproject's `pythonpath = ["src"]` would otherwise put this
checkout's unmutated `src/` first), applies the replacement there, and runs
the named tests with `-x`.  A row whose tests all pass is a survivor.  A
snippet that does not occur exactly once, or a pytest run that ends other
than passed or failed (a test id that is not found, say), raises
MutantError, so a row cannot go stale silently.

Run from the repository root, with the standard library and pytest only:

    python tests/mutants.py

It prints one line per row and exits 1 if any row survived.  pytest does
not collect this file; tests/test_mutants.py checks the runner itself.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class MutantError(Exception):
    """A row that cannot be applied or whose tests cannot be run."""


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # tier-1 test ids, one of which must fail


MUTANTS = (
    Mutant(
        "self product without its merge",
        "src/cantorprod/products.py",
        "    los, his = _merge_ends(*_rows(los, his))\n",
        "    los, his = _rows(los, his)\n",
        ("tests/test_products.py::test_fast_bounds_match_pairwise_oracle",),
    ),
    Mutant(
        "each row's last segment dropped",
        "src/cantorprod/products.py",
        "        out_los.append(cur_lo)\n        out_his.append(cur_hi)\n"
        "        if len(out_los) > 2 * kept:\n",
        "        if len(out_los) > 2 * kept:\n",
        ("tests/test_products.py::test_fast_bounds_match_interval_set_route",),
    ),
    Mutant(
        "the deepest ancestor level skipped",
        "src/cantorprod/products.py",
        "for i in range(1, j // 2):",
        "for i in range(1, (j - 1) // 2):",
        ("tests/test_products.py::test_standard_estimate_matches_band_merge_oracle",),
    ),
    Mutant(
        "low and high side pieces swapped",
        "src/cantorprod/subdivision.py",
        "digit + (3 ** (k + 1) - 3 if high_side else 0)",
        "digit + (0 if high_side else 3 ** (k + 1) - 3)",
        ("tests/test_gaps.py::test_gap_is_diagonal_gap_of_side_piece",),
    ),
    Mutant(
        "two band-climb relations swapped",
        "src/cantorprod/gaps.py",
        '("band_touches_gap", "eq"), ("gap_nonempty", "lt")',
        '("band_touches_gap", "lt"), ("gap_nonempty", "eq")',
        ("tests/test_gaps.py::test_order_chain_holds_at_root",),
    ),
    Mutant(
        "certify trusts every derived value",
        "src/cantorprod/gaps.py",
        "ChainEntry(name, value, expected, relation, _holds(relation, value, expected))",
        "ChainEntry(name, value, expected, relation, True)",
        ("tests/test_gaps.py::test_certify_detects_tampering",),
    ),
    Mutant(
        "touching ends left unmerged",
        "src/cantorprod/ternary.py",
        "        if hi < lo:\n",
        "        if hi <= lo:\n",
        ("tests/test_intervals.py::test_normalize_merges_touching",
         "tests/test_intervals.py::test_merge_ends_matches_sort_and_sweep"),
    ),
    Mutant(
        "the beta series stops one child early",
        "src/cantorprod/gaps.py",
        "k + 2, cut)",
        "k + 1, cut)",
        ("tests/test_gaps.py::test_beta_closed_form_matches_series",),
    ),
    Mutant(
        "run flushes before the atexit handlers",
        "src/cantorprod/cli.py",
        "    atexit._run_exitfuncs()\n    sys.stdout.flush()\n    sys.stderr.flush()\n",
        "    sys.stdout.flush()\n    sys.stderr.flush()\n    atexit._run_exitfuncs()\n",
        ("tests/test_cli.py::test_run_runs_atexit_handlers_and_keeps_the_exit_code",),
    ),
    Mutant(
        "the hole-free check never raises",
        "src/cantorprod/products.py",
        "    if b > 3 * a + t:\n",
        "    if False:\n",
        ("tests/test_products.py::test_hole_free_check_raises_on_a_hole",),
    ),
    Mutant(
        "the hole-free bound loses its t",
        "src/cantorprod/products.py",
        "    if b > 3 * a + t:\n",
        "    if b > 3 * a:\n",
        ("tests/test_products.py::test_hole_free_check_raises_on_a_hole",),
    ),
    Mutant(
        "the figure check skips the closing tag",
        "src/cantorprod/cli.py",
        ' and last == "</svg>\\n"\n',
        "\n",
        ("tests/test_cli.py::test_selftest_fails_a_figure_without_its_closing_tag",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the row's snippet in its file under root; it must occur exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise MutantError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def killed(mutant: Mutant) -> bool:
    """Whether one of the row's tests fails on a mutated copy of this checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *mutant.tests]
        result = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                timeout=600)
    if result.returncode not in (0, 1):
        raise MutantError(f"{mutant.name}: pytest exited {result.returncode}\n"
                          f"{result.stdout}{result.stderr}")
    return result.returncode == 1


def survivors(mutants=MUTANTS) -> list[str]:
    """Run every row, print one line each, and return the names of the survivors."""
    names = []
    for mutant in mutants:
        start = time.perf_counter()
        dead = killed(mutant)
        print(f"{'killed' if dead else 'SURVIVED'}  {mutant.name}  "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if not dead:
            names.append(mutant.name)
    return names


if __name__ == "__main__":
    sys.exit(1 if survivors() else 0)

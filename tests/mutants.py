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
        "src/cantorprod/standard.py",
        "for i in range(1, j // 2):",
        "for i in range(1, (j - 1) // 2):",
        ("tests/test_products.py::test_standard_estimate_matches_band_merge_oracle",),
    ),
    Mutant(
        "the ancestor lists built one level too deep",
        "src/cantorprod/standard.py",
        "_leaves(_ROOT, i - 1) for i in",
        "_leaves(_ROOT, i) for i in",
        ("tests/test_products.py::test_surviving_gaps_match_gap_walk_oracle",),
    ),
    Mutant(
        "level 0 not read as level 1",
        "src/cantorprod/standard.py",
        "    level = max(n, 1)\n",
        "    level = n\n",
        ("tests/test_cli.py::test_art_prints_what_the_gap_walk_gives",
         "tests/test_products.py::test_standard_estimate_level_zero"),
    ),
    Mutant(
        "the full value's denominator off by one",
        "src/cantorprod/standard.py",
        "    full = 3 * measure, 2 * scale\n",
        "    full = 3 * measure, 2 * scale + 1\n",
        ("tests/test_cli.py::test_art_prints_what_the_gap_walk_gives",
         "tests/test_products.py::test_estimate_record_matches_fraction_route"),
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
        "entries.append((name, value, expected, relation, _holds(relation, value, expected)))",
        "entries.append((name, value, expected, relation, True))",
        ("tests/test_gaps.py::test_certify_detects_tampering",
         "tests/test_cli.py::test_certify_reports_tampering"),
    ),
    Mutant(
        "the certificate's verdict ignores its chain",
        "src/cantorprod/gaps.py",
        "tuple(entries), all(match for *_, match in entries)",
        "tuple(entries), True",
        ("tests/test_cli.py::test_certify_reports_tampering",),
    ),
    Mutant(
        "certify's record takes the kernel's center for its radius",
        "src/cantorprod/gaps.py",
        "    return Certificate(target, center, radius, tuple(",
        "    return Certificate(target, center, center, tuple(",
        ("tests/test_gaps.py::test_certify_kernel_matches_the_record_and_fraction_routes",),
    ),
    Mutant(
        "chain_holds reads each check's index for its verdict",
        "src/cantorprod/gaps.py",
        "return all(holds for _, _, holds, *_ in checks)",
        "return all(holds for _, holds, *_ in checks)",
        ("tests/test_gaps.py::test_order_chain_holds_at_root",),
    ),
    Mutant(
        "the fast kernel swaps inner and outer",
        "src/cantorprod/products.py",
        "    inner, outer, depth = _fast_tree(n, K)\n",
        "    outer, inner, depth = _fast_tree(n, K)\n",
        ("tests/test_products.py::test_fast_run_matches_the_record_route",),
    ),
    Mutant(
        "the fast payload's width measured the wrong way",
        "src/cantorprod/products.py",
        '"width": format_ratio(upper - lower, scale),',
        '"width": format_ratio(lower - upper, scale),',
        ("tests/test_products.py::test_fast_record_matches_fraction_route",),
    ),
    Mutant(
        "a plain child built on the wrong side",
        "src/cantorprod/subdivision.py",
        "    return _side(node, k, high_side, 0 if high_side else 2)\n",
        "    return _side(node, k, high_side, 2 if high_side else 0)\n",
        ("tests/test_gaps.py::test_plain_pair_families_and_children_match_their_fast_node_calls",),
    ),
    Mutant(
        "the fast rounds build addresses of any length",
        "src/cantorprod/subdivision.py",
        "    if (2 * K) ** n * depth > 10_000_000:\n",
        "    if False:\n",
        ("tests/test_subdivision.py::test_fast_refuses_addresses_too_long_to_build",),
    ),
    Mutant(
        "the figure's cell one child too deep",
        "src/cantorprod/render.py",
        "    for _ in range(depth):\n        node = _child(node, 1, high_side=False)\n",
        "    for _ in range(depth + 1):\n        node = _child(node, 1, high_side=False)\n",
        ("tests/test_cli.py::test_render_json",),
    ),
    Mutant(
        "selftest's degenerate scale is a genuine cell",
        "src/cantorprod/cli.py",
        "gaps._order_chain((0, root[1]), 3)",
        "gaps._order_chain((2, root[1]), 3)",
        ("tests/test_cli.py::test_selftest_passes",),
    ),
    Mutant(
        "the standard enclosure adds its tail at the low end",
        "src/cantorprod/standard.py",
        "    low = 3 * (measure * u - t * scale), 2 * scale * u\n",
        "    low = 3 * (measure * u + t * scale), 2 * scale * u\n",
        ("tests/test_cli.py::test_selftest_passes",
         "tests/test_gaps.py::test_ends_are_lowest_terms_pairs_equal_to_fraction_oracles"),
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
        "    atexit._run_exitfuncs()\n    for stream in (sys.stdout, sys.stderr):\n"
        "        if stream is not None:  # None: the process started with it closed\n"
        "            stream.flush()\n",
        "    for stream in (sys.stdout, sys.stderr):\n"
        "        if stream is not None:  # None: the process started with it closed\n"
        "            stream.flush()\n    atexit._run_exitfuncs()\n",
        ("tests/test_cli.py::test_run_runs_atexit_handlers_and_keeps_the_exit_code",),
    ),
    Mutant(
        "the hole-free check never raises",
        "src/cantorprod/standard.py",
        "    if b > 3 * a + t:\n",
        "    if False:\n",
        ("tests/test_products.py::test_hole_free_check_raises_on_a_hole",),
    ),
    Mutant(
        "the hole-free bound loses its t",
        "src/cantorprod/standard.py",
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
    Mutant(
        "a digit 1 always ends a terminating expansion",
        "src/cantorprod/ternary.py",
        "terminal = period == 0 and complete and digits.index(1) == len(digits) - 1",
        "terminal = True",
        ("tests/test_ternary.py::test_membership_kernel_matches_the_record_oracle",),
    ),
    Mutant(
        "the kernel loses its x == 1 branch",
        "src/cantorprod/ternary.py",
        "    if p == q:\n        return [2], 1, True\n",
        "",
        ("tests/test_ternary.py::test_membership_kernel_matches_the_record_oracle",),
    ),
    Mutant(
        "a digit 1 stops the Cantor count only up to level 22",
        "src/cantorprod/standard.py",
        "            if digit == 1:  # and none has x's 1 here\n",
        "            if digit == 1 and j <= 22:  # and none has x's 1 here\n",
        ("tests/test_products.py::test_count_matches_the_frozen_table_up_to_level_32",),
    ),
    Mutant(
        "the cycle one digit too long",
        "src/cantorprod/ternary.py",
        "return digits, len(digits) - seen[p], True",
        "return digits, len(digits) - seen[p] + 1, True",
        ("tests/test_ternary.py::test_membership_kernel_matches_the_record_oracle",),
    ),
    Mutant(
        "cli imports json",
        "src/cantorprod/cli.py",
        "import atexit\nimport os\n",
        "import atexit\nimport json\nimport os\n",
        ("tests/test_package.py::test_command_line_loads_its_modules",),
    ),
    Mutant(
        "the certificate kernel imports a record class",
        "src/cantorprod/gaps.py",
        "from . import _CERTIFY_TARGETS as TARGETS\n",
        "from . import _CERTIFY_TARGETS as TARGETS\nfrom .records import ChainEntry\n",
        ("tests/test_package.py::test_command_line_loads_its_modules",),
    ),
    Mutant(
        "ternary postpones its annotations",
        "src/cantorprod/ternary.py",
        "import sys\nfrom math import gcd\n",
        "from __future__ import annotations\n\nimport sys\nfrom math import gcd\n",
        ("tests/test_package.py::test_command_line_loads_its_modules",),
    ),
    Mutant(
        "the standard route imports Fraction",
        "src/cantorprod/standard.py",
        "import time\nfrom math import isqrt\n",
        "import time\nfrom fractions import Fraction\nfrom math import isqrt\n",
        ("tests/test_package.py::test_command_line_loads_its_modules",),
    ),
    Mutant(
        "render imports typing",
        "src/cantorprod/render.py",
        "from itertools import chain\n",
        "import typing\nfrom itertools import chain\n",
        ("tests/test_package.py::test_command_line_loads_its_modules",),
    ),
    Mutant(
        "a closed stderr is written to",
        "src/cantorprod/cli.py",
        "    if sys.stderr is not None:\n        sys.stderr.write(text)\n",
        "    sys.stderr.write(text)\n",
        ("tests/test_cli.py::test_closed_stderr_drops_what_it_would_say",),
    ),
    Mutant(
        "a closed stdout is written to",
        "src/cantorprod/cli.py",
        "    if sys.stdout is None:\n        import errno\n",
        "    if False:\n        import errno\n",
        ("tests/test_cli.py::test_closed_stdout_is_a_failed_write",),
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

"""The count's contract past tier-1's range, run as its own CI step.

Checks `standard._standard_stats(N)` against the independent gap walk
(`gap_walk_oracle` in tests/test_products.py) at N = 24 and 26, and
`standard._surviving_gaps(40)` against the whole frozen table
SURVIVING_GAPS_40 (u_1..u_39).  Tier-1 runs the same checks at N <= 22 and
on u_1..u_31.  The table was made by the count it checks, so past level 26
it pins the count against change and proves nothing.

Run from the repository root, with the standard library and the test
dependencies:

    python tests/count_check.py

It prints one line per check with its time (about 37 s in all on a 2-core
x86 host) and exits 1 if any check fails.  pytest does not collect this file.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cantorprod.standard import _standard_stats, _surviving_gaps
from test_products import SURVIVING_GAPS_40, gap_walk_oracle

CHECKS = {
    **{f"count equals the gap walk at N = {n}":
       (lambda n=n: _standard_stats(n) == gap_walk_oracle(n)) for n in (24, 26)},
    "count equals the frozen table u_1..u_39":
        lambda: tuple(_surviving_gaps(40)) == SURVIVING_GAPS_40,
}


def failures() -> list[str]:
    """Run every check, print one line each, and return the names of those that fail."""
    failed = []
    for name, check in CHECKS.items():
        start = time.perf_counter()
        ok = check()
        print(f"{'ok' if ok else 'FAIL'}  {name}  ({time.perf_counter() - start:.1f} s)", flush=True)
        if not ok:
            failed.append(name)
    return failed


if __name__ == "__main__":
    sys.exit(1 if failures() else 0)

"""Peak-RSS growth of one CLI command's product sweeps, in KiB.

    python3 perfbench/sweep_peak.py art --n 13

Runs `cantorprod.cli.main(argv)` in this fresh process with stdout discarded.
The peak resident set is read when the first `products.self_product_stats`
call starts and again when the command ends; their difference is printed
(0 when the command runs no sweep).  tracemalloc would slow the sweep about
tenfold, so the benchmark reads the kernel's high-water mark instead.
"""

import contextlib
import io
import resource
import sys

import cantorprod.cli as cli
import cantorprod.products as products


def main() -> int:
    original = products.self_product_stats
    start = []

    def measured(*args, **kwargs):
        if not start:
            start.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return original(*args, **kwargs)

    products.self_product_stats = measured
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(end - start[0] if start else 0)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Product images P(A x A) = {xy : x, y in A} of interval unions, and measure estimates.

The multiplication image of a union of closed intervals with nonnegative
endpoints is again a union of closed intervals: the componentwise products
[aL*bL, aH*bH] merged into canonical form.  The pair sweep (_rows) runs on
integer ends, so the hot loop is integer multiply-and-compare.
self_product_stats scales an IntervalSet to one lcm denominator
(_scaled_endpoints); the fast bracket reads its integer ends straight from
the cell addresses, at the scale 3^D of its deepest cell.  With the cells
sorted left to right and all endpoints nonnegative, the candidate products
of one row have nondecreasing lower and upper endpoints, so each row merges
in a single pass; ternary._merge_ends merges the rows, in batches as they
arrive so that memory stays near the output's size.  The sweep is
quadratic in the number of cells.  _self_product is its single entry:
self_product_stats and fast_bounds measure P(A x A) through it.

Two estimate routes for the measure of P(C x C), C the middle-third Cantor
set, both via its right half R = C meet [2/3, 1] and the scaling identity
measure(P(C x C)) = (3/2) measure(P(R x R)):

* standard_estimate: P(R_n x R_n) over the level-n standard subdivision,
  counted from its surviving gaps by the int kernel in `standard`;
  measure(P(R_n x R_n)) - measure(P(R x R)) lies in [0, (1/63) (2/9)^(n-1)].
  Here is only its record face, a records.EstimateResult over
  standard._standard_run, which `art` runs without the record;
  standard_estimate imports it where it runs, so `fast` does not load
  `standard`;
* fast_bounds: squeeze measure(P(D_n x D_n)) between the inner/outer
  truncated fast subdivisions, which converges like 36^-n in n.  Its
  kernel is _fast_run, which `fast` and selftest run, and _bounds_json its
  payload; fast_bounds wraps _fast_run's ints in a records.FastBounds.

Both routes run on ints from the cell addresses to their results, held as
integers over a power of 9 and written as JSON straight from the ints
through ternary's text kernels, so `art` and `fast` load neither
`fractions`, `intervals` nor `records`.  self_product_stats reads an
IntervalSet and returns its measure as a Fraction.
"""

import time
from math import lcm

from .subdivision import _ends, _fast_tree
from .ternary import _fraction, _merge_ends, decimal_ratio, format_ratio

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction

    from .intervals import IntervalSet
    from .records import EstimateResult, FastBounds

FAST_LEVEL_LIMIT = 3
FAST_GAP_DEPTH_LIMIT = 10


def _scaled_endpoints(s: "IntervalSet") -> tuple[list[int], list[int], int]:
    den = 1
    for iv in s:
        if iv.lo < 0:
            raise ValueError("product image needs nonnegative endpoints")
        den = lcm(den, iv.lo.denominator, iv.hi.denominator)
    los = [iv.lo.numerator * (den // iv.lo.denominator) for iv in s]
    his = [iv.hi.numerator * (den // iv.hi.denominator) for iv in s]
    return los, his, den


def _rows(los: "Sequence[int]", his: "Sequence[int]") -> tuple[list[int], list[int]]:
    """Lower and upper ends of intervals whose union is P(A x A), from A's
    sorted integer ends, in the square of their units.

    The image is symmetric in the factors, so row i sweeps the cells j >= i
    only, and its product segments merge in one pass.  The collected ends
    are merged again once they outgrow twice the larger of what the last
    merge kept and one full row, so they stay within a small multiple of the
    output's size instead of holding every row's segments; a union of
    partial unions is the same union.
    """
    out_los: list[int] = []
    out_his: list[int] = []
    n = len(los)
    kept = n
    for i in range(n):
        aL = los[i]
        aH = his[i]
        cur_lo = aL * aL
        cur_hi = aH * aH
        for j in range(i + 1, n):
            lo = aL * los[j]
            if lo <= cur_hi:
                cur_hi = aH * his[j]
            else:
                out_los.append(cur_lo)
                out_his.append(cur_hi)
                cur_lo = lo
                cur_hi = aH * his[j]
        out_los.append(cur_lo)
        out_his.append(cur_hi)
        if len(out_los) > 2 * kept:
            out_los, out_his = _merge_ends(out_los, out_his)
            kept = max(len(out_los), n)
    return out_los, out_his


def _self_product(los: "Sequence[int]", his: "Sequence[int]") -> tuple[int, int]:
    """(measure, component count) of P(A x A) from A's canonical integer ends.

    The measure is in the square of the ends' units.
    """
    los, his = _merge_ends(*_rows(los, his))
    return sum(his) - sum(los), len(los)


def self_product_stats(S: "IntervalSet") -> tuple["Fraction", int]:
    """(measure, component count) of P(S x S) without building Fractions per endpoint."""
    los, his, den = _scaled_endpoints(S)
    measure, count = _self_product(los, his)
    return _fraction(measure, den * den), count


def standard_estimate(n: int) -> "EstimateResult":
    """Measure of P(R_n x R_n), its convergence tail, and the scaled full value.

    The full value (3/2) measure(P(R_n x R_n)) overshoots the true product-set
    measure by at most (3/2) convergence_tail(n).
    """
    from .records import EstimateResult
    from .standard import _standard_run

    level, measure, count, elapsed = _standard_run(n)
    return EstimateResult(
        n=n,
        scaled_measure=measure,
        scale=9**level,
        component_count=count,
        elapsed_ms=elapsed,
    )


def _fast_run(n: int, K: int) -> tuple[int, int, int, int, int, int]:
    """(scaled_lower, scaled_upper, scale, inner count, outer count, elapsed_ms): the
    bracket of measure(P(D_n x D_n)) as ints over scale = 9^depth, depth that of the
    deepest cell.

    inner <= D_n <= outer gives measure(P(inner^2)) <= measure(P(D_n^2)) <=
    measure(P(outer^2)), each the self product of the bracket's union, at the
    scale 3^depth of the deepest cell.
    """
    if not 0 <= n <= FAST_LEVEL_LIMIT:
        raise ValueError(f"fast brute force supports 0 <= n <= {FAST_LEVEL_LIMIT}")
    if K > FAST_GAP_DEPTH_LIMIT:
        raise ValueError(f"fast brute force supports gap_depth <= {FAST_GAP_DEPTH_LIMIT}")
    start = time.perf_counter()
    inner, outer, depth = _fast_tree(n, K)
    lower, count_inner = _self_product(*_merge_ends(*_ends(inner, depth)))
    upper, count_outer = _self_product(*_merge_ends(*_ends(outer, depth)))
    elapsed = int((time.perf_counter() - start) * 1000)
    return lower, upper, 9**depth, count_inner, count_outer, elapsed


def _bounds_json(n: int, K: int, lower: int, upper: int, scale: int, count_inner: int,
                 count_outer: int, elapsed_ms: int, digits: int) -> dict:
    """The fast bracket's payload at (n, K): lower / scale and upper / scale, as "p/q"
    text and as decimals, with their width and each union's component count."""
    return {
        "n": n,
        "gap_depth": K,
        "lower": format_ratio(lower, scale),
        "upper": format_ratio(upper, scale),
        "width": format_ratio(upper - lower, scale),
        "decimal_lower": decimal_ratio(lower, scale, digits),
        "decimal_upper": decimal_ratio(upper, scale, digits),
        "component_count_inner": count_inner,
        "component_count_outer": count_outer,
        "elapsed_ms": elapsed_ms,
    }


def fast_bounds(n: int, K: int) -> "FastBounds":
    """Bracket measure(P(D_n x D_n)) by brute force on the truncated brackets:
    _fast_run's ints as a record, both ends exact rationals."""
    from .records import FastBounds

    return FastBounds(n, K, *_fast_run(n, K))

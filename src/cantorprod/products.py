"""Product images P(S x T) = {xy} of interval unions, and measure estimates.

The multiplication image of a union of closed intervals with nonnegative
endpoints is again a union of closed intervals: the componentwise products
[aL*bL, aH*bH] merged into canonical form.  Everything here reduces to that,
computed exactly over a common integer scale (one lcm denominator per factor,
so candidate endpoints are machine/big integers and the hot loop is integer
multiply-and-compare).

Two estimate routes for the measure of P(C x C), C the middle-third Cantor
set, both via its right half R = C meet [2/3, 1] and the scaling identity
measure(P(C x C)) = (3/2) measure(P(R x R)):

* standard_estimate: P(R_n x R_n) over the level-n standard subdivision,
  with measure(P(R_n x R_n)) - measure(P(R x R)) in [0, (1/63) (2/9)^n];
* fast_bounds: squeeze measure(P(D_n x D_n)) between the inner/outer
  truncated fast subdivisions, which converges like 36^-n in n.

Row merging uses monotonicity: with both factors sorted left to right and all
endpoints nonnegative, the candidate products of one row have nondecreasing
lower and upper endpoints, so each row merges in a single pass.  The global
result is canonicalized by one sort-and-sweep, which makes the output
independent of row partitioning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .intervals import Interval, IntervalSet, decimal_string, format_rational
from .subdivision import TruncationPolicy, fast_subdivision, right_half_subdivision

STANDARD_LEVEL_LIMIT = 16
FAST_LEVEL_LIMIT = 3
FAST_GAP_DEPTH_LIMIT = 10


def _scaled_endpoints(s: IntervalSet) -> tuple[list[int], list[int], int]:
    den = 1
    for iv in s:
        den = lcm(den, iv.lo.denominator, iv.hi.denominator)
    los = [iv.lo.numerator * (den // iv.lo.denominator) for iv in s]
    his = [iv.hi.numerator * (den // iv.hi.denominator) for iv in s]
    return los, his, den


def _rows(
    a_los: Sequence[int],
    a_his: Sequence[int],
    b_los: Sequence[int],
    b_his: Sequence[int],
    rows: Sequence[int],
    triangle: bool,
) -> list[tuple[int, int]]:
    """Merged product segments of the given rows, in scaled integer units."""
    segs: list[tuple[int, int]] = []
    append = segs.append
    nb = len(b_los)
    for i in rows:
        aL = a_los[i]
        aH = a_his[i]
        j = i if triangle else 0
        cur_lo = aL * b_los[j]
        cur_hi = aH * b_his[j]
        for j in range(j + 1, nb):
            lo = aL * b_los[j]
            if lo <= cur_hi:
                cur_hi = aH * b_his[j]
            else:
                append((cur_lo, cur_hi))
                cur_lo = lo
                cur_hi = aH * b_his[j]
        append((cur_lo, cur_hi))
    return segs


def _merge(segs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    segs.sort()
    out: list[tuple[int, int]] = []
    cur_lo = cur_hi = None
    for lo, hi in segs:
        if cur_hi is not None and lo <= cur_hi:
            if hi > cur_hi:
                cur_hi = hi
        else:
            if cur_hi is not None:
                out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        out.append((cur_lo, cur_hi))
    return out


def _product_segments(
    S: IntervalSet, T: Optional[IntervalSet]
) -> tuple[list[tuple[int, int]], int]:
    """Canonical integer segments of P(S x T) plus the common denominator.

    T=None means the self product, computed over the triangle i <= j (the
    image is symmetric in the factors).
    """
    for iv in S:
        if iv.lo < 0:
            raise ValueError("product image needs nonnegative endpoints")
    a_los, a_his, a_den = _scaled_endpoints(S)
    if T is None:
        b_los, b_his, b_den = a_los, a_his, a_den
        triangle = True
    else:
        for iv in T:
            if iv.lo < 0:
                raise ValueError("product image needs nonnegative endpoints")
        b_los, b_his, b_den = _scaled_endpoints(T)
        triangle = False
    n = len(a_los)
    if n == 0 or len(b_los) == 0:
        return [], a_den * b_den
    segs = _rows(a_los, a_his, b_los, b_his, range(n), triangle)
    return _merge(segs), a_den * b_den


def product_image(S: IntervalSet, T: Optional[IntervalSet] = None) -> IntervalSet:
    """P(S x T) as a canonical IntervalSet; T omitted means P(S x S)."""
    if T is not None and T == S:
        T = None
    segs, den = _product_segments(S, T)
    return IntervalSet._from_canonical(
        Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in segs
    )


def self_product_stats(S: IntervalSet) -> tuple[Fraction, int]:
    """(measure, component count) of P(S x S) without building Fractions per endpoint."""
    segs, den = _product_segments(S, None)
    total = sum(hi - lo for lo, hi in segs)
    return Fraction(total, den), len(segs)


def self_product_measure(S: IntervalSet) -> Fraction:
    return self_product_stats(S)[0]


def scale_to_full(value: Fraction, tail: Fraction) -> Interval:
    """Lift an upper estimate of measure(P(R x R)) to bounds for the full set.

    value must overshoot the true right-half product measure by at most tail;
    the scaling identity then pins measure(P(C x C)) inside
    [(3/2)(value - tail), (3/2) value].
    """
    if tail < 0:
        raise ValueError("tail bound must be >= 0")
    half = Fraction(3, 2)
    return Interval(half * (value - tail), half * value)


@dataclass(frozen=True)
class EstimateResult:
    """Standard-route estimate of the Cantor product-set measure at level n."""

    n: int
    set_measure: Fraction
    tail_bound: Fraction
    full_value: Fraction
    component_count: int
    elapsed_ms: int

    def full_bounds(self) -> Interval:
        return scale_to_full(self.set_measure, self.tail_bound)

    def to_json(self, digits: int = 12) -> dict:
        return {
            "n": self.n,
            "set_measure": format_rational(self.set_measure),
            "tail_bound": format_rational(self.tail_bound),
            "full_value": format_rational(self.full_value),
            "decimal": decimal_string(self.full_value, digits),
            "component_count": self.component_count,
            "elapsed_ms": self.elapsed_ms,
        }


def convergence_tail(n: int) -> Fraction:
    """Bound on measure(P(R_n x R_n)) - measure(P(R x R)), R_n the level-n cover.

    Splitting a cell of R_j removes at most its diagonal product gap, an
    interval of measure (|cell|/3)^2; R_j has 2^{j-1} cells of length 3^-j,
    so the telescope from level n sums to (1/63)(2/9)^{n-1}.  Levels 0 and 1
    are the same set [2/3, 1], hence share the n = 1 value 1/63.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    return Fraction(1, 63) * Fraction(2, 9) ** max(n - 1, 0)


def standard_estimate(n: int) -> EstimateResult:
    """Measure of P(R_n x R_n), its convergence tail, and the scaled full value.

    The full value (3/2) measure(P(R_n x R_n)) overshoots the true product-set
    measure by at most (3/2) convergence_tail(n).
    """
    if not 0 <= n <= STANDARD_LEVEL_LIMIT:
        raise ValueError(f"standard route supports 0 <= n <= {STANDARD_LEVEL_LIMIT}")
    start = time.perf_counter()
    cover = right_half_subdivision(n)
    measure, count = self_product_stats(cover)
    elapsed = int((time.perf_counter() - start) * 1000)
    return EstimateResult(
        n=n,
        set_measure=measure,
        tail_bound=convergence_tail(n),
        full_value=Fraction(3, 2) * measure,
        component_count=count,
        elapsed_ms=elapsed,
    )


@dataclass(frozen=True)
class FastBounds:
    """Exact bracket of measure(P(D_n x D_n)) from the truncated fast subdivision."""

    n: int
    gap_depth: int
    lower: Fraction
    upper: Fraction
    component_count_inner: int
    component_count_outer: int
    elapsed_ms: int

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def to_json(self, digits: int = 12) -> dict:
        return {
            "n": self.n,
            "gap_depth": self.gap_depth,
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "width": format_rational(self.width),
            "decimal_lower": decimal_string(self.lower, digits),
            "decimal_upper": decimal_string(self.upper, digits),
            "component_count_inner": self.component_count_inner,
            "component_count_outer": self.component_count_outer,
            "elapsed_ms": self.elapsed_ms,
        }


def fast_bounds(n: int, policy: TruncationPolicy) -> FastBounds:
    """Bracket measure(P(D_n x D_n)) by brute force on the truncated brackets.

    inner <= D_n <= outer gives measure(P(inner^2)) <= measure(P(D_n^2)) <=
    measure(P(outer^2)); both ends are exact rationals.
    """
    if not 0 <= n <= FAST_LEVEL_LIMIT:
        raise ValueError(f"fast brute force supports 0 <= n <= {FAST_LEVEL_LIMIT}")
    if policy.gap_depth > FAST_GAP_DEPTH_LIMIT:
        raise ValueError(f"fast brute force supports gap_depth <= {FAST_GAP_DEPTH_LIMIT}")
    start = time.perf_counter()
    sub = fast_subdivision(n, policy)
    lower, count_inner = self_product_stats(sub.inner)
    upper, count_outer = self_product_stats(sub.outer)
    elapsed = int((time.perf_counter() - start) * 1000)
    return FastBounds(
        n=n,
        gap_depth=policy.gap_depth,
        lower=lower,
        upper=upper,
        component_count_inner=count_inner,
        component_count_outer=count_outer,
        elapsed_ms=elapsed,
    )


def full_measure_bounds(n: int) -> Interval:
    """Certified enclosure of measure(P(C x C)) from the standard route at level n.

    n = 0 already gives [17/21, 5/6].
    """
    est = standard_estimate(n)
    return est.full_bounds()

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
  the union of one sibling band per split cell and one diagonal square per
  leaf.  A split cell leaves one whole gap or none, and _surviving_gaps
  counts each level's gaps from the ancestors above half its depth, with no
  walk over the cells.
  measure(P(R_n x R_n)) - measure(P(R x R)) lies in [0, (1/63) (2/9)^(n-1)];
* fast_bounds: squeeze measure(P(D_n x D_n)) between the inner/outer
  truncated fast subdivisions, which converges like 36^-n in n.

Both routes run on ints from the cell addresses to their results.  Their
records hold each measure as an integer over a power of 9 and write JSON
straight from the ints through ternary's text kernels, so `art` and `fast`
load neither `fractions` nor `intervals`; convergence_tail and
EstimateResult.full_bounds return lowest-terms pairs.  self_product_stats
reads an IntervalSet and returns its measure as a Fraction.
"""

import time
from math import isqrt, lcm
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .subdivision import ROOT, _ends, _fast_tree, _leaves
from .ternary import Ratio, _fraction, _lowest, _merge_ends
from .ternary import decimal_ratio, format_ratio

if TYPE_CHECKING:
    from fractions import Fraction

    from .intervals import IntervalSet

STANDARD_LEVEL_LIMIT = 20
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


def _rows(los: Sequence[int], his: Sequence[int]) -> tuple[list[int], list[int]]:
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


def _self_product(los: Sequence[int], his: Sequence[int]) -> tuple[int, int]:
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


class EstimateResult(NamedTuple):
    """Standard-route estimate of the Cantor product-set measure at level n.

    measure(P(R_n x R_n)) is held exactly as scaled_measure / scale, with
    scale = 9^max(n, 1).
    """

    n: int
    scaled_measure: int
    scale: int
    component_count: int
    elapsed_ms: int

    def _full_ratio(self) -> tuple[int, int]:
        return 3 * self.scaled_measure, 2 * self.scale

    def full_bounds(self) -> tuple[Ratio, Ratio]:
        """Certified enclosure of measure(P(C x C)) as (lo, hi) lowest-terms
        pairs, from the ints; n = 0 gives 17/21 and 5/6.

        m = scaled_measure / scale overshoots the true right-half product
        measure by at most convergence_tail(n), so the scaling identity pins
        the full measure inside [(3/2)(m - convergence_tail(n)), (3/2) m].
        """
        t, u = convergence_tail(self.n)
        low = 3 * (self.scaled_measure * u - t * self.scale), 2 * self.scale * u
        return _lowest(*low), _lowest(*self._full_ratio())

    def to_json(self, digits: int = 12) -> dict:
        full = self._full_ratio()
        return {
            "n": self.n,
            "set_measure": format_ratio(self.scaled_measure, self.scale),
            "tail_bound": format_ratio(*convergence_tail(self.n)),
            "full_value": format_ratio(*full),
            "decimal": decimal_ratio(*full, digits),
            "component_count": self.component_count,
            "elapsed_ms": self.elapsed_ms,
        }


def convergence_tail(n: int) -> Ratio:
    """Bound on measure(P(R_n x R_n)) - measure(P(R x R)), R_n the level-n cover,
    as its lowest-terms pair.

    Splitting a cell of R_j removes at most its diagonal product gap, an
    interval of measure (|cell|/3)^2; R_j has 2^{j-1} cells of length 3^-j,
    so the telescope from level n sums to (1/63)(2/9)^{n-1}.  Levels 0 and 1
    are the same set [2/3, 1], hence share the n = 1 value 1/63.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    j = max(n - 1, 0)
    return 2**j, 63 * 9**j


def _check_hole_free(a: int, b: int, t: int) -> None:
    """Raise unless splitting the cells [a, a+t] and [b, b+t] keeps their product whole.

    Split A = [a, a+t] into A0 = [a, a+t/3] and A1 = [a+2t/3, a+t], and B
    likewise.  For a < b the four child products, sorted by lower end, are

        A0 B0 = [ab,              (a+t/3)(b+t/3)]
        A0 B1 = [a(b+2t/3),       (a+t/3)(b+t)]
        A1 B0 = [(a+2t/3)b,       (a+t)(b+t/3)]
        A1 B1 = [(a+2t/3)(b+2t/3), (a+t)(b+t)]

    and their upper ends increase in the same order, so the union is the one
    interval [ab, (a+t)(b+t)] = A B iff each lower end is at most the upper end
    before it.  Multiplied out, the three junctions read

        A0 B1 after A0 B0:  a <= b + t/3
        A1 B0 after A0 B1:  b <= 3a + t
        A1 B1 after A1 B0:  b >= a + t/3

    Distinct cells of one level satisfy b >= a + t, so the first and last
    always hold and the split opens no hole iff b <= 3a + t.  That condition
    is hardest for the smallest a and the largest b, so checking a level's
    leftmost and rightmost cells covers every pair of that level.
    """
    if b > 3 * a + t:
        raise RuntimeError(
            f"splitting cells [{a}, {a + t}] and [{b}, {b + t}] opens a hole in their product"
        )


def _cantor_below(x: int, j: int) -> int:
    """How many j-digit base-3 numbers below x have no digit 1, by a walk down x's digits."""
    count, unit, ways = 0, 3 ** (j - 1), 2 ** (j - 1)
    while unit:
        digit, x = divmod(x, unit)
        if digit:  # every word with a 0 here lies below x
            count += ways
            if digit == 1:  # and none has x's 1 here
                break
        unit, ways = unit // 3, ways // 2
    return count


def _surviving_gaps(level: int) -> list[int]:
    """u_1..u_{level-1}: how many of the 2^(j-1) level-j cells keep their gap.

    In _standard_stats' units a level-j cell's a, and its ancestors' A and
    S, are multiples of 3s, so m - (a+s)(a+3s) is a multiple of s^2: the
    gap is s^2 or none.  It closes iff an ancestor whose left child holds
    the cell has (a+s)(a+3s) >= A(A+2S) = b^2 - S^2, b = A+S.  As
    e = a+3s <= b, b^2 - S^2 <= (e-2s)e <= b^2 - 2sb, so 2sb <= S^2, and
    b > 2/3 (in units of 1) gives s < (3/4) S^2: a level-i ancestor closes
    gaps only at levels j >= 2i+2.  In units of 3^-(j+1) the level-j
    address x has a = 3x, s = 1, and the level-i address q has A(A+2S) =
    M = 3^(2(j-i)+1) q (3q+2); (3x+1)(3x+3) = (3x+2)^2 - 1 >= M iff
    3x+2 > isqrt(M).  So an ancestor closes a right tail of its left
    child's addresses; the tails merge into runs, and _cantor_below counts
    each run's Cantor addresses off its ends.
    """
    counts = []
    for j in range(1, level):
        tails = []
        for i in range(1, j // 2):  # the levels i <= (j-2)//2
            width = 3 ** (j - i)  # an ancestor's addresses at level j
            for q in _leaves(ROOT, i - 1):
                first = (isqrt(3 * width * width * q * (3 * q + 2)) + 1) // 3
                end = q * width + width // 3  # past its left child's last
                if first < end:
                    tails.append((first, end))
        killed = reached = 0
        for first, end in sorted(tails):
            first = max(first, reached)
            if first < end:
                killed += _cantor_below(end, j) - _cantor_below(first, j)
                reached = end
        counts.append(2 ** (j - 1) - killed)
    return counts


def _standard_stats(level: int) -> tuple[int, int]:
    """(measure, component count) of P(R x R), R the level-`level` right-half cover, over 9^level.

    In units of 3^-level, P(R x R) is the union of one band per split cell
    and one square per leaf, in the hull [(2 3^(level-1))^2, 9^level].  A
    split cell [a, a+3s] leaves at most the gap min(m - (a+s)(a+3s), s^2),
    m the least A(A+2S) over the ancestors [A, A+3S] whose left child holds
    it, or 9^level (the tests' gap walk oracle derives this).  At split
    level j, s^2 = 9^(level-1-j) and _surviving_gaps counts the gaps, so the
    measure is the hull's less theirs and the count one plus their number.
    Each split level has its extreme pair checked.
    """
    top, hull = 3**level, 2 * 3 ** (level - 1)
    measure, count = top * top - hull * hull, 1
    for j, survivors in enumerate(_surviving_gaps(level), 1):
        t = 3 ** (level - j)  # the level-j cells' length
        _check_hole_free(hull, top - t, t)
        measure -= survivors * (t // 3) ** 2
        count += survivors
    return measure, count


def standard_estimate(n: int) -> EstimateResult:
    """Measure of P(R_n x R_n), its convergence tail, and the scaled full value.

    The full value (3/2) measure(P(R_n x R_n)) overshoots the true product-set
    measure by at most (3/2) convergence_tail(n).
    """
    if not 0 <= n <= STANDARD_LEVEL_LIMIT:
        raise ValueError(f"standard route supports 0 <= n <= {STANDARD_LEVEL_LIMIT}")
    start = time.perf_counter()
    level = max(n, 1)
    measure, count = _standard_stats(level)
    elapsed = int((time.perf_counter() - start) * 1000)
    return EstimateResult(
        n=n,
        scaled_measure=measure,
        scale=9**level,
        component_count=count,
        elapsed_ms=elapsed,
    )


class FastBounds(NamedTuple):
    """Exact bracket of measure(P(D_n x D_n)) from the truncated fast subdivision.

    Both ends are held exactly as integers over scale = 9^depth, depth that of
    the deepest cell.
    """

    n: int
    gap_depth: int
    scaled_lower: int
    scaled_upper: int
    scale: int
    component_count_inner: int
    component_count_outer: int
    elapsed_ms: int

    def to_json(self, digits: int = 12) -> dict:
        return {
            "n": self.n,
            "gap_depth": self.gap_depth,
            "lower": format_ratio(self.scaled_lower, self.scale),
            "upper": format_ratio(self.scaled_upper, self.scale),
            "width": format_ratio(self.scaled_upper - self.scaled_lower, self.scale),
            "decimal_lower": decimal_ratio(self.scaled_lower, self.scale, digits),
            "decimal_upper": decimal_ratio(self.scaled_upper, self.scale, digits),
            "component_count_inner": self.component_count_inner,
            "component_count_outer": self.component_count_outer,
            "elapsed_ms": self.elapsed_ms,
        }


def fast_bounds(n: int, K: int) -> FastBounds:
    """Bracket measure(P(D_n x D_n)) by brute force on the truncated brackets.

    inner <= D_n <= outer gives measure(P(inner^2)) <= measure(P(D_n^2)) <=
    measure(P(outer^2)); both ends are exact rationals.
    """
    if not 0 <= n <= FAST_LEVEL_LIMIT:
        raise ValueError(f"fast brute force supports 0 <= n <= {FAST_LEVEL_LIMIT}")
    if K > FAST_GAP_DEPTH_LIMIT:
        raise ValueError(f"fast brute force supports gap_depth <= {FAST_GAP_DEPTH_LIMIT}")
    start = time.perf_counter()
    inner, outer, depth = _fast_tree(n, K)

    # each bracket's union, at the scale 3^depth of the deepest cell
    lower, count_inner = _self_product(*_merge_ends(*_ends(inner, depth)))
    upper, count_outer = _self_product(*_merge_ends(*_ends(outer, depth)))
    elapsed = int((time.perf_counter() - start) * 1000)
    return FastBounds(
        n=n,
        gap_depth=K,
        scaled_lower=lower,
        scaled_upper=upper,
        scale=9**depth,
        component_count_inner=count_inner,
        component_count_outer=count_outer,
        elapsed_ms=elapsed,
    )


"""Product images P(S x T) = {xy} of interval unions, and measure estimates.

The multiplication image of a union of closed intervals with nonnegative
endpoints is again a union of closed intervals: the componentwise products
[aL*bL, aH*bH] merged into canonical form.  product_image computes that
general product by a pair sweep over a common integer scale, one lcm
denominator per factor (_scaled_endpoints), so candidate endpoints are
machine/big integers and the hot loop is integer multiply-and-compare.  The
fast bracket reads its integer ends straight from the cell addresses, at the
scale 3^D of its deepest cell.  With both factors sorted left to right and
all endpoints nonnegative, the candidate products of one row have
nondecreasing lower and upper endpoints, so each row merges in a single
pass; ternary._merge_ends merges the rows, in batches as they arrive so that
memory stays near the output's size.  The sweep (_rows) is quadratic in the
number of cells.  _self_product is its single self-product entry:
self_product_stats and fast_bounds measure P(A x A) through it, and only
product_image, which needs the general product's ends, calls _rows itself.
The tests use the sweep as the oracle for the standard route.  product_image
hands its ends to IntervalSet._from_ends, the one int -> Fraction bridge.

Two estimate routes for the measure of P(C x C), C the middle-third Cantor
set, both via its right half R = C meet [2/3, 1] and the scaling identity
measure(P(C x C)) = (3/2) measure(P(R x R)):

* standard_estimate: P(R_n x R_n) over the level-n standard subdivision,
  the union of one sibling band per split cell and one diagonal square per
  leaf, measured in linear time by a walk over the split cells that takes
  each cell's one possible gap off the union's hull (see _standard_stats):
  no segment list and no sort (`art --n 20` takes about 0.5 s and 44 MB
  peak RSS on one core of a 2-core x86 machine).
  measure(P(R_n x R_n)) - measure(P(R x R)) lies in [0, (1/63) (2/9)^(n-1)];
* fast_bounds: squeeze measure(P(D_n x D_n)) between the inner/outer
  truncated fast subdivisions, which converges like 36^-n in n.

Both routes run on ints from the cell addresses to their results.  Their
records hold each measure as an integer over a power of 9, hand out reduced
Fractions on access, and write JSON straight from the ints through
ternary's text kernels, so `art` and `fast` load neither `fractions` nor
`intervals`.  The functions that take or return Fractions and IntervalSets
import them where they run.
"""

import time
from math import lcm
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from .subdivision import ROOT, _ends, _fast_tree, _leaves
from .ternary import _fraction, _merge_ends, decimal_ratio, format_ratio

if TYPE_CHECKING:
    from fractions import Fraction

    from .intervals import Interval, IntervalSet

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


def _rows(
    a_los: Sequence[int],
    a_his: Sequence[int],
    b_los: Sequence[int],
    b_his: Sequence[int],
    triangle: bool,
) -> tuple[list[int], list[int]]:
    """Lower and upper ends of intervals whose union is P(A x B), in scaled integer units.

    Each row's product segments merge in one pass.  The collected ends are
    merged again once they outgrow twice the larger of what the last merge
    kept and one full row, so they stay within a small multiple of the
    output's size instead of holding every row's segments; a union of
    partial unions is the same union.
    """
    los: list[int] = []
    his: list[int] = []
    nb = len(b_los)
    kept = nb
    for i in range(len(a_los)):
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
                los.append(cur_lo)
                his.append(cur_hi)
                cur_lo = lo
                cur_hi = aH * b_his[j]
        los.append(cur_lo)
        his.append(cur_hi)
        if len(los) > 2 * kept:
            los, his = _merge_ends(los, his)
            kept = max(len(los), nb)
    return los, his


def _self_product(los: Sequence[int], his: Sequence[int]) -> tuple[int, int]:
    """(measure, component count) of P(A x A) from A's canonical integer ends.

    The measure is in the square of the ends' units.  The image is symmetric
    in the factors, so the sweep runs over the triangle i <= j.
    """
    los, his = _merge_ends(*_rows(los, his, los, his, triangle=True))
    return sum(his) - sum(los), len(los)


def product_image(S: "IntervalSet", T: "Optional[IntervalSet]" = None) -> "IntervalSet":
    """P(S x T) as a canonical IntervalSet; T omitted means P(S x S)."""
    from .intervals import IntervalSet

    triangle = T is None or T == S
    a_los, a_his, a_den = _scaled_endpoints(S)
    b_los, b_his, b_den = (a_los, a_his, a_den) if triangle else _scaled_endpoints(T)
    if not a_los or not b_los:
        return IntervalSet._from_ends([], [], 1)
    los, his = _merge_ends(*_rows(a_los, a_his, b_los, b_his, triangle))
    return IntervalSet._from_ends(los, his, a_den * b_den)


def self_product_stats(S: "IntervalSet") -> tuple["Fraction", int]:
    """(measure, component count) of P(S x S) without building Fractions per endpoint."""
    los, his, den = _scaled_endpoints(S)
    measure, count = _self_product(los, his)
    return _fraction(measure, den * den), count


def self_product_measure(S: "IntervalSet") -> "Fraction":
    return self_product_stats(S)[0]


def _over_scale(numerator: Callable[[Any], int]) -> property:
    """A record property: numerator(record) over record.scale, as a reduced Fraction."""
    return property(lambda record: _fraction(numerator(record), record.scale))


class EstimateResult(NamedTuple):
    """Standard-route estimate of the Cantor product-set measure at level n.

    measure(P(R_n x R_n)) is held exactly as scaled_measure / scale, with
    scale = 9^max(n, 1); set_measure, tail_bound and full_value are built from
    ints on access, as reduced Fractions.
    """

    n: int
    scaled_measure: int
    scale: int
    component_count: int
    elapsed_ms: int

    set_measure = _over_scale(lambda r: r.scaled_measure)

    @property
    def tail_bound(self) -> "Fraction":
        return convergence_tail(self.n)

    @property
    def full_value(self) -> "Fraction":
        return _fraction(*self._full_ratio())

    def _full_ratio(self) -> tuple[int, int]:
        return 3 * self.scaled_measure, 2 * self.scale

    def full_bounds(self) -> "Interval":
        """Certified enclosure of measure(P(C x C)); n = 0 gives [17/21, 5/6].

        set_measure overshoots the true right-half product measure by at most
        tail_bound, so the scaling identity pins the full measure inside
        [(3/2)(set_measure - tail_bound), (3/2) set_measure].
        """
        from .intervals import Interval

        return Interval(*(_fraction(*end) for end in self._full_bounds()))

    def _full_bounds(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """full_bounds' ends as (numerator, denominator) pairs, from the ints."""
        t, u = _tail_ratio(self.n)
        low = 3 * (self.scaled_measure * u - t * self.scale), 2 * self.scale * u
        return low, self._full_ratio()

    def to_json(self, digits: int = 12) -> dict:
        full = self._full_ratio()
        return {
            "n": self.n,
            "set_measure": format_ratio(self.scaled_measure, self.scale),
            "tail_bound": format_ratio(*_tail_ratio(self.n)),
            "full_value": format_ratio(*full),
            "decimal": decimal_ratio(*full, digits),
            "component_count": self.component_count,
            "elapsed_ms": self.elapsed_ms,
        }


def _tail_ratio(n: int) -> tuple[int, int]:
    """convergence_tail(n) as (numerator, denominator) in lowest terms."""
    if n < 0:
        raise ValueError("level must be >= 0")
    j = max(n - 1, 0)
    return 2**j, 63 * 9**j


def convergence_tail(n: int) -> "Fraction":
    """Bound on measure(P(R_n x R_n)) - measure(P(R x R)), R_n the level-n cover.

    Splitting a cell of R_j removes at most its diagonal product gap, an
    interval of measure (|cell|/3)^2; R_j has 2^{j-1} cells of length 3^-j,
    so the telescope from level n sums to (1/63)(2/9)^{n-1}.  Levels 0 and 1
    are the same set [2/3, 1], hence share the n = 1 value 1/63.
    """
    return _fraction(*_tail_ratio(n))


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


def _standard_stats(level: int) -> tuple[int, int]:
    """(measure, component count) of P(R x R), R the level-`level` right-half cover, over 9^level.

    R's cells form a binary tree: [2/3, 1] at level 1, and each cell
    [a, a+t] of levels 1..level-1 splits into [a, a+t/3] and [a+2t/3, a+t].
    Two leaves either coincide, giving the square [a^2, (a+t)^2], or descend
    from the two children of their lowest common ancestor [a, a+t].  All
    cells below those children, level by level, pair up as distinct
    equal-length cells, and _check_hole_free shows that splitting such a
    pair leaves its product unchanged.  By induction the two sibling
    subtrees contribute exactly the product of the children, the band
    [a(a+2t/3), (a+t/3)(a+t)].  So P(R x R) is the union of one band per
    split cell and one square per leaf, and no cell pairs.

    That union is read off its gaps, with no segment list and no sort.  In
    units of 3^-level, a cell [a, a+3s] has the square hull [a^2, (a+3s)^2]:
    its children's hulls [a^2, (a+s)^2] and [(a+2s)^2, (a+3s)^2] and between
    them the open middle J(c) = ((a+s)^2, (a+2s)^2).  Splitting down to the
    leaves cuts the hull [(2 3^(level-1))^2, 9^level] of the union into
    leaf squares, which it covers, and the disjoint J(c) of the split cells
    c, so the gaps lie in the J(c).  Fix c = [a, a+3s]:

    * The band of c, [a(a+2s), (a+s)(a+3s)], covers [(a+s)^2, (a+s)(a+3s)],
      and (a+2s)^2 - (a+s)(a+3s) = s^2 > 0.
    * A cell's hull [A^2, (A+T)^2] meets J(c) only if the cell [A, A+T]
      overlaps c's middle third (a+s, a+2s).  Cells are nested or disjoint,
      and c's children miss that third, so only c and its ancestors reach
      J(c); leaf squares never do.
    * An ancestor [A, A+3S] whose right child holds c has a band that ends
      at (A+S)(A+3S), below (A+2S)^2 <= a^2.
    * An ancestor whose left child [A, A+S] holds c has a band that ends at
      (A+S)(A+3S) > (A+S)^2 >= (a+3s)^2, above J(c), and starts at A(A+2S).
    * So with m the least A(A+2S) over those left-child ancestors (9^level
      if there are none), J(c) leaves uncovered exactly the open interval
      ((a+s)(a+3s), min(m, (a+2s)^2)), of length
      min(m - (a+s)(a+3s), s^2).  It is empty unless (a+s)(a+3s) < m:
      closed bands that touch leave no gap, so the test is strict.

    The measure is the hull's minus the gaps', and the gaps are disjoint
    and inside the hull, so the count is one plus their number.  m passes
    down one split level at a time: the left child of [a, a+3s] gets
    min(m, a(a+2s)), the right child m, and the deepest split level hands
    none down.  Each split level is one stride through the deepest split
    level's cells, and each has its extreme pair checked on the way.
    """
    top = 9**level
    measure, count = top - (2 * 3 ** (level - 1)) ** 2, 1
    if level == 1:
        return measure, count
    # a cell's left end is that of its leftmost descendant, so every split
    # level's cells are a stride through the deepest split level's
    cells = [3 * a for a in _leaves(ROOT, level - 2)]
    ms = [top]
    for k in range(level - 2, -1, -1):
        s = 3**k
        full = s * s
        row = cells[:: 2**k]
        _check_hole_free(row[0], row[-1], 3 * s)
        for a, m in zip(row, ms):
            gap = m - (a + s) * (a + 3 * s)
            if gap > 0:
                measure -= gap if gap < full else full
                count += 1
        if k:  # children interleave, left then right, as in the next row
            children = ms * 2
            children[::2] = map(min, ms, [a * (a + 2 * s) for a in row])
            children[1::2] = ms
            ms = children
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
    the deepest cell; lower, upper and width are built from ints on access, as
    reduced Fractions.
    """

    n: int
    gap_depth: int
    scaled_lower: int
    scaled_upper: int
    scale: int
    component_count_inner: int
    component_count_outer: int
    elapsed_ms: int

    lower = _over_scale(lambda r: r.scaled_lower)
    upper = _over_scale(lambda r: r.scaled_upper)
    width = _over_scale(lambda r: r.scaled_upper - r.scaled_lower)

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


"""Slow references the fast routes are checked against; no command runs them.

The geometric route: a cell's points as A(x) = (q + x) / 3^k (scaled_point),
its side pieces and child cells as Intervals built from them, the diagonal
gap of a piece, the sign of a difference of products, and the covering test
read off the families' pairs.  These check subdivision's int families, the
covering thresholds and node_child.  truncated_gap_sum_series sums on
Fractions what gaps.truncated_gap_sum gives in closed form.

product_image is the general pair sweep P(S x T) of two IntervalSets, the
reference for the standard route and the fast bracket.  It shares no code
with the sweep it checks: it scales, multiplies and merges on its own, so a
rebound or broken products._rows, _self_product or _merge_ends leaves it as
it is.

The membership oracle is the record route that `member` ran before
`ternary`'s int kernel: ternary_expansion_oracle's long division builds a
TernaryExpansion record, whose own __str__ and preperiod give the text, and
classify_ternary_oracle reads the verdict off its digits.  Only the reader
`_ratio` and the Membership values are shared with the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress
from math import lcm
from operator import lt
from typing import NamedTuple, Optional

from cantorprod.gaps import _holds
from cantorprod.intervals import Interval, IntervalSet, rat
from cantorprod.records import FastNode, Membership
from cantorprod.subdivision import g_interval, node_child, p_interval
from cantorprod.ternary import _fraction, _ratio


def scaled_point(node: FastNode, x: Fraction) -> Fraction:
    """A(x) = (q + x) / 3^k, the affine parametrization of the node's cell."""
    return (node.m + rat(x)) / 3**node.k


def side_piece(node: FastNode, k: int, high_side: bool) -> Interval:
    """The closed outer third piece I_(k,-) = I(0, 3^-k) or I_(k,+); k = 0 is I itself."""
    if k < 0:
        raise ValueError("side index must be >= 0")
    t = _fraction(1, 3**k)
    if high_side:
        return Interval(scaled_point(node, 1 - t), scaled_point(node, 1))
    return Interval(scaled_point(node, 0), scaled_point(node, t))


def child_cell(node: FastNode, k: int, high_side: bool) -> Interval:
    """The k-th surviving child cell as an interval (geometric route).

    Must agree with node_child(node, k, high_side).cell for genuine cells;
    this version works off (q, k) alone, so it extends to synthetic nodes.
    """
    if k < 1:
        raise ValueError("child index must be >= 1")
    lo = _fraction(2, 3 ** (k + 1))
    hi = _fraction(1, 3**k)
    if high_side:
        return Interval(scaled_point(node, 1 - hi), scaled_point(node, 1 - lo))
    return Interval(scaled_point(node, lo), scaled_point(node, hi))


def diagonal_gap(piece: Interval) -> Interval:
    """P(J x J) minus P(J'' x J'') for J = [a, a+3t] with middle third removed.

    The products (a+t)(a+3t) = (a+2t)^2 - t^2 and (a+t)^2 > a(a+2t) leave
    exactly the open slot ((a+2t)^2 - t^2, (a+2t)^2), an interval of length
    t^2 just below the square of the removed gap's right endpoint.
    """
    t = piece.length / 3
    hi = (piece.lo + 2 * t) ** 2
    return Interval(hi - t * t, hi)


def compare_products(
    node: FastNode, x: Fraction, y: Fraction, z: Fraction, t: Fraction
) -> int:
    """Sign of A(x)A(y) - A(z)A(t) via the integer-friendly predicate.

    A(x)A(y) > A(z)A(t)  iff  zt - xy < q (x + y - z - t); the cell length
    cancels, so only q and the local coordinates enter.
    """
    x, y, z, t = rat(x), rat(y), rat(z), rat(t)
    lhs = z * t - x * y
    rhs = node.m * (x + y - z - t)
    if lhs < rhs:
        return 1
    if lhs == rhs:
        return 0
    return -1


def child_gap_covered(parent: FastNode, k: int, l: int, high_child: bool) -> bool:
    """Geometric route: is the l-th high-side gap of the k-th child strictly
    inside the matching parent band?  Must agree with the thresholds."""
    child = node_child(parent, k, high_side=high_child)
    gap = g_interval(child, l, high_side=True)
    if high_child:
        band = p_interval(parent, k, high_side=True)
    else:
        band = p_interval(parent, k - 1, high_side=False)
    return _holds("lt", band[0], gap[0]) and _holds("lt", gap[1], band[1])


def truncated_gap_sum_series(length: Fraction, uncovered: int, cut: int = 8) -> Fraction:
    """Same value as truncated_gap_sum by explicit partial sum plus tail, on Fractions."""
    sq = rat(length) ** 2
    low = sum(sq / 9 ** (l + 1) for l in range(1, cut + 1))
    low += sq / 9 ** (cut + 2) / (1 - _fraction(1, 9))  # the tail, first / (1 - ratio)
    high = sum(sq / 9 ** (l + 1) for l in range(uncovered))
    return low + high


def product_image(S: IntervalSet, T: Optional[IntervalSet] = None) -> IntervalSet:
    """P(S x T) as a canonical IntervalSet; T omitted means P(S x S).

    Row by row on integer ends over one lcm denominator: one S component
    times each T component (for P(S x S), each component from its own on,
    as xy = yx).  Intervals sorted by lower end, with `reach` the running
    maximum of their upper ends, split exactly where a reach falls below
    the next lower end.  A row's products come so sorted, with
    nondecreasing upper ends, because T is sorted and every end is
    nonnegative; all rows' pieces are sorted before the final split.
    """
    square = T is None
    T = S if square else T
    if any(iv.lo < 0 for iv in (*S, *T)):
        raise ValueError("product image needs nonnegative endpoints")
    if not S or not T:
        return IntervalSet()
    den = lcm(*(x.denominator for iv in (*S, *T) for x in (iv.lo, iv.hi)))

    def split(los: list[int], reach: list[int]) -> tuple[list[int], list[int]]:
        cuts = list(compress(range(1, len(los)), map(lt, reach, los[1:])))
        return [los[0], *map(los.__getitem__, cuts)], [*(reach[j - 1] for j in cuts), reach[-1]]

    b_los = [int(iv.lo * den) for iv in T]
    b_his = [int(iv.hi * den) for iv in T]
    piece_los: list[int] = []
    piece_his: list[int] = []
    for i, iv in enumerate(S):
        a_lo, a_hi, first = int(iv.lo * den), int(iv.hi * den), i if square else 0
        los, his = split([a_lo * lo for lo in b_los[first:]], [a_hi * hi for hi in b_his[first:]])
        piece_los += los
        piece_his += his
    order = sorted(range(len(piece_los)), key=piece_los.__getitem__)
    los = list(map(piece_los.__getitem__, order))
    los, his = split(los, list(accumulate(map(piece_his.__getitem__, order), max)))
    return IntervalSet._from_ends(los, his, den * den)


class TernaryExpansion(NamedTuple):
    """Base-3 digits of a number in [0, 1], with cycle structure.

    period == 0 means the expansion terminates after the recorded digits;
    otherwise the last `period` recorded digits repeat forever.  complete is
    False only when the digit budget ran out before the cycle closed.
    """

    digits: tuple[int, ...]
    period: int
    complete: bool

    @property
    def preperiod(self) -> int:
        return len(self.digits) - self.period

    def __str__(self) -> str:
        head = "".join(str(d) for d in self.digits[: self.preperiod])
        if self.period:
            tail = "".join(str(d) for d in self.digits[self.preperiod :])
            return f"0.{head}({tail})*"
        if not self.complete:
            return f"0.{head}..."
        return f"0.{head}" if self.digits else "0"


def ternary_expansion_oracle(x: int | Fraction | str, max_digits: int = 4096) -> TernaryExpansion:
    """Expand x in [0, 1] in base 3 by long division, detecting the cycle."""
    rem, den = _ratio(x)
    if not 0 <= rem <= den:
        raise ValueError(f"expected a number in [0, 1], got {rem if den == 1 else f'{rem}/{den}'}")
    if rem == den:
        return TernaryExpansion(digits=(2,), period=1, complete=True)
    digits: list[int] = []
    seen: dict[int, int] = {}
    while rem and len(digits) < max_digits:
        if rem in seen:
            start = seen[rem]
            return TernaryExpansion(tuple(digits), period=len(digits) - start, complete=True)
        seen[rem] = len(digits)
        rem *= 3
        d, rem = divmod(rem, den)
        digits.append(d)
    return TernaryExpansion(tuple(digits), period=0, complete=(rem == 0))


def classify_ternary_oracle(x: int | Fraction | str,
                            max_digits: int = 4096) -> tuple[Membership, TernaryExpansion]:
    """Decide Cantor-set membership of x in [0, 1] from its ternary digits.

    A digit 1 followed by anything nonzero puts x strictly inside a removed
    gap.  A trailing digit 1 is the left endpoint of a gap and stays in the
    set (rewrite ...1 as ...0222...).  Rationals always resolve within one
    remainder cycle, so UNDETERMINED can only happen when max_digits is
    smaller than the cycle.
    """
    exp = ternary_expansion_oracle(x, max_digits)
    for pos, d in enumerate(exp.digits):
        if d == 1:
            terminal = exp.period == 0 and exp.complete and pos == len(exp.digits) - 1
            return (Membership.MEMBER if terminal else Membership.NON_MEMBER), exp
    if not exp.complete:
        return Membership.UNDETERMINED, exp
    return Membership.MEMBER, exp

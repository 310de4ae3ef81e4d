"""Slow references the fast routes are checked against; no command runs them.

The geometric route: a cell's points as A(x) = (q + x) / 3^k (scaled_point),
its side pieces and child cells as Intervals built from them, the diagonal
gap of a piece, the sign of a difference of products, and the covering test
read off the families' pairs.  These check subdivision's int families, the
covering thresholds and node_child.  truncated_gap_sum_series sums on
Fractions what gaps.truncated_gap_sum gives in closed form.

product_image is the general pair sweep P(S x T) of two IntervalSets, the
reference for the standard route and the fast bracket.  It calls
products._scaled_endpoints, products._rows and products._merge_ends through
the module, so a test that rebinds one there sees this sweep use it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from cantorprod import products
from cantorprod.gaps import _holds
from cantorprod.intervals import Interval, IntervalSet, rat
from cantorprod.subdivision import FastNode, g_interval, node_child, p_interval
from cantorprod.ternary import _fraction


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
    """P(S x T) as a canonical IntervalSet; T omitted means P(S x S)."""
    triangle = T is None or T == S
    a_los, a_his, a_den = products._scaled_endpoints(S)
    b_los, b_his, b_den = (a_los, a_his, a_den) if triangle else products._scaled_endpoints(T)
    if not a_los or not b_los:
        return IntervalSet._from_ends([], [], 1)
    los, his = products._merge_ends(*products._rows(a_los, a_his, b_los, b_his, triangle))
    return IntervalSet._from_ends(los, his, a_den * b_den)

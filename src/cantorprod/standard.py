"""The standard route's int kernel: the measure of P(R_n x R_n) from surviving-gap counts.

R_n is the level-n standard cover of the right half R = C meet [2/3, 1] of
the Cantor set, and measure(P(C x C)) = (3/2) measure(P(R x R)).
P(R_n x R_n) is the union of one sibling band per split cell and one
diagonal square per leaf.  A split cell leaves one whole gap or none, and
_surviving_gaps counts each level's gaps from the ancestors above half its
depth, with no walk over the cells;
measure(P(R_n x R_n)) - measure(P(R x R)) lies in [0, (1/63) (2/9)^(n-1)].

Everything here runs on ints, from the level to the JSON payload:
_standard_run is the route with its range check and its timing,
_estimate_json its payload and _full_bounds its enclosure of
measure(P(C x C)).  `art` runs on the first two and `ternary` alone, and
selftest reads the enclosure, with no record class;
`products.standard_estimate` and the `records.EstimateResult` it returns
wrap them.  This module defines no class and imports neither `typing` nor
`fractions`.
"""

import time
from math import isqrt

from .ternary import _ROOT, Ratio, _leaves, _lowest, decimal_ratio, format_ratio

STANDARD_LEVEL_LIMIT = 20


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
    each run's Cantor addresses off its ends.  Each ancestor level's
    addresses are built once, for every level they close gaps at.
    """
    ancestors = [_leaves(_ROOT, i - 1) for i in range(1, (level - 1) // 2)]
    counts = []
    for j in range(1, level):
        tails = []
        for i in range(1, j // 2):  # the levels i <= (j-2)//2
            width = 3 ** (j - i)  # an ancestor's addresses at level j
            for q in ancestors[i - 1]:
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


def _standard_run(n: int) -> tuple[int, int, int, int]:
    """(level, measure, component count, elapsed_ms) of the route at n: measure(P(R_n x R_n))
    is measure / 9^level, level = max(n, 1), since R_0 = R_1 = [2/3, 1]."""
    if not 0 <= n <= STANDARD_LEVEL_LIMIT:
        raise ValueError(f"standard route supports 0 <= n <= {STANDARD_LEVEL_LIMIT}")
    start = time.perf_counter()
    level = max(n, 1)
    measure, count = _standard_stats(level)
    return level, measure, count, int((time.perf_counter() - start) * 1000)


def _full_bounds(n: int, measure: int, scale: int) -> tuple[Ratio, Ratio]:
    """Certified enclosure of measure(P(C x C)) from the route at n, as (lo, hi)
    lowest-terms pairs; n = 0 gives 17/21 and 5/6.

    m = measure / scale overshoots the true right-half product measure by at
    most convergence_tail(n), so the scaling identity pins the full measure
    inside [(3/2)(m - convergence_tail(n)), (3/2) m].
    """
    t, u = convergence_tail(n)
    low = 3 * (measure * u - t * scale), 2 * scale * u
    return _lowest(*low), _lowest(3 * measure, 2 * scale)


def _estimate_json(n: int, measure: int, scale: int, count: int, elapsed_ms: int,
                   digits: int) -> dict:
    """The route's payload at n: measure(P(R_n x R_n)) = measure / scale, its tail bound,
    and the full value (3/2) measure / scale, as "p/q" text and as a decimal."""
    full = 3 * measure, 2 * scale
    return {
        "n": n,
        "set_measure": format_ratio(measure, scale),
        "tail_bound": format_ratio(*convergence_tail(n)),
        "full_value": format_ratio(*full),
        "decimal": decimal_ratio(*full, digits),
        "component_count": count,
        "elapsed_ms": elapsed_ms,
    }

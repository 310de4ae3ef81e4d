"""Gap calculus: the exact bookkeeping behind the certified measure values.

A cell I has a side piece per side and index k, I 0^k (low) or I 2^k (high),
which is I itself at k = 0; subdivision._side, the one home of side-piece
words, gives its first third.  If the piece's thirds are [a+j, a+j+1] / 3^d,
j = 0, 1, 2, it gives three interval families with endpoints over 9^d:

* p_interval, the band [a(a+2), (a+1)(a+3)], product of the outer thirds;
* g_interval, the diagonal gap [(a+1)(a+3), (a+2)^2] the middle removal opens;
* q_interval, the square of the tracked third, node_child's E_k = [a+2, a+3]
  (low) or F_k = [a, a+1] (high).

The P and G formulas live on ints in subdivision._families, which the figure
reads directly; p_interval and g_interval wrap its ends as Fractions.

These intervals interleave in a fixed order (verify_order_chain), bands of a
parent swallow most gaps of its children (the covering thresholds), and what
is not swallowed has an exactly summable measure (truncated_gap_sum, beta,
alpha).  Accumulating the swallowed-or-not accounting over three subdivision
rounds yields a certified enclosure of the product-set measure, reproduced
here entry by entry and compared against frozen expected literals.

scaled_point and the products built from it are the geometric oracle for the
families.  All series are exact: partial sums plus closed geometric tails.

The calculus runs on one exact kernel of lowest-terms int pairs (p, q),
q > 0 (ternary.Ratio): _sum, _prod, _holds (compare) and geometric_series
(first / (1 - ratio)), reduced through ternary._lowest.  Its values are gap
totals, truncated gap sums and geometric tails in powers of 9, so the pairs
carry them exactly.  Each value has one function, which takes ints and
pairs and returns a pair: gap_total, truncated_gap_sum, beta, alpha, their
series forms, ...; verify_order_chain gives each check's ends as pairs too.
certify and the selftest call them; the certificate records hold the pairs
and give Fractions on access.  This module imports `fractions` and
`intervals` only inside the functions that return or read them, so
`certify` and `selftest` load neither.
"""

import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional

from . import _CERTIFY_TARGETS as TARGETS
from .subdivision import ROOT, FastNode, _families, node_child
from .ternary import (
    Ratio, _fraction, _fraction_property, _lowest, _ratio, decimal_ratio, format_ratio,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .intervals import Interval

# opaque CLI tokens: the enclosure of measure(P(D_3 x D_3)), then of measure(P(C x C))
TARGET_LEVEL3, TARGET_FULL = TARGETS


class CertificationError(Exception):
    """A certified identity failed to verify."""


# ---------------------------------------------------------------------------
# the three families, on the integer address of a side piece's first third


def _interval(lo: int, hi: int, den: int) -> "Interval":
    from .intervals import Interval

    return Interval(_fraction(lo, den), _fraction(hi, den))


def p_interval(node: FastNode, k: int, high_side: bool) -> "Interval":
    """Band [a(a+2), (a+1)(a+3)]: the product of the side piece's two outer thirds."""
    if k < 0:
        raise ValueError("band index must be >= 0")
    lo, hi, _, den = _families(node, k, high_side)
    return _interval(lo, hi, den)


def q_interval(node: FastNode, k: int, high_side: bool) -> "Interval":
    """Square [c^2, (c+1)^2] of the k-th child cell, the side piece's tracked third."""
    return _interval(*_square(node, k, high_side))


def _square(node: FastNode, k: int, high_side: bool) -> tuple[int, int, int]:
    """(q_lo, q_hi, 9^d): q_interval's ends as ints over 9^d, the one home of its formula."""
    c, d = node_child(node, k, high_side)
    return c * c, (c + 1) ** 2, 9**d


def g_interval(node: FastNode, k: int, high_side: bool) -> "Interval":
    """Diagonal gap [(a+1)(a+3), (a+2)^2] = diagonal_gap(side_piece(node, k, high_side)),
    from the band's top to the upper third's square; both sides agree at k = 0."""
    if k < 0:
        raise ValueError("gap index must be >= 0")
    _, lo, hi, den = _families(node, k, high_side)
    return _interval(lo, hi, den)


# ---------------------------------------------------------------------------
# the geometric oracle: cell geometry as products of scaled points A(x)


def scaled_point(node: FastNode, x: "Fraction") -> "Fraction":
    """A(x) = (q + x) / 3^k, the affine parametrization of the node's cell."""
    from .intervals import rat

    return (node.m + rat(x)) / 3**node.k


def side_piece(node: FastNode, k: int, high_side: bool) -> "Interval":
    """The closed outer third piece I_(k,-) = I(0, 3^-k) or I_(k,+); k = 0 is I itself."""
    from .intervals import Interval

    if k < 0:
        raise ValueError("side index must be >= 0")
    t = _fraction(1, 3**k)
    if high_side:
        return Interval(scaled_point(node, 1 - t), scaled_point(node, 1))
    return Interval(scaled_point(node, 0), scaled_point(node, t))


def child_cell(node: FastNode, k: int, high_side: bool) -> "Interval":
    """The k-th surviving child cell as an interval (geometric route).

    Must agree with node_child(node, k, high_side).cell for genuine cells;
    this version works off (q, k) alone, so it extends to synthetic nodes.
    """
    from .intervals import Interval

    if k < 1:
        raise ValueError("child index must be >= 1")
    lo = _fraction(2, 3 ** (k + 1))
    hi = _fraction(1, 3**k)
    if high_side:
        return Interval(scaled_point(node, 1 - hi), scaled_point(node, 1 - lo))
    return Interval(scaled_point(node, lo), scaled_point(node, hi))


def diagonal_gap(piece: "Interval") -> "Interval":
    """P(J x J) minus P(J'' x J'') for J = [a, a+3t] with middle third removed.

    The products (a+t)(a+3t) = (a+2t)^2 - t^2 and (a+t)^2 > a(a+2t) leave
    exactly the open slot ((a+2t)^2 - t^2, (a+2t)^2), an interval of length
    t^2 just below the square of the removed gap's right endpoint.
    """
    from .intervals import Interval

    t = piece.length / 3
    hi = (piece.lo + 2 * t) ** 2
    return Interval(hi - t * t, hi)


def compare_products(
    node: FastNode, x: "Fraction", y: "Fraction", z: "Fraction", t: "Fraction"
) -> int:
    """Sign of A(x)A(y) - A(z)A(t) via the integer-friendly predicate.

    A(x)A(y) > A(z)A(t)  iff  zt - xy < q (x + y - z - t); the cell length
    cancels, so only q and the local coordinates enter.
    """
    from .intervals import rat

    x, y, z, t = rat(x), rat(y), rat(z), rat(t)
    lhs = z * t - x * y
    rhs = node.m * (x + y - z - t)
    if lhs < rhs:
        return 1
    if lhs == rhs:
        return 0
    return -1


# ---------------------------------------------------------------------------
# the interleaving order of the three families


class ChainCheck(NamedTuple):
    name: str
    k: int
    holds: bool
    lhs: Ratio
    rhs: Ratio
    relation: str  # a key of _RELATIONS


# the comparisons an order check or a certificate entry may assert
_RELATIONS = {"eq": operator.eq, "lt": operator.lt, "le": operator.le, "gt": operator.gt}


def _check(name: str, k: int, lhs: Ratio, rhs: Ratio, relation: str) -> ChainCheck:
    return ChainCheck(name, k, _holds(relation, lhs, rhs), lhs, rhs, relation)


# one (name, relation) per link of either side's band climb, from its square q
# through its band p to its gap g: q.lo < p.lo < q.hi < p.hi = g.lo < g.hi
_CLIMB = (
    ("square_starts_below_band", "lt"), ("band_enters_square", "lt"),
    ("square_ends_inside_band", "lt"), ("band_touches_gap", "eq"), ("gap_nonempty", "lt"),
)


def _climb(side: str, k: int, square: list[Ratio], families: list[Ratio]) -> list[ChainCheck]:
    (q_lo, q_hi), (p_lo, p_hi, g_hi) = square, families
    ends = (q_lo, p_lo, q_hi, p_hi, p_hi, g_hi)  # p.hi is g.lo
    return [
        _check(f"{name}_{side}", k, lhs, rhs, relation)
        for (name, relation), lhs, rhs in zip(_CLIMB, ends, ends[1:])
    ]


def verify_order_chain(node: FastNode, k_max: int) -> tuple[ChainCheck, ...]:
    """Check the interleaving of gap, square, and band intervals up to k_max.

    Nothing is assumed about the node: every relation is evaluated and
    reported, so a synthetic node that breaks the order (q = 0 breaks
    square_starts_below_band_low) is flagged rather than crashing.  For
    genuine cells (q >= 2, in fact any q >= 1) all relations hold.  Each
    check's ends are lowest-terms pairs.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    def ends(family: Callable, k: int, high_side: bool) -> list[Ratio]:
        """_square's [q.lo, q.hi] or _families' [p.lo, p.hi == g.lo, g.hi], as pairs."""
        *ints, den = family(node, k, high_side)
        return [_lowest(end, den) for end in ints]

    checks: list[ChainCheck] = []
    for k in range(k_max):
        q_next, q_next_hi = ends(_square, k + 1, False), ends(_square, k + 1, True)
        low, high = ends(_families, k, False), ends(_families, k, True)
        g_next_hi = ends(_families, k + 1, False)[2]
        checks.append(_check("gap_square_touch_low", k + 1, g_next_hi, q_next[0], "eq"))
        checks += _climb("low", k, q_next, low)
        checks.append(_check("gap_low_before_high", k, low[2], high[2], "le"))
        checks.append(_check("gap_square_touch_high", k, high[2], q_next_hi[0], "eq"))
    for k in range(1, k_max + 1):
        checks += _climb("high", k, ends(_square, k, True), ends(_families, k, True))
    return tuple(checks)


def chain_holds(checks: Iterable[ChainCheck]) -> bool:
    """Whether every check of an order chain holds."""
    return all(check.holds for check in checks)


# ---------------------------------------------------------------------------
# covering thresholds: which child gaps a parent band swallows


def _least_exponent(c: int, bound: int) -> int:
    """Least l >= 0 with 3^{l+c} > bound."""
    l = 0
    while 3 ** (l + c) <= bound:
        l += 1
    return l


def low_cover_threshold(q: int, k: int) -> int:
    """Least l such that the low child E_k's high gaps with index >= l are
    covered by the parent band p_interval(., k-1, low).

    Containment reduces to 3^{l+2} > 2 * 3^k * q + 2; since the right side is
    never a power of 3 (it is 2 mod 3), partial covering cannot occur: the
    band boundary never lands strictly inside a gap.
    """
    if k < 1:
        raise ValueError("child index must be >= 1")
    if q < 1:
        raise ValueError("threshold needs q >= 1")
    return _least_exponent(2, 2 * 3**k * q + 2)


def high_cover_threshold(q: int, k: int) -> int:
    """Least l such that the high child F_k's high gaps with index >= l are
    covered by the parent band p_interval(., k, high).

    Containment reduces to 3^{l+1} > 2 * 3^{k+1} * (q + 1) - 4, again with no
    partial covering (the right side is 2 mod 3).
    """
    if k < 1:
        raise ValueError("child index must be >= 1")
    if q < 1:
        raise ValueError("threshold needs q >= 1")
    return _least_exponent(1, 2 * 3 ** (k + 1) * (q + 1) - 4)


def child_gap_covered(parent: FastNode, k: int, l: int, high_child: bool) -> bool:
    """Geometric route: is the l-th high-side gap of the k-th child strictly
    inside the matching parent band?  Must agree with the thresholds."""
    child = node_child(parent, k, high_side=high_child)
    gap = g_interval(child, l, high_side=True)
    if high_child:
        band = p_interval(parent, k, high_side=True)
    else:
        band = p_interval(parent, k - 1, high_side=False)
    return band.lo < gap.lo and gap.hi < band.hi


# ---------------------------------------------------------------------------
# the exact kernel: lowest-terms int pairs (p, q), q > 0


def _sum(*terms: Ratio) -> Ratio:
    p, q = 0, 1
    for a, b in terms:
        p, q = p * b + a * q, q * b
    return _lowest(p, q)


def _prod(*factors: Ratio) -> Ratio:
    p = q = 1
    for a, b in factors:
        p, q = p * a, q * b
    return _lowest(p, q)


def _holds(relation: str, x: Ratio, y: Ratio) -> bool:
    """x `relation` y, a key of _RELATIONS, compared across the positive denominators."""
    return _RELATIONS[relation](x[0] * y[1], y[0] * x[1])


def geometric_series(first: Ratio, ratio: Ratio) -> Ratio:
    """Exact sum of first * ratio^j over j >= 0, for 0 <= ratio < 1: first / (1 - ratio)."""
    (a, b), (r, s) = first, ratio
    if not 0 <= r < s:
        raise ValueError("ratio must be in [0, 1)")
    return _lowest(a * s, b * (s - r))


# ---------------------------------------------------------------------------
# exact series: measures of what the bands do not swallow, as lowest-terms pairs


def gap_total(length: Ratio) -> Ratio:
    """Total measure of all diagonal gaps of a cell of the given length.

    One central gap of measure length^2/9 plus two per index k >= 1 of
    measure length^2/9^{k+1} each: (5/36) length^2, assembled exactly.
    """
    sq = _prod(length, length)
    return _sum(_prod(sq, (1, 9)), _prod((2, 1), geometric_series(_prod(sq, (1, 81)), (1, 9))))


def truncated_gap_sum(length: Ratio, uncovered: int) -> Ratio:
    """Measure of a cell's gaps left after covering high gaps of index >= uncovered.

    All low-side gaps plus the high-side gaps of index < uncovered (index 0 is
    the central gap, counted once): (length^2 / 8)(10/9 - 9^-uncovered).
    """
    if uncovered < 0:
        raise ValueError("uncovered count must be >= 0")
    # (10/9 - 9^-uncovered) / 8 over the one denominator 8 * 9^(uncovered+1)
    return _prod(length, length, (10 * 9**uncovered - 9, 8 * 9 ** (uncovered + 1)))


def truncated_gap_sum_series(length: "Fraction", uncovered: int, cut: int = 8) -> "Fraction":
    """Same value as truncated_gap_sum by explicit partial sum plus tail, on Fractions."""
    from .intervals import rat

    sq = rat(length) ** 2
    low = sum(sq / 9 ** (l + 1) for l in range(1, cut + 1))
    low += sq / 9 ** (cut + 2) / (1 - _fraction(1, 9))  # the tail, first / (1 - ratio)
    high = sum(sq / 9 ** (l + 1) for l in range(uncovered))
    return low + high


def first_level_gap_total() -> Ratio:
    """Measure removed from P(D_0 x D_0) by the first round: every gap of the
    root cell [2/3, 1] survives, total (5/36)(1/3)^2 = 5/324."""
    return gap_total((1, 3**ROOT.k))


def _verified_threshold(high: bool, q: int, k: int, expected: int) -> int:
    got = (high_cover_threshold if high else low_cover_threshold)(q, k)
    if got != expected:
        side = "high" if high else "low"
        raise CertificationError(
            f"{side} covering threshold pattern broke at q={q}, k={k}: {got} != {expected}"
        )
    return got


def _uncovered_children(
    high: bool, q: int, s: int, d: int, cut: int, stop: Optional[int] = None
) -> Ratio:
    """Uncovered gap measure of one side's children j = 1..stop of a cell with parameter q.

    Child j has length 3^-(s+j) and covering threshold j+d.  With stop None
    the terms after `cut` come from one closed tail over j > cut of
    truncated_gap_sum(3^-(s+j), j+d) = (10/72) 9^-(s+j) - (1/8) 9^-(s+2j+d).
    """
    terms = [
        truncated_gap_sum((1, 3 ** (s + j)), _verified_threshold(high, q, j, j + d))
        for j in range(1, (cut if stop is None else stop) + 1)
    ]
    if stop is None:
        terms.append(geometric_series((10, 72 * 9 ** (s + cut + 1)), (1, 9)))
        terms.append(geometric_series((-1, 8 * 9 ** (s + 2 * cut + 2 + d)), (1, 81)))
    return _sum(*terms)


def second_level_increment(cut: int = 12) -> Ratio:
    """Measure removed by round two that round one's bands do not cover.

    Children of the root are E_k, F_k of length 3^-(k+2); the uncovered count
    is the covering threshold (k for E_k, k+2 for F_k), verified here over the
    partial range before the matching geometric tails are attached.
    """
    low = _uncovered_children(False, ROOT.m, 2, 0, cut)
    return _sum(low, _uncovered_children(True, ROOT.m, 2, 2, cut))


def beta(k: int) -> Ratio:
    """Closed form for the uncovered gap measure of the high child F_k's children.

    (1/64) [ 20/9^{k+4} - (91/5)/9^{2k+6} + (1/10)/9^{4k+10} ].
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    return _prod((1, 64), _sum(
        (20, 9 ** (k + 4)), (-91, 5 * 9 ** (2 * k + 6)), (1, 10 * 9 ** (4 * k + 10))
    ))


def beta_series(k: int, cut: int = 12) -> Ratio:
    """Independent evaluation of beta(k): per-child truncated sums plus tails.

    F_k has parameter q = 3^{k+2} - 3 (re-derived through the child
    recursion); its grandchildren of index m have length 3^-(k+m+3) and
    uncovered counts m+k+1 (low side, all m) and m+k+3 (high side, only
    m <= k+2: deeper high grandchildren sit entirely inside the round-one
    band and contribute nothing).
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    q = node_child(ROOT, k, high_side=True).m
    low = _uncovered_children(False, q, k + 3, k + 1, cut)
    return _sum(low, _uncovered_children(True, q, k + 3, k + 3, cut, stop=k + 2))


def alpha(k: int) -> Ratio:
    """Closed form for the uncovered gap measure of the low child E_k's
    children, excluding the special high grandchild of index m = k (whose
    square escapes the bands and is accounted separately).

    Same series as beta except the high-side sum stops at m = k-1: the terms
    m = k, k+1, k+2 drop out, each a truncated gap sum at scale 3^-(2k+j).
    """
    closed = beta(k)  # raises for k < 1
    dropped = _sum(*(truncated_gap_sum((1, 3 ** (2 * k + j)), 2 * k + j) for j in (3, 4, 5)))
    return _sum(closed, _prod((-1, 1), dropped))


def alpha_series(k: int, cut: int = 12) -> Ratio:
    """Independent evaluation of alpha(k), mirroring beta_series.

    E_k has parameter q = 2*3^{k+1} + 2; thresholds match F_k's pattern
    (m+k+1 low, m+k+3 high), but high grandchildren with m >= k+1 are fully
    covered and m = k is excluded, leaving m <= k-1.
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    q = node_child(ROOT, k, high_side=False).m
    low = _uncovered_children(False, q, k + 3, k + 1, cut)
    return _sum(low, _uncovered_children(True, q, k + 3, k + 3, cut, stop=k - 1))


def deep_series_total() -> tuple[Ratio, Ratio]:
    """(sum over k >= 1 of beta(k) + alpha(k), the remainder epsilon).

    Per k: beta + alpha = (1/8)[ 5/9^{k+4} - (910 + 91/20)/9^{2k+6}
    + (265721/40)/9^{4k+10} ]; summing the three geometric strands exactly
    and splitting off epsilon = (1/8)[ (91/20) sum 9^-(2k+6)
    - (265721/40) sum 9^-(4k+10) ] leaves the round number
    sum + epsilon = 157/(32 * 9^6).
    """
    sum_a = geometric_series((1, 9**5), (1, 9))
    sum_b = geometric_series((1, 9**8), (1, 81))
    sum_c = geometric_series((1, 9**14), (1, 9**4))
    total = _prod((1, 8), _sum(
        _prod((5, 1), sum_a),
        _prod(_sum((-910, 1), (-91, 20)), sum_b),
        _prod((265721, 40), sum_c),
    ))
    epsilon = _prod((1, 8), _sum(_prod((91, 20), sum_b), _prod((-265721, 40), sum_c)))
    return total, epsilon


def unresolved_cells_bound() -> Ratio:
    """Upper bound on the gap measure of the escaped squares with k >= 2.

    Each escaped grandchild has length 3^-(2k+3); summing their full gap
    totals (5/36) 9^-(2k+3) over k >= 2 gives exactly 1/(64 * 9^6).
    """
    return _prod((5, 36), geometric_series((1, 9**7), (1, 81)))


# ---------------------------------------------------------------------------
# certificates

P6 = 9**6
P10 = 9**10

# Frozen expected values for every chain entry, each its lowest-terms pair
# (p, q).  certify() re-derives each value from the series and geometry above
# and compares against this table; tampering with either side must flip the
# matching entry to False.  An entry set to an int, a Fraction or a "p/q" text
# is read exactly too.
EXPECTED: dict[str, Ratio] = {
    "level1_gap_total": (5, 324),
    "level2_gap_increment": (859, 2099520),
    "band_floor": (16, 27),
    "special_cell_separation": (16, 27),
    "special_cell_length": (1, 243),
    "special_cell_gap_threshold": (5, 1),
    "special_cell_gap_total": (10 * 9**4 - 1, 8 * P10),  # 5/(4 P6) - 1/(8 P10)
    "deep_series_total": (157, 32 * P6),
    "series_remainder_positive": (0, 1),
    "series_remainder_bound": (1, 128 * P6),
    "unresolved_cells_bound": (1, 64 * P6),
    "level3_center": (91782451, 170061120),
    "enclosure_shift_positive": (0, 1),
    "enclosure_shift_bound": (1, 64 * P6),
    "full_center": (91782451, 113374080),
    "subdivision_tail": (1, 2939328),
    "full_radius": (11, 19840464),
    "full_radius_tolerance": (1, 10**6),
}


def _entry_ratio(value: Any) -> Ratio:
    """A table entry as a lowest-terms pair: a (p, q) pair, or what ternary._ratio reads."""
    return _lowest(*value) if isinstance(value, tuple) else _ratio(value)


class ChainEntry(NamedTuple):
    """One derived value against its frozen one, both held as lowest-terms
    pairs; value and expected give them as Fractions."""

    name: str
    value_ratio: Ratio
    expected_ratio: Ratio
    relation: str  # a key of _RELATIONS
    match: bool

    value = _fraction_property(lambda entry: entry.value_ratio)
    expected = _fraction_property(lambda entry: entry.expected_ratio)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": format_ratio(*self.value_ratio),
            "expected": format_ratio(*self.expected_ratio),
            "relation": self.relation,
            "match": self.match,
        }


class Certificate(NamedTuple):
    """An enclosure center +- radius, held as lowest-terms pairs (center and
    radius give them as Fractions), and the chain that derived it."""

    target: str
    center_ratio: Ratio
    radius_ratio: Ratio
    chain: tuple[ChainEntry, ...]

    center = _fraction_property(lambda cert: cert.center_ratio)
    radius = _fraction_property(lambda cert: cert.radius_ratio)

    @property
    def ok(self) -> bool:
        return all(entry.match for entry in self.chain)

    def failures(self) -> tuple[ChainEntry, ...]:
        return tuple(entry for entry in self.chain if not entry.match)

    def to_json(self, digits: int = 12) -> dict:
        return {
            "target": self.target,
            "center": format_ratio(*self.center_ratio),
            "radius": format_ratio(*self.radius_ratio),
            "decimal_center": decimal_ratio(*self.center_ratio, digits),
            "verified": self.ok,
            "chain": [entry.to_json() for entry in self.chain],
        }


def certify(target: str = TARGET_LEVEL3) -> Certificate:
    """Re-derive the measure enclosure and compare every step to its frozen value.

    The level-3 target encloses measure(P(D_3 x D_3)); the full target scales
    it to the Cantor product set, folding in the subdivision tail.  Entries
    appear in dependency order; center and radius are taken from the derived
    values, not the frozen table.  Every value is a lowest-terms pair of the
    exact kernel.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown certification target {target!r}")
    entries: list[ChainEntry] = []

    def add(name: str, value: Ratio, relation: str = "eq") -> Ratio:
        expected = _entry_ratio(EXPECTED[name])
        entries.append(ChainEntry(name, value, expected, relation, _holds(relation, value, expected)))
        return value

    mu1 = add("level1_gap_total", first_level_gap_total())
    increment = add("level2_gap_increment", second_level_increment())

    e1 = node_child(ROOT, 1, high_side=False)
    d1p = node_child(e1, 1, high_side=True)
    band_lo, _, _, band_den = _families(ROOT, 0, high_side=False)
    add("band_floor", _lowest(band_lo, band_den))
    # the special cell's square (q_interval(e1, 1, high) ends at its top) sits
    # strictly below the round-one band, so its own gaps survive in full up to
    # the covering threshold
    add("special_cell_separation", _lowest((d1p.m + 1) ** 2, 9**d1p.k), relation="lt")
    length = add("special_cell_length", (1, 3**d1p.k))
    threshold = high_cover_threshold(e1.m, 1)
    add("special_cell_gap_threshold", (threshold, 1))
    gamma1 = add("special_cell_gap_total", truncated_gap_sum(length, threshold))

    deep, epsilon = deep_series_total()
    add("deep_series_total", _sum(deep, epsilon))
    add("series_remainder_positive", epsilon, relation="gt")
    add("series_remainder_bound", epsilon, relation="lt")
    radius = add("unresolved_cells_bound", unresolved_cells_bound())

    removed = _sum(mu1, increment, gamma1, deep, epsilon)
    shift = _sum((1, 8 * P10), epsilon)
    center = add("level3_center", _sum((5, 9), _prod((-1, 1), removed), (-1, 8 * P10)))
    add("enclosure_shift_positive", shift, relation="gt")
    add("enclosure_shift_bound", shift, relation="lt")

    if target == TARGET_LEVEL3:
        return Certificate(target, center, radius, tuple(entries))

    full_center = add("full_center", _prod((3, 2), center))
    tail = add("subdivision_tail", (1, 63 * 36**3))
    full_radius = add("full_radius", _prod((3, 2), _sum(radius, tail)))
    add("full_radius_tolerance", full_radius, relation="lt")
    return Certificate(target, full_center, full_radius, tuple(entries))


def _enclosure(target: str) -> tuple["Fraction", "Fraction"]:
    cert = certify(target)
    if not cert.ok:
        names = ", ".join(entry.name for entry in cert.failures())
        raise CertificationError(f"certification failed at: {names}")
    return cert.center, cert.radius


def level3_enclosure() -> tuple["Fraction", "Fraction"]:
    """(center, radius) for measure(P(D_3 x D_3)), raising if verification fails."""
    return _enclosure(TARGET_LEVEL3)


def full_enclosure() -> tuple["Fraction", "Fraction"]:
    """(center, radius) for measure(P(C x C)), raising if verification fails."""
    return _enclosure(TARGET_FULL)

"""Gap calculus: the exact bookkeeping behind the certified measure values.

A cell I has a side piece per side and index k, I 0^k (low) or I 2^k (high),
which is I itself at k = 0; subdivision._side, the one home of side-piece
words, gives its first third.  If the piece's thirds are [a+j, a+j+1] / 3^d,
j = 0, 1, 2, it gives three interval families with endpoints over 9^d:

* p_interval, the band [a(a+2), (a+1)(a+3)], product of the outer thirds;
* g_interval, the diagonal gap [(a+1)(a+3), (a+2)^2] the middle removal opens;
* q_interval, the square of the tracked third, node_child's E_k = [a+2, a+3]
  (low) or F_k = [a, a+1] (high).

Each family has one function, in subdivision next to _side, which returns
its (lo, hi) ends as lowest-terms pairs; this module imports them, and the
order chain and certify read the pairs directly.

These intervals interleave in a fixed order (verify_order_chain), bands of a
parent swallow most gaps of its children (the covering thresholds), and what
is not swallowed has an exactly summable measure (truncated_gap_sum, beta,
alpha).  Accumulating the swallowed-or-not accounting over three subdivision
rounds yields a certified enclosure of the product-set measure, reproduced
here entry by entry and compared against frozen expected literals.  All
series are exact: partial sums plus closed geometric tails.

The calculus runs on one exact kernel of lowest-terms int pairs (p, q),
q > 0 (ternary.Ratio): _sum, _prod, _holds (compare) and geometric_series
(first / (1 - ratio)), reduced through ternary._lowest.  Its values are gap
totals, truncated gap sums and geometric tails in powers of 9, so the pairs
carry them exactly.  Each value has one function, which takes ints and
pairs and returns a pair: gap_total, truncated_gap_sum, beta, alpha, their
series forms, ...

Two int kernels run on them with no record class, on plain (m, k) address
pairs: _order_chain, the order chain's checks as tuples, and _certify, the
certificate's chain entries as tuples with its center, radius and verdict.
`certify` and selftest run these, and _certificate_json writes the
payload.  verify_order_chain and certify wrap them in the records of
`records` (ChainCheck; ChainEntry and Certificate), which they import where
they run; level3_enclosure and full_enclosure return the kernel's pairs.
"""

import operator

from . import _CERTIFY_TARGETS as TARGETS
from .subdivision import _child, g_interval, p_interval, q_interval
from .ternary import _ROOT, Address, Ratio, _lowest, decimal_ratio, format_ratio

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

    from .records import Certificate, ChainCheck

# a check of the order chain, as records.ChainCheck's fields:
# (name, k, holds, lhs, rhs, relation)
Check = tuple[str, int, bool, Ratio, Ratio, str]
# an entry of a certificate's chain, as records.ChainEntry's fields:
# (name, value, expected, relation, match)
Entry = tuple[str, Ratio, Ratio, str, bool]

# opaque CLI tokens: the enclosure of measure(P(D_3 x D_3)), then of measure(P(C x C))
TARGET_LEVEL3, TARGET_FULL = TARGETS


class CertificationError(Exception):
    """A certified identity failed to verify."""


# ---------------------------------------------------------------------------
# the interleaving order of the three families


# the comparisons an order check or a certificate entry may assert
_RELATIONS = {"eq": operator.eq, "lt": operator.lt, "le": operator.le, "gt": operator.gt}


def _check(name: str, k: int, lhs: Ratio, rhs: Ratio, relation: str) -> Check:
    return name, k, _holds(relation, lhs, rhs), lhs, rhs, relation


# one (name, relation) per link of either side's band climb, from its square q
# through its band p to its gap g: q.lo < p.lo < q.hi < p.hi = g.lo < g.hi
_CLIMB = (
    ("square_starts_below_band", "lt"), ("band_enters_square", "lt"),
    ("square_ends_inside_band", "lt"), ("band_touches_gap", "eq"), ("gap_nonempty", "lt"),
)


def _climb(side: str, k: int, q: tuple[Ratio, Ratio], p: tuple[Ratio, Ratio],
           g: tuple[Ratio, Ratio]) -> list[Check]:
    ends = (q[0], p[0], q[1], p[1], g[0], g[1])
    return [
        _check(f"{name}_{side}", k, lhs, rhs, relation)
        for (name, relation), lhs, rhs in zip(_CLIMB, ends, ends[1:])
    ]


def _order_chain(node: Address, k_max: int) -> tuple[Check, ...]:
    """The interleaving of gap, square, and band intervals up to k_max, as check tuples.

    Nothing is assumed about the node: every relation is evaluated and
    reported, so a synthetic node that breaks the order (q = 0 breaks
    square_starts_below_band_low) is flagged rather than crashing.  For
    genuine cells (q >= 2, in fact any q >= 1) all relations hold.  Each
    check's ends are lowest-terms pairs.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    checks: list[Check] = []
    for k in range(k_max):
        q_next, q_next_hi = q_interval(node, k + 1, False), q_interval(node, k + 1, True)
        g_low, g_high = g_interval(node, k, False), g_interval(node, k, True)
        g_next_hi = g_interval(node, k + 1, False)[1]
        checks.append(_check("gap_square_touch_low", k + 1, g_next_hi, q_next[0], "eq"))
        checks += _climb("low", k, q_next, p_interval(node, k, False), g_low)
        checks.append(_check("gap_low_before_high", k, g_low[1], g_high[1], "le"))
        checks.append(_check("gap_square_touch_high", k, g_high[1], q_next_hi[0], "eq"))
    for k in range(1, k_max + 1):
        q, p, g = (family(node, k, True) for family in (q_interval, p_interval, g_interval))
        checks += _climb("high", k, q, p, g)
    return tuple(checks)


def verify_order_chain(node: Address, k_max: int) -> "tuple[ChainCheck, ...]":
    """Check the interleaving of gap, square, and band intervals up to k_max:
    _order_chain's checks as records."""
    from .records import ChainCheck

    return tuple(ChainCheck(*check) for check in _order_chain(node, k_max))


def chain_holds(checks: "Iterable[Check]") -> bool:
    """Whether every check of an order chain, records or tuples, holds."""
    return all(holds for _, _, holds, *_ in checks)


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


def first_level_gap_total() -> Ratio:
    """Measure removed from P(D_0 x D_0) by the first round: every gap of the
    root cell [2/3, 1] survives, total (5/36)(1/3)^2 = 5/324."""
    return gap_total((1, 3 ** _ROOT[1]))


def _verified_threshold(high: bool, q: int, k: int, expected: int) -> int:
    got = (high_cover_threshold if high else low_cover_threshold)(q, k)
    if got != expected:
        side = "high" if high else "low"
        raise CertificationError(
            f"{side} covering threshold pattern broke at q={q}, k={k}: {got} != {expected}"
        )
    return got


def _uncovered_children(
    high: bool, q: int, s: int, d: int, cut: int, stop: "int | None" = None
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
    low = _uncovered_children(False, _ROOT[0], 2, 0, cut)
    return _sum(low, _uncovered_children(True, _ROOT[0], 2, 2, cut))


def beta(k: int) -> Ratio:
    """Closed form for the uncovered gap measure of the high child F_k's children.

    (1/64) [ 20/9^{k+4} - (91/5)/9^{2k+6} + (1/10)/9^{4k+10} ].
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    return _prod((1, 64), _sum(
        (20, 9 ** (k + 4)), (-91, 5 * 9 ** (2 * k + 6)), (1, 10 * 9 ** (4 * k + 10))
    ))


def _uncovered_grandchildren(k: int, high_side: bool, stop: int, cut: int) -> Ratio:
    """Uncovered gap measure of the grandchildren of the root's k-th child on
    one side: every low grandchild, and the high ones of index m <= stop."""
    if k < 1:
        raise ValueError("index must be >= 1")
    q, _ = _child(_ROOT, k, high_side=high_side)
    low = _uncovered_children(False, q, k + 3, k + 1, cut)
    return _sum(low, _uncovered_children(True, q, k + 3, k + 3, cut, stop=stop))


def beta_series(k: int, cut: int = 12) -> Ratio:
    """Independent evaluation of beta(k): per-child truncated sums plus tails.

    F_k has parameter q = 3^{k+2} - 3 (re-derived through the child
    recursion); its grandchildren of index m have length 3^-(k+m+3) and
    uncovered counts m+k+1 (low side, all m) and m+k+3 (high side, only
    m <= k+2: deeper high grandchildren sit entirely inside the round-one
    band and contribute nothing).
    """
    return _uncovered_grandchildren(k, True, k + 2, cut)


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
    return _uncovered_grandchildren(k, False, k - 1, cut)


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
# matching entry to False.
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


def _entry_json(name: str, value: Ratio, expected: Ratio, relation: str, match: bool) -> dict:
    """One chain entry's payload: both values as "p/q" text."""
    return {
        "name": name,
        "value": format_ratio(*value),
        "expected": format_ratio(*expected),
        "relation": relation,
        "match": match,
    }


def _certificate_json(target: str, center: Ratio, radius: Ratio, chain: "Iterable[Entry]",
                      verified: bool, digits: int) -> dict:
    """The certificate's payload: center and radius as "p/q" text, the center as a
    decimal, the verdict, and every chain entry's payload."""
    return {
        "target": target,
        "center": format_ratio(*center),
        "radius": format_ratio(*radius),
        "decimal_center": decimal_ratio(*center, digits),
        "verified": verified,
        "chain": [_entry_json(*entry) for entry in chain],
    }


def _certify(target: str) -> tuple[Ratio, Ratio, tuple[Entry, ...], bool]:
    """(center, radius, chain, verified): re-derive the measure enclosure and compare
    every step to its frozen value, with each entry a tuple.

    The level-3 target encloses measure(P(D_3 x D_3)); the full target scales
    it to the Cantor product set, folding in the subdivision tail.  Entries
    appear in dependency order; center and radius are taken from the derived
    values, not the frozen table, and verified says whether every entry
    matches.  Every value is a lowest-terms pair of the exact kernel.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown certification target {target!r}")
    entries: list[Entry] = []

    def add(name: str, value: Ratio, relation: str = "eq") -> Ratio:
        expected = EXPECTED[name]
        entries.append((name, value, expected, relation, _holds(relation, value, expected)))
        return value

    def result(center: Ratio, radius: Ratio) -> tuple[Ratio, Ratio, tuple[Entry, ...], bool]:
        return center, radius, tuple(entries), all(match for *_, match in entries)

    mu1 = add("level1_gap_total", first_level_gap_total())
    increment = add("level2_gap_increment", second_level_increment())

    e1 = _child(_ROOT, 1, high_side=False)
    d1p = _child(e1, 1, high_side=True)
    add("band_floor", p_interval(_ROOT, 0, high_side=False)[0])
    # the special cell's square sits strictly below the round-one band, so its
    # own gaps survive in full up to the covering threshold
    add("special_cell_separation", q_interval(e1, 1, high_side=True)[1], relation="lt")
    length = add("special_cell_length", (1, 3 ** d1p[1]))
    threshold = high_cover_threshold(e1[0], 1)
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
        return result(center, radius)

    full_center = add("full_center", _prod((3, 2), center))
    tail = add("subdivision_tail", (1, 63 * 36**3))
    full_radius = add("full_radius", _prod((3, 2), _sum(radius, tail)))
    add("full_radius_tolerance", full_radius, relation="lt")
    return result(full_center, full_radius)


def certify(target: str = TARGET_LEVEL3) -> "Certificate":
    """Re-derive the measure enclosure and compare every step to its frozen value:
    _certify's center, radius and chain as a records.Certificate."""
    from .records import Certificate, ChainEntry

    center, radius, chain, _ = _certify(target)
    return Certificate(target, center, radius, tuple(ChainEntry(*entry) for entry in chain))


def _enclosure(target: str) -> tuple[Ratio, Ratio]:
    center, radius, chain, verified = _certify(target)
    if not verified:
        names = ", ".join(name for name, *_, match in chain if not match)
        raise CertificationError(f"certification failed at: {names}")
    return center, radius


def level3_enclosure() -> tuple[Ratio, Ratio]:
    """(center, radius) pairs for measure(P(D_3 x D_3)), raising if verification fails."""
    return _enclosure(TARGET_LEVEL3)


def full_enclosure() -> tuple[Ratio, Ratio]:
    """(center, radius) pairs for measure(P(C x C)), raising if verification fails."""
    return _enclosure(TARGET_FULL)

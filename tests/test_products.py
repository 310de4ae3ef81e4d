"""Tests for product images and the two measure-estimate routes."""

from __future__ import annotations

import functools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod import products
from cantorprod.intervals import (
    Interval, IntervalSet, _merge_ends, decimal_string, format_rational,
)
from cantorprod.products import (
    EstimateResult,
    FastBounds,
    _check_hole_free,
    _standard_stats,
    _surviving_gaps,
    convergence_tail,
    fast_bounds,
    self_product_stats,
    standard_estimate,
)
from cantorprod.subdivision import (
    ROOT,
    _leaves,
    fast_subdivision,
    right_half_subdivision,
)
from cantorprod.ternary import decimal_ratio, format_ratio
from oracles import diagonal_gap, product_image

RIGHT = IntervalSet([["2/3", "1"]])


def random_nonneg_set(rng: random.Random, pieces: int = 5, den: int = 48) -> IntervalSet:
    items = []
    for _ in range(rng.randint(0, pieces)):
        a = Fraction(rng.randint(0, den), den)
        b = Fraction(rng.randint(0, den), den)
        if a > b:
            a, b = b, a
        items.append(Interval(a, b))
    return IntervalSet(items)


def set_measure(est: EstimateResult) -> Fraction:
    """The record's measure(P(R_n x R_n)), scaled_measure / scale, as a Fraction."""
    return Fraction(est.scaled_measure, est.scale)


def fast_ends(r: FastBounds) -> tuple[Fraction, Fraction]:
    """The record's (lower, upper) ends, each over its scale, as Fractions."""
    return Fraction(r.scaled_lower, r.scale), Fraction(r.scaled_upper, r.scale)


def split_middle(piece: Interval) -> IntervalSet:
    t = piece.length / 3
    return IntervalSet([Interval(piece.lo, piece.lo + t), Interval(piece.hi - t, piece.hi)])


# ---------------------------------------------------------------------------
# product image basics


def test_base_self_product():
    assert product_image(RIGHT) == IntervalSet([["4/9", "1"]])
    assert self_product_stats(RIGHT)[0] == Fraction(5, 9)


def test_two_cell_self_product():
    s = IntervalSet([["2/3", "7/9"], ["8/9", "1"]])
    assert product_image(s) == IntervalSet([["4/9", "7/9"], ["64/81", "1"]])
    assert self_product_stats(s)[0] == Fraction(44, 81)


def test_product_with_unit_point_is_identity():
    rng = random.Random(101)
    one = IntervalSet([(1, 1)])
    for _ in range(50):
        s = random_nonneg_set(rng)
        assert product_image(s, one) == s


def test_product_symmetric():
    rng = random.Random(103)
    for _ in range(100):
        s = random_nonneg_set(rng)
        t = random_nonneg_set(rng)
        assert product_image(s, t) == product_image(t, s)


def test_product_empty_factor():
    assert product_image(IntervalSet(), RIGHT) == IntervalSet()
    assert product_image(RIGHT, IntervalSet()) == IntervalSet()


def test_product_distributes_over_union():
    rng = random.Random(107)
    for _ in range(100):
        s = random_nonneg_set(rng)
        t = random_nonneg_set(rng)
        u = random_nonneg_set(rng)
        lhs = product_image(s.union(t), u)
        rhs = product_image(s, u).union(product_image(t, u))
        assert lhs == rhs


def test_product_monotone():
    rng = random.Random(109)
    for _ in range(100):
        s = random_nonneg_set(rng)
        t = random_nonneg_set(rng)
        u = random_nonneg_set(rng)
        assert product_image(s, u).subset_of(product_image(s.union(t), u))


def test_self_product_matches_general_route():
    rng = random.Random(113)
    for _ in range(100):
        s = random_nonneg_set(rng)
        expected = product_image(s, IntervalSet(list(s)))
        assert product_image(s) == expected
        assert self_product_stats(s)[0] == expected.measure()


def test_product_contains_pointwise_samples():
    rng = random.Random(127)
    for _ in range(100):
        s = random_nonneg_set(rng)
        t = random_nonneg_set(rng)
        img = product_image(s, t)
        comps_s, comps_t = list(s), list(t)
        if not comps_s or not comps_t:
            assert img == IntervalSet()
            continue
        for _ in range(5):
            a = rng.choice(comps_s)
            b = rng.choice(comps_t)
            x = a.lo + (a.hi - a.lo) * Fraction(rng.randint(0, 8), 8)
            y = b.lo + (b.hi - b.lo) * Fraction(rng.randint(0, 8), 8)
            assert img.contains(x * y)


def test_product_rejects_negative_endpoints():
    bad = IntervalSet([["-1/2", "1/2"]])
    with pytest.raises(ValueError):
        product_image(bad)
    with pytest.raises(ValueError):
        product_image(RIGHT, bad)


# ---------------------------------------------------------------------------
# refinement behavior of products


def test_off_diagonal_refinement_loses_nothing():
    rng = random.Random(137)
    cells = list(right_half_subdivision(4))
    for _ in range(150):
        a, b = rng.sample(cells, 2)
        refined = product_image(split_middle(a), split_middle(b))
        assert refined == product_image(IntervalSet([a]), IntervalSet([b]))


def test_diagonal_refinement_removes_exactly_one_gap():
    for level in (2, 3, 4):
        for cell in right_half_subdivision(level):
            square = product_image(IntervalSet([cell]))
            refined = product_image(split_middle(cell))
            gap = diagonal_gap(cell)
            assert square.difference(IntervalSet([gap])) == refined
            assert gap.length == (cell.length / 3) ** 2


# ---------------------------------------------------------------------------
# standard route


def test_convergence_tail_values():
    assert convergence_tail(0) == (1, 63)
    assert convergence_tail(1) == (1, 63)
    assert convergence_tail(2) == (2, 567)
    assert Fraction(*convergence_tail(5)) == Fraction(1, 63) * Fraction(2, 9) ** 4
    with pytest.raises(ValueError):
        convergence_tail(-1)


def test_standard_estimate_level_zero():
    est = standard_estimate(0)
    assert set_measure(est) == Fraction(5, 9)
    assert est.full_bounds() == ((17, 21), (5, 6))
    assert est.component_count == 1


def test_standard_estimate_level_two():
    est = standard_estimate(2)
    assert set_measure(est) == Fraction(44, 81)
    assert est.component_count == 2


def test_standard_estimates_decrease_with_level():
    values = [set_measure(standard_estimate(n)) for n in range(8)]
    for a, b in zip(values, values[1:]):
        assert b <= a


def test_tail_bounds_actual_telescope():
    # the printed tail really bounds how far the level-n value can still fall
    deep = set_measure(standard_estimate(9))
    for n in range(8):
        drop = set_measure(standard_estimate(n)) - deep
        assert Fraction(0) <= drop <= Fraction(*convergence_tail(n))


def test_full_bounds_pairwise_consistent():
    # every level's enclosure contains the same number, so they all overlap
    bounds = [standard_estimate(n).full_bounds() for n in range(7)]
    for (a_lo, _) in bounds:
        for (_, b_hi) in bounds:
            assert Fraction(*a_lo) <= Fraction(*b_hi)


def test_standard_estimate_rejects_bad_levels():
    with pytest.raises(ValueError):
        standard_estimate(-1)
    with pytest.raises(ValueError):
        standard_estimate(21)


def test_standard_estimate_matches_sweep_oracle():
    # the doubling count against the pair sweep over the cover's cells, over
    # the whole range the benchmark runs
    for n in range(14):
        est = standard_estimate(n)
        assert (set_measure(est), est.component_count) == self_product_stats(
            right_half_subdivision(n)
        ), n


def standard_segments_oracle(level: int) -> tuple[list[int], list[int], int]:
    """Canonical component ends of P(R x R), R the level-`level` right-half cover, over 9^level.

    The band merge the gap walk replaced: every split cell's band and every
    leaf's square, as segments, sorted and merged.  Endpoints are in units
    of 3^-level.
    """
    leaves = _leaves(ROOT, level - 1)
    los = [a * a for a in leaves]
    his = [(a + 1) * (a + 1) for a in leaves]
    for j in range(1, level):
        cells = leaves[:: 2 ** (level - j)]
        t = 3 ** (level - j)
        s = t // 3
        los.extend(a * (a + 2 * s) for a in cells)
        his.extend((a + s) * (a + t) for a in cells)
    return (*_merge_ends(los, his), 9**level)


@functools.cache
def band_merge_stats(level: int) -> tuple[int, int, int]:
    """(measure over scale, component count, scale) of the band merge at `level`.

    Cached so that the two tests reading levels 1..20 merge each level once
    per run, and only three ints per level outlive the merge.
    """
    los, his, scale = standard_segments_oracle(level)
    return sum(his) - sum(los), len(los), scale


def test_standard_estimate_matches_band_merge_oracle():
    # the doubling count against the band merge, over every level the route
    # accepts
    for n in range(21):
        est = standard_estimate(n)
        measure, count, scale = band_merge_stats(max(n, 1))
        assert est.scale == scale, n
        assert (est.scaled_measure, est.component_count) == (measure, count), n


def test_standard_estimate_memory_stays_below_its_segments():
    # the doubling count keeps one tail per ancestor above half a level; the
    # band merge held all 2N - 1 segments at once, a 7.4 MB peak at n = 16
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        standard_estimate(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@functools.cache
def gap_walk_oracle(level: int) -> tuple[int, int]:
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



def split_rows(level: int, ancestor_levels=None):
    """(s, [(a, m), ...]) for split levels 1..level-1 of the gap walk, top down.

    As in gap_walk_oracle, in units of 3^-level: each split cell [a, a+3s]
    and m, the least A(A+2S) over the ancestors [A, A+3S] whose left child
    holds it, here taking only the ancestors at `ancestor_levels` (all if
    None), or 9^level.
    """
    row = [(2 * 3 ** (level - 1), 9**level)]
    for j in range(1, level):
        s = 3 ** (level - j - 1)
        yield s, row
        if j + 1 < level:
            closes = ancestor_levels is None or j in ancestor_levels
            row = [
                child
                for a, m in row
                for child in ((a, min(m, a * (a + 2 * s)) if closes else m), (a + 2 * s, m))
            ]


def walk_survivors() -> list[int]:
    """The walk's u_1..u_19: each level's open gaps, its count's step to the next level."""
    return [gap_walk_oracle(j + 1)[1] - gap_walk_oracle(j)[1] for j in range(1, 20)]


def test_surviving_gaps_match_gap_walk_oracle():
    # the doubling count against the walk it replaced, level by level and as
    # (measure, count), over every level the route accepts
    survivors = walk_survivors()
    for n in range(1, 21):
        assert _surviving_gaps(n) == survivors[: n - 1], n
        assert _standard_stats(n) == gap_walk_oracle(n), n


def test_standard_gaps_are_all_or_nothing():
    # every open gap's room m - (a+s)(a+3s) over the walk's split cells is a
    # whole number of s^2, and the cells give the walk's measure
    for n in range(2, 17):
        hull = 2 * 3 ** (n - 1)
        measure = 9**n - hull * hull
        for s, row in split_rows(n):
            for a, m in row:
                room = m - (a + s) * (a + 3 * s)
                if room > 0:
                    assert room % (s * s) == 0, (n, a, s, m)
                    measure -= min(room, s * s)
        assert measure == gap_walk_oracle(n)[0], n


def test_only_ancestors_above_half_a_level_close_its_gaps():
    # the ancestors at levels <= (j-2)//2 close every gap of level j that the
    # whole walk closes
    survivors = walk_survivors()
    for j in range(1, 20):
        *_, (s, row) = split_rows(j + 1, range(1, (j - 2) // 2 + 1))
        assert sum(m > (a + s) * (a + 3 * s) for a, m in row) == survivors[j - 1], j
    # and the bound is tight: the level-i ancestors alone first close a gap
    # at level 2i + 2
    for i in range(1, 9):
        for j, (s, row) in enumerate(split_rows(2 * i + 3, {i}), 1):
            closes = any(m <= (a + s) * (a + 3 * s) for a, m in row)
            assert closes == (j == 2 * i + 2), (i, j)


def test_standard_estimate_memory_stays_flat_at_the_top_level():
    # the doubling count holds one tail per ancestor above half a level; the
    # gap walk held one m per cell of its deepest split level, a 27.7 MB peak
    # at n = 20
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        standard_estimate(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_hole_free_check_raises_on_a_hole(monkeypatch):
    # A = [0, 1/9] and B = [2/3, 7/9] lie outside [2/3, 1] and break
    # b <= 3a + t (units of 1/9: a = 0, b = 6, t = 1): splitting them opens a
    # hole, and the check must say so
    a = Interval(Fraction(0), Fraction(1, 9))
    b = Interval(Fraction(2, 3), Fraction(7, 9))
    refined = product_image(split_middle(a), split_middle(b))
    assert len(refined) > 1
    with pytest.raises(RuntimeError):
        _check_hole_free(0, 6, 1)
    # the extreme pair of level 2, in units of 1/9, passes
    _check_hole_free(6, 8, 1)
    # the bound is b <= 3a + t: its edge passes and one unit past it raises
    for a, t in ((6, 1), (18, 3)):
        _check_hole_free(a, 3 * a + t, t)
        with pytest.raises(RuntimeError):
            _check_hole_free(a, 3 * a + t + 1, t)
    # and the standard route runs the check on every level it splits
    checked = []
    monkeypatch.setattr(products, "_check_hole_free", lambda *pair: checked.append(pair))
    standard_estimate(4)
    assert checked == [(54, 54, 27), (54, 72, 9), (54, 78, 3)]


def test_estimate_json_shape():
    est = standard_estimate(1)
    data = est.to_json(digits=10)
    assert data["n"] == 1
    assert data["set_measure"] == "5/9"
    assert data["full_value"] == "5/6"
    assert data["decimal"].startswith("0.8333333333")
    assert isinstance(data["component_count"], int)
    assert isinstance(data["elapsed_ms"], int)


# ---------------------------------------------------------------------------
# fast route


def test_fast_bounds_bracket_tightens():
    results = [fast_ends(fast_bounds(2, K)) for K in (2, 3, 4)]
    for (a_lower, a_upper), (b_lower, b_upper) in zip(results, results[1:]):
        assert b_lower >= a_lower
        assert b_upper <= a_upper
        assert b_upper - b_lower < a_upper - a_lower
    for lower, upper in results:
        assert lower < upper


def test_fast_bounds_level_one_catches_true_value():
    # one full round removes the diagonal gap: the exact value is 175/324
    true_value = Fraction(175, 324)
    for K in (3, 5, 7):
        lower, upper = fast_ends(fast_bounds(1, K))
        assert lower <= true_value <= upper


def test_fast_bounds_level_two_catches_true_value():
    # two rounds: 5/9 minus the first two removed-measure increments
    true_value = Fraction(5, 9) - Fraction(5, 324) - Fraction(859, 2099520)
    lower, upper = fast_ends(fast_bounds(2, 6))
    assert lower <= true_value <= upper


def pairwise_product(s: IntervalSet, t: IntervalSet | None = None) -> IntervalSet:
    """P(S x T) straight from its definition: every pair's product, one union."""
    t = s if t is None else t
    return IntervalSet([Interval(a.lo * b.lo, a.hi * b.hi) for a in s for b in t])


endpoints = st.fractions(min_value=0, max_value=3, max_denominator=12)
interval_sets = st.lists(st.tuples(endpoints, endpoints), max_size=6).map(
    lambda pairs: IntervalSet([Interval(min(p), max(p)) for p in pairs])
)


@settings(derandomize=True, deadline=None)
@given(interval_sets, interval_sets)
def test_product_image_matches_pairwise_union(s, t):
    assert product_image(s, t) == pairwise_product(s, t)
    assert product_image(s) == pairwise_product(s)


def test_fast_bounds_match_pairwise_oracle():
    # the scaled-integer sweep against the plain Fraction union of all pairs,
    # exactly, on both ends of every affordable small bracket
    cases = [(n, K) for n in range(3) for K in range(1, 5)] + [(3, 2)]
    for n, K in cases:
        sub = fast_subdivision(n, K)
        inner = pairwise_product(sub.inner)
        outer = pairwise_product(sub.outer)
        r = fast_bounds(n, K)
        assert fast_ends(r) == (inner.measure(), outer.measure()), (n, K)
        assert r.component_count_inner == len(inner), (n, K)
        assert r.component_count_outer == len(outer), (n, K)


def test_fast_bounds_match_interval_set_route():
    # the integer ends read from the addresses against the route they replace:
    # the public fast_subdivision brackets swept through the lcm scale, and
    # through product_image, the oracle's own sweep, which shares no code
    # with _rows
    cases = [(n, K) for n in range(3) for K in range(1, 11)] + [(3, K) for K in range(1, 6)]
    for n, K in cases:
        sub = fast_subdivision(n, K)
        r = fast_bounds(n, K)
        lower, upper = fast_ends(r)
        assert (lower, r.component_count_inner) == self_product_stats(sub.inner), (n, K)
        assert (upper, r.component_count_outer) == self_product_stats(sub.outer), (n, K)
        inner, outer = product_image(sub.inner), product_image(sub.outer)
        assert (lower, r.component_count_inner) == (inner.measure(), len(inner)), (n, K)
        assert (upper, r.component_count_outer) == (outer.measure(), len(outer)), (n, K)


def test_fast_bounds_builds_no_interval_set(monkeypatch):
    # both ways to build a set, the canonicalising constructor and the int bridge
    built = []
    init, bridge = IntervalSet.__init__, IntervalSet._from_ends

    def counted_init(self, items=()):
        built.append("init")
        init(self, items)

    def counted_bridge(cls, los, his, den):
        built.append("ends")
        return bridge(los, his, den)

    monkeypatch.setattr(IntervalSet, "__init__", counted_init)
    monkeypatch.setattr(IntervalSet, "_from_ends", classmethod(counted_bridge))
    product_image(IntervalSet([["0", "1"]]))
    assert set(built) == {"init", "ends"}  # the probe sees both
    built.clear()
    fast_bounds(2, 4)
    assert built == []


def test_sweep_merges_rows_as_they_arrive(monkeypatch):
    # fragmented rows grow the collected ends past twice what the last merge
    # kept, so the sweep merges them mid-way; the union must not change
    merged = []

    def counted(los, his):
        merged.append(len(los))
        return _merge_ends(los, his)

    monkeypatch.setattr(products, "_merge_ends", counted)
    sub = fast_subdivision(1, 4)
    for s in (sub.outer, sub.inner):
        merged.clear()
        expected = pairwise_product(s)
        assert self_product_stats(s) == (expected.measure(), len(expected))
        assert len(merged) > 1  # a merge mid-way, and the final one


def test_self_products_share_one_kernel(monkeypatch):
    # fast_bounds and self_product_stats reach the sweep only through
    # _self_product, and product_image, their oracle, reaches neither
    calls = {"_rows": 0, "_self_product": 0}
    for name in calls:
        def counted(*args, _name=name, _wrapped=getattr(products, name), **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(products, name, counted)

    def count(run):
        calls.update(dict.fromkeys(calls, 0))
        run()
        return calls["_rows"], calls["_self_product"]

    two = IntervalSet([["0", "1/3"], ["2/3", "1"]])
    assert count(lambda: fast_bounds(2, 3)) == (2, 2)
    assert count(lambda: self_product_stats(RIGHT)) == (1, 1)
    assert count(lambda: product_image(RIGHT, two)) == (0, 0)
    assert count(lambda: product_image(two)) == (0, 0)


def test_fast_bounds_json_shape():
    r = fast_bounds(1, 2)
    data = r.to_json(digits=8)
    assert data["n"] == 1
    assert data["gap_depth"] == 2
    assert set(data) == {
        "n",
        "gap_depth",
        "lower",
        "upper",
        "width",
        "decimal_lower",
        "decimal_upper",
        "component_count_inner",
        "component_count_outer",
        "elapsed_ms",
    }


def test_fast_bounds_rejects_out_of_range():
    with pytest.raises(ValueError):
        fast_bounds(4, 2)
    with pytest.raises(ValueError):
        fast_bounds(2, 11)


def test_routes_agree_on_common_ground():
    # the standard enclosure of the full measure and the theorem-level bracket
    # computed from the fast route must overlap once both are scaled
    std_lo, std_hi = (Fraction(*end) for end in standard_estimate(3).full_bounds())
    _, fast_hi = fast_ends(fast_bounds(2, 5))
    scaled_hi = Fraction(3, 2) * fast_hi
    # level-2 fast brackets measure(P(D_2 x D_2)) >= measure(P(R x R)), so
    # only the upper end is directly comparable: it must clear the lower
    # standard bound
    assert scaled_hi >= std_lo
    assert std_lo < std_hi


# ---------------------------------------------------------------------------
# the records' int route against the Fraction route it replaced


def format_rational_oracle(x: Fraction) -> str:
    """`intervals.format_rational` as it was before `ternary.format_ratio`."""
    return f"{x.numerator}/{x.denominator}"


def decimal_string_oracle(x: Fraction, digits: int) -> str:
    """`intervals.decimal_string` as it was before `ternary.decimal_ratio`."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scaled, rem = divmod(abs(x.numerator) * 10**digits, x.denominator)
    whole, frac = divmod(scaled, 10**digits)
    text = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    return ("-" if x < 0 else "") + text + ("..." if rem else "")


def estimate_json_oracle(n, set_measure, tail_bound, full_value, component_count, elapsed_ms,
                         digits):
    """`EstimateResult.to_json` as it was when the record held Fractions."""
    return {
        "n": n,
        "set_measure": format_rational_oracle(set_measure),
        "tail_bound": format_rational_oracle(tail_bound),
        "full_value": format_rational_oracle(full_value),
        "decimal": decimal_string_oracle(full_value, digits),
        "component_count": component_count,
        "elapsed_ms": elapsed_ms,
    }


def fast_json_oracle(n, gap_depth, lower, upper, component_count_inner, component_count_outer,
                     elapsed_ms, digits):
    """`FastBounds.to_json` as it was when the record held Fractions."""
    return {
        "n": n,
        "gap_depth": gap_depth,
        "lower": format_rational_oracle(lower),
        "upper": format_rational_oracle(upper),
        "width": format_rational_oracle(upper - lower),
        "decimal_lower": decimal_string_oracle(lower, digits),
        "decimal_upper": decimal_string_oracle(upper, digits),
        "component_count_inner": component_count_inner,
        "component_count_outer": component_count_outer,
        "elapsed_ms": elapsed_ms,
    }


def test_estimate_record_matches_fraction_route():
    # every level the route accepts, with elapsed_ms carried over as the mask
    half = Fraction(3, 2)
    for n in range(21):
        est = standard_estimate(n)
        scaled, count, den = band_merge_stats(max(n, 1))
        measure = Fraction(scaled, den)
        tail = Fraction(1, 63) * Fraction(2, 9) ** max(n - 1, 0)
        full = half * measure
        assert (est.scaled_measure, est.scale, est.component_count) == (scaled, den, count), n
        fields = (est.scaled_measure, est.scale, *convergence_tail(n), *sum(est.full_bounds(), ()))
        assert [type(value) for value in fields] == [int] * 8, n
        ends = (half * (measure - tail), half * measure)
        assert est.full_bounds() == tuple((x.numerator, x.denominator) for x in ends), n
        assert convergence_tail(n) == (tail.numerator, tail.denominator), n
        for digits in (1, 12, 50):
            assert est.to_json(digits) == estimate_json_oracle(
                n, measure, tail, full, count, est.elapsed_ms, digits), (n, digits)


def test_fast_record_matches_fraction_route():
    # the ends as the lcm sweep over the public brackets gives them
    cases = [(n, K) for n in range(3) for K in range(1, 7)] + [(3, K) for K in range(1, 4)]
    for n, K in cases:
        sub = fast_subdivision(n, K)
        lower, count_inner = self_product_stats(sub.inner)
        upper, count_outer = self_product_stats(sub.outer)
        r = fast_bounds(n, K)
        assert fast_ends(r) == (lower, upper), (n, K)
        fields = (r.scaled_lower, r.scaled_upper, r.scale)
        assert [type(value) for value in fields] == [int] * 3, (n, K)
        for digits in (1, 12, 50):
            assert r.to_json(digits) == fast_json_oracle(
                n, K, lower, upper, count_inner, count_outer, r.elapsed_ms, digits), (n, K, digits)


huge = st.integers(-(10**90), 10**90)
numerators = st.integers(-(10**6), 10**6) | huge
denominators = st.integers(1, 10**6) | st.integers(1, 10**90)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(numerators, denominators | denominators.map(lambda q: -q),
       st.sampled_from([0, 1, 2, 12, 50]))
@example(0, 7, 3)
@example(0, -7, 0)
@example(-12, 4, 2)
@example(5, 1, 12)
@example(-1, 10**9, 5)
@example(3**200 + 1, -(2**300), 50)
def test_text_kernels_match_fraction_oracles(p, q, digits):
    x = Fraction(p, q)
    assert format_ratio(p, q) == format_rational_oracle(x)
    assert decimal_ratio(x.numerator, x.denominator, digits) == decimal_string_oracle(x, digits)
    if q > 0:
        assert decimal_ratio(p, q, digits) == decimal_string_oracle(x, digits)
    assert format_rational(x) == format_rational_oracle(x)
    assert decimal_string(x, digits) == decimal_string_oracle(x, digits)

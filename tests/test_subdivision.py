"""Tests for triadic subdivisions, the truncated fast scheme, and membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorprod.gaps import child_cell, side_piece
from cantorprod.intervals import Interval, IntervalSet
from cantorprod.products import product_image
from cantorprod.subdivision import (
    ROOT,
    _cover,
    _ends,
    _fast_tree,
    _leaves,
    _rounds,
    FastNode,
    fast_subdivision,
    gap_set,
    node_child,
    node_children,
    removed_gaps,
    right_half_subdivision,
    squared_length_sum,
    standard_subdivision,
)
from cantorprod.ternary import Membership, cantor_membership, classify_ternary, ternary_expansion

UNIT = IntervalSet([["0", "1"]])
RIGHT = IntervalSet([["2/3", "1"]])


# ---------------------------------------------------------------------------
# standard subdivision


def ternary_digits(m: int) -> set[int]:
    digits = set()
    while m:
        m, digit = divmod(m, 3)
        digits.add(digit)
    return digits


def test_numerators_are_the_ternary_words_without_digit_one():
    for n in range(10):
        assert _leaves(FastNode(0, 0), n) == [m for m in range(3**n) if 1 not in ternary_digits(m)]


def test_standard_level_zero_and_one():
    assert standard_subdivision(0) == UNIT
    assert standard_subdivision(1) == IntervalSet([["0", "1/3"], ["2/3", "1"]])


def test_standard_counts_and_measure():
    for n in range(8):
        s = standard_subdivision(n)
        assert len(s) == 2**n
        assert s.measure() == Fraction(2, 3) ** n
        assert all(i.length == Fraction(1, 3**n) for i in s)


def test_standard_nesting():
    for n in range(7):
        assert standard_subdivision(n + 1).subset_of(standard_subdivision(n))


def test_standard_symmetric_about_half():
    for n in range(6):
        s = standard_subdivision(n)
        mirrored = IntervalSet(Interval(1 - i.hi, 1 - i.lo) for i in s)
        assert mirrored == s


def test_standard_rejects_negative():
    with pytest.raises(ValueError):
        standard_subdivision(-1)


# ---------------------------------------------------------------------------
# right half


def test_right_half_small_levels():
    assert right_half_subdivision(0) == RIGHT
    assert right_half_subdivision(1) == RIGHT
    assert right_half_subdivision(2) == IntervalSet([["2/3", "7/9"], ["8/9", "1"]])
    with pytest.raises(ValueError):
        right_half_subdivision(-1)


def test_right_half_is_intersection_with_right_third():
    for n in range(1, 8):
        expected = standard_subdivision(n).intersection(RIGHT)
        assert right_half_subdivision(n) == expected


def test_right_half_counts_and_measure():
    for n in range(1, 9):
        r = right_half_subdivision(n)
        assert len(r) == 2 ** (n - 1)
        assert r.measure() == Fraction(2, 3) ** n / 2


# ---------------------------------------------------------------------------
# gap family


def test_gap_set_measure_formula():
    for K in range(9):
        g = gap_set(K)
        assert g.measure() == Fraction(2, 3) - Fraction(1, 3 ** (K + 1))
        assert len(g) == 2 * K + 1


def test_gap_set_zero_is_central_gap():
    assert gap_set(0) == IntervalSet([["1/3", "2/3"]])
    with pytest.raises(ValueError):
        gap_set(-1)


def test_gap_set_nested_and_disjoint_from_survivors():
    for K in range(6):
        assert gap_set(K).subset_of(gap_set(K + 1))
        # every listed gap is deleted by level K+1 of the standard subdivision
        survivors = standard_subdivision(K + 1)
        assert gap_set(K).intersection(survivors).measure() == 0


def test_gap_set_complement_measure():
    for K in range(8):
        rest = UNIT.difference(gap_set(K))
        assert rest.measure() == Fraction(1, 3) + Fraction(1, 3 ** (K + 1))


# ---------------------------------------------------------------------------
# fast nodes


def test_root_cell():
    assert ROOT.cell == Interval(Fraction(2, 3), Fraction(1))
    assert ROOT.m == 2
    assert ROOT._replace(m=0) == FastNode(0, 1)


def test_node_child_pinned_addresses():
    low = node_child(ROOT, 1, high_side=False)
    high = node_child(ROOT, 1, high_side=True)
    assert (low.m, low.k) == (20, 3)
    assert (high.m, high.k) == (24, 3)
    assert low.cell == Interval(Fraction(20, 27), Fraction(7, 9))
    assert high.cell == Interval(Fraction(8, 9), Fraction(25, 27))
    with pytest.raises(ValueError):
        node_child(ROOT, 0, high_side=False)


def test_node_child_matches_affine_route():
    # the recursive address must agree with mapping the root's child cell
    # affinely into the parent cell
    rng = random.Random(71)
    nodes = [ROOT]
    for _ in range(40):
        node = rng.choice(nodes)
        k = rng.randint(1, 4)
        side = rng.random() < 0.5
        child = node_child(node, k, high_side=side)
        template = node_child(ROOT, k, high_side=side).cell
        # express the template in the root cell's local [0, 1] coordinates,
        # then map it onto the parent cell
        root_lo, root_len = ROOT.cell.lo, ROOT.cell.length
        local = Interval((template.lo - root_lo) / root_len, (template.hi - root_lo) / root_len)
        mapped = IntervalSet([local]).affine_image(node.cell)
        assert mapped == IntervalSet([child.cell])
        if len(nodes) < 25:
            nodes.append(child)


def test_genuine_nodes_keep_q_equal_m():
    rng = random.Random(73)
    for _ in range(100):
        node = ROOT
        depth = rng.randint(1, 4)
        for _ in range(depth):
            node = node_child(node, rng.randint(1, 5), high_side=rng.random() < 0.5)
        assert node.cell.lo / node.length == node.m  # q, left end over length, is m
        assert node.m >= 2 * 9**depth


def test_node_children_ordering():
    for K in (1, 2, 4):
        kids = node_children(ROOT, K)
        assert len(kids) == 2 * K
        cells = [c.cell for c in kids]
        for a, b in zip(cells, cells[1:]):
            assert a.hi < b.lo
        assert all(ROOT.cell.lo <= c.lo and c.hi <= ROOT.cell.hi for c in cells)
    with pytest.raises(ValueError):
        node_children(ROOT, 0)


def appended(node: FastNode, digits) -> FastNode:
    """The address `node` followed by `digits`, one ternary digit at a time."""
    m, k = node
    for digit in digits:
        m, k = 3 * m + digit, k + 1
    return FastNode(m, k)


def test_leaves_append_every_word_without_digit_one():
    for node in (FastNode(0, 0), ROOT, node_child(ROOT, 2, high_side=True)):
        for j in range(6):
            words = [[]]
            for _ in range(j):
                words = [w + [d] for w in words for d in (0, 2)]
            assert _leaves(node, j) == [appended(node, w).m for w in words]
    with pytest.raises(ValueError):
        _leaves(ROOT, -1)


def test_fast_tree_addresses_are_appended_words():
    # every subdivided cell of the n <= 3 trees, every tracked child index:
    # E_k = I 0^k 2 and F_k = I 2^k 0, as the geometric route places them;
    # the hull tails are I 0^(K+1) and I 2^(K+1), the outermost side pieces
    for K in range(1, 9):
        parents, _ = _rounds(3, K)
        for parent in parents:
            for k in range(1, K + 1):
                low = node_child(parent, k, high_side=False)
                high = node_child(parent, k, high_side=True)
                assert low == appended(parent, [0] * k + [2])
                assert high == appended(parent, [2] * k + [0])
                assert low.cell == child_cell(parent, k, high_side=False)
                assert high.cell == child_cell(parent, k, high_side=True)
        inner, outer, depth = _fast_tree(3, K)
        assert depth == 1 + 3 * (K + 1)
        tails = outer[len(inner):]
        assert outer[: len(inner)] == inner
        assert tails == [appended(p, [d] * (K + 1)) for p in parents for d in (0, 2)]
        for tail, (parent, high) in zip(tails, ((p, h) for p in parents for h in (False, True))):
            assert tail.cell == side_piece(parent, K + 1, high)
        # the integer ends at the one scale 3^depth are the cells' ends
        los, his = _ends(outer, depth)
        den = 3**depth
        assert [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in zip(los, his)] == [
            (node.cell.lo, node.cell.hi) for node in outer
        ]


# ---------------------------------------------------------------------------
# fast subdivision


def test_fast_zero_rounds():
    sub = fast_subdivision(0, 3)
    assert sub.inner == RIGHT
    assert sub.outer == RIGHT


def test_fast_one_round_pinned():
    sub = fast_subdivision(1, 1)
    assert sub.inner == IntervalSet([["20/27", "7/9"], ["8/9", "25/27"]])
    assert sub.outer == IntervalSet(
        [["2/3", "19/27"], ["20/27", "7/9"], ["8/9", "25/27"], ["26/27", "1"]]
    )


def test_fast_one_round_outer_inner_gap():
    # after one round the hull tails are all that separates the brackets
    for K in range(1, 7):
        sub = fast_subdivision(1, K)
        assert sub.outer.measure() - sub.inner.measure() == Fraction(2, 3 ** (K + 2))


def test_fast_brackets_nest():
    for n in (1, 2):
        subs = [fast_subdivision(n, K) for K in range(1, 6)]
        for a, b in zip(subs, subs[1:]):
            assert a.inner.subset_of(b.inner)
            assert b.outer.subset_of(a.outer)
        for sub in subs:
            assert sub.inner.subset_of(sub.outer)


def test_fast_inner_endpoints_are_members():
    sub = fast_subdivision(2, 2)
    for cell in sub.inner:
        assert cantor_membership(cell.lo) is Membership.MEMBER
        assert cantor_membership(cell.hi) is Membership.MEMBER


def test_fast_outer_covers_right_half_refinements():
    # the outer bracket must contain every genuine surviving cell, in
    # particular the inner bracket of any deeper truncation
    wide = fast_subdivision(2, 6).inner
    assert wide.subset_of(fast_subdivision(2, 2).outer)


def test_fast_refuses_huge_tracking():
    with pytest.raises(ValueError):
        fast_subdivision(12, 10)
    with pytest.raises(ValueError):
        fast_subdivision(-1, 2)
    with pytest.raises(ValueError):
        fast_subdivision(1, 0)
    # removed_gaps walks the same rounds, so it refuses the same inputs
    with pytest.raises(ValueError):
        removed_gaps(12, 10)
    with pytest.raises(ValueError):
        removed_gaps(-1, 2)
    with pytest.raises(ValueError):
        removed_gaps(1, 0)


def test_removed_gaps_partition_with_outer():
    # what the rounds delete plus what the outer bracket keeps is exactly
    # the starting cell, with no overlap
    for n, K in ((1, 1), (1, 4), (2, 2), (3, 2)):
        sub = fast_subdivision(n, K)
        gaps = removed_gaps(n, K)
        assert sub.outer.union(gaps) == RIGHT
        assert sub.outer.measure() + gaps.measure() == Fraction(1, 3)
        assert sub.inner.intersection(gaps).measure() == 0


def test_removed_gaps_one_round_is_scaled_gap_family():
    for K in (1, 3):
        expected = gap_set(K).affine_image(Interval(Fraction(2, 3), Fraction(1)))
        assert removed_gaps(1, K) == expected


def test_gap_midpoints_are_non_members():
    gaps = removed_gaps(2, 3)
    for g in gaps:
        mid = (g.lo + g.hi) / 2
        assert cantor_membership(mid) is Membership.NON_MEMBER


# ---------------------------------------------------------------------------
# squared lengths


def test_squared_length_sum_round_zero_hits_limit():
    truncated, limit = squared_length_sum(0, 1)
    assert truncated == limit == Fraction(1, 9)


def test_squared_length_sum_truncation_below_limit():
    for n in (1, 2):
        values = []
        for K in range(1, 7):
            truncated, limit = squared_length_sum(n, K)
            assert limit == Fraction(1, 9) * Fraction(1, 36) ** n
            assert truncated < limit
            values.append(truncated)
        assert values == sorted(values)


def test_squared_length_sum_one_round_closed_form():
    for K in range(1, 8):
        truncated, _ = squared_length_sum(1, K)
        expected = 2 * sum(Fraction(1, 9 ** (k + 2)) for k in range(1, K + 1))
        assert truncated == expected


# ---------------------------------------------------------------------------
# covers merged on ints against the per-cell Fraction route they replace


def standard_oracle(n: int) -> IntervalSet:
    return IntervalSet(FastNode(m, n).cell for m in _leaves(FastNode(0, 0), n))


def right_half_oracle(n: int) -> IntervalSet:
    level = max(n, 1)
    return IntervalSet(FastNode(m, level).cell for m in _leaves(ROOT, level - 1))


def gap_set_oracle(K: int) -> IntervalSet:
    gaps = [Interval(Fraction(1, 3), Fraction(2, 3))]
    for k in range(1, K + 1):
        den = 3 ** (k + 1)
        gaps.append(Interval(Fraction(1, den), Fraction(2, den)))
        gaps.append(Interval(Fraction(den - 2, den), Fraction(den - 1, den)))
    return IntervalSet(gaps)


def fast_oracle(n: int, K: int) -> tuple[IntervalSet, IntervalSet]:
    inner, outer, _ = _fast_tree(n, K)
    return IntervalSet(node.cell for node in inner), IntervalSet(node.cell for node in outer)


def removed_gaps_oracle(n: int, K: int) -> IntervalSet:
    parents, _ = _rounds(n, K)
    base = gap_set_oracle(K)
    return IntervalSet(gap for node in parents for gap in base.affine_image(node.cell))


def squared_length_oracle(n: int, K: int) -> Fraction:
    _, level = _rounds(n, K)
    return sum((node.length**2 for node in level), Fraction(0))


FAST_CASES = [(n, K) for n in range(3) for K in range(1, 9)] + [(3, K) for K in range(1, 7)]


def test_standard_and_right_half_match_their_oracles():
    for n in range(13):
        assert standard_subdivision(n) == standard_oracle(n), n
    for n in range(15):
        assert right_half_subdivision(n) == right_half_oracle(n), n


def test_gap_set_matches_its_oracle():
    for K in range(31):
        assert gap_set(K) == gap_set_oracle(K), K


def test_fast_routes_match_their_oracles():
    for n, K in FAST_CASES:
        assert tuple(fast_subdivision(n, K)) == fast_oracle(n, K), (n, K)
        assert removed_gaps(n, K) == removed_gaps_oracle(n, K), (n, K)
        assert squared_length_sum(n, K)[0] == squared_length_oracle(n, K), (n, K)


def cell_at(k: int):
    return st.builds(FastNode, st.integers(0, 3**k - 1), st.just(k))


@st.composite
def address_lists(draw):
    """Addresses at mixed depths with nested, touching and repeated cells, and a depth."""
    nodes = draw(st.lists(st.integers(0, 5).flatmap(cell_at), max_size=8))
    extra = []
    for m, k in nodes:
        kind = draw(st.sampled_from(["none", "nested", "touching", "repeated"]))
        j = draw(st.integers(0, 3))
        if kind == "nested":
            extra.append(FastNode(m * 3**j + draw(st.integers(0, 3**j - 1)), k + j))
        elif kind == "touching" and m + 1 < 3**k:  # the left end of the next cell, j deeper
            extra.append(FastNode((m + 1) * 3**j, k + j))
        elif kind == "repeated":
            extra.append(FastNode(m, k))
    nodes = draw(st.permutations(nodes + extra))
    return nodes, max((k for _, k in nodes), default=0) + draw(st.integers(0, 2))


@settings(derandomize=True, deadline=None)
@given(address_lists())
def test_cover_matches_the_per_cell_union(case):
    nodes, depth = case
    assert _cover(nodes, depth) == IntervalSet(node.cell for node in nodes)


def test_covers_build_no_cell_and_call_no_canonicaliser(monkeypatch):
    # the sets and the product image come from integer ends: no FastNode.cell
    # or .length, and no IntervalSet.__init__, whose merge runs on Fractions
    seen = []
    init = IntervalSet.__init__

    def counted_init(self, items=()):
        seen.append("init")
        init(self, items)

    monkeypatch.setattr(IntervalSet, "__init__", counted_init)
    for name in ("cell", "length"):
        monkeypatch.setattr(FastNode, name, property(lambda node, name=name: seen.append(name)))
    standard_subdivision(4)
    right_half_subdivision(0)
    right_half_subdivision(5)
    product_image(fast_subdivision(2, 3).outer)
    gap_set(4)
    removed_gaps(2, 3)
    squared_length_sum(2, 3)
    assert seen == []
    ROOT.cell
    IntervalSet([["2/3", "1"]])
    assert seen == ["cell", "init"]  # the probe sees both


# ---------------------------------------------------------------------------
# membership


@pytest.mark.parametrize(
    "x, verdict",
    [
        (Fraction(0), Membership.MEMBER),
        (Fraction(1), Membership.MEMBER),
        (Fraction(1, 3), Membership.MEMBER),
        (Fraction(2, 3), Membership.MEMBER),
        (Fraction(1, 4), Membership.MEMBER),
        (Fraction(3, 4), Membership.MEMBER),
        (Fraction(1, 2), Membership.NON_MEMBER),
        (Fraction(1, 6), Membership.NON_MEMBER),
        (Fraction(4, 9), Membership.NON_MEMBER),
        (Fraction(5, 9), Membership.NON_MEMBER),
        (Fraction(7, 27), Membership.MEMBER),
    ],
)
def test_membership_spot_checks(x, verdict):
    assert cantor_membership(x) is verdict


def test_membership_symmetry():
    rng = random.Random(79)
    for _ in range(150):
        x = Fraction(rng.randint(0, 200), rng.randint(1, 200))
        if x > 1:
            x = 1 / x
        assert cantor_membership(x) is cantor_membership(1 - x)


def test_membership_closed_under_thirds():
    rng = random.Random(83)
    for _ in range(100):
        x = Fraction(rng.randint(0, 120), rng.randint(1, 120))
        if x > 1:
            x = 1 / x
        if cantor_membership(x) is Membership.MEMBER:
            assert cantor_membership(x / 3) is Membership.MEMBER
            assert cantor_membership((x + 2) / 3) is Membership.MEMBER


def test_membership_of_constructed_digit_strings():
    rng = random.Random(89)
    for _ in range(100):
        digits = [rng.choice((0, 2)) for _ in range(rng.randint(1, 12))]
        x = sum(Fraction(d, 3 ** (i + 1)) for i, d in enumerate(digits))
        assert cantor_membership(x) is Membership.MEMBER
        # flipping any digit to 1 with a nonzero continuation leaves the set
        pos = rng.randrange(len(digits))
        y = x + Fraction(1 - digits[pos], 3 ** (pos + 1)) + Fraction(1, 3 ** (len(digits) + 2))
        assert cantor_membership(y) is Membership.NON_MEMBER


def _ternary_value(digits, cycle=()):
    """The value of 0.digits(cycle)* in base 3."""
    head = Fraction(int("".join(map(str, digits)) or "0", 3), 3 ** len(digits))
    if not cycle:
        return head
    period = Fraction(int("".join(map(str, cycle)), 3), 3 ** len(cycle) - 1)
    return head + period / 3 ** len(digits)


@st.composite
def digit_built_members(draw):
    """Digits 0 and 2 with an optional cycle that is not all zeros, or ending in one 1."""
    digits = draw(st.lists(st.sampled_from([0, 2]), max_size=8))
    if draw(st.booleans()):
        return _ternary_value(digits + [1])
    cycle = draw(st.lists(st.sampled_from([0, 2]), max_size=6).filter(lambda c: not c or 2 in c))
    return _ternary_value(digits, cycle)


@st.composite
def digit_built_gap_points(draw):
    """A digit 1 followed later by a nonzero digit, either a last digit or in a cycle.

    All-0 and all-2 cycles are left out: 0.1(0)* and 0.1(2)* = 0.2 are members.
    """
    digits = draw(st.lists(st.integers(0, 2), max_size=6)) + [1]
    digits += draw(st.lists(st.integers(0, 2), max_size=4))
    if draw(st.booleans()):
        return _ternary_value(digits + [draw(st.integers(1, 2))])
    cycle = draw(
        st.lists(st.integers(0, 2), min_size=1, max_size=5).filter(
            lambda c: any(c) and any(d != 2 for d in c)
        )
    )
    return _ternary_value(digits, cycle)


@settings(derandomize=True, deadline=None)
@given(digit_built_members(), digit_built_gap_points())
def test_membership_of_digit_built_points(member, gap_point):
    assert classify_ternary(member)[0] is Membership.MEMBER
    assert classify_ternary(gap_point)[0] is Membership.NON_MEMBER


def test_ternary_expansion_strings():
    assert str(ternary_expansion(Fraction(1, 4))) == "0.(02)*"
    assert str(ternary_expansion(Fraction(1, 3))) == "0.1"
    assert str(ternary_expansion(Fraction(2, 3))) == "0.2"
    assert str(ternary_expansion(Fraction(1))) == "0.(2)*"
    assert str(ternary_expansion(Fraction(0))) == "0"
    assert str(ternary_expansion(Fraction(5, 9))) == "0.12"


def test_ternary_expansion_reconstructs_value():
    rng = random.Random(97)
    for _ in range(150):
        x = Fraction(rng.randint(0, 150), rng.randint(1, 150))
        if x > 1:
            x = 1 / x
        exp = ternary_expansion(x)
        assert exp.complete
        head = sum(Fraction(d, 3 ** (i + 1)) for i, d in enumerate(exp.digits))
        if exp.period:
            p = exp.period
            tail_digits = exp.digits[exp.preperiod :]
            tail = sum(Fraction(d, 3 ** (i + 1)) for i, d in enumerate(tail_digits))
            value = sum(
                Fraction(d, 3 ** (i + 1)) for i, d in enumerate(exp.digits[: exp.preperiod])
            )
            value += tail / (3**exp.preperiod) * Fraction(3**p, 3**p - 1)
            assert value == x
        else:
            assert head == x


def test_ternary_expansion_rejects_out_of_range():
    with pytest.raises(ValueError):
        ternary_expansion(Fraction(-1, 2))
    with pytest.raises(ValueError):
        ternary_expansion(Fraction(3, 2))


def test_membership_digit_budget_exhaustion():
    verdict, exp = classify_ternary(Fraction(1, 257), max_digits=3)
    assert verdict is Membership.UNDETERMINED
    assert not exp.complete
    assert str(exp).endswith("...")

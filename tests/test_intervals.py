"""Tests for the exact interval-set arithmetic layer."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod.intervals import (
    Interval,
    IntervalSet,
    _merge_ends,
    decimal_string,
    format_rational,
    rat,
)
from cantorprod.ternary import parse_ratio


def random_set(rng: random.Random, pieces: int = 5, den: int = 60) -> IntervalSet:
    """A small random union of closed intervals with denominator <= den."""
    items = []
    for _ in range(rng.randint(0, pieces)):
        a = Fraction(rng.randint(0, den), den)
        b = Fraction(rng.randint(0, den), den)
        if a > b:
            a, b = b, a
        items.append(Interval(a, b))
    return IntervalSet(items)


# ---------------------------------------------------------------------------
# rational helpers; rat reads "p/q" texts (the parse_rational tests keep
# their names)


def test_parse_rational_basic():
    assert rat("5/9") == Fraction(5, 9)
    assert rat(" 7 ") == Fraction(7)
    assert rat("-2/3") == Fraction(-2, 3)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "5/0", "a/b", "1/2/3", ""])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        rat(bad)


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert rat(format_rational(x)) == x


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("2/3") == Fraction(2, 3)
    assert rat(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        rat(0.5)  # type: ignore[arg-type]


def rat_reference(value):
    """The four-branch `rat` that `ternary._ratio` replaced, kept as its oracle."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*parse_ratio(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def read_outcome(read, value):
    """("value", the Fraction read) or (the exception's type, its message)."""
    try:
        result = read(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(result) is Fraction
    return "value", result


# the explicit texts of test_ternary's parser test, and a few more
RAT_TEXTS = ["", " -6/-8 ", "1_000/1_0", "0/-5", "5/0", "1/2/3", "1e3", "9" * 5000,
             "0.5", "1e-3", " 5/9 ", "-2/3", "+7", "१/٣"]
rat_values = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.fractions(),
    st.text(st.sampled_from("0123456789+-_/. eE१٣"), max_size=10),
    st.sampled_from([0.5, None, (1, 4), b"1/4"]),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(rat_values)
def test_rat_matches_the_four_branch_reader(value):
    assert read_outcome(rat, value) == read_outcome(rat_reference, value)
    if isinstance(value, Fraction):
        assert rat(value) is value


def test_rat_matches_the_four_branch_reader_on_examples():
    for value in [0, 7, -(10**30), True, False, Fraction(-3, 4), *RAT_TEXTS,
                  0.5, None, (1, 4), b"1/4"]:
        assert read_outcome(rat, value) == read_outcome(rat_reference, value)


def test_decimal_string_truncates_not_rounds():
    assert decimal_string(Fraction(5, 9), 6) == "0.555555..."
    assert decimal_string(Fraction(1, 4), 2) == "0.25"
    assert decimal_string(Fraction(1, 4), 1) == "0.2..."
    assert decimal_string(Fraction(-5, 9), 3) == "-0.555..."
    assert decimal_string(Fraction(2), 0) == "2"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1, 3), -1)


def test_text_helpers_read_through_ratio():
    # a float is rat's TypeError, not an AttributeError on .numerator, and a
    # text is read as the value it names
    for bad in (0.5, None, (1, 4)):
        with pytest.raises(TypeError, match="cannot interpret"):
            format_rational(bad)  # type: ignore[arg-type]
        with pytest.raises(TypeError, match="cannot interpret"):
            decimal_string(bad, 3)  # type: ignore[arg-type]
    assert format_rational("2/4") == "1/2"
    assert format_rational(" -6/-8 ") == "3/4"
    assert format_rational(3) == "3/1"
    assert decimal_string("5/9", 6) == "0.555555..."
    assert decimal_string(-2, 2) == "-2.00"
    with pytest.raises(ValueError):
        format_rational("0.5")


def _decimal_reference(x, digits):
    """Digit-by-digit long division: the loop decimal_string used before it
    took one integer division, kept as its oracle."""
    sign = "-" if x < 0 else ""
    num, den = abs(x).numerator, abs(x).denominator
    whole, rem = divmod(num, den)
    parts = [sign, str(whole)]
    if digits:
        frac_digits = []
        for _ in range(digits):
            rem *= 10
            d, rem = divmod(rem, den)
            frac_digits.append(str(d))
        parts.append(".")
        parts.extend(frac_digits)
    if rem:
        parts.append("...")
    return "".join(parts)


@settings(derandomize=True, deadline=None)
@given(
    st.fractions(max_denominator=10**6),
    st.sampled_from([0, 1, 2, 5, 12, 30, 50]),
)
@example(Fraction(-1, 3), 0)
@example(Fraction(-7, 8), 3)
@example(Fraction(1, 10**9), 5)
def test_decimal_string_matches_long_division(x, digits):
    assert decimal_string(x, digits) == _decimal_reference(x, digits)


def test_decimal_string_prefix_of_true_expansion():
    rng = random.Random(11)
    for _ in range(100):
        x = Fraction(rng.randint(0, 999), rng.randint(1, 999))
        s = decimal_string(x, 8)
        trunc = s.rstrip(".")
        # the truncated digits must bracket x from below within 1e-8
        approx = Fraction(trunc.replace(".", "")) / 10**8 if "." in trunc else Fraction(trunc)
        if "." in trunc:
            whole, frac = trunc.split(".")
            approx = Fraction(int(whole)) + Fraction(int(frac), 10 ** len(frac))
        assert approx <= x < approx + Fraction(1, 10**8)


# ---------------------------------------------------------------------------
# Interval


def test_interval_validation_and_length():
    i = Interval(Fraction(1, 3), Fraction(2, 3))
    assert i.length == Fraction(1, 3)
    assert i.contains(Fraction(1, 2))
    assert not i.contains(Fraction(3, 4))
    assert Interval(Fraction(1, 2), Fraction(1, 2)).length == 0
    with pytest.raises(ValueError):
        Interval(Fraction(2, 3), Fraction(1, 3))
    half = Interval(0, "1/2")
    assert half == Interval(Fraction(0), Fraction(1, 2))
    assert hash(half) == hash(Interval(Fraction(0), Fraction(1, 2)))
    assert half != (Fraction(0), Fraction(1, 2))
    with pytest.raises(AttributeError):
        half.lo = Fraction(1, 4)
    with pytest.raises(AttributeError):
        del half.hi
    assert len({half, Interval(0, "1/2"), Interval(Fraction(0), Fraction(1, 2))}) == 1
    assert pickle.loads(pickle.dumps(half)) == half


def test_interval_contains_reads_through_rat():
    unit = Interval(0, 1)
    with pytest.raises(TypeError):
        unit.contains(0.5)  # type: ignore[arg-type]
    assert unit.contains("1/2")
    assert unit.contains(1)
    assert not unit.contains("3/2")


def test_interval_json_round_trip():
    i = Interval(Fraction(4, 9), Fraction(1))
    assert i.to_json() == ["4/9", "1/1"]


# ---------------------------------------------------------------------------
# normalization


def test_normalize_merges_touching():
    s = IntervalSet([[0, 1], [1, 2]])
    assert list(s) == [Interval(Fraction(0), Fraction(2))]


def test_normalize_empty():
    assert list(IntervalSet([])) == []
    assert not IntervalSet()
    assert IntervalSet().measure() == 0


def test_normalize_sorts_and_merges_overlaps():
    s = IntervalSet([["1/3", "2/3"], ["0", "1/4"], ["1/2", "3/4"]])
    assert s == IntervalSet([["0", "1/4"], ["1/3", "3/4"]])
    assert len(s) == 2
    same = IntervalSet([[0, Fraction(1, 4)], ["1/3", "3/4"]])
    assert hash(same) == hash(s)
    assert len({s, same}) == 1


def test_normalize_idempotent():
    rng = random.Random(23)
    for _ in range(150):
        s = random_set(rng)
        again = IntervalSet(list(s))
        assert again == s


def test_normalize_permutation_invariant():
    rng = random.Random(29)
    for _ in range(150):
        raw = [
            Interval(Fraction(rng.randint(0, 40), 40), Fraction(rng.randint(40, 80), 40))
            for _ in range(rng.randint(1, 6))
        ]
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert IntervalSet(raw) == IntervalSet(shuffled)


endpoints = st.fractions(min_value=0, max_value=3, max_denominator=12)
unions = st.lists(st.tuples(endpoints, endpoints), max_size=6).map(
    lambda pairs: IntervalSet([Interval(min(p), max(p)) for p in pairs])
)


@settings(derandomize=True, deadline=None)
@given(unions, unions)
def test_canonical_form_and_inclusion_exclusion(a, b):
    for s in (a, b, a.union(b), a.intersection(b), a.difference(b)):
        comps = list(s)
        assert comps == sorted(comps, key=lambda iv: (iv.lo, iv.hi))
        assert all(x.hi < y.lo for x, y in zip(comps, comps[1:]))
        assert IntervalSet(comps) == s
    m = IntervalSet.measure
    assert m(a.union(b)) + m(a.intersection(b)) == m(a) + m(b)
    assert m(a.difference(b)) == m(a) - m(a.intersection(b))


def _sweep_reference(segs):
    """Components of a union of (lo, hi) pairs by sorting the pairs and sweeping.

    The tuple sort-and-sweep the products module used before _merge_ends; kept
    here as an independent oracle, since IntervalSet now merges through
    _merge_ends as well.
    """
    out = []
    for lo, hi in sorted(segs):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _segments(values):
    return st.lists(st.tuples(values, values), max_size=12).map(
        lambda pairs: [(min(p), max(p)) for p in pairs]
    )


@settings(derandomize=True, deadline=None)
@given(st.one_of(_segments(st.integers(0, 12)), _segments(endpoints)))
@example([])
@example([(3, 3)])
@example([(0, 1), (1, 2), (2, 2)])
@example([(0, 10), (2, 3), (4, 4), (1, 9)])
@example([(1, 2), (1, 2), (5, 5), (5, 5)])
@example([(Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 2), Fraction(2, 3))])
def test_merge_ends_matches_sort_and_sweep(segs):
    los, his = _merge_ends([lo for lo, _ in segs], [hi for _, hi in segs])
    assert list(zip(los, his)) == _sweep_reference(segs)


def _difference_reference(a, b):
    """The two-pointer walk IntervalSet.difference used before it became an
    intersection with b's gaps, kept as its oracle."""
    out = []
    cuts = [c for c in b.intervals if c.lo < c.hi]
    n = len(cuts)
    start = 0
    for iv in a.intervals:
        lo = iv.lo
        while start < n and cuts[start].hi <= iv.lo:
            start += 1
        j = start
        while j < n and cuts[j].lo < iv.hi:
            if cuts[j].lo > lo:
                out.append(Interval(lo, cuts[j].lo))
            if cuts[j].hi > lo:
                lo = cuts[j].hi
            j += 1
        if lo < iv.hi:
            out.append(Interval(lo, iv.hi))
    return out


def _with_points(values):
    # unions whose components are often single points, on both sides
    pieces = st.one_of(st.tuples(values, values), values.map(lambda x: (x, x)))
    return st.lists(pieces, max_size=8).map(
        lambda pairs: IntervalSet([Interval(min(p), max(p)) for p in pairs])
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(_with_points(st.integers(0, 12)), _with_points(endpoints)),
       st.one_of(_with_points(st.integers(0, 12)), _with_points(endpoints)))
@example(IntervalSet(), IntervalSet([[0, 1]]))
@example(IntervalSet([[0, 1]]), IntervalSet())
@example(IntervalSet([[0, 0], [2, 3]]), IntervalSet([[0, 2]]))
@example(IntervalSet([[1, 2]]), IntervalSet([[0, 1], [2, 2], [3, 4]]))
@example(IntervalSet([[1, 3]]), IntervalSet([[0, 2]]))
def test_difference_and_subset_match_their_oracles(a, b):
    assert list(a.difference(b)) == _difference_reference(a, b)
    inclusion = all(
        any(c.lo <= iv.lo and iv.hi <= c.hi for c in b) for iv in a
    )
    assert a.subset_of(b) == inclusion


def test_components_strictly_separated():
    rng = random.Random(31)
    for _ in range(150):
        comps = list(random_set(rng))
        for a, b in zip(comps, comps[1:]):
            assert a.hi < b.lo


# ---------------------------------------------------------------------------
# measure


def test_measure_pinned_values():
    assert IntervalSet([["2/3", "1"]]).measure() == Fraction(1, 3)
    assert IntervalSet([["2/3", "7/9"], ["8/9", "1"]]).measure() == Fraction(2, 9)
    assert IntervalSet([["4/9", "1"]]).measure() == Fraction(5, 9)


def test_measure_additive_on_disjoint_union():
    rng = random.Random(37)
    for _ in range(120):
        s = random_set(rng)
        t = random_set(rng)
        u = s.union(t)
        inter = s.intersection(t)
        assert u.measure() == s.measure() + t.measure() - inter.measure()


def test_measure_monotone_under_union():
    rng = random.Random(41)
    for _ in range(120):
        s = random_set(rng)
        t = random_set(rng)
        assert s.union(t).measure() >= max(s.measure(), t.measure())


# ---------------------------------------------------------------------------
# affine_image


def test_affine_identity():
    # mapping onto the unit interval leaves subsets of [0, 1] unchanged
    rng = random.Random(43)
    unit = Interval(Fraction(0), Fraction(1))
    for _ in range(100):
        s = random_set(rng, den=40)
        assert s.affine_image(unit) == s


def test_affine_pinned_example():
    s = IntervalSet([["1/3", "2/3"]])
    img = s.affine_image(Interval(Fraction(2, 3), Fraction(1)))
    assert img == IntervalSet([["7/9", "8/9"]])


def test_affine_scales_measure():
    rng = random.Random(47)
    for _ in range(120):
        s = random_set(rng)
        a = Fraction(rng.randint(0, 30), 30)
        b = a + Fraction(rng.randint(1, 30), 30)
        target = Interval(a, b)
        img = s.affine_image(target)
        assert img.measure() == s.measure() * target.length
        assert len(img) == len(s)


def test_affine_rejects_degenerate_target():
    s = IntervalSet([["0", "1"]])
    with pytest.raises(ValueError):
        s.affine_image(Interval(Fraction(1, 2), Fraction(1, 2)))


# ---------------------------------------------------------------------------
# difference / intersection / containment


def test_difference_pinned_examples():
    unit = IntervalSet([["0", "1"]])
    middle = IntervalSet([["1/3", "2/3"]])
    assert unit.difference(middle) == IntervalSet([["0", "1/3"], ["2/3", "1"]])
    assert unit.difference(IntervalSet()) == unit
    assert unit.difference(unit) == IntervalSet()


def test_difference_measure_identity():
    rng = random.Random(53)
    for _ in range(150):
        s = random_set(rng)
        t = random_set(rng)
        assert s.difference(t).measure() == s.measure() - s.intersection(t).measure()


def test_difference_point_cut_leaves_measure():
    s = IntervalSet([["0", "2"]])
    cut = s.difference(IntervalSet([(1, 1)]))
    assert cut.measure() == 2


def test_intersection_commutes_and_bounds():
    rng = random.Random(59)
    for _ in range(150):
        s = random_set(rng)
        t = random_set(rng)
        st = s.intersection(t)
        assert st == t.intersection(s)
        assert st.measure() <= min(s.measure(), t.measure())
        assert st.subset_of(s) and st.subset_of(t)


def test_subset_and_contains_consistent():
    rng = random.Random(61)
    for _ in range(150):
        s = random_set(rng)
        t = random_set(rng)
        u = s.union(t)
        assert s.subset_of(u) and t.subset_of(u)
        x = Fraction(rng.randint(0, 60), 60)
        by_scan = any(i.contains(x) for i in s)
        assert s.contains(x) == by_scan


def test_inf_sup():
    s = IntervalSet([["1/3", "2/3"], ["8/9", "1"]])
    assert s.inf == Fraction(1, 3)
    assert s.sup == Fraction(1)
    with pytest.raises(ValueError):
        IntervalSet().inf
    with pytest.raises(ValueError):
        IntervalSet().sup

"""Tests for `ternary`: the integer text parser against the Fraction parser it
replaced, membership over the int, Fraction and str forms of one value, and
`_ratio` as the one reader behind `rat` and the gap oracles that read a
rational."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod.gaps import compare_products, scaled_point, truncated_gap_sum_series
from cantorprod.intervals import format_rational, parse_rational, rat
from cantorprod.subdivision import ROOT, FastNode
from cantorprod.ternary import classify_ternary, parse_ratio, ternary_expansion


def fraction_parse_oracle(text: str) -> Fraction:
    """The Fraction-based parser that `parse_ratio` replaced, kept as its oracle."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        if "/" in s:
            num_s, den_s = s.split("/")
            return Fraction(int(num_s), int(den_s))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc


def outcome(call, value):
    """("value", what call returned) or (the exception's type, its message)."""
    try:
        return "value", call(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# ASCII and non-ASCII decimal digits (Arabic-Indic, Devanagari, fullwidth),
# joined by nothing or by digit-group underscores, with signs and spaces around
DIGITS = ["0", "1", "2", "3", "7", "12", "٣", "१", "５"]
digit_run = st.tuples(st.lists(st.sampled_from(DIGITS), min_size=1, max_size=4),
                      st.sampled_from(["", "", "_", "__"])).map(lambda run: run[1].join(run[0]))
space = st.sampled_from(["", " ", "\t", "\u00a0"])
number = st.tuples(space, st.sampled_from(["", "", "-", "-", "+", "--", "+-"]), digit_run,
                   space).map("".join)
marks = st.sampled_from(["", "//", "/0", "/-0", "/00", ".", "e3", "E"])
junk = st.lists(st.sampled_from([*DIGITS, "-", "+", "_", " ", "/", ".", "e", "E", "x"]), max_size=8)
texts = st.one_of(
    st.tuples(number, st.just("/"), number).map("".join),
    st.tuples(number, marks, number | st.just("")).map("".join),
    junk.map("".join),
)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(texts)
@example("")
@example(" -6/-8 ")
@example("1_000/1_0")
@example("0/-5")
@example("5/0")
@example("1/2/3")
@example("1e3")
@example("9" * 5000)  # past the int-string digit limit of newer Pythons, or not
def test_parse_ratio_matches_the_fraction_parser(text):
    expected = outcome(fraction_parse_oracle, text)
    if expected[0] == "value":
        expected = "value", (expected[1].numerator, expected[1].denominator)
    assert outcome(parse_ratio, text) == expected
    assert outcome(parse_rational, text) == outcome(fraction_parse_oracle, text)


@settings(derandomize=True, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**4), st.integers(1, 50))
def test_classification_is_the_same_for_int_fraction_and_str(x, scale):
    unreduced = f" {x.numerator * scale}/{x.denominator * scale} "
    forms = [x, format_rational(x), unreduced]
    if x.denominator == 1:
        forms += [x.numerator, str(x.numerator), bool(x.numerator)]
    results = [classify_ternary(form) for form in forms]
    assert results == [results[0]] * len(forms)


@pytest.mark.parametrize("value, shown", [
    (Fraction(-1, 4), "-1/4"), ("-1/4", "-1/4"), ("2/-8", "-1/4"),
    (2, "2"), (Fraction(2), "2"), ("4/2", "2"),
])
def test_out_of_range_names_the_value_in_lowest_terms(value, shown):
    with pytest.raises(ValueError, match=rf"^expected a number in \[0, 1\], got {shown}$"):
        classify_ternary(value)


# the public gap entries that read a rational, each with x in one rational
# slot and its other arguments fixed, and its pinned value at x = 1/3
GAP_ENTRIES = {
    "scaled_point": (lambda x: scaled_point(FastNode(5, 2), x), Fraction(16, 27)),
    "compare_products": (
        lambda x: compare_products(ROOT, x, Fraction(1, 3), 1, Fraction(2, 9)), -1),
    "truncated_gap_sum_series": (lambda x: truncated_gap_sum_series(x, 2), Fraction(89, 5832)),
}


@pytest.mark.parametrize("value", [0.5, None, (1, 4), b"1/4"])
def test_other_types_raise_what_rat_raises(value):
    with pytest.raises(TypeError) as from_rat:
        rat(value)
    with pytest.raises(TypeError) as from_ternary:
        ternary_expansion(value)
    assert str(from_ternary.value) == str(from_rat.value)
    for entry, _ in GAP_ENTRIES.values():
        assert outcome(entry, value) == (TypeError, str(from_rat.value))


@pytest.mark.parametrize("text", ["0.5", "1e-3"])
def test_decimal_texts_raise_what_parse_ratio_raises(text):
    with pytest.raises(ValueError) as from_parser:
        parse_ratio(text)
    assert outcome(rat, text) == (ValueError, str(from_parser.value))
    for entry, _ in GAP_ENTRIES.values():
        assert outcome(entry, text) == (ValueError, str(from_parser.value))


@pytest.mark.parametrize("name", GAP_ENTRIES)
def test_gap_entries_read_every_exact_form_alike(name):
    entry, at_one_third = GAP_ENTRIES[name]
    assert entry(Fraction(1, 3)) == at_one_third
    for x in (Fraction(0), Fraction(1, 3), Fraction(7, 9), Fraction(1), Fraction(-2)):
        forms = [format_rational(x), f" {3 * x.numerator}/{3 * x.denominator} "]
        if x.denominator == 1:
            forms.append(x.numerator)
        expected = outcome(entry, x)  # ("value", v), or the ratio slot's ValueError
        assert [outcome(entry, form) for form in forms] == [expected] * len(forms)
        if expected[0] == "value":
            assert all(isinstance(entry(form), type(expected[1])) for form in forms)


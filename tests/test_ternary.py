"""Tests for `ternary`: the integer text parser against the Fraction parser it
replaced, and membership over the int, Fraction and str forms of one value."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod.intervals import format_rational, parse_rational, rat
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


def outcome(parse, text: str):
    """("value", what parse returned) or ("error", its ValueError message)."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "value", value


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


@pytest.mark.parametrize("value", [0.5, None, (1, 4), b"1/4"])
def test_other_types_raise_what_rat_raises(value):
    with pytest.raises(TypeError) as from_rat:
        rat(value)
    with pytest.raises(TypeError) as from_ternary:
        ternary_expansion(value)
    assert str(from_ternary.value) == str(from_rat.value)


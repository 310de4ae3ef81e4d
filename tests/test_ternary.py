"""Tests for `ternary`: the integer text parser against the Fraction parser it
replaced, membership over the int, Fraction and str forms of one value, the
membership kernel and the `member` command against the record route they
replaced, `_ratio` as the one reader behind `rat` and the gap oracles
that read a rational, and `_leaves` against the cell walk it replaced."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorprod.intervals import format_rational, rat
from cantorprod.records import ROOT, UNIT, FastNode
from cantorprod.subdivision import classify_ternary
from cantorprod.ternary import _expansion, _expansion_text, _leaves, _verdict, parse_ratio
from oracles import classify_ternary_oracle, compare_products, scaled_point
from oracles import ternary_expansion_oracle, truncated_gap_sum_series
from test_cli import run_cli


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
    assert outcome(rat, text) == outcome(fraction_parse_oracle, text)


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


# ---------------------------------------------------------------------------
# the membership kernel and `member`, against the record route they replaced


def grid(top: int) -> list[str]:
    """Every "p/q" with 0 <= p <= q <= top, unreduced ones included."""
    return [f"{p}/{q}" for q in range(1, top + 1) for p in range(q + 1)]


@pytest.mark.parametrize("max_digits", [1, 4, 4096])
def test_membership_kernel_matches_the_record_oracle(max_digits):
    for text in grid(243):
        verdict, exp = classify_ternary_oracle(text, max_digits)
        p, q = (int(part) for part in text.split("/"))
        digits, period, complete = _expansion(p, q, max_digits)
        assert (tuple(digits), period, complete) == exp, text
        assert _verdict(digits, period, complete) == verdict.value, text
        assert _expansion_text(digits, period, complete) == str(exp), text
        record = classify_ternary(text, max_digits)
        assert record == (verdict, exp), text
        assert (record[1].preperiod, str(record[1])) == (exp.preperiod, str(exp)), text


def seed_member_output(text: str, fmt: str) -> str:
    """What `member --x text` printed when it formatted the oracle's records."""
    verdict, expansion = classify_ternary_oracle(text)
    if fmt == "text":
        return f"{verdict.value}\nexpansion = {expansion}\n"
    x = Fraction(text)
    payload = {
        "x": f"{x.numerator}/{x.denominator}",
        "verdict": verdict.value,
        "expansion": str(expansion),
        "preperiod_digits": expansion.preperiod,
        "period_length": expansion.period,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_member_prints_what_the_record_route_printed(capsys, fmt):
    for text in grid(81):
        assert run_cli(capsys, "member", "--x", text, "--format", fmt) == (
            0, seed_member_output(text, fmt), ""), text


MEMBER_USAGE = "usage: cantorprod member [-h] --x X [--format {json,text}] [--out OUT]\n"


@pytest.mark.parametrize("text", ["5/4", "-1/4", "2", "1/-3", "4/-2", "0.5", "1e3", "1/0", "",
                                  "one", "1/2/3"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_member_errors_keep_their_messages(capsys, text, fmt):
    with pytest.raises(ValueError) as oracle:
        ternary_expansion_oracle(text)
    err = f"{MEMBER_USAGE}cantorprod: error: {oracle.value}\n"
    assert run_cli(capsys, "member", f"--x={text}", "--format", fmt) == (2, "", err)


# the gap oracles that read a rational, each with x in one rational
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
        classify_ternary(value)
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


def test_leaves_match_the_address_walk():
    # the int walk, on FastNodes and on plain (m, k) pairs, against a walk
    # that splits each FastNode cell into its 0 and 2 children, level by level
    for node in (UNIT, ROOT):
        cells = [node]
        for j in range(11):
            assert _leaves(node, j) == _leaves(tuple(node), j) == [cell.m for cell in cells], (
                node, j)
            cells = [FastNode(3 * cell.m + digit, cell.k + 1) for cell in cells for digit in (0, 2)]

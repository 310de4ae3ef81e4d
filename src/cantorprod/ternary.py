"""Membership in the middle-third Cantor set, and the int kernels of the exact routes.

A rational x in [0, 1] is in C exactly when its ternary expansion avoids the
digit 1 (a final digit 1 is allowed: ...1 = ...0222...).  The expansion is
integer long division of x.numerator by x.denominator, and it cycles within
the denominator's remainders, so the verdict is exact.  `_expansion` is that
division on ints, `_verdict` and `_expansion_text` are the verdict and the
`0.d(d)*` text read off its digits; `member` runs on these three alone, and
the records `subdivision.classify_ternary` hands out wrap them.

The exact routes' int kernels live here too, each in one place:
`parse_ratio`, the one text parser ("p/q" or "p" to lowest-terms ints);
`_ratio`, the one reader of an int, a `Fraction` or such a text, which
`intervals.rat` wraps and every membership function calls; `format_ratio`
and `decimal_ratio`, the "p/q" and decimal text of p/q; `Ratio`, the type
of a lowest-terms pair, the one number form the kernels and the records in
`records` hold and hand out; `_fraction`, which turns such a
pair into a Fraction for the set face; `_merge_ends`, the one merge into
canonical interval form; and `_leaves`, the one walk over the standard
cells below an address, which `subdivision`, `render` and the standard
route's ancestor lists read, with `_UNIT` and `_ROOT`, the two addresses
the walks start from, as plain pairs.
This module imports neither `fractions` nor `typing` nor `enum` at load
time: every command runs on ints alone and loads no record machinery.
"""

import sys
from math import gcd

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction

Ratio = tuple[int, int]  # (p, q) in lowest terms, q > 0: what _lowest returns

# the unit cell, and [2/3, 1], whose standard cells cover the Cantor set's right half
Address = tuple[int, int]  # (m, k), the cell [m/3^k, (m+1)/3^k]: records.FastNode as a plain pair
_UNIT, _ROOT = (0, 0), (2, 1)


def parse_ratio(text: str) -> Ratio:
    """Parse "p/q" (or a bare integer "p") into (p, q) in lowest terms, q > 0.

    Floats are rejected on purpose; a decimal point in the input is an error.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational literal: {text!r}")
    num_s, slash, den_s = s.partition("/")
    try:
        p, q = int(num_s), int(den_s) if slash else 1
    except ValueError as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc
    if q == 0:
        raise ValueError(f"not an exact rational literal: {text!r}")
    return _lowest(p, q)


def _lowest(p: int, q: int) -> Ratio:
    """p/q in lowest terms with a positive denominator (q != 0)."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def _fraction(p: int, q: int) -> "Fraction":
    """p/q as a reduced Fraction, loading `fractions` only when one is built."""
    from fractions import Fraction

    return Fraction(p, q)


def format_ratio(p: int, q: int) -> str:
    """p/q as "p/q" text in lowest terms, with an explicit denominator even for integers."""
    p, q = _lowest(p, q)
    return f"{p}/{q}"


def decimal_ratio(p: int, q: int, digits: int) -> str:
    """Exact decimal rendering of p/q (q > 0), truncated toward zero to `digits` places.

    A trailing "..." marks a nonterminating (truncated) expansion, so the output
    is never silently rounded.  decimal_ratio(5, 9, 6) == "0.555555...".
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scaled, rem = divmod(abs(p) * 10**digits, q)
    whole, frac = divmod(scaled, 10**digits)
    text = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    return ("-" if p < 0 else "") + text + ("..." if rem else "")


def _merge_ends(los: list, his: list) -> tuple[list, list]:
    """Component ends of the union of the closed intervals [los[i], his[i]].

    Sorts each list in place on its own; the pairing of the ends is not needed.
    Cut between positions i-1 and i exactly when his[i-1] < los[i].  At
    least i intervals end by his[i-1], each begins below los[i], and at most
    i lower ends lie below los[i]; so exactly those i intervals begin there,
    every other one begins at or after los[i], and nothing covers the gap
    (his[i-1], los[i]).  Conversely, an uncovered x in [los[0], his[-1]]
    with i lower ends at or below it has those i intervals end below it, so
    his[i-1] < x < los[i] is a cut.  Touching intervals merge.
    """
    los.sort()
    his.sort()
    out_los, out_his = los[:1], []
    for hi, lo in zip(his, los[1:]):
        if hi < lo:
            out_his.append(hi)
            out_los.append(lo)
    return out_los, out_his + his[-1:]


def _leaves(node: Address, j: int) -> list[int]:
    """The m of the 2^j standard cells j levels below the address node = (m, k), left to right.

    They are node followed by each j-digit word without digit 1, at depth
    k + j.  Digit i from the right doubles the list: the words so far (digit
    0 there), then each plus 2 * 3^i, which lies above all of them.  Plain
    ints: render reads its cells' left ends straight off them, and the
    standard route its ancestors' addresses, with no address record to unpack.
    """
    if j < 0:
        raise ValueError("level must be >= 0")
    ms = [node[0] * 3**j]
    for i in range(j):
        lead = 2 * 3**i
        ms += [lead + m for m in ms]
    return ms


def _ratio(x: "int | Fraction | str") -> Ratio:
    """(numerator, denominator) of an int, a Fraction or a rational literal."""
    if isinstance(x, str):
        return parse_ratio(x)
    fractions = sys.modules.get("fractions")  # no Fraction exists until it is loaded
    if isinstance(x, int) or (fractions is not None and isinstance(x, fractions.Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _expansion(p: int, q: int, max_digits: int = 4096) -> "tuple[list[int], int, bool]":
    """(digits, period, complete): the base-3 digits of p/q in [0, 1] (q > 0) by long division.

    period == 0 means the expansion terminates after the digits; otherwise
    the last `period` digits repeat forever.  complete is False only when
    the digit budget ran out before the cycle closed.  1 is 0.(2)*.
    """
    if not 0 <= p <= q:
        raise ValueError(f"expected a number in [0, 1], got {p if q == 1 else f'{p}/{q}'}")
    if p == q:
        return [2], 1, True
    digits: list[int] = []
    seen: dict[int, int] = {}
    while p and len(digits) < max_digits:
        if p in seen:
            return digits, len(digits) - seen[p], True
        seen[p] = len(digits)
        d, p = divmod(3 * p, q)
        digits.append(d)
    return digits, 0, p == 0


def _verdict(digits: "Sequence[int]", period: int, complete: bool) -> str:
    """The verdict on an `_expansion`: "member", "non_member" or "undetermined".

    A digit 1 followed by anything nonzero puts x strictly inside a removed
    gap.  A trailing digit 1 is the left endpoint of a gap and stays in the
    set (rewrite ...1 as ...0222...).  Rationals always resolve within one
    remainder cycle, so "undetermined" can only happen when the digit budget
    is smaller than the cycle.
    """
    if 1 in digits:
        terminal = period == 0 and complete and digits.index(1) == len(digits) - 1
        return "member" if terminal else "non_member"
    return "member" if complete else "undetermined"


def _expansion_text(digits: "Sequence[int]", period: int, complete: bool) -> str:
    """An `_expansion` as text: "0.d(d)*" with the cycle in brackets, "0.d..." cut short."""
    cut = len(digits) - period
    head = "".join(map(str, digits[:cut]))
    if period:
        return f"0.{head}({''.join(map(str, digits[cut:]))})*"
    if not complete:
        return f"0.{head}..."
    return f"0.{head}" if digits else "0"

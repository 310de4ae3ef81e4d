"""Membership in the middle-third Cantor set, and the int kernels of the exact routes.

A rational x in [0, 1] is in C exactly when its ternary expansion avoids the
digit 1 (a final digit 1 is allowed: ...1 = ...0222...).  The expansion is
integer long division of x.numerator by x.denominator, and it cycles within
the denominator's remainders, so the verdict is exact.

The exact routes' int kernels live here too, each in one place:
`parse_ratio`, the one text parser ("p/q" or "p" to lowest-terms ints);
`_ratio`, the one reader of an int, a `Fraction` or such a text, which
`intervals.rat` wraps and every membership function calls; `format_ratio`
and `decimal_ratio`, the "p/q" and decimal text of p/q; `Ratio`, the type
of a lowest-terms pair, the one number form the records in `products`,
`gaps` and `subdivision` hold and hand out; `_fraction`, which turns such a
pair into a Fraction for the set face; and `_merge_ends`, the one merge into
canonical interval form.
This module never imports `fractions` at load time, so `member`, `art`,
`fast`, `render` and `certify` run on ints alone.
"""

import sys
from enum import Enum
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

Ratio = tuple[int, int]  # (p, q) in lowest terms, q > 0: what _lowest returns


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


def _ratio(x: "int | Fraction | str") -> Ratio:
    """(numerator, denominator) of an int, a Fraction or a rational literal."""
    if isinstance(x, str):
        return parse_ratio(x)
    fractions = sys.modules.get("fractions")  # no Fraction exists until it is loaded
    if isinstance(x, int) or (fractions is not None and isinstance(x, fractions.Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as a rational")


class Membership(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    UNDETERMINED = "undetermined"


class TernaryExpansion(NamedTuple):
    """Base-3 digits of a number in [0, 1], with cycle structure.

    period == 0 means the expansion terminates after the recorded digits;
    otherwise the last `period` recorded digits repeat forever.  complete is
    False only when the digit budget ran out before the cycle closed.
    """

    digits: tuple[int, ...]
    period: int
    complete: bool

    @property
    def preperiod(self) -> int:
        return len(self.digits) - self.period

    def __str__(self) -> str:
        head = "".join(str(d) for d in self.digits[: self.preperiod])
        if self.period:
            tail = "".join(str(d) for d in self.digits[self.preperiod :])
            return f"0.{head}({tail})*"
        if not self.complete:
            return f"0.{head}..."
        return f"0.{head}" if self.digits else "0"


def ternary_expansion(x: "int | Fraction | str", max_digits: int = 4096) -> TernaryExpansion:
    """Expand x in [0, 1] in base 3 by long division, detecting the cycle."""
    rem, den = _ratio(x)
    if not 0 <= rem <= den:
        raise ValueError(f"expected a number in [0, 1], got {rem if den == 1 else f'{rem}/{den}'}")
    if rem == den:
        return TernaryExpansion(digits=(2,), period=1, complete=True)
    digits: list[int] = []
    seen: dict[int, int] = {}
    while rem and len(digits) < max_digits:
        if rem in seen:
            start = seen[rem]
            return TernaryExpansion(tuple(digits), period=len(digits) - start, complete=True)
        seen[rem] = len(digits)
        rem *= 3
        d, rem = divmod(rem, den)
        digits.append(d)
    return TernaryExpansion(tuple(digits), period=0, complete=(rem == 0))


def classify_ternary(x: "int | Fraction | str",
                     max_digits: int = 4096) -> tuple[Membership, TernaryExpansion]:
    """Decide Cantor-set membership of x in [0, 1] from its ternary digits.

    A digit 1 followed by anything nonzero puts x strictly inside a removed
    gap.  A trailing digit 1 is the left endpoint of a gap and stays in the
    set (rewrite ...1 as ...0222...).  Rationals always resolve within one
    remainder cycle, so UNDETERMINED can only happen when max_digits is
    smaller than the cycle.
    """
    exp = ternary_expansion(x, max_digits)
    for pos, d in enumerate(exp.digits):
        if d == 1:
            terminal = exp.period == 0 and exp.complete and pos == len(exp.digits) - 1
            return (Membership.MEMBER if terminal else Membership.NON_MEMBER), exp
    if not exp.complete:
        return Membership.UNDETERMINED, exp
    return Membership.MEMBER, exp

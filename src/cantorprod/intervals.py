"""Exact interval-union arithmetic over the rationals.

Everything downstream (subdivisions, product measures, certificates) works with
finite unions of closed intervals with Fraction endpoints.  The canonical form
is sorted and pairwise disjoint, with touching intervals merged, so equality of
sets is equality of tuples and the Lebesgue measure is a plain sum of lengths.

No floats anywhere in here: decimal output is rendered by long division and
truncated with an explicit "..." marker when inexact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and strings like "5/9" to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a Fraction.

    Floats are rejected on purpose; a decimal point in the input is an error.
    """
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


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", with an explicit denominator even for integers."""
    return f"{x.numerator}/{x.denominator}"


def decimal_string(x: Fraction, digits: int) -> str:
    """Exact decimal rendering of x, truncated toward zero to `digits` places.

    A trailing "..." marks a nonterminating (truncated) expansion, so the output
    is never silently rounded.  decimal_string(Fraction(5,9), 6) == "0.555555...".
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
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


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints; degenerate points allowed."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def to_json(self) -> list[str]:
        return [format_rational(self.lo), format_rational(self.hi)]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Interval":
        if len(data) != 2:
            raise ValueError(f"interval JSON must be a [lo, hi] pair, got {data!r}")
        return cls(parse_rational(data[0]), parse_rational(data[1]))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


IntervalLike = Union[Interval, Sequence[RationalLike]]


def _as_interval(item: IntervalLike) -> Interval:
    if isinstance(item, Interval):
        return item
    lo, hi = item
    return Interval(rat(lo), rat(hi))


class IntervalSet:
    """Finite union of closed intervals, kept in canonical form.

    The constructor accepts intervals in any order, overlapping or touching,
    and normalizes: sort by endpoints, merge whenever the next interval starts
    at or before the current end.  Two IntervalSets are equal iff their
    canonical component tuples are equal.
    """

    __slots__ = ("intervals", "_los")

    def __init__(self, items: Iterable[IntervalLike] = ()) -> None:
        pending = sorted((_as_interval(it) for it in items), key=lambda iv: (iv.lo, iv.hi))
        merged: list[Interval] = []
        for iv in pending:
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        self.intervals: tuple[Interval, ...] = tuple(merged)
        self._los: list[Fraction] | None = None

    @classmethod
    def _from_canonical(cls, intervals: Iterable[Interval]) -> "IntervalSet":
        """Wrap intervals that are already sorted, disjoint and non-touching."""
        out = cls.__new__(cls)
        out.intervals = tuple(intervals)
        out._los = None
        return out

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def point(cls, x: RationalLike) -> "IntervalSet":
        v = rat(x)
        return cls([Interval(v, v)])

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        return "IntervalSet(" + " u ".join(repr(iv) for iv in self.intervals) + ")"

    @property
    def inf(self) -> Fraction:
        if not self.intervals:
            raise ValueError("empty set has no infimum")
        return self.intervals[0].lo

    @property
    def sup(self) -> Fraction:
        if not self.intervals:
            raise ValueError("empty set has no supremum")
        return self.intervals[-1].hi

    def measure(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def contains(self, x: RationalLike) -> bool:
        v = rat(x)
        if self._los is None:
            self._los = [iv.lo for iv in self.intervals]
        idx = bisect_right(self._los, v) - 1
        return idx >= 0 and v <= self.intervals[idx].hi

    def affine_image(self, target: Interval) -> "IntervalSet":
        """Map this set through x -> target.lo + (target.hi - target.lo) * x.

        The map sends [0,1] onto `target`; it must be orientation preserving and
        nondegenerate, so component count is preserved exactly.
        """
        if target.lo >= target.hi:
            raise ValueError(f"affine target must be nondegenerate, got {target!r}")
        scale = target.length
        shift = target.lo
        return IntervalSet._from_canonical(
            Interval(shift + scale * iv.lo, shift + scale * iv.hi) for iv in self.intervals
        )

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Closure of the set difference; isolated boundary points are dropped.

        Measure-exact: measure(A.difference(B)) == measure(A) - measure(A meet B).
        """
        out: list[Interval] = []
        # degenerate cuts cannot change a closure, so drop them up front
        cuts = [c for c in other.intervals if c.lo < c.hi]
        n = len(cuts)
        start = 0
        for iv in self.intervals:
            lo = iv.lo
            # skip cuts entirely to the left of this component
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
        return IntervalSet._from_canonical(out)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo <= hi:
                out.append(Interval(lo, hi))
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def subset_of(self, other: "IntervalSet") -> bool:
        return self.difference(other).measure() == 0 and all(
            other.contains(iv.lo) and other.contains(iv.hi) for iv in self.intervals
        )

    def to_json(self) -> list[list[str]]:
        return [iv.to_json() for iv in self.intervals]

    @classmethod
    def from_json(cls, data: Iterable[Sequence[str]]) -> "IntervalSet":
        return cls([Interval.from_json(item) for item in data])

"""Exact interval-union arithmetic over the rationals.

The public sets (subdivisions, product images) are finite unions of closed
intervals with Fraction endpoints; the covers and sweeps that build them run
on integer ends.  The canonical form is sorted and pairwise disjoint, with
touching intervals merged, so equality of sets is equality of tuples and the
Lebesgue measure is a plain sum of lengths.
One merge, _merge_ends, lives in `ternary` (the integer sweeps in `products`
use it and load no `fractions`), and so do the text kernels and _ratio, the
one reader of rationals.  format_rational and decimal_string wrap the text
kernels on a Fraction's ints; rat passes a Fraction through and reads
anything else with _ratio, so a float is its TypeError.  The integer routes
(the subdivision covers and the product sweep) merge on ints and cross into
Fractions once, through IntervalSet._from_ends, the one int -> Fraction bridge.

No floats anywhere in here: decimal output is rendered by one integer division
and truncated with an explicit "..." marker when inexact.
"""

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .ternary import _merge_ends, _ratio, decimal_ratio, format_ratio, parse_ratio

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """An int, a Fraction or a text like "5/9" as an exact Fraction; see the module doc."""
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a Fraction.

    Floats are rejected on purpose; a decimal point in the input is an error.
    `ternary.parse_ratio` reads the text, so there is one parser.
    """
    return Fraction(*parse_ratio(text))


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", with an explicit denominator even for integers."""
    return format_ratio(x.numerator, x.denominator)


def decimal_string(x: Fraction, digits: int) -> str:
    """Exact decimal rendering of x, truncated toward zero to `digits` places.

    A trailing "..." marks a nonterminating (truncated) expansion, so the output
    is never silently rounded.  decimal_string(Fraction(5,9), 6) == "0.555555...".
    """
    return decimal_ratio(x.numerator, x.denominator, digits)


class Interval:
    """Closed interval [lo, hi] with rational endpoints; degenerate points allowed.

    Immutable and compared by value.  Not a tuple, so `_as_interval` can tell
    an Interval from a bare (lo, hi) pair, and the two never compare equal.
    """

    __slots__ = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return Interval, (self.lo, self.hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def to_json(self) -> list[str]:
        return [format_rational(self.lo), format_rational(self.hi)]

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


IntervalLike = Union[Interval, Sequence[RationalLike]]


def _as_interval(item: IntervalLike) -> Interval:
    if isinstance(item, Interval):
        return item
    lo, hi = item  # a pair of any other length is a ValueError here
    return Interval(lo, hi)


class IntervalSet:
    """Finite union of closed intervals, kept in canonical form.

    The constructor accepts intervals in any order, overlapping or touching,
    and merges them with _merge_ends.  Two IntervalSets are equal iff their
    canonical component tuples are equal.
    """

    __slots__ = ("intervals",)

    def __init__(self, items: Iterable[IntervalLike] = ()) -> None:
        ivs = [_as_interval(it) for it in items]
        los, his = _merge_ends([iv.lo for iv in ivs], [iv.hi for iv in ivs])
        self.intervals: tuple[Interval, ...] = tuple(map(Interval, los, his))

    @classmethod
    def _from_canonical(cls, intervals: Iterable[Interval]) -> "IntervalSet":
        """Wrap intervals that are already sorted, disjoint and non-touching."""
        out = cls.__new__(cls)
        out.intervals = tuple(intervals)
        return out

    @classmethod
    def _from_ends(cls, los: Sequence[int], his: Sequence[int], den: int) -> "IntervalSet":
        """Wrap canonical integer component ends over one denominator den."""
        return cls._from_canonical(
            Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in zip(los, his)
        )

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def point(cls, x: RationalLike) -> "IntervalSet":
        return cls._from_canonical([Interval(x, x)])

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

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
        idx = bisect_right(self.intervals, v, key=lambda iv: iv.lo) - 1
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
        It meets A with the closed gaps between B's nondegenerate components,
        taken from A.inf to A.sup, and drops the points left over.
        """
        if not self.intervals:
            return self
        cuts = [c for c in other.intervals if c.lo < c.hi]
        ends = zip([self.inf] + [c.hi for c in cuts], [c.lo for c in cuts] + [self.sup])
        gaps = IntervalSet._from_canonical(Interval(lo, hi) for lo, hi in ends if lo <= hi)
        return IntervalSet._from_canonical(iv for iv in self.intersection(gaps) if iv.lo < iv.hi)

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
        return IntervalSet._from_canonical(out)

    def subset_of(self, other: "IntervalSet") -> bool:
        return self.union(other) == other

"""The package's record classes: every NamedTuple it hands out, and Membership.

Each record wraps what an int kernel returns as plain tuples and ints:

* `FastNode`, the cell address (m, k), a tuple subclass, so a plain pair
  and a FastNode are interchangeable wherever an address is read; `UNIT`
  and `ROOT` are `ternary._UNIT` and `_ROOT` as records;
* `FastSubdivision`, the inner and outer sets of `subdivision.fast_subdivision`;
* `Membership` and `TernaryExpansion`, `subdivision.classify_ternary`'s
  verdict and digits over `ternary`'s long division;
* `EstimateResult` (`products.standard_estimate`) over `standard._standard_run`,
  and `FastBounds` (`products.fast_bounds`) over `products._fast_run`;
* `ChainCheck` (`gaps.verify_order_chain`) over `gaps._order_chain`, and
  `ChainEntry` and `Certificate` (`gaps.certify`) over `gaps._certify`.

No command builds a record, and a record writes no JSON: the payload of
each command is its kernel's (`standard._estimate_json`,
`products._bounds_json`, `gaps._certificate_json`), which takes a record's
fields as they are.  Each function that returns a record imports this module
where it runs, so this is the only module that imports `typing` or `enum`,
and no command loads either.  It loads only `ternary` itself;
EstimateResult.full_bounds loads `standard` when it is asked for.
"""

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .ternary import _ROOT, _UNIT, Ratio, _expansion_text, _fraction

if TYPE_CHECKING:
    from .intervals import Interval, IntervalSet


class FastNode(NamedTuple):
    """A ternary address: the cell [m/3^k, (m+1)/3^k]."""

    m: int
    k: int

    @property
    def cell(self) -> "Interval":
        from .intervals import Interval

        den = 3**self.k
        return Interval(_fraction(self.m, den), _fraction(self.m + 1, den))


UNIT = FastNode(*_UNIT)
ROOT = FastNode(*_ROOT)


class FastSubdivision(NamedTuple):
    """Result of n rounds of truncated fast subdivision of [2/3, 1].

    inner and outer bracket the true surviving set D_n:
    inner is the union of tracked depth-n cells (all genuine cells of D_n),
    outer additionally keeps the hull pieces of every subdivided cell, which
    contain every cell the truncation discarded.
    """

    inner: "IntervalSet"
    outer: "IntervalSet"


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
        return _expansion_text(*self)


class EstimateResult(NamedTuple):
    """Standard-route estimate of the Cantor product-set measure at level n.

    measure(P(R_n x R_n)) is held exactly as scaled_measure / scale, with
    scale = 9^max(n, 1).
    """

    n: int
    scaled_measure: int
    scale: int
    component_count: int
    elapsed_ms: int

    def full_bounds(self) -> tuple[Ratio, Ratio]:
        """Certified enclosure of measure(P(C x C)) as (lo, hi) lowest-terms
        pairs: standard._full_bounds on the record's ints."""
        from .standard import _full_bounds

        return _full_bounds(self.n, self.scaled_measure, self.scale)


class FastBounds(NamedTuple):
    """Exact bracket of measure(P(D_n x D_n)) from the truncated fast subdivision.

    Both ends are held exactly as integers over scale = 9^depth, depth that of
    the deepest cell.
    """

    n: int
    gap_depth: int
    scaled_lower: int
    scaled_upper: int
    scale: int
    component_count_inner: int
    component_count_outer: int
    elapsed_ms: int


class ChainCheck(NamedTuple):
    name: str
    k: int
    holds: bool
    lhs: Ratio
    rhs: Ratio
    relation: str  # a key of gaps._RELATIONS


class ChainEntry(NamedTuple):
    """One derived value against its frozen one, both held as lowest-terms pairs."""

    name: str
    value_ratio: Ratio
    expected_ratio: Ratio
    relation: str  # a key of gaps._RELATIONS
    match: bool


class Certificate(NamedTuple):
    """An enclosure center +- radius, held as lowest-terms pairs, and the chain
    that derived it."""

    target: str
    center_ratio: Ratio
    radius_ratio: Ratio
    chain: tuple[ChainEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.match for entry in self.chain)

    def failures(self) -> tuple[ChainEntry, ...]:
        return tuple(entry for entry in self.chain if not entry.match)

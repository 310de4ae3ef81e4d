"""Subdivision schemes for the middle-third Cantor set and its right half.

Two constructions are implemented.

* The standard one: at level n the surviving set K_n is the union of the 2^n
  triadic cells [m/3^n, (m+1)/3^n] whose numerator m has no digit 1 in base 3.
  The Cantor set C is the intersection of all K_n, and R = C meet [2/3, 1] is
  its right half.

* A faster-converging one driven by the gap family

      B = (1/3, 2/3)  u  U_{k>=1} (1/3^{k+1}, 2/3^{k+1})
                      u  U_{k>=1} (1 - 2/3^{k+1}, 1 - 1/3^{k+1}),

  rescaled into every surviving cell at each round.  Removing A_I(B) from a
  cell I leaves a scaled copy of the construction near each endpoint of I; the
  surviving cells of one round are

      E_k = A_I([2/3^{k+1}, 1/3^k])   (low side,  k >= 1)
      F_k = A_I([1 - 1/3^k, 1 - 2/3^{k+1}])   (high side, k >= 1),

  each of length |I|/3^{k+1}.  Infinitely many cells appear per round, so the
  fast subdivision tracks only k <= K and brackets the rest: the outer set
  keeps the two hull pieces A_I([0, 3^{-K-1}]) and A_I([1 - 3^{-K-1}, 1]) of
  every subdivided cell (they contain all discarded cells), the inner set
  keeps tracked cells only.  Both brackets are exact: inner <= D_n <= outer.

A tracked cell is its triadic address (m, k), the cell [m/3^k, (m+1)/3^k].
The gap-ordering arithmetic runs on q = left endpoint / length, which for a
triadic cell is m itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .intervals import Interval, IntervalSet

# Membership lives in `ternary`, which never loads `fractions`.  Its names are
# re-exported here because callers look them up on this module: perfbench's
# tracer wraps `subdivision.classify_ternary` (its --trace 1 run fails without
# it), and the selftest calls it through this module.
from .ternary import (  # noqa: F401
    Membership, TernaryExpansion, cantor_membership, classify_ternary, ternary_expansion,
)

RIGHT_HALF = Interval(Fraction(2, 3), Fraction(1))


def _triadic_cell(m: int, den: int) -> Interval:
    """The cell [m/den, (m+1)/den]."""
    return Interval(Fraction(m, den), Fraction(m + 1, den))


def _numerators(n: int) -> list[int]:
    """The m < 3^n with no ternary digit 1, ascending.

    Level j + 1 is level j (leading digit 0) followed by level j shifted by
    the leading digit 2, which puts every one of them above 3^j.
    """
    ms = [0]
    for j in range(n):
        lead = 2 * 3**j
        ms += [lead + m for m in ms]
    return ms


def standard_cells(n: int) -> Iterator[Interval]:
    """Cells [m/3^n, (m+1)/3^n] of the level-n standard subdivision of [0, 1], left to right."""
    if n < 0:
        raise ValueError("level must be >= 0")
    den = 3**n
    return (_triadic_cell(m, den) for m in _numerators(n))


def standard_subdivision(n: int) -> IntervalSet:
    """K_n: what remains of [0, 1] after n rounds of middle-third removal."""
    return IntervalSet(standard_cells(n))


def right_half_cells(n: int) -> Iterator[Interval]:
    """Cells of K_n meet [2/3, 1]: the level-(n-1) cells under x -> 2/3 + x/3.

    The map prepends the ternary digit 2 to each numerator.  Level 0 has the
    single cell [2/3, 1], like level 1.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    level = max(n, 1)
    lead = 2 * 3 ** (level - 1)
    den = 3**level
    return (_triadic_cell(lead + m, den) for m in _numerators(level - 1))


def right_half_subdivision(n: int) -> IntervalSet:
    """R_n: level-n standard cover of the right half of the Cantor set."""
    return IntervalSet(right_half_cells(n))


def gap_set(K: int) -> IntervalSet:
    """The gap family B truncated at index K, as a subset of [0, 1].

    Contains the central gap plus the K nearest side gaps at each end;
    measure 2/3 - 1/3^(K+1).
    """
    if K < 0:
        raise ValueError("gap index bound must be >= 0")
    gaps = [Interval(Fraction(1, 3), Fraction(2, 3))]
    for k in range(1, K + 1):
        den = 3 ** (k + 1)
        gaps.append(Interval(Fraction(1, den), Fraction(2, den)))
        gaps.append(Interval(Fraction(den - 2, den), Fraction(den - 1, den)))
    return IntervalSet(gaps)


class FastNode(NamedTuple):
    """A surviving cell of the fast subdivision: the triadic cell [m/3^k, (m+1)/3^k]."""

    m: int
    k: int

    @property
    def q(self) -> int:
        """The cell's left endpoint divided by its length, which is m."""
        return self.m

    @property
    def cell(self) -> Interval:
        return _triadic_cell(self.m, 3**self.k)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 3**self.k)


ROOT = FastNode(m=2, k=1)


def node_child(node: FastNode, k: int, high_side: bool) -> FastNode:
    """The k-th surviving child cell of `node`, on the low or high side.

    The length shrinks by 3^(k+1), and the address follows the affine bookkeeping:
    low side  E_k: new m = 3^(k+1) m + 2,
    high side F_k: new m = 3^(k+1) (m + 1) - 3.
    """
    if k < 1:
        raise ValueError("child index must be >= 1")
    scale = 3 ** (k + 1)
    if high_side:
        m = scale * (node.m + 1) - 3
    else:
        m = scale * node.m + 2
    return FastNode(m=m, k=node.k + k + 1)


def node_children(node: FastNode, K: int) -> tuple[FastNode, ...]:
    """All tracked children (k <= K on both sides), ordered left to right."""
    if K < 1:
        raise ValueError("child index bound must be >= 1")
    low = [node_child(node, k, high_side=False) for k in range(K, 0, -1)]
    high = [node_child(node, k, high_side=True) for k in range(1, K + 1)]
    return tuple(low + high)


class FastSubdivision(NamedTuple):
    """Result of n rounds of truncated fast subdivision of [2/3, 1].

    inner and outer bracket the true surviving set D_n:
    inner is the union of tracked depth-n cells (all genuine cells of D_n),
    outer additionally keeps the hull pieces of every subdivided cell, which
    contain every cell the truncation discarded.
    """

    inner: IntervalSet
    outer: IntervalSet


def _rounds(n: int, K: int) -> tuple[list[FastNode], list[FastNode]]:
    """n rounds from ROOT tracking k <= K: (every subdivided cell, the depth-n cells)."""
    if n < 0:
        raise ValueError("round count must be >= 0")
    if K < 1:
        raise ValueError("gap_depth must be >= 1")
    if (2 * K) ** n > 500_000:
        raise ValueError(f"refusing to track (2*{K})^{n} cells")
    parents: list[FastNode] = []
    level = [ROOT]
    for _ in range(n):
        parents.extend(level)
        level = [child for node in level for child in node_children(node, K)]
    return parents, level


def _hull_tails(node: FastNode, K: int) -> tuple[Interval, Interval]:
    scale = 3 ** (K + 1)
    den = 3 ** (node.k + K + 1)
    return _triadic_cell(node.m * scale, den), _triadic_cell((node.m + 1) * scale - 1, den)


def fast_subdivision(n: int, K: int) -> FastSubdivision:
    """Run n truncated rounds starting from [2/3, 1], tracking k <= K."""
    parents, level = _rounds(n, K)
    cells = [node.cell for node in level]
    tails = [tail for node in parents for tail in _hull_tails(node, K)]
    return FastSubdivision(
        inner=IntervalSet(cells),
        outer=IntervalSet(cells + tails),
    )


def removed_gaps(n: int, K: int) -> IntervalSet:
    """Union of all gap intervals deleted during n rounds of fast subdivision."""
    parents, _ = _rounds(n, K)
    base = gap_set(K)
    return IntervalSet(gap for node in parents for gap in base.affine_image(node.cell))


def squared_length_sum(n: int, K: int) -> tuple[Fraction, Fraction]:
    """(sum of |cell|^2 over tracked depth-n cells, its K -> infinity limit).

    The limit is (1/9) (1/36)^n: each round multiplies the squared-length sum
    of a cell by 2 sum_{k>=1} 9^(-k-1) = 1/36.
    """
    _, level = _rounds(n, K)
    truncated = sum((node.length**2 for node in level), Fraction(0))
    limit = Fraction(1, 9) * Fraction(1, 36) ** n
    return truncated, limit

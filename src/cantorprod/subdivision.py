"""Subdivision schemes for the middle-third Cantor set and its right half.

Every cell is a ternary address (m, k), the cell [m/3^k, (m+1)/3^k]: its k
base-3 digits, read as the integer m, are the path to it from the unit cell
(0, 0).  Appending the j digits of a word w gives (m 3^j + w, k + j), and
both schemes are walks that append words.

* The standard one: at level n the surviving set K_n is the union of the 2^n
  cells whose address has no digit 1.  The Cantor set C is the intersection
  of all K_n, and its right half R = C meet [2/3, 1] lies below ROOT = (2, 1).

* A faster-converging one driven by the gap family

      B = (1/3, 2/3)  u  U_{k>=1} (1/3^{k+1}, 2/3^{k+1})
                      u  U_{k>=1} (1 - 2/3^{k+1}, 1 - 1/3^{k+1}),

  rescaled into every surviving cell at each round.  Removing it from the
  cell with address I leaves the children E_k = I 0^k 2 (low side) and
  F_k = I 2^k 0 (high side), k >= 1, each of length |I|/3^{k+1}: a pruned
  copy of the standard tree.  Infinitely many cells appear per round, so the
  fast subdivision tracks only k <= K and brackets the rest: the outer set
  keeps the two hull tails I 0^(K+1) and I 2^(K+1) of every subdivided cell
  (they contain all discarded cells), the inner set keeps tracked cells
  only.  Both brackets are exact: inner <= D_n <= outer.

This module is the one place that turns an address into endpoints: as
Fractions (FastNode.cell) or as integers at one common scale (_ends).  The
ints of _leaves are already the leaves' left ends, in units of their 3^-depth.
The integer walks load no `fractions`: the functions that build Fractions or
IntervalSets import them where they run.
"""

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

# Membership lives in `ternary`, which never loads `fractions`.  Its names are
# re-exported here because callers look them up on this module: perfbench's
# tracer wraps `subdivision.classify_ternary` (its --trace 1 run fails without
# it), and the selftest calls it through this module.
from .ternary import (  # noqa: F401
    Membership, TernaryExpansion, cantor_membership, classify_ternary, ternary_expansion,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .intervals import Interval, IntervalSet


class FastNode(NamedTuple):
    """A ternary address: the cell [m/3^k, (m+1)/3^k]."""

    m: int
    k: int

    @property
    def cell(self) -> "Interval":
        from fractions import Fraction

        from .intervals import Interval

        den = 3**self.k
        return Interval(Fraction(self.m, den), Fraction(self.m + 1, den))

    @property
    def length(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(1, 3**self.k)


UNIT = FastNode(m=0, k=0)
ROOT = FastNode(m=2, k=1)


def _append(node: FastNode, word: int, j: int) -> FastNode:
    """The address `node` followed by the j ternary digits of `word` (0 <= word < 3^j)."""
    return FastNode(node.m * 3**j + word, node.k + j)


def _leaves(node: FastNode, j: int) -> list[int]:
    """The m of the 2^j standard cells j levels below `node`, left to right.

    They are `node` followed by each j-digit word without digit 1, at depth
    node.k + j.  Digit i from the right doubles the list: the words so far
    (digit 0 there), then each plus 2 * 3^i, which lies above all of them.
    Plain ints, as a FastNode per leaf doubles the standard route's cost.
    """
    if j < 0:
        raise ValueError("level must be >= 0")
    ms = [_append(node, 0, j).m]
    for i in range(j):
        lead = 2 * 3**i
        ms += [lead + m for m in ms]
    return ms


def _ends(nodes: Iterable[FastNode], depth: int) -> tuple[list[int], list[int]]:
    """Lower and upper ends of the nodes' cells in units of 3^-depth (no node deeper)."""
    units = [(m, 3 ** (depth - k)) for m, k in nodes]
    return [m * unit for m, unit in units], [(m + 1) * unit for m, unit in units]


def standard_subdivision(n: int) -> "IntervalSet":
    """K_n: what remains of [0, 1] after n rounds of middle-third removal."""
    from .intervals import IntervalSet

    return IntervalSet(FastNode(m, n).cell for m in _leaves(UNIT, n))


def right_half_cells(n: int) -> Iterator["Interval"]:
    """Cells of K_n meet [2/3, 1], left to right: the level-(n-1) words below ROOT.

    Level 0 has the single cell [2/3, 1], like level 1.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    level = max(n, 1)
    return (FastNode(m, level).cell for m in _leaves(ROOT, level - 1))


def right_half_subdivision(n: int) -> "IntervalSet":
    """R_n: level-n standard cover of the right half of the Cantor set."""
    from .intervals import IntervalSet

    return IntervalSet(right_half_cells(n))


def gap_set(K: int) -> "IntervalSet":
    """The gap family B truncated at index K, as a subset of [0, 1].

    Contains the central gap plus the K nearest side gaps at each end;
    measure 2/3 - 1/3^(K+1).
    """
    from fractions import Fraction

    from .intervals import Interval, IntervalSet

    if K < 0:
        raise ValueError("gap index bound must be >= 0")
    gaps = [Interval(Fraction(1, 3), Fraction(2, 3))]
    for k in range(1, K + 1):
        den = 3 ** (k + 1)
        gaps.append(Interval(Fraction(1, den), Fraction(2, den)))
        gaps.append(Interval(Fraction(den - 2, den), Fraction(den - 1, den)))
    return IntervalSet(gaps)


def node_child(node: FastNode, k: int, high_side: bool) -> FastNode:
    """The k-th surviving child cell of `node`, on the low or high side.

    Low side E_k appends the word 0^k 2, high side F_k the word 2^k 0.
    """
    if k < 1:
        raise ValueError("child index must be >= 1")
    return _append(node, 3 ** (k + 1) - 3 if high_side else 2, k + 1)


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

    inner: "IntervalSet"
    outer: "IntervalSet"


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


def _fast_tree(n: int, K: int) -> tuple[list[FastNode], list[FastNode], int]:
    """(inner, outer) addresses and the depth 1 + n(K+1) of the deepest cell.

    inner is the tracked depth-n cells, outer those and the hull tails.
    """
    parents, level = _rounds(n, K)
    words = (0, 3 ** (K + 1) - 1)  # 0^(K+1) and 2^(K+1)
    tails = [_append(node, w, K + 1) for node in parents for w in words]
    return level, level + tails, 1 + n * (K + 1)


def fast_subdivision(n: int, K: int) -> FastSubdivision:
    """Run n truncated rounds starting from [2/3, 1], tracking k <= K."""
    from .intervals import IntervalSet

    inner, outer, _ = _fast_tree(n, K)
    return FastSubdivision(
        inner=IntervalSet(node.cell for node in inner),
        outer=IntervalSet(node.cell for node in outer),
    )


def removed_gaps(n: int, K: int) -> "IntervalSet":
    """Union of all gap intervals deleted during n rounds of fast subdivision."""
    from .intervals import IntervalSet

    parents, _ = _rounds(n, K)
    base = gap_set(K)
    return IntervalSet(gap for node in parents for gap in base.affine_image(node.cell))


def squared_length_sum(n: int, K: int) -> tuple["Fraction", "Fraction"]:
    """(sum of |cell|^2 over tracked depth-n cells, its K -> infinity limit).

    The limit is (1/9) (1/36)^n: each round multiplies the squared-length sum
    of a cell by 2 sum_{k>=1} 9^(-k-1) = 1/36.
    """
    from fractions import Fraction

    _, level = _rounds(n, K)
    truncated = sum((node.length**2 for node in level), Fraction(0))
    limit = Fraction(1, 9) * Fraction(1, 36) ** n
    return truncated, limit

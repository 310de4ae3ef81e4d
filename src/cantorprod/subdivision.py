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
  only.  Both brackets are exact: inner <= D_n <= outer.  Each of these
  words, and each gap I 0^k 1 or I 2^k 1, is a side piece I 0^k or I 2^k
  followed by one digit, and _side is the one place that builds them.
  _families, next to it, is the int home of the band P and the diagonal
  gap G of a side piece: the figure reads them as ints, gaps wraps them as
  Fractions.

This module is the one place that turns an address into endpoints.  Every
set of cells here is a _cover: _ends reads their integer ends at one scale
3^-depth, merged on ints and made Fractions once; FastNode.cell gives one cell
as Fractions.  The ints of _leaves are already the leaves' left ends, in units
of their 3^-depth.  The integer walks load no `fractions`: Fractions are
built through ternary._fraction, and the functions that build Intervals or
IntervalSets import `intervals` where they run.
"""

from typing import TYPE_CHECKING, Iterable, NamedTuple

# Membership lives in `ternary`, which never loads `fractions`.  classify_ternary
# is re-exported here because callers look it up on this module: perfbench's
# tracer wraps `subdivision.classify_ternary` (its --trace 1 run fails without
# it), and the selftest calls it through this module.
from .ternary import _fraction, _fraction_property, _merge_ends, classify_ternary  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction

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

    length = _fraction_property(lambda node: (1, 3**node.k))


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
    Plain ints: render reads its cells' left ends straight off them, and
    the standard route its ancestors' addresses, with no FastNode to unpack.
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


def _cover(nodes: Iterable[FastNode], depth: int) -> "IntervalSet":
    """The union of the nodes' cells (no node deeper than `depth`), merged on ints."""
    from .intervals import IntervalSet

    return IntervalSet._from_ends(*_merge_ends(*_ends(nodes, depth)), 3**depth)


def standard_subdivision(n: int) -> "IntervalSet":
    """K_n: what remains of [0, 1] after n rounds of middle-third removal."""
    return _cover([FastNode(m, n) for m in _leaves(UNIT, n)], n)


def right_half_subdivision(n: int) -> "IntervalSet":
    """R_n: level-n standard cover of the right half of the Cantor set.

    Its components are the cells of K_n meet [2/3, 1], the level-(n-1) words
    below ROOT.  Level 0 has the single cell [2/3, 1], like level 1.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    level = max(n, 1)
    return _cover([FastNode(m, level) for m in _leaves(ROOT, level - 1)], level)


def _side(node: FastNode, k: int, high_side: bool, digit: int) -> FastNode:
    """The address node 0^k digit (low side) or node 2^k digit (high side), at
    depth node.k + k + 1: the one place a side-piece word is built."""
    return _append(node, digit + (3 ** (k + 1) - 3 if high_side else 0), k + 1)


def _families(node: FastNode, k: int, high_side: bool) -> tuple[int, int, int, int]:
    """(p_lo, p_hi == g_lo, g_hi, 9^d): the band P and the diagonal gap G of the
    side piece node 0^k (low) or node 2^k (high), as ints over 9^d.

    With the piece's first third a / 3^d, P = [a(a+2), (a+1)(a+3)] is the
    product of its outer thirds and G = [(a+1)(a+3), (a+2)^2] is what its
    middle removal opens on the diagonal: the one home of both formulas.
    """
    a, d = _side(node, k, high_side, 0)
    return a * (a + 2), (a + 1) * (a + 3), (a + 2) ** 2, 9**d


def _gaps(node: FastNode, K: int) -> list[FastNode]:
    """The gaps of B truncated at index K, rescaled into `node`: node 0^k 1 and
    node 2^k 1 for k <= K, both node 1 at k = 0 (the merge drops the copy)."""
    return [_side(node, k, high, 1) for k in range(K + 1) for high in (False, True)]


def gap_set(K: int) -> "IntervalSet":
    """The gap family B truncated at index K, as a subset of [0, 1].

    Contains the central gap plus the K nearest side gaps at each end;
    measure 2/3 - 1/3^(K+1).
    """
    if K < 0:
        raise ValueError("gap index bound must be >= 0")
    return _cover(_gaps(UNIT, K), K + 1)


def node_child(node: FastNode, k: int, high_side: bool) -> FastNode:
    """The k-th surviving child cell of `node`: E_k = node 0^k 2 on the low
    side, F_k = node 2^k 0 on the high side."""
    if k < 1:
        raise ValueError("child index must be >= 1")
    return _side(node, k, high_side, 0 if high_side else 2)


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
    tails = [_side(node, K, high, 2 if high else 0) for node in parents for high in (False, True)]
    return level, level + tails, 1 + n * (K + 1)


def fast_subdivision(n: int, K: int) -> FastSubdivision:
    """Run n truncated rounds starting from [2/3, 1], tracking k <= K."""
    inner, outer, depth = _fast_tree(n, K)
    return FastSubdivision(inner=_cover(inner, depth), outer=_cover(outer, depth))


def removed_gaps(n: int, K: int) -> "IntervalSet":
    """Union of all gap intervals deleted during n rounds of fast subdivision."""
    parents, _ = _rounds(n, K)
    return _cover([gap for node in parents for gap in _gaps(node, K)], 1 + n * (K + 1))


def squared_length_sum(n: int, K: int) -> tuple["Fraction", "Fraction"]:
    """(sum of |cell|^2 over tracked depth-n cells, its K -> infinity limit).

    The limit is (1/9) (1/36)^n: each round multiplies the squared-length sum
    of a cell by 2 sum_{k>=1} 9^(-k-1) = 1/36.
    """
    level, _, depth = _fast_tree(n, K)
    truncated = _fraction(sum(9 ** (depth - node.k) for node in level), 9**depth)
    return truncated, _fraction(1, 9 * 36**n)

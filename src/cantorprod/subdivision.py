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
  Next to it, p_interval, g_interval and q_interval hold the formulas of
  the three families on a side piece, the band P, the diagonal gap G and
  the child square Q, one function each.  Each returns its (lo, hi) ends as
  lowest-terms (p, q) pairs: the figure, the order chain and certify read
  them as they are.

This module is the one place that turns an address into endpoints.  Every
set of cells here is a _cover: _ends reads their integer ends at one scale
3^-depth, merged on ints and made Fractions once; records.FastNode.cell gives
one cell as Fractions.  The ints of ternary._leaves are already the leaves'
left ends, in units of their 3^-depth.  The integer walks load no
`fractions`: Fractions are built through ternary._fraction, and the
functions that build Intervals or IntervalSets import `intervals` where they
run.

Addresses are plain (m, k) int pairs throughout, starting from ternary's
_UNIT and _ROOT: _child, _children and the families read and build plain
pairs, and a records.FastNode, a tuple subclass, passes wherever a pair
does.  node_child and fast_subdivision hand out records, and so does
classify_ternary, whose `Membership` verdict and `TernaryExpansion` are read
off `ternary`'s int kernel, which `member` runs without them; each imports
`records` where it runs, so `render`, `certify`, `fast` and `selftest` load
neither `typing` nor `enum` through this module.
"""

from .ternary import _ROOT, _UNIT, Address, Ratio, _expansion, _leaves, _lowest, _merge_ends
from .ternary import _ratio, _verdict

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction

    from .intervals import IntervalSet
    from .records import FastNode, FastSubdivision, Membership, TernaryExpansion


def _append(node: Address, word: int, j: int) -> Address:
    """The address `node` followed by the j ternary digits of `word` (0 <= word < 3^j)."""
    m, k = node
    return m * 3**j + word, k + j


def _ends(nodes: "Iterable[Address]", depth: int) -> tuple[list[int], list[int]]:
    """Lower and upper ends of the nodes' cells in units of 3^-depth (no node deeper)."""
    units = [(m, 3 ** (depth - k)) for m, k in nodes]
    return [m * unit for m, unit in units], [(m + 1) * unit for m, unit in units]


def _cover(nodes: "Iterable[Address]", depth: int) -> "IntervalSet":
    """The union of the nodes' cells (no node deeper than `depth`), merged on ints."""
    from .intervals import IntervalSet

    return IntervalSet._from_ends(*_merge_ends(*_ends(nodes, depth)), 3**depth)


def standard_subdivision(n: int) -> "IntervalSet":
    """K_n: what remains of [0, 1] after n rounds of middle-third removal."""
    return _cover([(m, n) for m in _leaves(_UNIT, n)], n)


def right_half_subdivision(n: int) -> "IntervalSet":
    """R_n: level-n standard cover of the right half of the Cantor set.

    Its components are the cells of K_n meet [2/3, 1], the level-(n-1) words
    below ROOT.  Level 0 has the single cell [2/3, 1], like level 1.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    level = max(n, 1)
    return _cover([(m, level) for m in _leaves(_ROOT, level - 1)], level)


def _side(node: Address, k: int, high_side: bool, digit: int) -> Address:
    """The address node 0^k digit (low side) or node 2^k digit (high side), at
    depth node.k + k + 1: the one place a side-piece word is built."""
    return _append(node, digit + (3 ** (k + 1) - 3 if high_side else 0), k + 1)


def p_interval(node: Address, k: int, high_side: bool) -> tuple[Ratio, Ratio]:
    """Band P = [a(a+2), (a+1)(a+3)] / 9^d of the side piece node 0^k (low) or
    node 2^k (high), whose first third is a / 3^d: the product of its two
    outer thirds, as (lo, hi) lowest-terms pairs."""
    if k < 0:
        raise ValueError("band index must be >= 0")
    a, d = _side(node, k, high_side, 0)
    return _lowest(a * (a + 2), 9**d), _lowest((a + 1) * (a + 3), 9**d)


def g_interval(node: Address, k: int, high_side: bool) -> tuple[Ratio, Ratio]:
    """Diagonal gap G = [(a+1)(a+3), (a+2)^2] / 9^d of the same side piece, as
    pairs: what its middle removal opens on the diagonal, from the band's top
    to the upper third's square, an interval of length (|piece|/3)^2; both
    sides agree at k = 0."""
    if k < 0:
        raise ValueError("gap index must be >= 0")
    a, d = _side(node, k, high_side, 0)
    return _lowest((a + 1) * (a + 3), 9**d), _lowest((a + 2) ** 2, 9**d)


def q_interval(node: Address, k: int, high_side: bool) -> tuple[Ratio, Ratio]:
    """Square Q = [c^2, (c+1)^2] / 9^d of the k-th child cell c / 3^d (k >= 1),
    the side piece's tracked third, as pairs."""
    c, d = _child(node, k, high_side)
    return _lowest(c * c, 9**d), _lowest((c + 1) ** 2, 9**d)


def _gaps(node: Address, K: int) -> list[Address]:
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
    return _cover(_gaps(_UNIT, K), K + 1)


def _child(node: Address, k: int, high_side: bool) -> Address:
    """The k-th surviving child cell of `node` as a plain pair: E_k = node 0^k 2
    on the low side, F_k = node 2^k 0 on the high side."""
    if k < 1:
        raise ValueError("child index must be >= 1")
    return _side(node, k, high_side, 0 if high_side else 2)


def _children(node: Address, K: int) -> list[Address]:
    """All tracked children (k <= K on both sides) as plain pairs, ordered left to right."""
    if K < 1:
        raise ValueError("child index bound must be >= 1")
    low = [_child(node, k, high_side=False) for k in range(K, 0, -1)]
    return low + [_child(node, k, high_side=True) for k in range(1, K + 1)]


def node_child(node: Address, k: int, high_side: bool) -> "FastNode":
    """The k-th surviving child cell of `node`, _child's pair as a record."""
    from .records import FastNode

    return FastNode(*_child(node, k, high_side))


def _rounds(n: int, K: int) -> tuple[list[Address], list[Address]]:
    """n rounds from ROOT tracking k <= K: (every subdivided cell, the depth-n cells)."""
    if n < 0:
        raise ValueError("round count must be >= 0")
    if K < 1:
        raise ValueError("gap_depth must be >= 1")
    if (2 * K) ** n > 500_000:
        raise ValueError(f"refusing to track (2*{K})^{n} cells")
    # the cell count alone admits K = 200_000 at n = 1, whose addresses run to
    # 200,002 digits: bound the digits built as well
    depth = 1 + n * (K + 1)
    if (2 * K) ** n * depth > 10_000_000:
        raise ValueError(f"refusing to build (2*{K})^{n} addresses of {depth} digits")
    parents: list[Address] = []
    level = [_ROOT]
    for _ in range(n):
        parents.extend(level)
        level = [child for node in level for child in _children(node, K)]
    return parents, level


def _fast_tree(n: int, K: int) -> tuple[list[Address], list[Address], int]:
    """(inner, outer) addresses and the depth 1 + n(K+1) of the deepest cell.

    inner is the tracked depth-n cells, outer those and the hull tails.
    """
    parents, level = _rounds(n, K)
    tails = [_side(node, K, high, 2 if high else 0) for node in parents for high in (False, True)]
    return level, level + tails, 1 + n * (K + 1)


def fast_subdivision(n: int, K: int) -> "FastSubdivision":
    """Run n truncated rounds starting from [2/3, 1], tracking k <= K."""
    from .records import FastSubdivision

    inner, outer, depth = _fast_tree(n, K)
    return FastSubdivision(inner=_cover(inner, depth), outer=_cover(outer, depth))


def removed_gaps(n: int, K: int) -> "IntervalSet":
    """Union of all gap intervals deleted during n rounds of fast subdivision."""
    parents, _ = _rounds(n, K)
    return _cover([gap for node in parents for gap in _gaps(node, K)], 1 + n * (K + 1))


def squared_length_sum(n: int, K: int) -> tuple[Ratio, Ratio]:
    """(sum of |cell|^2 over tracked depth-n cells, its K -> infinity limit),
    as lowest-terms pairs.

    The limit is (1/9) (1/36)^n: each round multiplies the squared-length sum
    of a cell by 2 sum_{k>=1} 9^(-k-1) = 1/36.
    """
    level, _, depth = _fast_tree(n, K)
    truncated = _lowest(sum(9 ** (depth - k) for _, k in level), 9**depth)
    return truncated, (1, 9 * 36**n)


def classify_ternary(x: "int | Fraction | str",
                     max_digits: int = 4096) -> "tuple[Membership, TernaryExpansion]":
    """Decide Cantor-set membership of x in [0, 1] from its ternary digits.

    The digits come from `ternary._expansion`'s long division, which detects
    the cycle, and the verdict is `ternary._verdict`'s: a digit 1 puts x in a
    removed gap unless it is the last digit of a terminating expansion.
    UNDETERMINED can only happen when max_digits is smaller than the cycle.
    """
    from .records import Membership, TernaryExpansion

    digits, period, complete = _expansion(*_ratio(x), max_digits)
    exp = TernaryExpansion(tuple(digits), period, complete)
    return Membership(_verdict(*exp)), exp

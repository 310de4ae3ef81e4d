"""SVG rendering of one subdivision cell with its product bands.

The picture lives in the local coordinates of a single cell, with the
unit square [0,1]x[0,1] representing cell x cell.  Overlays, in paint
order: light grey product-band rectangles, the triadic grid, white
middle-third crosses, black cell-pair squares, thick edge ticks for the
retained cells, then the product hyperbolas xy = v clipped to the
square, with the band between the two endpoint arcs of each P-interval
shaded.  Margin labels name the P/Q/G families like the usual picture.

All geometry is computed from the exact family endpoints; coordinates
are emitted as 12-significant-digit decimals for display, and every
band and arc carries its exact rational endpoints in data-* attributes
so the figure can be checked against the certified values.  Each exact
point is converted to float once, and each family value's hyperbola is
sampled once per figure (no two families share a value).

The figure runs on ints: the cell is a plain (m, k) address pair, the P
and G ends are the lowest-terms (p, q) pairs of subdivision.p_interval and
g_interval, each family's one home, and the text is ternary.format_ratio's.
An int/int true division is correctly rounded, so every float is the one a
Fraction would give.  This module loads only `subdivision` and `ternary`,
and neither `fractions`, `intervals`, `gaps` nor `records`: _families is the
figure's kernel, and the cell it gives is a plain pair.

_svg hands out the document line by line, each line built as it is read,
and the CLI writes each one as it comes: at most one family's arcs are held
at a time, so the figure streams in far less memory than its own text.
render_svg joins the same lines into one string.
"""

from itertools import chain

from .subdivision import _child, _ends, g_interval, p_interval
from .ternary import _ROOT, _UNIT, Address, Ratio, _leaves, format_ratio

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

# a drawn family: (k, side, P, G), P and G (lo, hi) pairs of lowest-terms (p, q) ratios
Family = tuple[int, str, tuple[Ratio, Ratio], tuple[Ratio, Ratio]]

MAX_DEPTH = 2
MAX_KMAX = 6

_ARC_SAMPLES = 64

# viewBox leaves side margins for the labels
_VIEW = "-0.58 -0.04 2.26 1.08"


# The element builders take float (or small int) coordinates with y up and
# flip y for SVG (y down) inside the unit square; every number is written
# at 12 significant digits.


def _rect(x0: float, y0: float, x1: float, y1: float, fill: str, extra: str = "") -> str:
    return (
        f'<rect x="{x0:.12g}" y="{1.0 - y1:.12g}" width="{x1 - x0:.12g}"'
        f' height="{y1 - y0:.12g}" fill="{fill}"{extra}/>'
    )


def _line(x0: float, y0: float, x1: float, y1: float, width: str, extra: str = "") -> str:
    return (
        f'<line x1="{x0:.12g}" y1="{1.0 - y0:.12g}" x2="{x1:.12g}" y2="{1.0 - y1:.12g}"'
        f' stroke="black" stroke-width="{width}"{extra}/>'
    )


def _families(depth: int, k_max: int) -> tuple[Address, list[Family]]:
    """The drawn cell as a plain pair and its (k, side, P, G) families, for the
    figure's ranges.

    P and G are (lo, hi) pairs of lowest-terms (p, q) ratios.  The cell at a
    given depth is the end of the low-side child chain.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}")
    if not 0 <= k_max <= MAX_KMAX:
        raise ValueError(f"k_max must be in 0..{MAX_KMAX}")
    node = _ROOT
    for _ in range(depth):
        node = _child(node, 1, high_side=False)
    tags = [(0, "±")] + [(k, side) for k in range(1, k_max + 1) for side in "-+"]
    return node, [
        (k, side, p_interval(node, k, side == "+"), g_interval(node, k, side == "+"))
        for k, side in tags
    ]


def cell_text(node: Address) -> tuple[str, str]:
    """The node's cell ends as "p/q" text."""
    m, k = node
    den = 3**k
    return format_ratio(m, den), format_ratio(m + 1, den)


def _cells(k_max: int) -> list[tuple[int, str, float, float]]:
    """(k, side, lo, hi) of E_1, F_1, ..., E_K, F_K in local coordinates: the unit cell's."""
    tags = [(k, side) for k in range(1, k_max + 1) for side in "-+"]
    depth = k_max + 1
    los, his = _ends((_child(_UNIT, k, side == "+") for k, side in tags), depth)
    return [(k, side, lo / 3**depth, hi / 3**depth) for (k, side), lo, hi in zip(tags, los, his)]


def _band_rects(cells) -> "Iterator[str]":
    grey = "#c7c7c7"
    yield _rect(2 / 3, 0, 1, 1 / 3, grey)
    yield _rect(0, 2 / 3, 1 / 3, 1, grey)
    for k, side, lo, hi in cells:
        den = 3 ** (k + 1)
        tail = 1 / den
        if side == "-":  # E_k: cell x tail, then tail x (cell start .. previous scale)
            yield _rect(lo, 0, hi, tail, grey)
            yield _rect(0, lo, tail, 1 if k == 1 else 1 / 3 ** (k - 1), grey)
        else:  # F_k: the mirror image, about 1 - tail (exact, then rounded once)
            yield _rect((den - 1) / den, lo, 1, hi, grey)
            yield _rect(lo, (den - 1) / den, hi, 1, grey)


def _grid(levels: int) -> "Iterator[str]":
    """Lines through the interior triadic gap endpoints down to the given level."""
    den = 3**levels
    points = [e / den for m in _leaves(_UNIT, levels) for e in (m, m + 1)][1:-1]
    for p in points:
        yield _line(p, 0, p, 1, "0.0015")
        yield _line(0, p, 1, p, "0.0015")
    yield _line(0, 0, 1, 1, "0.0015")


def _crosses(depth: int) -> "Iterator[str]":
    """A white middle-third cross over the diagonal square of every cell of
    levels 0..depth, level by level."""
    for level in range(depth + 1):
        den = 3 ** (level + 1)  # in thirds of the cell (m, level): 3m, 3m+1, 3m+2, 3m+3
        for m in _leaves(_UNIT, level):
            lo, a, b, hi = (e / den for e in range(3 * m, 3 * m + 4))
            yield _rect(lo, a, a, b, "white")
            yield _rect(b, a, hi, b, "white")
            yield _rect(a, b, b, hi, "white")
            yield _rect(a, lo, b, a, "white")


def _pair_squares(cells) -> "Iterator[str]":
    for xk, xside, x0, x1 in cells:
        for yk, yside, y0, y1 in cells:
            tags = f'data-xk="{xk}" data-xside="{xside}" data-yk="{yk}" data-yside="{yside}"'
            yield _rect(x0, y0, x1, y1, "black", f' class="pair" {tags}')


def _edge_ticks(cells) -> "Iterator[str]":
    for _, _, lo, hi in cells:
        yield _line(lo, 0, hi, 0, "0.008")
        yield _line(lo, 1, hi, 1, "0.008")
        yield _line(0, lo, 0, hi, "0.008")
        yield _line(1, lo, 1, hi, "0.008")


def _arc_points(node: Address, value: Ratio) -> list[str]:
    """Samples of xy = value in local cell coordinates, left to right, as SVG "x y" text.

    Locally the arc is y = v / (q + x) - q, with v = value * 9^k = num / den.
    """
    q, k = node
    num, den = value
    num *= 9**k
    # x-window where the local y stays inside [0,1]: x_lo = v / (q + 1) - q and
    # x_hi = v / q - q, each an exact int ratio rounded to float once
    lo, hi = num - q * (q + 1) * den, num - q * q * den
    fx_lo = lo / (den * (q + 1)) if lo > 0 else 0.0
    fx_hi = hi / (den * q) if hi < den * q else 1.0
    fq, fv, span = float(q), num / den, fx_hi - fx_lo
    xs = [fx_lo + span * i / _ARC_SAMPLES for i in range(_ARC_SAMPLES + 1)]
    ys = [fv / (fq + x) - fq for x in xs]
    # y clamped to [0, 1] by a conditional: min/max calls double the cost of this loop
    return [
        f"{x:.12g} {1.0 - (0.0 if y < 0.0 else 1.0 if y > 1.0 else y):.12g}"
        for x, y in zip(xs, ys)
    ]


def _arcs(node: Address, families) -> "Iterator[str]":
    def arc(points: list[str]) -> str:
        return "M " + " L ".join(points)

    def band(lo: list[str], hi: list[str]) -> str:
        """Closed region between the arcs through the points lo and hi."""
        return f"{arc(hi)} L {' L '.join(reversed(lo))} Z"

    def data(ends: tuple[Ratio, Ratio]) -> str:
        lo, hi = ends
        return f'data-lo="{format_ratio(*lo)}" data-hi="{format_ratio(*hi)}"'

    yield '<g clip-path="url(#cell)" fill="none" stroke="black" stroke-width="0.0015">'
    for k, side, p, g in families:
        # a family's band P ends where its gap G starts, and no two families
        # share a value: each of its three values is sampled once, here
        values = (*p, g[1])
        low, mid, high = (_arc_points(node, value) for value in values)
        yield f'<g class="family" data-k="{k}" data-side="{side}">'
        yield (
            f'<path d="{band(low, mid)}" fill="grey" fill-opacity="0.1" stroke="none"'
            f' class="band band-p" {data(p)}/>'
        )
        yield f'<path d="{band(mid, high)}" fill="none" class="band band-g" {data(g)}/>'
        for value, points in zip(values, (low, mid, high)):
            yield f'<path d="{arc(points)}" class="arc" data-level="{format_ratio(*value)}"/>'
        yield "</g>"
    yield "</g>"


def _label(name: str, tx, ty, ax0=None, ax1=None, anchor="middle") -> "Iterator[str]":
    if ax0 is not None:
        yield _line(
            *ax0, *ax1, "0.0012", ' stroke-dasharray="0.008 0.006" marker-end="url(#tip)"'
        )
    yield (
        f'<text x="{tx:.12g}" y="{1.0 - ty:.12g}" font-size="0.045" font-family="serif"'
        f' text-anchor="{anchor}" dominant-baseline="middle">{name}</text>'
    )


def _labels(k_max: int) -> "Iterator[str]":
    yield from _label("P(I,0,±)", 0.45, 0.6)
    yield from _label("G(I,0,±)", 1.34, 0.4, (1.2, 0.4), (0.94, 0.4), "start")
    if k_max >= 1:
        yield from _label("P(I,1,-)", -0.34, 0.37, (-0.2, 0.37), (0.03, 0.37), "end")
        yield from _label("Q(I,1,-)", -0.44, 0.28, (-0.3, 0.28), (0.21, 0.28), "end")
        yield from _label("Q(I,1,+)", -0.44, 0.72, (-0.3, 0.72), (0.65, 0.72), "end")
        yield from _label("G(I,1,-)", -0.34, 0.48, (-0.2, 0.48), (-0.01, 0.48), "end")
        yield from _label("P(I,1,+)", 1.34, 0.63, (1.2, 0.63), (0.97, 0.63), "start")
        yield from _label("G(I,1,+)", 1.34, 0.78, (1.2, 0.78), (1.01, 0.78), "start")


def render_svg(depth: int = 1, k_max: int = 3) -> str:
    """Build the figure as an SVG document string: the lines of _svg, joined."""
    return "".join(_svg(depth, k_max))


def _svg(depth: int, k_max: int) -> "Iterator[str]":
    """The figure's lines, each with its newline, built one at a time as they are read.

    The ranges are checked before the generator is returned, so a bad depth
    or k_max raises before any line is asked for; the CLI streams the lines
    to its output, and only render_svg holds the whole document.
    """
    node, families = _families(depth, k_max)
    cell_lo, cell_hi = cell_text(node)
    cells = _cells(k_max)
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000"'
        f' viewBox="{_VIEW}" data-cell-lo="{cell_lo}"'
        f' data-cell-hi="{cell_hi}" data-q="{node[0]}"'
        f' data-scale-k="{node[1]}">',
        "<defs>",
        '<clipPath id="cell"><rect x="0" y="0" width="1" height="1"/></clipPath>',
        '<marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="6"'
        ' markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker>',
        "</defs>",
        _rect(0, 0, 1, 1, "white", ' stroke="black" stroke-width="0.0015"'),
    )
    parts = chain(
        head,
        _band_rects(cells),
        _grid(min(k_max + 1, 3)),
        _crosses(depth),
        _pair_squares(cells),
        _edge_ticks(cells),
        _arcs(node, families),
        _labels(k_max),
        ("</svg>",),
    )
    return (part + "\n" for part in parts)

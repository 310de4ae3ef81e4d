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
so the figure can be checked against the certified values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .intervals import Interval, Rational, format_rational, rat
from .subdivision import ROOT, FastNode, node_child, standard_cells
from .gaps import g_interval, p_interval

MAX_DEPTH = 2
MAX_KMAX = 6

_ARC_SAMPLES = 64

# viewBox leaves side margins for the labels
_VIEW = "-0.58 -0.04 2.26 1.08"


def _fmt(value) -> str:
    """Format a coordinate at 12 significant digits."""
    return f"{float(value):.12g}"


def _attrs(mapping: dict) -> str:
    return "".join(f' {key}="{val}"' for key, val in mapping.items())


class _Drawing:
    """Accumulates SVG elements in paint order."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def tag(self, name: str, **attrs) -> None:
        clean = {k.replace("_", "-"): v for k, v in attrs.items()}
        self.parts.append(f"<{name}{_attrs(clean)}/>")

    def open(self, name: str, **attrs) -> None:
        clean = {k.replace("_", "-"): v for k, v in attrs.items()}
        self.parts.append(f"<{name}{_attrs(clean)}>")

    def close(self, name: str) -> None:
        self.parts.append(f"</{name}>")

    def text(self, x, y, label: str, anchor: str = "middle") -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_flip(y))}" font-size="0.045"'
            f' font-family="serif" text-anchor="{anchor}"'
            f' dominant-baseline="middle">{label}</text>'
        )


def _flip(y) -> float:
    """Mathematical y (up) to SVG y (down) inside the unit square."""
    return 1.0 - float(y)


def _rect(d: _Drawing, x0, y0, x1, y1, fill: str, **extra) -> None:
    d.tag(
        "rect",
        x=_fmt(x0),
        y=_fmt(_flip(y1)),
        width=_fmt(float(x1) - float(x0)),
        height=_fmt(float(y1) - float(y0)),
        fill=fill,
        **extra,
    )


def _line(d: _Drawing, x0, y0, x1, y1, width: str, **extra) -> None:
    d.tag(
        "line",
        x1=_fmt(x0),
        y1=_fmt(_flip(y0)),
        x2=_fmt(x1),
        y2=_fmt(_flip(y1)),
        stroke="black",
        stroke_width=width,
        **extra,
    )


def cell_families(
    depth: int, k_max: int
) -> tuple[FastNode, list[tuple[int, str, Interval, Interval]]]:
    """The drawn cell and its (k, side, P, G) families, for the figure's ranges.

    The cell at a given depth is the end of the low-side child chain.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}")
    if not 0 <= k_max <= MAX_KMAX:
        raise ValueError(f"k_max must be in 0..{MAX_KMAX}")
    node = ROOT
    for _ in range(depth):
        node = node_child(node, 1, high_side=False)
    families = [(0, "±", p_interval(node, 0, False), g_interval(node, 0, False))]
    for k in range(1, k_max + 1):
        families.append((k, "-", p_interval(node, k, False), g_interval(node, k, False)))
        families.append((k, "+", p_interval(node, k, True), g_interval(node, k, True)))
    return node, families


def _low_cell(k: int) -> tuple[Fraction, Fraction]:
    return Fraction(2, 3 ** (k + 1)), Fraction(1, 3**k)


def _high_cell(k: int) -> tuple[Fraction, Fraction]:
    return 1 - Fraction(1, 3**k), 1 - Fraction(2, 3 ** (k + 1))


def _cells(k_max: int) -> Iterator[tuple[int, str, Fraction, Fraction]]:
    for k in range(1, k_max + 1):
        lo, hi = _low_cell(k)
        yield k, "-", lo, hi
        lo, hi = _high_cell(k)
        yield k, "+", lo, hi


def _grid_points(levels: int) -> list[Fraction]:
    """Interior triadic gap endpoints down to the given level, ascending."""
    return [p for cell in standard_cells(levels) for p in (cell.lo, cell.hi)][1:-1]


def _band_rects(d: _Drawing, k_max: int) -> None:
    grey = "#c7c7c7"
    _rect(d, Fraction(2, 3), Fraction(0), Fraction(1), Fraction(1, 3), grey)
    _rect(d, Fraction(0), Fraction(2, 3), Fraction(1, 3), Fraction(1), grey)
    for k in range(1, k_max + 1):
        tail = Fraction(1, 3 ** (k + 1))
        e_lo, e_hi = _low_cell(k)
        # low pair: cell x tail, then tail x (cell start .. previous scale)
        _rect(d, e_lo, Fraction(0), e_hi, tail, grey)
        reach = Fraction(1) if k == 1 else Fraction(1, 3 ** (k - 1))
        _rect(d, Fraction(0), e_lo, tail, reach, grey)
        f_lo, f_hi = _high_cell(k)
        _rect(d, 1 - tail, f_lo, Fraction(1), f_hi, grey)
        _rect(d, f_lo, 1 - tail, f_hi, Fraction(1), grey)


def _crosses(d: _Drawing, depth: int) -> None:
    """A white middle-third cross over the diagonal square of every cell of
    levels 0..depth, level by level."""
    for level in range(depth + 1):
        for cell in standard_cells(level):
            lo, hi, third = cell.lo, cell.hi, cell.length / 3
            a, b = lo + third, hi - third
            _rect(d, lo, a, a, b, "white")
            _rect(d, b, a, hi, b, "white")
            _rect(d, a, b, b, hi, "white")
            _rect(d, a, lo, b, a, "white")


def _pair_squares(d: _Drawing, k_max: int) -> None:
    cells = list(_cells(k_max))
    for xk, xside, x0, x1 in cells:
        for yk, yside, y0, y1 in cells:
            _rect(
                d,
                x0,
                y0,
                x1,
                y1,
                "black",
                **{
                    "class": "pair",
                    "data_xk": xk,
                    "data_xside": xside,
                    "data_yk": yk,
                    "data_yside": yside,
                },
            )


def _edge_ticks(d: _Drawing, k_max: int) -> None:
    for _, _, lo, hi in _cells(k_max):
        _line(d, lo, 0, hi, 0, "0.008")
        _line(d, lo, 1, hi, 1, "0.008")
        _line(d, 0, lo, 0, hi, "0.008")
        _line(d, 1, lo, 1, hi, "0.008")


def _arc_points(node: FastNode, value: Rational) -> list[tuple[float, float]]:
    """Samples of xy = value in local cell coordinates, left to right."""
    q = Fraction(node.q)
    scale = Fraction(3) ** (2 * node.k)
    # x-window where the local y stays inside [0,1]
    x_lo = max(Fraction(0), value * scale / (q + 1) - q)
    x_hi = min(Fraction(1), value * scale / q - q)
    fq, fv = float(q), float(value * scale)
    fx_lo, fx_hi = float(x_lo), float(x_hi)
    pts = []
    for i in range(_ARC_SAMPLES + 1):
        x = fx_lo + (fx_hi - fx_lo) * i / _ARC_SAMPLES
        y = fv / (fq + x) - fq
        pts.append((x, min(max(y, 0.0), 1.0)))
    return pts


def _steps(pts) -> str:
    return " ".join(f"L {_fmt(x)} {_fmt(_flip(y))}" for x, y in pts)


def _arc_path(node: FastNode, value: Rational) -> str:
    """Sampled polyline for xy = value in local cell coordinates."""
    pts = _arc_points(node, value)
    return f"M {_fmt(pts[0][0])} {_fmt(_flip(pts[0][1]))} {_steps(pts[1:])}"


def _band_path(node: FastNode, lo: Rational, hi: Rational) -> str:
    """Closed region between the arcs xy = lo and xy = hi."""
    return f"{_arc_path(node, hi)} {_steps(reversed(_arc_points(node, lo)))} Z"


def _arcs(d: _Drawing, node: FastNode, families) -> None:
    d.open("g", clip_path="url(#cell)", fill="none", stroke="black", stroke_width="0.0015")
    for k, side, p, g in families:
        d.open("g", **{"class": "family", "data_k": k, "data_side": side})
        d.tag(
            "path",
            d=_band_path(node, p.lo, p.hi),
            fill="grey",
            fill_opacity="0.1",
            stroke="none",
            **{"class": "band band-p", "data_lo": format_rational(p.lo), "data_hi": format_rational(p.hi)},
        )
        d.tag(
            "path",
            d=_band_path(node, g.lo, g.hi),
            fill="none",
            **{"class": "band band-g", "data_lo": format_rational(g.lo), "data_hi": format_rational(g.hi)},
        )
        for value in (p.lo, p.hi, g.hi):
            d.tag(
                "path",
                d=_arc_path(node, value),
                **{"class": "arc", "data_level": format_rational(value)},
            )
        d.close("g")
    d.close("g")


def _label(d: _Drawing, name: str, tx, ty, ax0=None, ax1=None, anchor="middle") -> None:
    if ax0 is not None:
        _line(
            d,
            ax0[0],
            ax0[1],
            ax1[0],
            ax1[1],
            "0.0012",
            stroke_dasharray="0.008 0.006",
            marker_end="url(#tip)",
        )
    d.text(tx, ty, name, anchor)


def _labels(d: _Drawing, k_max: int) -> None:
    _label(d, "P(I,0,±)", 0.45, 0.6)
    _label(d, "G(I,0,±)", 1.34, 0.4, (1.2, 0.4), (0.94, 0.4), "start")
    if k_max >= 1:
        _label(d, "P(I,1,-)", -0.34, 0.37, (-0.2, 0.37), (0.03, 0.37), "end")
        _label(d, "Q(I,1,-)", -0.44, 0.28, (-0.3, 0.28), (0.21, 0.28), "end")
        _label(d, "Q(I,1,+)", -0.44, 0.72, (-0.3, 0.72), (0.65, 0.72), "end")
        _label(d, "G(I,1,-)", -0.34, 0.48, (-0.2, 0.48), (-0.01, 0.48), "end")
        _label(d, "P(I,1,+)", 1.34, 0.63, (1.2, 0.63), (0.97, 0.63), "start")
        _label(d, "G(I,1,+)", 1.34, 0.78, (1.2, 0.78), (1.01, 0.78), "start")


def render_svg(depth: int = 1, k_max: int = 3) -> str:
    """Build the figure as an SVG document string."""
    node, families = cell_families(depth, k_max)
    cell = node.cell
    d = _Drawing()
    d.parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000"'
        f' viewBox="{_VIEW}" data-cell-lo="{format_rational(rat(cell.lo))}"'
        f' data-cell-hi="{format_rational(rat(cell.hi))}" data-q="{node.q}"'
        f' data-scale-k="{node.k}">'
    )
    d.open("defs")
    d.parts.append('<clipPath id="cell"><rect x="0" y="0" width="1" height="1"/></clipPath>')
    d.parts.append(
        '<marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="6"'
        ' markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker>'
    )
    d.close("defs")
    _rect(d, 0, 0, 1, 1, "white", stroke="black", stroke_width="0.0015")
    _band_rects(d, k_max)
    for p in _grid_points(min(k_max + 1, 3)):
        _line(d, p, 0, p, 1, "0.0015")
        _line(d, 0, p, 1, p, "0.0015")
    _line(d, 0, 0, 1, 1, "0.0015")
    _crosses(d, depth)
    _pair_squares(d, k_max)
    _edge_ticks(d, k_max)
    _arcs(d, node, families)
    _labels(d, k_max)
    d.parts.append("</svg>")
    return "\n".join(d.parts) + "\n"

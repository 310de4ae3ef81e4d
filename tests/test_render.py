"""Tests for the SVG rendering of a cell's band/gap/square geometry."""

from __future__ import annotations

import contextlib
import hashlib
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from cantorprod import cli, render
from cantorprod.render import MAX_DEPTH, MAX_KMAX, render_svg

SVG = "{http://www.w3.org/2000/svg}"


def parse(depth: int, k_max: int) -> tuple[str, ET.Element]:
    svg = render_svg(depth, k_max)
    return svg, ET.fromstring(svg)


def test_output_is_well_formed_everywhere():
    for depth in range(MAX_DEPTH + 1):
        for k_max in range(MAX_KMAX + 1):
            svg, root = parse(depth, k_max)
            assert root.tag == f"{SVG}svg"
            assert svg.startswith("<svg")


def test_output_is_deterministic():
    assert render_svg(1, 3) == render_svg(1, 3)
    assert render_svg(0, 2) == render_svg(0, 2)


def test_validation_of_ranges():
    with pytest.raises(ValueError):
        render_svg(MAX_DEPTH + 1, 2)
    with pytest.raises(ValueError):
        render_svg(-1, 2)
    with pytest.raises(ValueError):
        render_svg(0, MAX_KMAX + 1)
    with pytest.raises(ValueError):
        render_svg(0, -1)


def test_root_cell_attributes():
    _, root = parse(0, 3)
    assert root.get("data-cell-lo") == "2/3"
    assert root.get("data-cell-hi") == "1/1"
    assert root.get("data-q") == "2"
    assert root.get("data-scale-k") == "1"


def test_descended_cell_attributes():
    _, one = parse(1, 2)
    assert one.get("data-q") == "20"
    _, two = parse(2, 2)
    assert two.get("data-q") == "182"
    assert two.get("data-cell-lo") == "182/243"
    assert two.get("data-scale-k") == "5"


def test_family_counts_scale_with_k_max():
    for k_max in (0, 1, 3):
        svg, _ = parse(0, k_max)
        families = 1 + 2 * k_max
        assert svg.count("data-level") == 3 * families
        assert svg.count("data-lo") == 2 * families
        assert svg.count('class="pair"') == (2 * k_max) ** 2


def test_band_endpoints_are_exact_family_values():
    _, root = parse(0, 1)
    bands = [
        (el.get("data-lo"), el.get("data-hi"))
        for el in root.iter(f"{SVG}path")
        if el.get("data-lo")
    ]
    assert bands == [
        ("16/27", "7/9"),
        ("7/9", "64/81"),
        ("40/81", "133/243"),
        ("133/243", "400/729"),
        ("208/243", "25/27"),
        ("25/27", "676/729"),
    ]


def test_arc_levels_are_exact_family_values():
    _, root = parse(0, 0)
    levels = [el.get("data-level") for el in root.iter(f"{SVG}path") if el.get("data-level")]
    assert levels == ["16/27", "7/9", "64/81"]


def test_margin_labels():
    svg, root = parse(0, 2)
    texts = [el.text for el in root.iter(f"{SVG}text")]
    assert texts == [
        "P(I,0,±)",
        "G(I,0,±)",
        "P(I,1,-)",
        "Q(I,1,-)",
        "Q(I,1,+)",
        "G(I,1,-)",
        "P(I,1,+)",
        "G(I,1,+)",
    ]
    _, bare = parse(0, 0)
    assert len(list(bare.iter(f"{SVG}text"))) == 2


def test_descended_cell_band_values_rescale():
    # the depth-1 cell repeats the same construction at its own scale: its
    # k = 0 band is the square of its q-geometry, not the root's numbers
    _, one = parse(1, 1)
    bands = [
        (el.get("data-lo"), el.get("data-hi"))
        for el in one.iter(f"{SVG}path")
        if el.get("data-lo")
    ]
    assert bands[0] == ("1240/2187", "427/729")


def test_each_family_value_is_sampled_once(monkeypatch):
    # at K = 3 the seven families draw 49 arcs over 21 distinct values
    sampled = []
    original = render._arc_points

    def spy(node, value):
        sampled.append(value)
        return original(node, value)

    monkeypatch.setattr(render, "_arc_points", spy)
    render_svg(1, 3)
    assert len(sampled) == len(set(sampled)) == 21


def test_viewbox_and_clip():
    svg, root = parse(0, 2)
    assert root.get("viewBox") == "-0.58 -0.04 2.26 1.08"
    assert 'clipPath id="cell"' in svg


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the UTF-8 bytes of render_svg(depth, k_max), indexed
# [depth][k_max].  Coordinates are `.12g` decimals of IEEE doubles, so any
# change to the sampling, the arithmetic order or the formatting shows here.
SVG_SHA256 = [
    [
        "0487f717b2ff8f0a808b2f8c73b4d578d1a1074190b855e5da47cebae2ffa5e1",
        "c3808baa90b7cfc44116460894fe6a5ba586b31890ee441866a8cafdfec013e7",
        "799a90f326d325d63ab3030b10ab3992fe26ad3b5bb110d2944a7d438551bb47",
        "6dce01d6a6d757f83cc1e2121d1dac7063e7ec533561a67c0b84c824f62af759",
        "ba9d93c24f9ef7f3e4fee732ce453adeafd79eefea4845bfc6006d3b3fe32d7d",
        "9fe85b7e5acc269e7e4bafe5d56513bfbc15f5db0ff87f6681a68b6701624706",
        "4a6c5d8defc0189ea03c4793094e445ce44531a52cf36a00a11b9f406167eef0",
    ],
    [
        "8795683c15182ee56e3b3a798bd389074485a1c6e4e03cf0dfb7765231ffd44e",
        "8b37845366442bab4c685f705f3a44779c494eafe7b557c19baf8c1a646155c6",
        "3bb2c3bbc5cdc6ef78335fe59fd57fd2434e455ba64e4e6d8b773cbb1bcb400b",
        "1f7015794e181ff56656a692443dbb493c5030e2b702a020239a5e575213bf2e",
        "c0763d63b82b79f0e7fbb7ae8b93d11df29178789347663ce26921245a055c32",
        "bfef100201e99e6d4b7743debf911d74248b04dfe1b8b907e4cacc407fd1388f",
        "2dc39f6ffe9e9dbc4bcf00070afe6faa8e1210885dac1cb2ee296d8615ec2c61",
    ],
    [
        "12b142dc77ca5a984b7c3538017f0f3d70a1fe78e904a448608c05bca540a6f4",
        "000afd433eb72b93a0aed876a7c3c84713c7596ba14d71fbc69c16b0d1e2e294",
        "96a4844ab5ad20590f46f39110ae4b9201d15de2d8ef03987eb9bc62640749aa",
        "f4bc341376f7289ec01ccb98c05812dbf8e2a4e060adb35adb29cb3962d103f8",
        "c5973290d223f512fd84d6e8ff973af85cde8f8928d8e2f9aa25dcfde96c6b2d",
        "c032422042f18767e17da768a48a8d9568297c5971bb01ad511e8b99bd96a3a4",
        "98e755a1a874fecfa39e957bb03a10609e80786089b0b4247238e0bc58aa4abf",
    ],
]

# SHA-256 of `cantorprod render --n depth --format fmt` (K = 3), indexed [fmt][depth]
PAYLOAD_SHA256 = {
    "json": [
        "0dcd03b8cc275d480bb7afd1154349e94bae5e227f9ddba25f3b9c65e7cd68a3",
        "4a0d4211dd8b637849cf48d435a0ff661b8f8c7c2a370dfc3c0d1c8c8610bef5",
        "0f16b6bcb85460d11469be18c62c5d319a59578829b7d984d6da03364942ab55",
    ],
    "text": [
        "6227ce96e108d0f05a9b60a293862bcd8e8856bc06161e0d53d33d036c9759cd",
        "80b9f6e634ec3668dcd48611cd308c8a81168277b98cb48ac86b13d6343980e8",
        "e33b3a99818b6f8394b58cb4f4579640cbbafc8dd6a5276cc76c9f4c3cbdd912",
    ],
}


@pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
@pytest.mark.parametrize("k_max", range(MAX_KMAX + 1))
def test_every_figure_is_pinned_byte_for_byte(depth, k_max):
    assert sha256(render_svg(depth, k_max).encode("utf-8")) == SVG_SHA256[depth][k_max]


@pytest.mark.parametrize("fmt", sorted(PAYLOAD_SHA256))
@pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
def test_render_payloads_are_pinned_byte_for_byte(fmt, depth, tmp_path):
    out = tmp_path / f"render.{fmt}"
    assert cli.main(["render", "--n", str(depth), "--format", fmt, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == PAYLOAD_SHA256[fmt][depth]


def traced_peak(argv) -> int:
    """The tracemalloc peak of cli.main(argv), in bytes, after checking exit 0."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_streams_the_figure(tmp_path):
    # the deepest figure goes out line by line, to a real stdout file and
    # with --out: the CLI never holds the whole 240,350-character document
    svg = render_svg(MAX_DEPTH, MAX_KMAX)
    argv = ["render", "--n", str(MAX_DEPTH), "--K", str(MAX_KMAX)]
    stdout, out = tmp_path / "stdout.svg", tmp_path / "out.svg"
    with open(stdout, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        peaks = [traced_peak(argv)]
    peaks.append(traced_peak([*argv, "--out", str(out)]))
    assert stdout.read_bytes() == out.read_bytes() == svg.encode("utf-8")
    assert max(peaks) < len(svg), peaks

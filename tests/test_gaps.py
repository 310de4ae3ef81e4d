"""Tests for the band/gap geometry, covering thresholds, series, and certificates."""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from cantorprod.gaps import (
    EXPECTED,
    Certificate,
    CertificationError,
    alpha,
    alpha_series,
    beta,
    beta_series,
    certify,
    chain_holds,
    child_cell,
    child_gap_covered,
    compare_products,
    deep_series_total,
    diagonal_gap,
    first_level_gap_total,
    full_enclosure,
    g_interval,
    gap_total,
    geometric_series,
    high_cover_threshold,
    level3_enclosure,
    low_cover_threshold,
    p_interval,
    q_interval,
    scaled_point,
    second_level_increment,
    side_piece,
    truncated_gap_sum,
    truncated_gap_sum_series,
    unresolved_cells_bound,
    verify_order_chain,
)
from cantorprod.intervals import Interval, IntervalSet
from cantorprod.products import product_image
from cantorprod.render import MAX_DEPTH, MAX_KMAX, cell_families
from cantorprod.subdivision import (
    ROOT, FastNode, _fast_tree, _rounds, node_child, right_half_subdivision,
)

P6 = 9**6
P10 = 9**10


def genuine_node(rng: random.Random, depth: int) -> FastNode:
    node = ROOT
    for _ in range(depth):
        node = node_child(node, rng.randint(1, 4), high_side=rng.random() < 0.5)
    return node


# ---------------------------------------------------------------------------
# geometry of the three interval families


def test_root_band_gap_square_pins():
    assert p_interval(ROOT, 0, high_side=False) == Interval(Fraction(16, 27), Fraction(7, 9))
    assert p_interval(ROOT, 0, high_side=True) == Interval(Fraction(16, 27), Fraction(7, 9))
    assert g_interval(ROOT, 0, high_side=False) == Interval(Fraction(7, 9), Fraction(64, 81))
    assert g_interval(ROOT, 0, high_side=True) == Interval(Fraction(7, 9), Fraction(64, 81))
    assert p_interval(ROOT, 1, high_side=False) == Interval(Fraction(40, 81), Fraction(133, 243))
    assert g_interval(ROOT, 1, high_side=False) == Interval(Fraction(133, 243), Fraction(400, 729))
    assert p_interval(ROOT, 1, high_side=True) == Interval(Fraction(208, 243), Fraction(25, 27))
    assert g_interval(ROOT, 1, high_side=True) == Interval(Fraction(25, 27), Fraction(676, 729))
    assert p_interval(ROOT, 2, high_side=False) == Interval(Fraction(112, 243), Fraction(1045, 2187))
    assert g_interval(ROOT, 2, high_side=False) == Interval(
        Fraction(1045, 2187), Fraction(3136, 6561)
    )
    assert q_interval(ROOT, 1, high_side=False) == Interval(Fraction(400, 729), Fraction(49, 81))
    assert q_interval(ROOT, 1, high_side=True) == Interval(Fraction(64, 81), Fraction(625, 729))


def _p_oracle(node, k, high_side):
    """p_interval as products of scaled points, before the side-thirds rewrite."""
    s = Fraction(1, 3**k)
    t = Fraction(1, 3 ** (k + 1))
    if high_side:
        lo = scaled_point(node, 1 - t) * scaled_point(node, 1 - s)
        hi = scaled_point(node, 1) * scaled_point(node, 1 - 2 * t)
    else:
        lo = scaled_point(node, 2 * t) * scaled_point(node, 0)
        hi = scaled_point(node, s) * scaled_point(node, t)
    return Interval(lo, hi)


def _q_oracle(node, k, high_side):
    """q_interval through child_cell, before the side-thirds rewrite."""
    cell = child_cell(node, k, high_side)
    return Interval(cell.lo**2, cell.hi**2)


def _g_oracle(node, k, high_side):
    """g_interval as a squared scaled point, before the side-thirds rewrite."""
    t = Fraction(1, 3 ** (k + 1)) / 3**node.k
    if high_side:
        edge = scaled_point(node, 1 - Fraction(1, 3 ** (k + 1)))
    else:
        edge = scaled_point(node, Fraction(2, 3 ** (k + 1)))
    return Interval(edge**2 - t * t, edge**2)


def test_families_match_scaled_point_oracles():
    # every address down to depth 3 (the synthetic m = 0, 1 cells too), and
    # every cell of the depth-2 fast tree with child index <= 6, hull tails
    # included; family index k <= 8 on both sides
    nodes = {FastNode(m, k0) for k0 in range(4) for m in range(3**k0)}
    parents, _ = _rounds(2, 6)
    _, outer, _ = _fast_tree(2, 6)
    nodes.update(parents + outer)
    for node in nodes:
        for high_side in (False, True):
            for k in range(9):
                p = p_interval(node, k, high_side)
                g = g_interval(node, k, high_side)
                assert p == _p_oracle(node, k, high_side)
                assert g == _g_oracle(node, k, high_side)
                assert p.hi == g.lo
                if k == 0:
                    continue
                q = q_interval(node, k, high_side)
                assert q == _q_oracle(node, k, high_side)
                if not high_side:
                    assert g.hi == q.lo
            with pytest.raises(ValueError):
                q_interval(node, 0, high_side)


def test_render_families_match_scaled_point_oracles():
    # the figure's int pairs against the oracles, not against p_interval and
    # g_interval: those wrap the same int kernel, subdivision._families
    def ratio(x):
        return x.numerator, x.denominator

    for depth in range(MAX_DEPTH + 1):
        for k_max in range(MAX_KMAX + 1):
            node, families = cell_families(depth, k_max)
            assert len(families) == 1 + 2 * k_max
            for k, side, p, g in families:
                for high_side in {"±": (False, True), "-": (False,), "+": (True,)}[side]:
                    p_ref, g_ref = _p_oracle(node, k, high_side), _g_oracle(node, k, high_side)
                    assert p == (ratio(p_ref.lo), ratio(p_ref.hi)), (depth, k, high_side)
                    assert g == (ratio(g_ref.lo), ratio(g_ref.hi)), (depth, k, high_side)


def test_scaled_point_and_side_piece():
    assert scaled_point(ROOT, Fraction(0)) == Fraction(2, 3)
    assert scaled_point(ROOT, Fraction(1)) == Fraction(1)
    assert side_piece(ROOT, 0, high_side=False) == Interval(Fraction(2, 3), Fraction(1))
    assert side_piece(ROOT, 1, high_side=False) == Interval(Fraction(2, 3), Fraction(7, 9))
    assert side_piece(ROOT, 1, high_side=True) == Interval(Fraction(8, 9), Fraction(1))
    with pytest.raises(ValueError):
        side_piece(ROOT, -1, high_side=False)


def test_gap_is_diagonal_gap_of_side_piece():
    rng = random.Random(139)
    for _ in range(60):
        node = genuine_node(rng, rng.randint(0, 2))
        k = rng.randint(0, 6)
        side = rng.random() < 0.5
        assert g_interval(node, k, side) == diagonal_gap(side_piece(node, k, side))


def test_child_cell_matches_recursive_route():
    rng = random.Random(149)
    for _ in range(60):
        node = genuine_node(rng, rng.randint(0, 2))
        k = rng.randint(1, 5)
        side = rng.random() < 0.5
        assert child_cell(node, k, side) == node_child(node, k, side).cell


def test_square_interval_is_product_of_child_cell():
    rng = random.Random(151)
    for _ in range(40):
        node = genuine_node(rng, rng.randint(0, 2))
        k = rng.randint(1, 4)
        side = rng.random() < 0.5
        cell = child_cell(node, k, side)
        assert q_interval(node, k, side) == Interval(cell.lo**2, cell.hi**2)
        prod = product_image(IntervalSet([cell]))
        assert prod == IntervalSet([q_interval(node, k, side)])


def test_band_is_a_product_rectangle():
    # index 0: the two opposite outer thirds; index k >= 1: the k-th child
    # cell times the deeper side piece on the same flank
    rng = random.Random(157)
    for _ in range(40):
        node = genuine_node(rng, rng.randint(0, 2))
        k = rng.randint(0, 5)
        side = rng.random() < 0.5
        if k == 0:
            a = side_piece(node, 1, high_side=True)
            b = side_piece(node, 1, high_side=False)
        else:
            a = child_cell(node, k, side)
            b = side_piece(node, k + 1, side)
        band = p_interval(node, k, side)
        prod = product_image(IntervalSet([a]), IntervalSet([b]))
        assert prod == IntervalSet([band])


def test_root_gaps_are_holes_of_brute_force_products():
    # the index-k diagonal gap opens up once the level k+2 cover splits the
    # side piece; from then on the brute-force product has the hole
    for k in range(4):
        prod = product_image(right_half_subdivision(k + 2))
        for side in (False, True):
            g = g_interval(ROOT, k, side)
            assert prod.intersection(IntervalSet([g])).measure() == 0


def test_root_bands_stay_covered_in_deep_products():
    prod = product_image(right_half_subdivision(9))
    for k in range(6):
        for side in (False, True):
            band = p_interval(ROOT, k, side)
            assert IntervalSet([band]).subset_of(prod)


def test_compare_products_matches_direct_arithmetic():
    rng = random.Random(163)
    for _ in range(150):
        node = genuine_node(rng, rng.randint(0, 2))
        x, y, z, t = (Fraction(rng.randint(0, 27), 27) for _ in range(4))
        direct = (
            scaled_point(node, x) * scaled_point(node, y)
            - scaled_point(node, z) * scaled_point(node, t)
        )
        sign = 1 if direct > 0 else (0 if direct == 0 else -1)
        assert compare_products(node, x, y, z, t) == sign


# ---------------------------------------------------------------------------
# the interleaving order


def test_order_chain_holds_at_root():
    checks = verify_order_chain(ROOT, 8)
    assert len(checks) == 13 * 8
    assert chain_holds(checks)


def test_order_chain_holds_for_depth_one_children():
    for k in range(1, 9):
        for side in (False, True):
            child = node_child(ROOT, k, high_side=side)
            assert chain_holds(verify_order_chain(child, 6))


def test_order_chain_holds_for_synthetic_small_q():
    # any q >= 1 keeps the order; the chain reads only (q, k)
    node = ROOT._replace(m=1)
    assert chain_holds(verify_order_chain(node, 8))


def test_order_chain_flags_degenerate_scale():
    node = ROOT._replace(m=0)
    checks = verify_order_chain(node, 4)
    assert not chain_holds(checks)
    bad = {c.name for c in checks if not c.holds}
    assert "square_starts_below_band_low" in bad


def test_order_chain_rejects_bad_k_max():
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        verify_order_chain(ROOT, 0)


def order_chain_oracle(node, k_max):
    """The chain as (name, k, holds, lhs, rhs, relation), each side's climb written out."""
    ops = {"eq": Fraction.__eq__, "lt": Fraction.__lt__, "le": Fraction.__le__}
    checks = []

    def check(name, k, lhs, rhs, relation):
        checks.append((name, k, ops[relation](lhs, rhs), lhs, rhs, relation))

    for k in range(k_max):
        g_next = g_interval(node, k + 1, high_side=False)
        q_next = q_interval(node, k + 1, high_side=False)
        p_cur = p_interval(node, k, high_side=False)
        g_cur = g_interval(node, k, high_side=False)
        g_cur_hi = g_interval(node, k, high_side=True)
        q_next_hi = q_interval(node, k + 1, high_side=True)
        check("gap_square_touch_low", k + 1, g_next.hi, q_next.lo, "eq")
        check("square_starts_below_band_low", k, q_next.lo, p_cur.lo, "lt")
        check("band_enters_square_low", k, p_cur.lo, q_next.hi, "lt")
        check("square_ends_inside_band_low", k, q_next.hi, p_cur.hi, "lt")
        check("band_touches_gap_low", k, p_cur.hi, g_cur.lo, "eq")
        check("gap_nonempty_low", k, g_cur.lo, g_cur.hi, "lt")
        check("gap_low_before_high", k, g_cur.hi, g_cur_hi.hi, "le")
        check("gap_square_touch_high", k, g_cur_hi.hi, q_next_hi.lo, "eq")
    for k in range(1, k_max + 1):
        q_cur = q_interval(node, k, high_side=True)
        p_cur = p_interval(node, k, high_side=True)
        g_cur = g_interval(node, k, high_side=True)
        check("square_starts_below_band_high", k, q_cur.lo, p_cur.lo, "lt")
        check("band_enters_square_high", k, p_cur.lo, q_cur.hi, "lt")
        check("square_ends_inside_band_high", k, q_cur.hi, p_cur.hi, "lt")
        check("band_touches_gap_high", k, p_cur.hi, g_cur.lo, "eq")
        check("gap_nonempty_high", k, g_cur.lo, g_cur.hi, "lt")
    return checks


def test_order_chain_matches_written_out_oracle():
    # the shared climb table against both climbs spelled out link by link,
    # on the root, two synthetic scales (m = 0 breaks the order) and every
    # depth-one child up to k = 8; each check's ends are lowest-terms pairs
    nodes = [ROOT, ROOT._replace(m=0), ROOT._replace(m=1)]
    nodes += [node_child(ROOT, k, side) for k in range(1, 9) for side in (False, True)]
    for node in nodes:
        for k_max in range(1, 9):
            want = order_chain_oracle(node, k_max)
            checks = verify_order_chain(node, k_max)
            got = [(*c[:3], Fraction(*c.lhs), Fraction(*c.rhs), c.relation) for c in checks]
            assert got == want, (node, k_max)
            assert all(c.lhs == pair(c.lhs) and c.rhs == pair(c.rhs) for c in checks)
            assert chain_holds(checks) == all(c[2] for c in want)


def test_low_flank_scaffold_ascends():
    # climbing the low flank: gap k+1 touches square k+1, the band overlaps
    # the square from above, and the band's top is the next gap's bottom
    for k in range(0, 5):
        g_next = g_interval(ROOT, k + 1, high_side=False)
        q_next = q_interval(ROOT, k + 1, high_side=False)
        p_cur = p_interval(ROOT, k, high_side=False)
        g_cur = g_interval(ROOT, k, high_side=False)
        assert g_next.hi == q_next.lo
        assert q_next.lo < p_cur.lo < q_next.hi < p_cur.hi
        assert p_cur.hi == g_cur.lo < g_cur.hi


# ---------------------------------------------------------------------------
# covering thresholds


def test_root_threshold_patterns():
    for k in range(1, 13):
        assert low_cover_threshold(ROOT.m, k) == k
        assert high_cover_threshold(ROOT.m, k) == k + 2


def test_child_scale_parameters():
    for k in range(1, 13):
        assert node_child(ROOT, k, high_side=True).m == 3 ** (k + 2) - 3
        assert node_child(ROOT, k, high_side=False).m == 2 * 3 ** (k + 1) + 2


def test_thresholds_match_geometric_covering():
    # integer-arithmetic thresholds against the direct containment test
    parents = [ROOT, node_child(ROOT, 1, False), node_child(ROOT, 2, True)]
    for parent in parents:
        for k in range(1, 5):
            for high_child in (False, True):
                if high_child:
                    cutoff = high_cover_threshold(parent.m, k)
                else:
                    cutoff = low_cover_threshold(parent.m, k)
                for l in range(0, cutoff + 4):
                    covered = child_gap_covered(parent, k, l, high_child)
                    assert covered == (l >= cutoff)


def test_thresholds_monotone():
    qs = [1, 2, 5, 20, 24, 200, 3**6]
    for k in range(1, 8):
        lows = [low_cover_threshold(q, k) for q in qs]
        highs = [high_cover_threshold(q, k) for q in qs]
        assert lows == sorted(lows)
        assert highs == sorted(highs)
    for q in (2, 20, 100):
        assert [low_cover_threshold(q, k) for k in range(1, 8)] == sorted(
            low_cover_threshold(q, k) for k in range(1, 8)
        )


def test_threshold_input_validation():
    with pytest.raises(ValueError):
        low_cover_threshold(2, 0)
    with pytest.raises(ValueError):
        high_cover_threshold(0, 1)


# ---------------------------------------------------------------------------
# gap measure series


def test_geometric_series_basics():
    assert geometric_series((1, 2), (1, 2)) == (1, 1)
    assert geometric_series((3, 1), (0, 1)) == (3, 1)
    with pytest.raises(ValueError):
        geometric_series((1, 1), (1, 1))


def test_gap_total_closed_form():
    rng = random.Random(167)
    for _ in range(60):
        length = Fraction(rng.randint(1, 50), rng.randint(1, 400))
        assert Fraction(*gap_total(pair(length))) == Fraction(5, 36) * length**2


def test_truncated_gap_sum_against_series():
    for j in range(1, 6):
        length = Fraction(1, 3**j)
        for uncovered in range(0, 9):
            closed = Fraction(*truncated_gap_sum(pair(length), uncovered))
            series = truncated_gap_sum_series(length, uncovered)
            assert closed == series


def test_truncated_gap_sum_limits():
    length = Fraction(1, 243)
    total = Fraction(*gap_total((1, 243)))
    assert Fraction(*truncated_gap_sum((1, 243), 0)) == length**2 / 72
    values = [Fraction(*truncated_gap_sum((1, 243), u)) for u in range(10)]
    assert values == sorted(values)
    assert all(v < total for v in values)
    assert total - Fraction(*truncated_gap_sum((1, 243), 30)) < Fraction(1, 9**30)


def test_first_level_gap_total():
    assert first_level_gap_total() == (5, 324)


def test_second_level_increment_value_and_cut_independence():
    expected = (859, 2099520)
    assert second_level_increment() == expected
    for cut in (1, 2, 8, 16):
        assert second_level_increment(cut=cut) == expected


def test_beta_closed_form_matches_series():
    for k in range(1, 21):
        assert beta(k) == beta_series(k)


def test_alpha_closed_form_matches_series():
    for k in range(1, 21):
        assert alpha(k) == alpha_series(k)


def test_alpha_below_beta_and_positive():
    for k in range(1, 15):
        assert 0 < Fraction(*alpha(k)) < Fraction(*beta(k))


def test_series_cut_independence():
    for k in (1, 3, 7):
        for cut in (1, 2, 9):
            assert beta_series(k, cut=cut) == beta_series(k, cut=14)
            assert alpha_series(k, cut=cut) == alpha_series(k, cut=14)


def test_deep_series_total_rounds_to_frozen_value():
    total, epsilon = (Fraction(*value) for value in deep_series_total())
    assert total + epsilon == Fraction(157, 32 * P6)
    assert 0 < epsilon < Fraction(1, 128 * P6)
    partial = sum(Fraction(*beta(k)) + Fraction(*alpha(k)) for k in range(1, 26))
    assert 0 < total - partial < Fraction(1, 9**28)


def test_unresolved_cells_bound():
    value = Fraction(*unresolved_cells_bound())
    assert value == Fraction(1, 64 * P6)
    direct = sum(Fraction(5, 36) * Fraction(1, 9 ** (2 * k + 3)) for k in range(2, 40))
    tail = Fraction(5, 36) * Fraction(*geometric_series((1, 9**83), (1, 81)))
    assert direct + tail == value


def test_removed_measure_chain():
    mu1 = Fraction(*first_level_gap_total())
    assert mu1 == Fraction(5, 324)
    assert mu1 + Fraction(*second_level_increment()) == Fraction(33259, 2099520)


# ---------------------------------------------------------------------------
# certificates


def test_certify_level3():
    cert = certify("prop3")
    assert cert.ok
    assert cert.center == Fraction(91782451, 170061120)
    assert cert.radius == Fraction(1, 64 * P6)
    assert [e.name for e in cert.chain][0] == "level1_gap_total"
    assert len(cert.chain) == 14
    assert cert.failures() == ()


def test_certify_full():
    cert = certify("theorem")
    assert cert.ok
    assert cert.center == Fraction(91782451, 113374080)
    assert cert.radius == Fraction(11, 19840464)
    assert cert.radius == Fraction(11, 7 * 16 * 3**11)
    assert cert.radius < Fraction(1, 10**6)
    assert len(cert.chain) == 18


def test_certify_rejects_unknown_target():
    with pytest.raises(ValueError):
        certify("bogus")


def test_certificate_json_shape():
    data = certify("theorem").to_json(digits=10)
    assert data["target"] == "theorem"
    assert data["verified"] is True
    assert data["center"] == "91782451/113374080"
    assert data["decimal_center"].startswith("0.8095540973")
    entry = data["chain"][0]
    assert set(entry) == {"name", "value", "expected", "relation", "match"}


def test_certify_detects_tampering(monkeypatch):
    monkeypatch.setitem(
        EXPECTED, "deep_series_total", Fraction(*EXPECTED["deep_series_total"]) + Fraction(1, 10**9)
    )
    cert = certify("prop3")
    assert not cert.ok
    assert "deep_series_total" in {e.name for e in cert.failures()}
    with pytest.raises(CertificationError):
        level3_enclosure()


def test_certify_detects_tolerance_tampering(monkeypatch):
    monkeypatch.setitem(EXPECTED, "full_radius_tolerance", Fraction(1, 10**9))
    cert = certify("theorem")
    assert not cert.ok
    assert {e.name for e in cert.failures()} == {"full_radius_tolerance"}
    with pytest.raises(CertificationError):
        full_enclosure()


# the table as it was written when it held Fractions, literal for literal
FROZEN_EXPECTED = {
    "level1_gap_total": Fraction(5, 324),
    "level2_gap_increment": Fraction(859, 2099520),
    "band_floor": Fraction(16, 27),
    "special_cell_separation": Fraction(16, 27),
    "special_cell_length": Fraction(1, 243),
    "special_cell_gap_threshold": Fraction(5),
    "special_cell_gap_total": Fraction(5, 4 * P6) - Fraction(1, 8 * P10),
    "deep_series_total": Fraction(157, 32 * P6),
    "series_remainder_positive": Fraction(0),
    "series_remainder_bound": Fraction(1, 128 * P6),
    "unresolved_cells_bound": Fraction(1, 64 * P6),
    "level3_center": Fraction(91782451, 170061120),
    "enclosure_shift_positive": Fraction(0),
    "enclosure_shift_bound": Fraction(1, 64 * P6),
    "full_center": Fraction(91782451, 113374080),
    "subdivision_tail": Fraction(1, 2939328),
    "full_radius": Fraction(11, 19840464),
    "full_radius_tolerance": Fraction(1, 10**6),
}


def test_expected_table_is_frozen():
    # same keys in the same order, each value its Fraction's lowest-terms pair
    assert list(EXPECTED) == list(FROZEN_EXPECTED)
    for name, value in FROZEN_EXPECTED.items():
        assert EXPECTED[name] == (value.numerator, value.denominator), name


def _geometric_oracle(first, ratio):
    return first / (1 - ratio)


def _truncated_oracle(length, uncovered):
    return length**2 / 8 * (Fraction(10, 9) - Fraction(1, 9**uncovered))


def _uncovered_oracle(high, q, s, d, cut, stop=None):
    threshold = high_cover_threshold if high else low_cover_threshold
    total = Fraction(0)
    for j in range(1, (cut if stop is None else stop) + 1):
        assert threshold(q, j) == j + d
        total += _truncated_oracle(Fraction(1, 3 ** (s + j)), j + d)
    if stop is None:
        total += _geometric_oracle(Fraction(10, 72) / 9 ** (s + cut + 1), Fraction(1, 9))
        total -= _geometric_oracle(Fraction(1, 8) / 9 ** (s + 2 * cut + 2 + d), Fraction(1, 81))
    return total


# beta, alpha and their per-child series derived on Fractions, apart from
# gaps' int-pair kernel: the oracles for its values


def beta_oracle(k):
    return (
        Fraction(20, 9 ** (k + 4))
        - Fraction(91, 5) / 9 ** (2 * k + 6)
        + Fraction(1, 10) / 9 ** (4 * k + 10)
    ) / 64


def alpha_oracle(k):
    return beta_oracle(k) - sum(
        _truncated_oracle(Fraction(1, 3 ** (2 * k + j)), 2 * k + j) for j in (3, 4, 5)
    )


def beta_series_oracle(k, cut=12):
    q = node_child(ROOT, k, high_side=True).m
    low = _uncovered_oracle(False, q, k + 3, k + 1, cut)
    return low + _uncovered_oracle(True, q, k + 3, k + 3, cut, stop=k + 2)


def alpha_series_oracle(k, cut=12):
    q = node_child(ROOT, k, high_side=False).m
    low = _uncovered_oracle(False, q, k + 3, k + 1, cut)
    return low + _uncovered_oracle(True, q, k + 3, k + 3, cut, stop=k - 1)


def pair(value):
    """A Fraction, or a pair read as one, as its lowest-terms (p, q)."""
    value = Fraction(*value) if isinstance(value, tuple) else value
    return value.numerator, value.denominator


SERIES = {
    "beta": (beta, beta_oracle),
    "alpha": (alpha, alpha_oracle),
    "beta_series": (beta_series, beta_series_oracle),
    "alpha_series": (alpha_series, alpha_series_oracle),
}


@pytest.mark.parametrize("kernel, oracle", SERIES.values(), ids=SERIES)
def test_series_kernels_match_fraction_oracles(kernel, oracle):
    # the int-pair value against the Fraction derivation, for every
    # k = 1..20; the pair is in lowest terms
    for k in range(1, 21):
        assert kernel(k) == pair(oracle(k)), k
    for bad in (0, -1):
        with pytest.raises(ValueError, match="index must be >= 1"):
            kernel(bad)


@pytest.mark.parametrize("name", ["beta_series", "alpha_series"])
def test_series_kernels_match_fraction_oracles_at_every_cut(name):
    kernel, oracle = SERIES[name]
    for k in (1, 2, 5, 9):
        for cut in (1, 2, 7, 14):
            assert kernel(k, cut) == pair(oracle(k, cut)), (k, cut)


def certify_fraction_oracle(target):
    """certify's derivation on Fractions, every series written out:
    (center, radius, [(name, value, expected, relation, match), ...])."""
    ops = {"eq": operator.eq, "lt": operator.lt, "gt": operator.gt}
    entries = []

    def add(name, value, relation="eq"):
        expected = EXPECTED[name]
        expected = Fraction(*expected) if isinstance(expected, tuple) else Fraction(expected)
        entries.append((name, value, expected, relation, ops[relation](value, expected)))
        return value

    sq = ROOT.length**2
    mu1 = add("level1_gap_total", sq / 9 + 2 * _geometric_oracle(sq / 81, Fraction(1, 9)))
    increment = add(
        "level2_gap_increment",
        _uncovered_oracle(False, ROOT.m, 2, 0, 12) + _uncovered_oracle(True, ROOT.m, 2, 2, 12),
    )

    e1 = node_child(ROOT, 1, high_side=False)
    d1p = node_child(e1, 1, high_side=True)
    add("band_floor", p_interval(ROOT, 0, high_side=False).lo)
    add("special_cell_separation", q_interval(e1, 1, high_side=True).hi, relation="lt")
    add("special_cell_length", d1p.length)
    threshold = high_cover_threshold(e1.m, 1)
    add("special_cell_gap_threshold", Fraction(threshold))
    gamma1 = add("special_cell_gap_total", _truncated_oracle(d1p.length, threshold))

    sum_a = _geometric_oracle(Fraction(1, 9**5), Fraction(1, 9))
    sum_b = _geometric_oracle(Fraction(1, 9**8), Fraction(1, 81))
    sum_c = _geometric_oracle(Fraction(1, 9**14), Fraction(1, 9**4))
    deep = (5 * sum_a - (910 + Fraction(91, 20)) * sum_b + Fraction(265721, 40) * sum_c) / 8
    epsilon = (Fraction(91, 20) * sum_b - Fraction(265721, 40) * sum_c) / 8
    add("deep_series_total", deep + epsilon)
    add("series_remainder_positive", epsilon, relation="gt")
    add("series_remainder_bound", epsilon, relation="lt")
    radius = add(
        "unresolved_cells_bound",
        Fraction(5, 36) * _geometric_oracle(Fraction(1, 9**7), Fraction(1, 81)),
    )

    removed = mu1 + increment + gamma1 + deep + epsilon
    shift = Fraction(1, 8 * P10) + epsilon
    center = add("level3_center", Fraction(5, 9) - removed - Fraction(1, 8 * P10))
    add("enclosure_shift_positive", shift, relation="gt")
    add("enclosure_shift_bound", shift, relation="lt")
    if target == "prop3":
        return center, radius, entries

    full_center = add("full_center", Fraction(3, 2) * center)
    tail = add("subdivision_tail", Fraction(1, 63) * Fraction(1, 36) ** 3)
    full_radius = add("full_radius", Fraction(3, 2) * (radius + tail))
    add("full_radius_tolerance", full_radius, relation="lt")
    return full_center, full_radius, entries


TAMPERINGS = {
    "as-is": {},
    "deep_series_total": {
        "deep_series_total": FROZEN_EXPECTED["deep_series_total"] + Fraction(1, 10**9)
    },
    "full_radius_tolerance": {"full_radius_tolerance": Fraction(1, 10**9)},
}


@pytest.mark.parametrize("patch", TAMPERINGS.values(), ids=TAMPERINGS)
@pytest.mark.parametrize("target", ["prop3", "theorem"])
def test_certify_matches_fraction_oracle(monkeypatch, target, patch):
    # the int-pair chain against the Fraction derivation, entry by entry, as
    # is and under the two table tamperings the tests above make
    for name, value in patch.items():
        monkeypatch.setitem(EXPECTED, name, value)
    cert = certify(target)
    center, radius, entries = certify_fraction_oracle(target)
    assert [(e.name, e.value, e.expected, e.relation, e.match) for e in cert.chain] == entries
    assert (cert.center, cert.radius) == (center, radius)


def oracle_entry(name):
    """The value certify_fraction_oracle derives for one chain entry."""
    _, _, entries = certify_fraction_oracle("prop3")
    return next(value for entry, value, *_ in entries if entry == name)


# every value function of the gap calculus at sample arguments, with the
# Fraction derivation it must equal
VALUES = {
    "geometric_series": (
        lambda: geometric_series((-5, 6), (2, 9)),
        lambda: _geometric_oracle(Fraction(-5, 6), Fraction(2, 9)),
    ),
    "gap_total": (
        lambda: gap_total((2, 15)),
        lambda: Fraction(4, 225) / 9 + 2 * _geometric_oracle(Fraction(4, 225) / 81, Fraction(1, 9)),
    ),
    "truncated_gap_sum": (
        lambda: truncated_gap_sum((1, 243), 5), lambda: _truncated_oracle(Fraction(1, 243), 5)),
    "first_level_gap_total": (first_level_gap_total, lambda: oracle_entry("level1_gap_total")),
    "second_level_increment": (
        second_level_increment, lambda: oracle_entry("level2_gap_increment")),
    "beta": (lambda: beta(3), lambda: beta_oracle(3)),
    "beta_series": (lambda: beta_series(3), lambda: beta_series_oracle(3)),
    "alpha": (lambda: alpha(3), lambda: alpha_oracle(3)),
    "alpha_series": (lambda: alpha_series(3), lambda: alpha_series_oracle(3)),
    "deep_series_total total": (
        lambda: deep_series_total()[0],
        lambda: oracle_entry("deep_series_total") - oracle_entry("series_remainder_bound"),
    ),
    "deep_series_total epsilon": (
        lambda: deep_series_total()[1], lambda: oracle_entry("series_remainder_bound")),
    "unresolved_cells_bound": (
        unresolved_cells_bound, lambda: oracle_entry("unresolved_cells_bound")),
}


@pytest.mark.parametrize("value, oracle", VALUES.values(), ids=VALUES)
def test_values_are_lowest_terms_pairs_equal_to_fraction_oracles(value, oracle):
    p, q = got = value()
    assert type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1, got
    assert Fraction(p, q) == oracle()


def test_enclosure_helpers_match_certificates():
    center3, radius3 = level3_enclosure()
    center, radius = full_enclosure()
    assert (center3, radius3) == (certify("prop3").center, certify("prop3").radius)
    assert (center, radius) == (certify("theorem").center, certify("theorem").radius)
    assert center == Fraction(3, 2) * center3


def test_level2_value_sits_inside_coarser_knowledge():
    # the exact level-2 value 5/9 - mu2 must lie above the certified center
    mu2 = Fraction(*first_level_gap_total()) + Fraction(*second_level_increment())
    center3, radius3 = level3_enclosure()
    level2 = Fraction(5, 9) - mu2
    assert level2 > center3 + radius3

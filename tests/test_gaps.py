"""Tests for the band/gap geometry, covering thresholds, series, and certificates."""

from __future__ import annotations

import random
from fractions import Fraction

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
    with pytest.raises(ValueError):
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
    # depth-one child up to k = 8
    nodes = [ROOT, ROOT._replace(m=0), ROOT._replace(m=1)]
    nodes += [node_child(ROOT, k, side) for k in range(1, 9) for side in (False, True)]
    for node in nodes:
        for k_max in range(1, 9):
            got = [tuple(check) for check in verify_order_chain(node, k_max)]
            assert got == order_chain_oracle(node, k_max), (node, k_max)


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
    assert geometric_series(Fraction(1, 2), Fraction(1, 2)) == 1
    assert geometric_series(Fraction(3), Fraction(0)) == 3
    assert type(geometric_series(1, 0)) is Fraction  # not 1 / (1 - 0), a float
    with pytest.raises(ValueError):
        geometric_series(Fraction(1), Fraction(1))


def test_gap_total_closed_form():
    rng = random.Random(167)
    for _ in range(60):
        length = Fraction(rng.randint(1, 50), rng.randint(1, 400))
        assert gap_total(length) == Fraction(5, 36) * length**2


def test_truncated_gap_sum_against_series():
    for j in range(1, 6):
        length = Fraction(1, 3**j)
        for uncovered in range(0, 9):
            closed = truncated_gap_sum(length, uncovered)
            series = truncated_gap_sum_series(length, uncovered)
            assert closed == series


def test_truncated_gap_sum_limits():
    length = Fraction(1, 243)
    assert truncated_gap_sum(length, 0) == length**2 / 72
    values = [truncated_gap_sum(length, u) for u in range(10)]
    assert values == sorted(values)
    assert all(v < gap_total(length) for v in values)
    assert gap_total(length) - truncated_gap_sum(length, 30) < Fraction(1, 9**30)


def test_first_level_gap_total():
    assert first_level_gap_total() == Fraction(5, 324)


def test_second_level_increment_value_and_cut_independence():
    expected = Fraction(859, 2099520)
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
        assert 0 < alpha(k) < beta(k)


def test_series_cut_independence():
    for k in (1, 3, 7):
        for cut in (1, 2, 9):
            assert beta_series(k, cut=cut) == beta_series(k, cut=14)
            assert alpha_series(k, cut=cut) == alpha_series(k, cut=14)


def test_deep_series_total_rounds_to_frozen_value():
    total, epsilon = deep_series_total()
    assert total + epsilon == Fraction(157, 32 * P6)
    assert 0 < epsilon < Fraction(1, 128 * P6)
    partial = sum(beta(k) + alpha(k) for k in range(1, 26))
    assert 0 < total - partial < Fraction(1, 9**28)


def test_unresolved_cells_bound():
    value = unresolved_cells_bound()
    assert value == Fraction(1, 64 * P6)
    direct = sum(Fraction(5, 36) * Fraction(1, 9 ** (2 * k + 3)) for k in range(2, 40))
    tail = Fraction(5, 36) * geometric_series(Fraction(1, 9**83), Fraction(1, 81))
    assert direct + tail == value


def test_removed_measure_chain():
    mu1 = first_level_gap_total()
    assert mu1 == Fraction(5, 324)
    assert mu1 + second_level_increment() == Fraction(33259, 2099520)


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
        EXPECTED, "deep_series_total", EXPECTED["deep_series_total"] + Fraction(1, 10**9)
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


def test_enclosure_helpers_match_certificates():
    center3, radius3 = level3_enclosure()
    center, radius = full_enclosure()
    assert (center3, radius3) == (certify("prop3").center, certify("prop3").radius)
    assert (center, radius) == (certify("theorem").center, certify("theorem").radius)
    assert center == Fraction(3, 2) * center3


def test_level2_value_sits_inside_coarser_knowledge():
    # the exact level-2 value 5/9 - mu2 must lie above the certified center
    mu2 = first_level_gap_total() + second_level_increment()
    center3, radius3 = level3_enclosure()
    level2 = Fraction(5, 9) - mu2
    assert level2 > center3 + radius3

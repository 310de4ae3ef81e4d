"""Acceptance checks for the whole package, one criterion per test.

Each test prints a single PASS/FAIL line (run with -s, the default here) and
then asserts the criterion.

Criterion 5 checks the truncated fast bracket of m = measure(P(D_3 x D_3))
against the gap-calculus certificate, the other route to the same measure.
The certificate promises only |m - center| <= r, r = 1/(64*9^6); the center
carries a deliberate shift of about 1.34e-8 and is not m.  The K=8 upper end
lies 1.3e-8 below the center, which proves m < center, so no sound bracket
converging to m keeps containing it.  What both routes do promise is that
every bracket meets [center - r, center + r].  The width bound is the exact
width of the K=8 bracket the README defines (inner = the tracked depth-3
cells only), about 7.1e-4; tests/test_products.py checks the bracket's ends
exactly against a pairwise-product oracle on the brackets it can afford.

Criterion 9 checks the standard route against the same certificate's full
enclosure: the level-20 standard enclosure clears center - r by about 3.8e-8
and stays about 1.1e-6 below center + r.
"""

from __future__ import annotations

import random
import resource
import time
from fractions import Fraction

from cantorprod.gaps import (
    alpha,
    alpha_series,
    beta,
    beta_series,
    certify,
    chain_holds,
    deep_series_total,
    first_level_gap_total,
    full_enclosure,
    geometric_series,
    high_cover_threshold,
    level3_enclosure,
    low_cover_threshold,
    second_level_increment,
    truncated_gap_sum,
    unresolved_cells_bound,
    verify_order_chain,
)
from cantorprod.intervals import Interval, IntervalSet
from cantorprod.products import fast_bounds, self_product_stats, standard_estimate
from cantorprod.records import ROOT, Membership
from cantorprod.subdivision import (
    fast_subdivision,
    node_child,
    removed_gaps,
    right_half_subdivision,
)
from cantorprod.subdivision import classify_ternary
from oracles import child_gap_covered, diagonal_gap, product_image

P6 = 9**6
P10 = 9**10
LEVEL3_CENTER = Fraction(91782451, 170061120)
FULL_CENTER = Fraction(91782451, 113374080)
# exact width of the (n=3, K=8) fast bracket, inner = tracked depth-3 cells
LEVEL3_K8_WIDTH = Fraction(371527843108937010883409, 523347633027360537213511521)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def split_middle(piece: Interval) -> IntervalSet:
    t = piece.length / 3
    return IntervalSet([Interval(piece.lo, piece.lo + t), Interval(piece.hi - t, piece.hi)])


def test_criterion_1_base_product():
    start = time.perf_counter()
    value = self_product_stats(IntervalSet([["2/3", "1"]]))[0]
    elapsed = time.perf_counter() - start
    ok = value == Fraction(5, 9) and elapsed < 1.0
    report(1, ok, f"P([2/3,1]^2) measure = {value} in {elapsed:.4f} s")
    assert value == Fraction(5, 9)
    assert elapsed < 1.0


def test_criterion_2_standard_level_11():
    start = time.perf_counter()
    est = standard_estimate(11)
    elapsed = time.perf_counter() - start
    value = Fraction(*est.full_bounds()[1])
    window_center = Fraction(80955358, 10**8)
    in_window = abs(value - window_center) <= Fraction(1, 10**8)
    overshoot = value - FULL_CENTER
    overshoot_bound = Fraction(3, 2) * Fraction(1, 63) * Fraction(2, 9) ** 11
    overshoot_ok = overshoot <= overshoot_bound
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    ok = in_window and overshoot_ok and elapsed <= 300 and peak_gb <= 4
    report(
        2,
        ok,
        f"level-11 value = {float(value):.12f}, window ok: {in_window}, "
        f"overshoot {float(overshoot):.3e} <= {float(overshoot_bound):.3e}: {overshoot_ok}, "
        f"{elapsed:.2f} s, peak {peak_gb:.2f} GB",
    )
    assert in_window
    assert overshoot_ok
    assert elapsed <= 300
    assert peak_gb <= 4


def test_criterion_3_level3_certificate():
    start = time.perf_counter()
    cert = certify("prop3")
    mu1 = Fraction(*first_level_gap_total())
    increment = Fraction(*second_level_increment())
    e1 = node_child(ROOT, 1, high_side=False)
    d1p = node_child(e1, 1, high_side=True)
    gamma1 = Fraction(*truncated_gap_sum((1, 3**d1p.k), high_cover_threshold(e1.m, 1)))
    deep, epsilon = (Fraction(*value) for value in deep_series_total())
    unresolved = Fraction(*unresolved_cells_bound())
    removed = mu1 + increment + gamma1 + deep + epsilon
    elapsed = time.perf_counter() - start

    checks = {
        "chain verified": cert.ok,
        "mu1": mu1 == Fraction(5, 324),
        "mu2 - mu1": increment == Fraction(859, 9**4 * 5 * 64),
        "gamma1": gamma1 == Fraction(5, 4 * P6) - Fraction(1, 8 * P10),
        "series total": deep == Fraction(157, 32 * P6) - epsilon,
        "series remainder": Fraction(0) < epsilon < Fraction(1, 128 * P6),
        "unresolved bound": unresolved == Fraction(1, 64 * P6),
        "center identity": Fraction(5, 9) - removed == LEVEL3_CENTER + Fraction(1, 8 * P10),
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    report(3, ok, ", ".join(f"{name} {'ok' if good else 'BAD'}" for name, good in checks.items()))
    assert all(checks.values()), checks
    assert Fraction(*cert.center_ratio) == LEVEL3_CENTER


def test_criterion_4_full_certificate():
    start = time.perf_counter()
    cert = certify("theorem")
    elapsed = time.perf_counter() - start
    center, radius = Fraction(*cert.center_ratio), Fraction(*cert.radius_ratio)
    radius_exact = radius == Fraction(11, 7 * 16 * 3**11)
    ok = (
        cert.ok
        and center == FULL_CENTER
        and radius_exact
        and radius < Fraction(1, 10**6)
        and elapsed < 1.0
    )
    report(
        4,
        ok,
        f"center {center}, radius {radius} "
        f"(= 11/(7*16*3^11): {radius_exact}, < 1e-6: {radius < Fraction(1, 10**6)}), "
        f"{elapsed:.3f} s",
    )
    assert cert.ok
    assert center == FULL_CENTER
    assert radius_exact
    assert radius < Fraction(1, 10**6)
    assert elapsed < 1.0


def test_criterion_5_fast_bracket_level_3():
    center, radius = (Fraction(*value) for value in level3_enclosure())
    assert center == LEVEL3_CENTER
    assert radius == Fraction(1, 64 * P6)
    start = time.perf_counter()
    results = {K: fast_bounds(3, K) for K in range(4, 9)}
    elapsed = time.perf_counter() - start
    # each bracket's (lower, upper) over its scale
    ends = {K: (Fraction(r.scaled_lower, r.scale), Fraction(r.scaled_upper, r.scale))
            for K, r in results.items()}
    last_lower, last_upper = ends[8]
    last_width = last_upper - last_lower
    widths = [upper - lower for lower, upper in ends.values()]
    monotone = all(b < a for a, b in zip(widths, widths[1:]))
    # both routes enclose the same measure, so every bracket must meet center +- r
    meets = all(
        lower <= center + radius and upper >= center - radius for lower, upper in ends.values()
    )
    width_ok = last_width <= LEVEL3_K8_WIDTH
    runtime_ok = elapsed <= 120
    ok = meets and width_ok and monotone and runtime_ok
    report(
        5,
        ok,
        f"brackets meet center +- r for K=4..8: {meets} "
        f"(K=8: upper - (center - r) = {last_upper - (center - radius)}, "
        f"(center + r) - lower = {center + radius - last_lower}), "
        f"width - W8 = {last_width - LEVEL3_K8_WIDTH} <= 0: {width_ok}, "
        f"widths shrink K=4..8: {monotone}, {elapsed:.1f} s <= 120: {runtime_ok}",
    )
    for K, (lower, upper) in ends.items():
        assert upper >= center - radius, (K, upper - (center - radius))
        assert lower <= center + radius, (K, center + radius - lower)
    assert width_ok, last_width - LEVEL3_K8_WIDTH
    assert monotone
    assert runtime_ok


def test_criterion_6_property_suites():
    rng = random.Random(20260823)
    cases = 0

    # 1. off-diagonal refinement loses nothing
    cells = list(right_half_subdivision(4))
    for _ in range(120):
        a, b = rng.sample(cells, 2)
        assert product_image(split_middle(a), split_middle(b)) == product_image(
            IntervalSet([a]), IntervalSet([b])
        )
        cases += 1

    # 2. diagonal refinement removes exactly the predicted gap
    diag = 0
    for level in range(2, 8):
        for cell in right_half_subdivision(level):
            square = product_image(IntervalSet([cell]))
            refined = product_image(split_middle(cell))
            assert square.difference(IntervalSet([diagonal_gap(cell)])) == refined
            diag += 1
    assert diag >= 100
    cases += diag

    # 3. the interleaving order at the root and all depth-1 children, k <= 8
    nodes = [ROOT] + [
        node_child(ROOT, k, high_side=side) for k in range(1, 9) for side in (False, True)
    ]
    chain_checks = 0
    for node in nodes:
        checks = verify_order_chain(node, 8)
        assert chain_holds(checks)
        chain_checks += len(checks)
    assert chain_checks >= 100
    cases += chain_checks

    # 4. integer covering thresholds agree with the geometric test
    threshold_cases = 0
    parents = [ROOT] + [node_child(ROOT, k, side) for k in (1, 2) for side in (False, True)]
    for parent in parents:
        for k in (1, 2, 3):
            for high_child in (False, True):
                cutoff = (
                    high_cover_threshold(parent.m, k)
                    if high_child
                    else low_cover_threshold(parent.m, k)
                )
                for l in range(cutoff + 3):
                    assert child_gap_covered(parent, k, l, high_child) == (l >= cutoff)
                    threshold_cases += 1
    assert threshold_cases >= 100
    cases += threshold_cases

    # 5. child scale parameters: pinned at the root, recursion checked deeper
    for k in range(1, 13):
        assert node_child(ROOT, k, high_side=True).m == 3 ** (k + 2) - 3
        assert node_child(ROOT, k, high_side=False).m == 2 * 3 ** (k + 1) + 2
        cases += 2
    scale_cases = 0
    for _ in range(80):
        node = ROOT
        for _ in range(rng.randint(0, 2)):
            node = node_child(node, rng.randint(1, 4), high_side=rng.random() < 0.5)
        k = rng.randint(1, 6)
        assert node_child(node, k, high_side=True).m == 3 ** (k + 1) * (node.m + 1) - 3
        assert node_child(node, k, high_side=False).m == 3 ** (k + 1) * node.m + 2
        scale_cases += 2
    assert scale_cases + 24 >= 100
    cases += scale_cases

    # 6. threshold patterns at the root, plus their defining inequalities
    pattern_cases = 0
    for k in range(1, 13):
        assert low_cover_threshold(ROOT.m, k) == k
        assert high_cover_threshold(ROOT.m, k) == k + 2
        pattern_cases += 2
    for _ in range(60):
        q = rng.randint(1, 3**8)
        k = rng.randint(1, 8)
        l = low_cover_threshold(q, k)
        assert 3 ** (l + 2) > 2 * 3**k * q + 2
        assert l == 0 or 3 ** (l + 1) <= 2 * 3**k * q + 2
        h = high_cover_threshold(q, k)
        assert 3 ** (h + 1) > 2 * 3 ** (k + 1) * (q + 1) - 4
        assert h == 0 or 3**h <= 2 * 3 ** (k + 1) * (q + 1) - 4
        pattern_cases += 2
    assert pattern_cases >= 100
    cases += pattern_cases

    report(6, True, f"6 suites, {cases} cases")


def test_criterion_7_closed_forms_match_series():
    mismatches = [
        k for k in range(1, 21) if beta(k) != beta_series(k) or alpha(k) != alpha_series(k)
    ]
    ok = not mismatches
    report(7, ok, f"beta/alpha closed forms vs series, k = 1..20, mismatches: {mismatches}")
    assert not mismatches
    # spot-check the assembled tails really converge where the closed forms say
    partial = sum(Fraction(*beta(k)) + Fraction(*alpha(k)) for k in range(1, 21))
    assert partial < Fraction(157, 32 * P6)
    assert Fraction(*geometric_series((1, 9), (1, 9))) == Fraction(1, 8)


def test_criterion_8_membership_against_brackets():
    rng = random.Random(1729)
    outer = fast_subdivision(3, 10).outer
    gaps = removed_gaps(3, 10)

    samples = []
    while len(samples) < 1000:
        if rng.random() < 0.5:
            den = rng.randint(3, 10**6)
            num = rng.randint((2 * den + 2) // 3, den)
            x = Fraction(num, den)
            if x < Fraction(2, 3) or x > 1:
                continue
        else:
            digits = [2] + [rng.choice((0, 2)) for _ in range(rng.randint(0, 18))]
            x = sum(Fraction(d, 3 ** (i + 1)) for i, d in enumerate(digits))
            if rng.random() < 0.3:
                x += Fraction(1, 4) / 3 ** len(digits)  # periodic (02)* tail
        samples.append(x)

    members = 0
    escapes = []
    for x in samples:
        if classify_ternary(x)[0] is Membership.MEMBER:
            members += 1
            if not outer.contains(x):
                escapes.append(x)

    bad_midpoints = [
        (g.lo + g.hi) / 2
        for g in gaps
        if classify_ternary((g.lo + g.hi) / 2)[0] is not Membership.NON_MEMBER
    ]
    ok = not escapes and not bad_midpoints
    report(
        8,
        ok,
        f"{members}/1000 digit-oracle members all inside the K=10 outer bracket: "
        f"{not escapes}; {len(gaps)} removed-gap midpoints all non-members: "
        f"{not bad_midpoints}",
    )
    assert members >= 300  # the construction half guarantees a healthy mix
    assert not escapes
    assert not bad_midpoints


def test_criterion_9_standard_inside_full_certificate():
    # two independent routes to measure(P(C x C)): the level-20 standard
    # enclosure must lie inside the gap-calculus certificate's center +- r
    center, radius = (Fraction(*value) for value in full_enclosure())
    start = time.perf_counter()
    lo, hi = (Fraction(*end) for end in standard_estimate(20).full_bounds())
    elapsed = time.perf_counter() - start
    low_margin = lo - (center - radius)
    high_margin = (center + radius) - hi
    ok = low_margin >= 0 and high_margin >= 0
    report(
        9,
        ok,
        f"level-20 standard enclosure inside center +- r: {ok} "
        f"(margins {float(low_margin):.3e} low, {float(high_margin):.3e} high), {elapsed:.2f} s",
    )
    assert low_margin >= 0, low_margin
    assert high_margin >= 0, high_margin

"""End-to-end acceptance sweep: seven tests, one per advertised guarantee.

Every comparison is exact (integer equality or polynomial equality term by
term); nothing here is sampled or approximate except the seeded sub-region
draw in the oracle test, whose seed is frozen.  Run

    python3 -m pytest tests/test_acceptance.py -v

to get one pass/fail line per guarantee.  Each test also prints a summary
line with the size of the swept family (visible with -s or on failure).
"""

import itertools
import random

from qlozenge.enumeration import (
    DEFAULT_TRIANGLE_BUDGET,
    count_tilings,
    gen_function,
    gen_function_oracle,
    iter_tilings,
)
from qlozenge.formulas import (
    k_region_M2,
    macmahon_q,
    magnet_M2,
    magnet_M3,
    semihex_dents_M2,
    theorem_main,
    theorem_qmain,
)
from qlozenge.lattice import (
    Region,
    RegionParams,
    build_hexagon,
    build_magnet_bar,
    build_q_region,
    build_semihexagon_dented,
)
from qlozenge.qalgebra import QPoly
from qlozenge.verify import (
    FAIL,
    PASS,
    PRECONDITION,
    check_magnet_recurrence,
    check_psi_recurrence,
    check_q_int_addition,
    check_q_recurrence,
    run_suite,
)
from qlozenge.weights import WeightAssignment as W, down_weight, f_exponent, g_exponent


def tiling_exponent(w, region, tiling):
    """Sum of down_weight over a tiling's lozenges, whose second triangle is down."""
    return sum(down_weight(w, region)(loz.orientation, *loz.second[:2]) for loz in tiling)


def _notched_sweep():
    """The criterion-2 parameter family: the full 0/1 cube plus every tuple
    with a 2 in it and small total size."""
    base = list(itertools.product((0, 1), repeat=8))
    extras = [
        tup
        for tup in itertools.product((0, 1, 2), repeat=8)
        if max(tup) == 2 and sum(tup) <= 3
    ]
    return base, extras


def test_c1_hexagon_box_polynomial_and_counts():
    checked = 0
    for a, b, c in itertools.product(range(4), repeat=3):
        swept = gen_function(build_hexagon(a, b, c), W.WT2)
        boxed = macmahon_q(a, b, c).poly.shift(b * a * (a + 1) // 2)
        assert swept == boxed, (a, b, c)
        checked += 1
    assert count_tilings(build_hexagon(2, 2, 2)) == 20
    assert count_tilings(build_hexagon(3, 3, 3)) == 980
    print("acceptance 1: pass (%d hexagons, counts 20 and 980)" % checked)


def test_c2_notched_region_formula_matches_enumeration():
    base, extras = _notched_sweep()
    assert len(base) == 256 and len(extras) == 64
    assert len(extras) >= 50
    for tup in base + extras:
        p = RegionParams(*tup)
        region = build_q_region(p)
        assert len(region.triangles) <= DEFAULT_TRIANGLE_BUDGET, tup
        want = theorem_qmain(p).poly.shift(g_exponent(p))
        assert gen_function(region, W.WT2) == want, tup
        assert count_tilings(region) == theorem_main(p), tup
    print("acceptance 2: pass (%d notched regions)" % (len(base) + len(extras)))


def test_c3_per_tiling_exponent_relation_and_volume_sum():
    base, extras = _notched_sweep()
    total = 0
    for tup in base + extras:
        p = RegionParams(*tup)
        region = build_q_region(p)
        f, g = f_exponent(p), g_exponent(p)
        volumes: dict[int, int] = {}
        for tiling in iter_tilings(region):
            total += 1
            side = tiling_exponent(W.WT1, region, tiling) - f
            vol = tiling_exponent(W.WT2, region, tiling) - g
            assert side == vol >= 0, tup
            volumes[vol] = volumes.get(vol, 0) + 1
        assert QPoly(volumes) == theorem_qmain(p).poly, tup
    assert total == sum(theorem_main(RegionParams(*t)) for t in base + extras)
    assert total == 2911
    print("acceptance 3: pass (%d tilings, both exponent routes agree)" % total)


def test_c4_bar_hole_formulas_and_single_hole_degeneration():
    base = list(itertools.product((0, 1), repeat=6))
    extras = [
        tup
        for tup in itertools.product(range(4), repeat=6)
        if max(tup) >= 2 and sum(tup) <= 4
    ]
    assert len(extras) == 147
    assert len(extras) >= 30
    for tup in base + extras:
        region = build_magnet_bar(*tup)
        assert gen_function(region, W.WT2) == magnet_M2(*tup).poly, tup
        assert gen_function(region, W.WT3) == magnet_M3(*tup).poly, tup
    for a, x, y, z, t in itertools.product(range(3), repeat=5):
        assert magnet_M2(0, a, x, y, z, t).poly == k_region_M2(a, x, y, z, t).poly
    print(
        "acceptance 4: pass (%d bar regions, 243 zero-bar degenerations)"
        % (len(base) + len(extras))
    )


def test_c5_dented_trapezoid_formula():
    regions = 0
    for width in range(7):
        for a in range(width + 1):
            b = width - a
            for dents in itertools.combinations(range(1, width + 1), a):
                got = gen_function(build_semihexagon_dented(a, b, dents), W.WT2)
                assert got == semihex_dents_M2(a, b, dents).poly, (a, b, dents)
                regions += 1
    assert regions == 127
    print("acceptance 5: pass (%d dented trapezoids)" % regions)


def test_c6_four_point_identity_and_recurrences():
    reports = run_suite("kuo")
    assert len(reports) >= 20
    assert all(r.status == PASS for r in reports), [r.params for r in reports]
    assert len({r.params[0] for r in reports}) >= 12  # distinct regions

    tallies = {PASS: 0, PRECONDITION: 0, FAIL: 0}
    for tup in itertools.product(range(3), repeat=6):
        tallies[check_magnet_recurrence(*tup).status] += 1
    assert tallies == {PASS: 324, PRECONDITION: 405, FAIL: 0}

    tallies = {PASS: 0, PRECONDITION: 0, FAIL: 0}
    for tup in itertools.product(range(3), repeat=8):
        tallies[check_q_recurrence(RegionParams(*tup)).status] += 1
    assert tallies == {PASS: 2916, PRECONDITION: 3645, FAIL: 0}

    tallies = {PASS: 0, PRECONDITION: 0, FAIL: 0}
    for tup in itertools.product(range(3), repeat=8):
        tallies[check_psi_recurrence(RegionParams(*tup)).status] += 1
    assert tallies == {PASS: 1944, PRECONDITION: 4617, FAIL: 0}

    for big in range(21):
        for small in range(21):
            assert check_q_int_addition(big, small).status == PASS, (big, small)
    print(
        "acceptance 6: pass (%d four-point placements, 3 recurrences swept, "
        "441 scalar additions)" % len(reports)
    )


def test_c7_sweep_matches_brute_force_oracle():
    hexagon = build_hexagon(3, 3, 3)
    pool = sorted(hexagon.triangles)
    rng = random.Random(20260815)
    cycle = (W.WT1, W.WT2, W.WT3)
    nonzero = 0
    for trial in range(200):
        drop = rng.randrange(0, 7) * 2
        keep = frozenset(pool) - frozenset(rng.sample(pool, drop))
        region = Region(keep, None, hexagon.frames)
        w = cycle[trial % 3]
        fast = str(gen_function(region, w))
        slow = str(gen_function_oracle(region, w))
        assert fast == slow, (trial, drop, w)
        if fast != "0":
            nonzero += 1
    assert nonzero == 67
    print("acceptance 7: pass (200 sub-regions, %d tileable, text-identical)" % nonzero)

import itertools
from collections import Counter

import pytest

from qlozenge import enumeration
from qlozenge.enumeration import gen_function, gen_function_oracle, iter_tilings
from qlozenge.lattice import (
    LEFT,
    RIGHT,
    VERTICAL,
    Region,
    RegionParams,
    build_hexagon,
    build_magnet_bar,
    build_q_region,
    build_semihexagon_dented,
    down,
    up,
)
from qlozenge.qalgebra import QPoly, resolve
from qlozenge.weights import (
    MissingFrame,
    NegativeVolume,
    WeightAssignment as W,
    WeightUndefined,
    down_weight,
    f_exponent,
    g_exponent,
)


def tiling_exponent(w, region, tiling):
    """Sum of down_weight over a tiling's lozenges, whose second triangle is down."""
    return sum(down_weight(w, region)(loz.orientation, *loz.second[:2]) for loz in tiling)


def tiling_volume(region, tiling):
    """The pile's volume by the wt2 route: its exponent less the empty pile's."""
    return tiling_exponent(W.WT2, region, tiling) - g_exponent(region.params)


def _mac_q(a, b, c):
    # Independent route: MacMahon's boxed-pile product H(a) H(b) H(c)
    # H(a+b+c) / (H(a+b) H(b+c) H(c+a)), with H(n) = prod_{j<n} [j]^(n-j).
    exponents = {}
    for sign, ns in ((1, (a, b, c, a + b + c)), (-1, (a + b, b + c, c + a))):
        for n in ns:
            for j in range(1, n):
                exponents[j] = exponents.get(j, 0) + sign * (n - j)
    return resolve(exponents)


def test_left_lozenges_are_free():
    region = build_hexagon(1, 1, 1)
    for w in (W.WT1, W.WT2, W.WT3):
        assert down_weight(w, region)(LEFT, 0, -1) == 0


def test_unit_hexagon_right_lozenge_exponents():
    region = build_hexagon(1, 1, 1)
    for w in (W.WT1, W.WT2):
        exponent = down_weight(w, region)
        assert {exponent(RIGHT, 0, 0), exponent(RIGHT, 1, -1)} == {1, 2}


def test_unit_hexagon_vertical_exponents():
    region = build_hexagon(1, 1, 1)
    assert down_weight(W.WT3, region)(VERTICAL, 0, -1) == 1  # up(1, -1) over down(0, -1)
    assert down_weight(W.WT3, region)(VERTICAL, 0, 0) == 2  # up(1, 0) over down(0, 0)


def test_wt0_has_no_per_lozenge_value():
    with pytest.raises(WeightUndefined):
        down_weight(W.WT0, build_hexagon(1, 1, 1))


def test_missing_frames():
    sh = build_semihexagon_dented(2, 1, [1, 3])
    assert down_weight(W.WT2, sh)(RIGHT, 0, 1) == 1  # row 0, one step above the base
    with pytest.raises(MissingFrame):
        down_weight(W.WT1, sh)
    with pytest.raises(MissingFrame):
        down_weight(W.WT3, sh)
    with pytest.raises(MissingFrame):
        down_weight(W.WT3, build_q_region(RegionParams(1, 1, 1, 1, 1, 1, 1, 1)))
    with pytest.raises(MissingFrame):
        down_weight(W.WT2, Region(frozenset([up(0, 0), down(0, 0)])))


def test_a_missing_frame_fails_whatever_the_lozenges():
    # No frames and no forced lozenge, so no lozenge ever asks for the frame.
    region = Region(build_hexagon(1, 1, 1).triangles)
    with pytest.raises(MissingFrame):
        gen_function(region, W.WT2)
    with pytest.raises(MissingFrame):
        down_weight(W.WT2, region)
    with pytest.raises(MissingFrame):
        gen_function_oracle(Region(frozenset()), W.WT2)


def test_tiling_exponent_trivial():
    empty = Region(frozenset(), None, build_hexagon(1, 1, 1).frames)
    assert tiling_exponent(W.WT2, empty, frozenset()) == 0
    region = build_hexagon(0, 2, 3)
    (only,) = iter_tilings(region)
    assert tiling_exponent(W.WT2, region, only) == 0


def test_f_g_closed_forms():
    zero = RegionParams(0, 0, 0, 0, 0, 0, 0, 0)
    assert f_exponent(zero) == 0
    assert g_exponent(zero) == 0
    ones = RegionParams(1, 1, 1, 1, 1, 1, 1, 1)
    assert f_exponent(ones) == 39
    assert g_exponent(ones) == 25
    for x, y, z in itertools.product(range(3), repeat=3):
        p = RegionParams(x, y, z, 2, 0, 0, 0, 0)
        assert f_exponent(p) == z * (x + y) * (x + y + 1) // 2
        assert g_exponent(p) == (x + y) * z * (z + 1) // 2


def test_f_g_ignore_t():
    for t in range(4):
        p = RegionParams(1, 2, 1, t, 2, 1, 0, 1)
        assert f_exponent(p) == f_exponent(RegionParams(1, 2, 1, 0, 2, 1, 0, 1))
        assert g_exponent(p) == g_exponent(RegionParams(1, 2, 1, 0, 2, 1, 0, 1))


def test_empty_pile_attains_f_and_g():
    # The two displayed empty-pile exponents, checked on every tiling of a
    # batch of small notched regions: the minimum-exponent tiling reaches
    # g under wt2 and f under wt1 simultaneously.
    tuples = [
        (1, 1, 1, 1, 1, 1, 1, 1),
        (1, 0, 1, 1, 1, 1, 0, 1),
        (0, 1, 1, 1, 1, 0, 1, 1),
        (1, 1, 0, 1, 1, 1, 1, 0),
        (2, 1, 1, 0, 1, 1, 0, 0),
    ]
    for vals in tuples:
        p = RegionParams(*vals)
        region = build_q_region(p)
        tilings = list(iter_tilings(region))
        exps1 = [tiling_exponent(W.WT1, region, T) for T in tilings]
        exps2 = [tiling_exponent(W.WT2, region, T) for T in tilings]
        assert min(exps1) == f_exponent(p)
        assert min(exps2) == g_exponent(p)
        k1 = exps1.index(min(exps1))
        k2 = exps2.index(min(exps2))
        assert k1 == k2  # one tiling depicts the empty pile


def test_two_route_volume_relation():
    for vals in itertools.product(range(2), repeat=8):
        p = RegionParams(*vals)
        region = build_q_region(p)
        f, g = f_exponent(p), g_exponent(p)
        volumes = {}
        for T in iter_tilings(region):
            d1 = tiling_exponent(W.WT1, region, T) - f
            d2 = tiling_exponent(W.WT2, region, T) - g
            assert d1 == d2
            assert d2 >= 0
            volumes[d2] = volumes.get(d2, 0) + 1
        assert gen_function_oracle(region, W.WT0) == QPoly(volumes)


def test_unit_hexagon_volumes():
    region = build_hexagon(1, 1, 1)
    vols = {tiling_volume(region, T) for T in iter_tilings(region)}
    assert vols == {0, 1}


def test_volume_needs_params():
    sh = build_semihexagon_dented(1, 1, [1])
    assert len(list(iter_tilings(sh))) == 1
    for route in (gen_function, gen_function_oracle):
        with pytest.raises(MissingFrame):
            route(sh, W.WT0)


def test_negative_volume_is_loud():
    # Grafting wrong parameters onto a region makes the subtraction go
    # negative; that must never pass silently, and both routes fail alike,
    # as they do for a region with no parameters at all.
    region = build_hexagon(1, 1, 1)
    lying = Region(region.triangles, RegionParams(2, 2, 2, 2, 2, 2, 2, 2), region.frames)
    for route in (gen_function, gen_function_oracle):
        with pytest.raises(NegativeVolume):
            route(lying, W.WT0)
        with pytest.raises(MissingFrame):
            route(Region(region.triangles), W.WT0)


def test_wt0_oracle_resolves_its_weight_once_per_region(monkeypatch):
    region = build_magnet_bar(1, 1, 2, 2, 1, 1)
    volumes = Counter(tiling_volume(region, T) for T in iter_tilings(region))
    calls = []
    for name in ("enumeration_weight", "down_weight"):
        real = getattr(enumeration, name)
        counted = lambda *args, name=name, real=real: calls.append(name) or real(*args)
        monkeypatch.setattr(enumeration, name, counted)
    assert gen_function_oracle(region, W.WT0) == QPoly(dict(volumes))
    assert sorted(calls) == ["down_weight", "enumeration_weight"]


def test_hexagon_generating_functions_match_product():
    for a, b, c in itertools.product(range(4), repeat=3):
        region = build_hexagon(a, b, c)
        mac = _mac_q(a, b, c)
        assert gen_function_oracle(region, W.WT1) == mac.shift(a * b * (b + 1) // 2)
        assert gen_function_oracle(region, W.WT2) == mac.shift(b * a * (a + 1) // 2)


def test_volume_changes_by_one_under_hexagon_flip():
    region = build_hexagon(2, 2, 2)
    tilings = list(iter_tilings(region))
    vols = {T: tiling_volume(region, T) for T in tilings}
    flips = 0
    for T1, T2 in itertools.combinations(tilings, 2):
        moved = T1 ^ T2
        if len(moved) != 6:
            continue
        covered1 = {t for loz in (T1 - T2) for t in (loz.first, loz.second)}
        covered2 = {t for loz in (T2 - T1) for t in (loz.first, loz.second)}
        if covered1 != covered2 or len(covered1) != 6:
            continue
        flips += 1
        assert abs(vols[T1] - vols[T2]) == 1
    assert flips > 0

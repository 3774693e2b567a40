import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from qlozenge.enumeration import count_tilings, gen_function
from qlozenge.formulas import (
    FormulaResult,
    _count_factor_lists,
    _hyperfactorial_exponents,
    hex_M1,
    hex_M2,
    k_region_M2,
    macmahon_q,
    magnet_M2,
    magnet_M3,
    semihex_dents_M2,
    theorem_main,
    theorem_qmain,
)
from qlozenge.lattice import (
    BadDents,
    RegionParams,
    build_hexagon,
    build_k_region,
    build_magnet_bar,
    build_q_region,
    build_semihexagon_dented,
)
from qlozenge.qalgebra import parse_poly
from qlozenge.verify import _bounded_tuples
from qlozenge.weights import WeightAssignment as W, f_exponent, g_exponent


def test_macmahon_frozen_values():
    assert macmahon_q(1, 1, 1).poly == parse_poly("1 + q")
    assert macmahon_q(2, 1, 1).poly == parse_poly("1 + q + q^2")
    for b, c in itertools.product(range(4), repeat=2):
        assert macmahon_q(0, b, c).poly == parse_poly("1")
    assert macmahon_q(1, 1, 1).prefactor_exponent == 0


def test_macmahon_counts_small_boxes():
    for a, b, c in itertools.product(range(3), repeat=3):
        boxed = sum(macmahon_q(a, b, c).poly.terms.values())
        assert boxed == count_tilings(build_hexagon(a, b, c)), (a, b, c)


def test_macmahon_is_palindromic():
    # complementing a pile in the box mirrors the volume
    for a, b, c in itertools.product(range(4), repeat=3):
        terms = macmahon_q(a, b, c).poly.terms
        top = a * b * c
        assert all(terms[e] == terms.get(top - e) for e in terms), (a, b, c)


def test_theorem_main_trivial_and_frozen():
    assert theorem_main(RegionParams(0, 0, 0, 0, 0, 0, 0, 0)) == 1
    assert theorem_main(RegionParams(1, 1, 1, 1, 1, 0, 0, 0)) == 4


def test_theorem_main_reduces_to_the_box_count():
    for x, y, z, t in itertools.product(range(3), repeat=4):
        p = RegionParams(x, y, z, t, 0, 0, 0, 0)
        expected = sum(macmahon_q(z, x + y, t).poly.terms.values())
        assert theorem_main(p) == expected, p


def test_qmain_trivial():
    assert theorem_qmain(RegionParams(0, 0, 0, 0, 0, 0, 0, 0)).poly == parse_poly("1")


def test_qmain_exponent_map_is_the_per_argument_sum():
    # H(n) = prod_{j<n} [j]^(n-j), summed argument by argument
    tuples = list(_bounded_tuples(8, 7))
    assert len(tuples) == 6435
    for raw in tuples:
        num, den = _count_factor_lists(RegionParams(*raw))
        expected: Counter[int] = Counter()
        for n in num:
            expected.update({j: n - j for j in range(1, n)})
        for n in den:
            expected.subtract({j: n - j for j in range(1, n)})
        assert _hyperfactorial_exponents(num, den) == {j: e for j, e in expected.items() if e}


def test_qmain_reduces_to_macmahon():
    for x, y, z, t in itertools.product(range(3), repeat=4):
        p = RegionParams(x, y, z, t, 0, 0, 0, 0)
        assert theorem_qmain(p).poly == macmahon_q(z, x + y, t).poly, p


def test_qmain_matches_count_and_q1_on_the_unit_cube_sweep():
    for raw in itertools.product(range(2), repeat=8):
        p = RegionParams(*raw)
        n = theorem_main(p)
        assert sum(theorem_qmain(p).poly.terms.values()) == n, p
        assert count_tilings(build_q_region(p)) == n, p


def test_qmain_is_the_volume_generating_function_when_all_ones():
    p = RegionParams(1, 1, 1, 1, 1, 1, 1, 1)
    region = build_q_region(p)
    assert gen_function(region, W.WT0) == theorem_qmain(p).poly


def test_qmain_weight_relations_all_ones():
    p = RegionParams(1, 1, 1, 1, 1, 1, 1, 1)
    region = build_q_region(p)
    qm = theorem_qmain(p).poly
    assert gen_function(region, W.WT1) == qm.shift(f_exponent(p))
    assert gen_function(region, W.WT2) == qm.shift(g_exponent(p))


def test_hexagon_formulas():
    assert hex_M2(1, 1, 1).poly == parse_poly("q + q^2")
    assert hex_M2(1, 1, 1).prefactor_exponent == 1
    for a, c in itertools.product(range(4), repeat=2):
        assert hex_M1(a, 0, c).poly == parse_poly("1")
    for a, b, c in itertools.product(range(3), repeat=3):
        region = build_hexagon(a, b, c)
        assert hex_M1(a, b, c).poly == gen_function(region, W.WT1), (a, b, c)
        assert hex_M2(a, b, c).poly == gen_function(region, W.WT2), (a, b, c)
        if a == b:
            assert hex_M1(a, b, c) == hex_M2(a, b, c)


def test_semihex_frozen_values():
    for b in range(4):
        assert semihex_dents_M2(1, b, [1]).poly == parse_poly("1")
    assert semihex_dents_M2(1, 3, [4]).poly == parse_poly("q^3")
    assert semihex_dents_M2(2, 1, [1, 3]).poly == parse_poly("q + q^2")
    assert semihex_dents_M2(2, 1, [1, 3]).prefactor_exponent == 1


def test_semihex_matches_the_region_for_every_dent_set():
    for a, b in ((1, 2), (2, 1), (2, 2), (3, 1)):
        for dents in itertools.combinations(range(1, a + b + 1), a):
            region = build_semihexagon_dented(a, b, list(dents))
            got = semihex_dents_M2(a, b, list(dents)).poly
            assert got == gen_function(region, W.WT2), (a, b, dents)


def test_semihex_dent_order_does_not_matter():
    assert semihex_dents_M2(2, 1, [3, 1]) == semihex_dents_M2(2, 1, [1, 3])


def test_semihex_rejects_bad_dents():
    with pytest.raises(BadDents):
        semihex_dents_M2(2, 1, [1, 1])
    with pytest.raises(BadDents):
        semihex_dents_M2(2, 1, [1])
    with pytest.raises(BadDents):
        semihex_dents_M2(2, 1, [1, 4])


def test_k_region_formula():
    assert k_region_M2(0, 0, 0, 0, 0).poly == parse_poly("1")
    for raw in itertools.product(range(2), repeat=5):
        region = build_k_region(*raw)
        assert k_region_M2(*raw).poly == gen_function(region, W.WT2), raw


def test_k_region_without_a_lobe_is_the_hexagon_formula():
    for x, y, z, t in itertools.product(range(3), repeat=4):
        assert k_region_M2(0, x, y, z, t) == hex_M2(z, x + y, t), (x, y, z, t)


def test_bar_formulas_match_the_region():
    assert magnet_M2(0, 0, 0, 0, 0, 0).poly == parse_poly("1")
    assert magnet_M3(0, 0, 0, 0, 0, 0).poly == parse_poly("1")
    for raw in itertools.product(range(2), repeat=6):
        region = build_magnet_bar(*raw)
        assert magnet_M2(*raw).poly == gen_function(region, W.WT2), raw
        assert magnet_M3(*raw).poly == gen_function(region, W.WT3), raw


def test_bar_formula_without_a_core_is_the_one_lobe_formula():
    for raw in itertools.product(range(2), repeat=5):
        a, x, y, z, t = raw
        assert magnet_M2(0, a, x, y, z, t).poly == k_region_M2(a, x, y, z, t).poly


@given(
    m=st.integers(0, 3),
    a=st.integers(0, 3),
    x=st.integers(0, 3),
    y=st.integers(0, 3),
    z=st.integers(0, 3),
    t=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_bar_formulas_differ_by_a_pure_q_power(m, a, x, y, z, t):
    m2 = magnet_M2(m, a, x, y, z, t)
    m3 = magnet_M3(m, a, x, y, z, t)
    assert m2.poly.shift(m3.prefactor_exponent) == m3.poly.shift(m2.prefactor_exponent)


# SHA-256 of str(poly), recorded by the expand-then-divide route that
# preceded cyclotomic cancellation; the widest coefficient has 270 bits.
_PINNED_QMAIN = {
    (6, 4, 6, 7, 4, 5, 5, 5): "63b745f967679bbbfbb64dfdb4e5b386b30205803c325f8971ab56e58e653003",
}


@given(
    raw=st.tuples(*[st.integers(0, 2)] * 8),
)
@example(raw=(6, 4, 6, 7, 4, 5, 5, 5))
@settings(max_examples=60, deadline=None)
def test_qmain_expands_exactly_and_counts_at_q1(raw):
    p = RegionParams(*raw)
    result = theorem_qmain(p)
    assert isinstance(result, FormulaResult)
    assert all(coef > 0 for coef in result.poly.terms.values())
    assert sum(result.poly.terms.values()) == theorem_main(p)
    if raw in _PINNED_QMAIN:
        assert hashlib.sha256(str(result.poly).encode()).hexdigest() == _PINNED_QMAIN[raw]


# SHA-256 of str(poly) for products whose widest coefficients have 106, 247,
# 444, 698 and 270 bits, so resolve's slots span several bytes.  The 10^3
# and 15^3 digests were recorded while resolve still packed a whole group of
# products at one shared width, the 20^3 one while each product was still
# a single multiply at q = 2^W, the 25^3 one, whose last products are far
# above _product's four-point cut, while every product was two half-width
# multiplies.
@pytest.mark.parametrize(
    "formula, args, digest",
    [
        (macmahon_q, (10, 10, 10), "6d3ab79ceb434e638529b8c171c0f83738e222ec645d1c479d16cfdfa0ef170d"),
        (macmahon_q, (15, 15, 15), "61c5e27ceb3f69deb70ff7aa5bac74ef277a7f8b90858f6cc30c38bd2b1b66bf"),
        (macmahon_q, (20, 20, 20), "9a628c1633a9cd47aea026013d45c6b428da4b445475046c954bae343584a854"),
        (macmahon_q, (25, 25, 25), "c3e8e4c8b27b30c00e536d097c406b7f9e9487ecea725c14e3931545db87408e"),
        (theorem_qmain, (RegionParams(6, 4, 6, 7, 4, 5, 5, 5),), _PINNED_QMAIN[(6, 4, 6, 7, 4, 5, 5, 5)]),
    ],
    ids=["macmahon-10", "macmahon-15", "macmahon-20", "macmahon-25", "qmain-wide"],
)
def test_wide_products_match_their_pins(formula, args, digest):
    assert hashlib.sha256(str(formula(*args).poly).encode()).hexdigest() == digest


# SHA-256 over "<args> <poly> <prefactor_exponent>" lines, args in
# itertools.product order, recorded from the separate hyperfactorial
# products each formula had before it became theorem_qmain times a q-power.
_FOLD_GRID = {
    macmahon_q: (3, 6, "4b215f058adc2e7fa5eb77bf2da90352e3c2c16695c10991b87a8540366d7f9a"),
    hex_M1: (3, 6, "6ffce3159080d3c459fa0c149f56224d8d1c2c958329e55e54883fb590d71dac"),
    hex_M2: (3, 6, "098df89cd3ebff93c6241fbbbf0cf1d69c71fc4db1e090a1db816c28ea0e5f4a"),
    k_region_M2: (5, 3, "fc2410db5f38ffc4243695770076968228f09021c27c86d9844e9a549d21c3f1"),
    magnet_M2: (6, 2, "f5779133fd86ab3a3069b9231686364b04510165145367fd494b01b257807cde"),
    magnet_M3: (6, 2, "7b7d57614502711e42165863d8fe4c34ced0e0e845666b0817509445f5749b06"),
}


@pytest.mark.parametrize("formula", list(_FOLD_GRID), ids=lambda f: f.__name__)
def test_formula_values_on_the_recorded_grid(formula):
    arity, top, expected = _FOLD_GRID[formula]
    digest = hashlib.sha256()
    for ps in itertools.product(range(top + 1), repeat=arity):
        r = formula(*ps)
        digest.update(("%r %s %d\n" % (ps, r.poly, r.prefactor_exponent)).encode())
    assert digest.hexdigest() == expected

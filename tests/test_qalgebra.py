import doctest
import math

import pytest
from hypothesis import example, given, strategies as st

from qlozenge import qalgebra
from qlozenge.qalgebra import NonExactDivision, QPoly, parse_poly, q_int, resolve


def _poly(d):
    return QPoly(d)


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-5, max_value=5),
    max_size=5,
).map(_poly)


def test_q_int_small_values():
    assert q_int(0) == QPoly(0)
    assert q_int(1) == QPoly(1)
    assert q_int(3) == QPoly({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError, match="negative"):
        q_int(-1)


def test_q_int_addition_law():
    # [A] + q^A [z] = [A + z], the scalar identity behind the telescoping
    # checks in the verify module.
    for big in range(0, 21):
        for small in range(0, 21):
            assert q_int(big) + q_int(small).shift(big) == q_int(big + small)


def test_resolve_single_factor():
    assert resolve({2: 1}) == QPoly({0: 1, 1: 1})


def test_resolve_unit_box_product():
    # H(1)^3 H(3) / H(2)^3 collapses to [2]: the two-element chain of piles
    # in a 1x1x1 box.  H(1) is empty, H(2) = [1] and H(3) = [1]^2 [2].
    assert resolve({1: 2 - 3, 2: 1}) == QPoly({0: 1, 1: 1})


@pytest.mark.parametrize(
    "exponents, prefactor", [({0: 1}, 0), ({-2: 1}, 0), ({"2": 1}, 0), ({}, -1)]
)
def test_resolve_rejects_bad_factor_index_or_prefactor(exponents, prefactor):
    with pytest.raises(ValueError):
        resolve(exponents, prefactor)


def test_resolve_rejects_non_polynomial():
    with pytest.raises(NonExactDivision):
        resolve({2: -1})


def test_resolve_applies_prefactor():
    assert resolve({2: 1}, prefactor=2) == QPoly({2: 1, 3: 1})


def test_resolve_binomial_rows_near_the_slot_bound():
    # [2]^e = (1 + q)^e has coefficient sum 2^e, the bound the slot width is
    # taken from, and its middle coefficient is within a few bits of it.
    for e in range(0, 301):
        assert resolve({2: e}) == QPoly({k: math.comb(e, k) for k in range(e + 1)}), e


def test_resolve_decodes_signed_coefficients():
    # [6] / ([3] [2]) is the cyclotomic polynomial Phi_6, [4] / [2] is Phi_4.
    assert resolve({6: 1, 3: -1, 2: -1}) == QPoly({0: 1, 1: -1, 2: 1})
    assert resolve({4: 1, 2: -1}) == QPoly({0: 1, 2: 1})
    # Its inner zero is in no form.
    inner_zero = resolve({4: 1, 2: -1})
    assert inner_zero.terms == {0: 1, 2: 1} and repr(inner_zero) == "QPoly({0: 1, 2: 1})"
    assert str(inner_zero) == "1 + q^2" and inner_zero.shift(3).degree() == 5


def test_resolve_of_the_empty_product():
    # [1] has no cyclotomic factor, so [1]^-2 leaves nothing to multiply.
    assert resolve({}) == 1
    assert resolve({1: -2}) == 1
    assert resolve({}, 3) == QPoly({3: 1})


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# At cut 0 every product takes the four-point path.  The operands here are
# far below the module's cut, so at that cut every one takes the two-point.
_BOTH_PATHS = (qalgebra._FOUR_POINT_CUT, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("bits", [7, 14, 15, 63, 254, 255, 1023])
def test_product_matches_schoolbook_where_cauchy_schwarz_is_tight(monkeypatch, k, bits):
    # Two rows of k coefficients +-M: the middle coefficient of the product
    # is +-k M^2 = |a|_2 |b|_2, the bound the slot width is taken from.
    # k M^2 fills `bits` bits at M = top and spills into one more at
    # M = top + 1.  8n - 1 bits are the most an n-byte signed slot holds
    # (two-point path), 16n - 2 the most n-byte digits hold (four-point).
    top = math.isqrt(((1 << bits) - 1) // k)
    assert (k * top**2).bit_length() <= bits < (k * (top + 1) ** 2).bit_length()
    for cut in _BOTH_PATHS:
        monkeypatch.setattr(qalgebra, "_FOUR_POINT_CUT", cut)
        for m in (top - 1, top, top + 1):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                a, b = [sa * m] * k, [sb * m] * k
                assert qalgebra._product(a, b) == _schoolbook(a, b), (cut, m, sa, sb)


_WIDE = st.integers(min_value=-(1 << 300), max_value=1 << 300)


def _palindrome(half_and_odd):
    """half followed by its mirror image, sharing the middle entry if odd."""
    half, odd = half_and_odd
    return half + half[::-1][odd:]


_OPERANDS = st.tuples(st.lists(_WIDE, min_size=1, max_size=20).filter(any), st.booleans()).map(
    _palindrome
)
# Against one of these units |a|_2 |b|_2 is |a|_2 (or sqrt(2) or sqrt(3)
# times it), so the other operand's own coefficients sit at the slot bound,
# exactly so when it has a lone nonzero coefficient, in its centre.
_UNITS = st.sampled_from([[1], [-1], [1, 1], [1, 0, 1], [1, -1, 1], [0, 1, 0]])
_LONE = st.tuples(st.integers(0, 19), _WIDE.filter(bool)).map(
    lambda t: [0] * t[0] + [t[1]] + [0] * t[0]
)


@given(_OPERANDS | _LONE, _OPERANDS | _LONE | _UNITS, st.booleans())
# Lengths 1 and 2 on each side, then odd by even lengths: at n = 2, 6 and 8
# the product has even length, and the four-point path reads its even part
# against its odd part reversed.
@example([3], [-5], False)
@example([-7], [1 << 200, 1 << 200], False)
@example([-7], [1 << 200, 1 << 200], True)
@example([2, 2], [-(1 << 90), -(1 << 90)], False)
@example([5, -(1 << 200), 5], [1 << 150, 3, 3, 1 << 150], False)
@example([1, -9, 1 << 120, -9, 1], [-(1 << 150), 3, 3, -(1 << 150)], True)
# A lone coefficient just under 2^(2N-2), N = 8 and 128 bits: the carry
# into the four-point path's mirror window reaches its bound 2^(N-1).
@example([1], [0, 0, (1 << 14) - 1, 0, 0], False)
@example([1], [0, 0, 0, (1 << 254) - 1, 0, 0, 0], True)
def test_product_matches_schoolbook(a, b, swap):
    """_product's precondition: both operands are palindromes, neither all
    zeros.  Then every coefficient of a, b and a*b fits the slot width taken
    from |a|_2 |b|_2."""
    if swap:
        a, b = b, a
    assert a == a[::-1] and b == b[::-1]
    for cut in _BOTH_PATHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qalgebra, "_FOUR_POINT_CUT", cut)
            assert qalgebra._product(a, b) == _schoolbook(a, b), cut


def _phi_map(d):
    """The exponent map of Phi_d = prod_{k | d} [k]^mu(d/k), d > 1."""
    return {k: _mobius(d // k) for k in range(1, d + 1) if d % k == 0 and _mobius(d // k)}


def _mobius(n):
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def _phi(d):
    """Phi_d, d > 1, as prod_{k | d} (1 - q^k)^mu(d/k), by ascending long
    division: independent of the cyclotomic table resolve uses."""
    num, den = QPoly(1), QPoly(1)
    for k, mu in _phi_map(d).items():
        if mu > 0:
            num = num * QPoly({0: 1, k: -1})
        else:
            den = den * QPoly({0: 1, k: -1})
    rem, out = num.terms, {}
    for e in range(max(rem) - den.degree() + 1):
        c = out[e] = rem.get(e, 0)
        for de, dc in den.terms.items():
            rem[e + de] = rem.get(e + de, 0) - c * dc
    assert not any(rem.values())
    return QPoly(out)


def _add(*maps):
    out = {}
    for m in maps:
        for j, e in m.items():
            out[j] = out.get(j, 0) + e
    return out


def test_resolve_multiplies_and_returns_only_palindromes(monkeypatch):
    # Each Phi_d (d > 1) is self-reciprocal, so every operand _power and
    # _product see, and every list they return, is its own reverse.
    seen = []
    product, power = qalgebra._product, qalgebra._power

    def checked_product(a, b):
        seen.extend((a, b))
        seen.append(product(a, b))
        return seen[-1]

    def checked_power(d, e):
        seen.append(power(d, e))
        return seen[-1]

    monkeypatch.setattr(qalgebra, "_product", checked_product)
    monkeypatch.setattr(qalgebra, "_power", checked_power)
    maps = [{j: e} for j in range(1, 13) for e in range(-2, 4)]
    maps += [{6: 1, 3: -1, 2: -1}, {12: 2, 6: -1, 4: 1}, {10: 3, 9: 1, 5: -2}]
    resolved = 0
    for exponents in maps:
        try:
            resolve(exponents)
        except NonExactDivision:
            continue
        resolved += 1
    # [1] is the empty product at every e; [j], j > 1, divides at e >= 0.
    assert resolved == 6 + 11 * 4 + 3
    assert len(seen) > 100 and all(p == p[::-1] for p in seen)


def test_resolve_of_cyclotomic_powers_and_pairs_is_the_schoolbook_product():
    phis = {d: _phi(d) for d in range(2, 31)}
    lengths = set()
    for d, phi in phis.items():
        expected = QPoly(1)
        for e in range(4):
            assert resolve({j: e * m for j, m in _phi_map(d).items()}) == expected, (d, e)
            lengths.add(expected.degree() + 1)
            expected = expected * phi
        for d2 in range(d + 1, 31):
            expected = phi * phis[d2]
            assert resolve(_add(_phi_map(d), _phi_map(d2))) == expected, (d, d2)
            lengths.add(expected.degree() + 1)
    assert {1, 2, 3} <= lengths and {n % 2 for n in lengths} == {0, 1}


@pytest.mark.parametrize("exponents, products", [({2: 1, 3: 1}, 1), ({2: 1}, 0), ({}, 0)])
def test_resolve_makes_one_product_fewer_than_its_factors(monkeypatch, exponents, products):
    # The empty product is 1 without a multiply, so no factor is a [1].
    calls = []
    product = qalgebra._product

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(qalgebra, "_product", counted)
    resolve(exponents)
    assert len(calls) == products


def test_resolve_rejects_a_negative_cyclotomic_exponent():
    # [6] / [4] has a numerator of higher degree, yet Phi_4 divides only [4].
    with pytest.raises(NonExactDivision):
        resolve({6: 1, 4: -1})
    with pytest.raises(NonExactDivision):
        resolve({2: 1, 3: -1})


def _expand(exponents):
    out = QPoly(1)
    for j, e in exponents.items():
        for _ in range(e):
            out = out * q_int(j)
    return out


def _divides(den, num):
    """Ascending long division; den has constant term 1."""
    rem = num.terms
    for e in range(max(rem) - den.degree() + 1):
        c = rem.get(e, 0)
        for de, dc in den.terms.items():
            rem[e + de] = rem.get(e + de, 0) - c * dc
    return not any(rem.values())


@given(
    st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4),
    st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4),
)
def test_resolve_is_the_quotient_exactly_when_it_divides(num, den):
    combined = dict(num)
    for j, e in den.items():
        combined[j] = combined.get(j, 0) - e
    divides = _divides(_expand(den), _expand(num))
    try:
        quotient = resolve(combined)
    except NonExactDivision:
        assert not divides
        return
    assert divides and quotient * _expand(den) == _expand(num)


def test_docstring_examples():
    result = doctest.testmod(qalgebra)
    assert result.attempted > 0 and result.failed == 0


def test_eval_at_one_counts():
    for n in range(0, 31):
        assert sum(q_int(n).terms.values()) == n


@given(small_polys, small_polys, small_polys)
def test_ring_laws(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p * r == r * p
    assert p * (r + s) == p * r + p * s
    assert (p * r) * s == p * (r * s)
    assert p + QPoly(0) == p
    assert p * QPoly(1) == p


def test_text_form_frozen():
    assert str(QPoly({0: 1, 1: 1, 3: 2})) == "1 + q + 2*q^3"
    assert str(QPoly(0)) == "0"
    assert str(QPoly({1: -1, 0: 1})) == "1 - q"
    assert str(QPoly({2: -3})) == "-3*q^2"
    assert str(QPoly({1: 1})) == "q"
    assert str(QPoly({0: -2, 1: -1, 2: 1, 4: -1})) == "-2 - q + q^2 - q^4"
    assert str(QPoly({1: -1, 3: 5})) == "-q + 5*q^3"
    assert str(QPoly({1: -7, 2: 1})) == "-7*q + q^2"


def _sparse_text(terms):
    """The text form as printed when QPoly held a sparse {exponent: coefficient}
    dict: that __str__, unchanged but for reading `terms`."""
    if not terms:
        return "0"
    parts: list[str] = []
    for e in sorted(terms):
        c = terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = "q" if e == 1 else "q^%d" % e
        else:
            body = "%d*q" % mag if e == 1 else "%d*q^%d" % (mag, e)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


_text_coefficients = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2, -2]),
    st.integers(2**64 + 1, 2**300),
    st.integers(-(2**300), -(2**64) - 1),
)


@given(st.lists(_text_coefficients, max_size=8), st.integers(0, 3))
def test_text_form_is_the_sparse_text_form(coefficients, low):
    terms = {e: c for e, c in enumerate(coefficients, low) if c}
    p = QPoly(coefficients, low)
    assert p.terms == terms and list(p.terms) == sorted(terms)
    assert str(p) == _sparse_text(terms)


@given(small_polys)
def test_text_form_round_trip(p):
    assert parse_poly(str(p)) == p


def test_constant_hashes_like_its_int():
    assert len({3, QPoly(3)}) == 1
    assert len({0, QPoly(0), QPoly({})}) == 1
    assert hash(QPoly(0)) == hash(0)
    assert len({True, QPoly(1)}) == 1
    assert not QPoly(1) == "1" and QPoly(1) != "1"
    assert len({QPoly({1: 1}), QPoly({1: 1}), QPoly({0: 1, 1: 1})}) == 2


def test_shift_guards_negative_exponents():
    p = QPoly({2: 1, 3: 5})
    assert p.shift(-2) == QPoly({0: 1, 1: 5})
    with pytest.raises(NonExactDivision):
        p.shift(-3)


def test_a_coefficient_sequence_starts_at_its_lowest_exponent():
    assert QPoly((0, 1, 0, 2, 0), 3) == QPoly({4: 1, 6: 2})
    assert QPoly([5, 0, -1]) == QPoly({0: 5, 2: -1})
    assert QPoly(7) == QPoly((7,)) == 7
    for zeros in ((), (0,), [0, 0, 0]):
        for low in (0, 2):
            assert QPoly(zeros, low) == 0 and not QPoly(zeros, low)
            assert hash(QPoly(zeros, low)) == hash(0)
            with pytest.raises(ValueError, match="no degree"):
                QPoly(zeros, low).degree()


@pytest.mark.parametrize("coefficients", [(1, True), (False,), (1, 2.0), ("1",), "12", [0.0]])
def test_a_coefficient_sequence_takes_only_ints(coefficients):
    with pytest.raises(ValueError):
        QPoly(coefficients)


def test_the_lowest_exponent_is_a_nonnegative_int():
    for terms in ((1, 2), {2: 1}, ()):
        for low in (-1, 1.0, True):
            with pytest.raises(ValueError):
                QPoly(terms, low)  # type: ignore[arg-type]


@given(small_polys, st.integers(0, 6))
def test_shift_keeps_the_coefficients(p, k):
    assert p.shift(0) is p
    assert p.shift(k).shift(-k) == p
    assert hash(p.shift(k).shift(-k)) == hash(p)
    assert p - p == 0 and hash(p - p) == hash(0)


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        QPoly({-1: 2})
    with pytest.raises(ValueError):
        QPoly({0: "x"})  # type: ignore[dict-item]
    for terms in ({0: True}, {-1: 1}, {0: 1.0}):
        with pytest.raises(ValueError):
            QPoly(terms)  # type: ignore[arg-type]
    for text, message in (("1 + x", "cannot parse term"), ("q^2 + 3*q^2", "duplicate exponent")):
        with pytest.raises(ValueError, match=message):
            parse_poly(text)


@given(
    small_polys,
    small_polys,
    st.integers(-3, 6),
    st.dictionaries(st.integers(1, 9), st.integers(-2, 3), max_size=4),
    st.integers(0, 4),
)
def test_computed_results_are_what_the_checked_constructor_builds(p, r, k, exponents, prefactor):
    # Arithmetic and resolve hand their coefficient sequences to the checked
    # constructor, and shift reuses its operand's: each result must be what
    # its terms build, with no zero coefficient among them.
    results = [p + r, p - r, p * r, -p, p + 3, p * 0]
    if not p or min(p.terms) + k >= 0:
        results.append(p.shift(k))
    try:
        results.append(resolve(exponents, prefactor))
    except NonExactDivision:
        pass
    for result in results:
        assert result == QPoly(result.terms)
        assert all(result.terms.values())

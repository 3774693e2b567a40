import pytest
from hypothesis import given, strategies as st

from qlozenge.qalgebra import (
    NonExactDivision,
    QFactorExponents,
    QPoly,
    parse_poly,
    poly_exact_div,
    push_hyperfactorial,
    push_prefactor,
    push_q_int,
    q_int,
)


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


def test_q_int_addition_law():
    # [A] + q^A [z] = [A + z], the scalar identity behind the telescoping
    # checks in the verify module.
    for big in range(0, 21):
        for small in range(0, 21):
            assert q_int(big) + q_int(small).shift(big) == q_int(big + small)


def test_push_hyperfactorial_expansions():
    acc = push_hyperfactorial(QFactorExponents(), 3, 1)
    assert acc.exponents == {1: 2, 2: 1}
    assert push_hyperfactorial(QFactorExponents(), 1, 1).exponents == {}
    assert push_hyperfactorial(QFactorExponents(), 0, 1).exponents == {}
    cancelled = push_hyperfactorial(QFactorExponents({2: 1}), 3, -1)
    assert cancelled.exponents == {1: -2}


def test_resolve_single_factor():
    assert resolve_of({2: 1}) == QPoly({0: 1, 1: 1})


def resolve_of(exponents, prefactor=0):
    from qlozenge.qalgebra import resolve

    return resolve(QFactorExponents(exponents, prefactor))


def test_resolve_unit_box_product():
    # H(1)^3 H(3) / H(2)^3 collapses to [2]: the two-element chain of piles
    # in a 1x1x1 box.
    acc = QFactorExponents()
    for n, sign in [(1, 1), (1, 1), (1, 1), (3, 1), (2, -1), (2, -1), (2, -1)]:
        acc = push_hyperfactorial(acc, n, sign)
    from qlozenge.qalgebra import resolve

    assert resolve(acc) == QPoly({0: 1, 1: 1})


def test_resolve_rejects_non_polynomial():
    with pytest.raises(NonExactDivision):
        resolve_of({2: -1})


def test_resolve_applies_prefactor():
    assert resolve_of({2: 1}, prefactor=2) == QPoly({2: 1, 3: 1})


def test_exact_div_difference_of_squares():
    num = QPoly({2: 1, 0: -1})
    den = QPoly({1: 1, 0: -1})
    assert poly_exact_div(num, den) == QPoly({0: 1, 1: 1})


def test_exact_div_rejects_inexact():
    with pytest.raises(NonExactDivision):
        poly_exact_div(QPoly({0: 1, 1: 1}), QPoly({0: 1, 1: 1, 2: 1}))


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(QPoly(1), QPoly(0))


@given(small_polys, small_polys)
def test_exact_div_round_trip(p, d):
    if not d:
        return
    assert poly_exact_div(p * d, d) == p


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


@given(st.permutations([(3, 1), (1, 1), (4, 1), (2, -1), (2, -1)]))
def test_resolve_ignores_push_order(pushes):
    acc = QFactorExponents()
    for n, sign in pushes:
        acc = push_hyperfactorial(acc, n, sign)
    from qlozenge.qalgebra import resolve

    baseline = QFactorExponents()
    for n, sign in [(3, 1), (1, 1), (4, 1), (2, -1), (2, -1)]:
        baseline = push_hyperfactorial(baseline, n, sign)
    assert resolve(acc) == resolve(baseline)


def test_push_q_int_and_prefactor():
    acc = push_q_int(QFactorExponents(), 3, 1)
    assert acc.exponents == {3: 1}
    acc = push_q_int(acc, 3, -1)
    assert acc.exponents == {}
    acc = push_prefactor(acc, 4)
    assert acc.prefactor_exponent == 4
    with pytest.raises(ValueError):
        push_prefactor(acc, -5)


def test_text_form_frozen():
    assert str(QPoly({0: 1, 1: 1, 3: 2})) == "1 + q + 2*q^3"
    assert str(QPoly(0)) == "0"
    assert str(QPoly({1: -1, 0: 1})) == "1 - q"
    assert str(QPoly({2: -3})) == "-3*q^2"
    assert str(QPoly({1: 1})) == "q"


@given(small_polys)
def test_text_form_round_trip(p):
    assert parse_poly(str(p)) == p


def test_shift_guards_negative_exponents():
    p = QPoly({2: 1, 3: 5})
    assert p.shift(-2) == QPoly({0: 1, 1: 5})
    with pytest.raises(NonExactDivision):
        p.shift(-3)


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        QPoly({-1: 2})
    with pytest.raises(ValueError):
        QPoly({0: "x"})  # type: ignore[dict-item]

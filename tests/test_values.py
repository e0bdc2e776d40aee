"""Ring behaviour and rendering of exact regulated values."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from worldline.values import RegValue


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)


@st.composite
def values(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    out = RegValue.zero()
    for _ in range(n):
        coeff = draw(rationals)
        beta_pow = draw(st.integers(min_value=-2, max_value=4))
        delta0_pow = draw(st.integers(min_value=0, max_value=2))
        out = out + RegValue.term(coeff, beta_pow, delta0_pow)
    return out


def test_basic_constructors():
    assert RegValue.rational(Fraction(1, 3)) == Fraction(1, 3)
    assert RegValue.beta(2, Fraction(1, 90)).items() == [((2, 0), Fraction(1, 90))]
    assert RegValue.delta0().items() == [((0, 1), 1)]
    assert not RegValue.zero()
    assert RegValue.one()


def test_negative_delta0_power_rejected():
    with pytest.raises(ValueError):
        RegValue.term(1, 0, -1)


@given(values(), values(), values())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RegValue.zero() == a
    assert a * RegValue.one() == a
    assert a - a == RegValue.zero()


@given(values())
def test_negation_and_scalar_division(a):
    assert a + (-a) == RegValue.zero()
    assert (a / 2) * 2 == a


def test_grading_and_finite_part():
    v = RegValue.beta(2, Fraction(-7, 180)) + RegValue.term(Fraction(1, 30), 3, 1)
    assert v.finite_part() == RegValue.beta(2, Fraction(-7, 180))
    assert v.grade(1) == RegValue.term(Fraction(1, 30), 3, 1)
    assert not v.grade(2)


def test_text_rendering():
    assert RegValue.zero().text() == "0"
    assert RegValue.beta(1, Fraction(1, 24)).text() == "1/24 * beta"
    assert RegValue.beta(2, Fraction(-7, 180)).text() == "-7/180 * beta^2"
    v = RegValue.beta(1, Fraction(-1, 8)) + RegValue.term(Fraction(1, 6), 2, 1)
    assert v.text() == "-1/8 * beta + 1/6 * beta^2 * delta0"
    assert RegValue.rational(3).text() == "3"
    assert (RegValue.delta0(2) * RegValue.beta(-1)).text() == "1 * beta^-1 * delta0^2"


def test_items_sorted():
    v = RegValue.term(1, 3, 1) + RegValue.term(1, -1, 0) + RegValue.term(1, 3, 0)
    assert [key for key, _ in v.items()] == [(-1, 0), (3, 0), (3, 1)]


def test_assert_equal():
    assert RegValue.beta(1) / 24 == RegValue.beta(1, Fraction(1, 24))
    assert RegValue.beta(1) != RegValue.beta(2)
    assert RegValue.rational(Fraction(2, 3)) == Fraction(2, 3)


@given(values())
def test_hash_consistency(a):
    assert hash(a) == hash(RegValue.zero() + a)

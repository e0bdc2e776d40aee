"""Closed forms, boundary values, and identities of the pinned propagators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from worldline.polynomials import Poly
from worldline.propagators import Kind, _region, boundary_value, diagonal, eval_numeric
from worldline.values import RegValue


BETA = 1.9


def _reference(kind: Kind, t: float, s: float, beta: float) -> float:
    eps = 1.0 if t > s else -1.0
    if kind is Kind.D:
        return 0.5 * (-eps * (t - s) + t + s) - t * s / beta
    if kind is Kind.DOT_LEFT:
        return -0.5 * eps + 0.5 - s / beta
    if kind is Kind.DOT_RIGHT:
        return 0.5 * eps + 0.5 - t / beta
    raise AssertionError("no pointwise reference for the double-dotted kind")


def test_numeric_matches_closed_forms():
    rng = random.Random(3)
    for _ in range(1000):
        t, s = rng.uniform(0, BETA), rng.uniform(0, BETA)
        if t == s:
            continue
        for kind in (Kind.D, Kind.DOT_LEFT, Kind.DOT_RIGHT):
            assert eval_numeric(kind, t, s, BETA) == pytest.approx(
                _reference(kind, t, s, BETA)
            )


def test_numeric_guards():
    with pytest.raises(ValueError, match="distributional"):
        eval_numeric(Kind.DOT_DOT, 0.3, 0.4, BETA)
    with pytest.raises(ValueError, match="diagonal"):
        eval_numeric(Kind.DOT_LEFT, 0.5, 0.5, BETA)
    # The undotted propagator is continuous across the diagonal.
    assert eval_numeric(Kind.D, 0.5, 0.5, BETA) == pytest.approx(
        0.5 - 0.25 / BETA
    )


def test_diagonals():
    # D(tau, tau) = tau - tau^2/beta; the single-dotted diagonals coincide.
    d = diagonal(Kind.D)
    assert d == Poly.monomial(1, 1, 0, (1,)) + Poly.monomial(1, -1, -1, (2,))
    half_minus = Poly.const(1, Fraction(1, 2)) + Poly.monomial(1, -1, -1, (1,))
    assert diagonal(Kind.DOT_LEFT) == half_minus
    assert diagonal(Kind.DOT_RIGHT) == half_minus
    assert diagonal(Kind.DOT_DOT) == RegValue.delta0() - RegValue.beta(-1)


def test_diagonal_derivative_identities():
    # d/dtau D(tau,tau) = 2 * Dl(tau,tau) and d/dtau Dl(tau,tau) = -1/beta.
    d = diagonal(Kind.D)
    dl = diagonal(Kind.DOT_LEFT)
    assert d.derivative(0) == dl * 2
    assert dl.derivative(0) == Poly.const(1, -1, beta_power=-1)


def test_diagonal_integrals():
    assert diagonal(Kind.D).integrate_cube() == RegValue.beta(2, Fraction(1, 6))
    square = diagonal(Kind.DOT_LEFT) * diagonal(Kind.DOT_LEFT)
    assert square.integrate_cube() == RegValue.beta(1, Fraction(1, 12))
    d_square = diagonal(Kind.D) * diagonal(Kind.D)
    assert d_square.integrate_cube() == RegValue.beta(3, Fraction(1, 30))


def test_boundary_values():
    # The undotted propagator vanishes at either pinned argument.
    for slot in (0, 1):
        for at_beta in (False, True):
            assert boundary_value(Kind.D, slot, at_beta).is_zero()
    # Dl vanishes when its second argument is pinned, Dr when its first is.
    for at_beta in (False, True):
        assert boundary_value(Kind.DOT_LEFT, 1, at_beta).is_zero()
        assert boundary_value(Kind.DOT_RIGHT, 0, at_beta).is_zero()
    # Dr(tau, 0) = 1 - tau/beta and Dr(tau, beta) = -tau/beta.
    at_zero = boundary_value(Kind.DOT_RIGHT, 1, False)
    at_beta = boundary_value(Kind.DOT_RIGHT, 1, True)
    expect_zero = Poly.const(2, 1) + Poly.monomial(2, -1, -1, (1, 0))
    expect_beta = Poly.monomial(2, -1, -1, (1, 0))
    assert at_zero == expect_zero
    assert at_beta == expect_beta
    # Cubes integrate to +beta/4 and -beta/4: the endpoint asymmetry that
    # feeds the purely boundary route.
    cube_zero = (expect_zero * expect_zero * expect_zero).integrate_cube()
    cube_beta = (expect_beta * expect_beta * expect_beta).integrate_cube()
    assert cube_zero == RegValue.beta(2, Fraction(1, 4))
    assert cube_beta == RegValue.beta(2, Fraction(-1, 4))


def test_boundary_value_rejects_distributional():
    with pytest.raises(ValueError, match="distributional"):
        boundary_value(Kind.DOT_DOT, 0, True)


def test_average_of_regions_on_diagonal():
    # eps(0) = 0 means the diagonal value is the average of the two regions.
    avg = (_region(Kind.DOT_LEFT, -1) + _region(Kind.DOT_LEFT, 1)) * Fraction(1, 2)
    collapsed = avg.remap((0, 0), 1)
    assert collapsed == diagonal(Kind.DOT_LEFT)

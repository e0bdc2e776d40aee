"""Closed forms, boundary values, and identities of the pinned propagators."""

from __future__ import annotations

from fractions import Fraction

from worldline.polynomials import Poly
from worldline.propagators import diagonal, eps_coefficient, smooth_part
from worldline.values import RegValue

_HALF = Fraction(1, 2)


def _region(kind: str, sign: int) -> Poly:
    """The kind away from the diagonal, where eps(t - t') = sign."""
    return smooth_part(kind) + eps_coefficient(kind) * sign


def test_regions_match_closed_forms():
    # The module docstring's closed forms, keyed (beta, t, t') exponents.
    for sign in (1, -1):
        half = Fraction(sign, 2)
        closed = {
            "D": {(0, 1, 0): _HALF - half, (0, 0, 1): _HALF + half, (-1, 1, 1): -1},
            "Dl": {(0, 0, 0): _HALF - half, (-1, 0, 1): -1},
            "Dr": {(0, 0, 0): _HALF + half, (-1, 1, 0): -1},
            "DD": {(-1, 0, 0): -1},  # its delta part lives on the diagonal
        }
        for kind, terms in closed.items():
            assert _region(kind, sign) == Poly(2, terms), (kind, sign)


def _pinned(kind: str, slot: int, at_beta: bool) -> Poly:
    """The closed form with argument ``slot`` (0 is t, 1 is t') at 0 or at beta."""
    # The pinned argument lies below the other one at 0 and above it at beta.
    items = []
    for key, coeff in _region(kind, 1 if (slot == 0) == at_beta else -1).terms().items():
        power = key[slot + 1]
        if power and not at_beta:
            continue
        moved = list(key)
        moved[0] += power
        moved[slot + 1] = 0
        items.append((tuple(moved), coeff))
    return Poly(2, items)


def test_diagonals():
    # D(tau, tau) = tau - tau^2/beta; the single-dotted diagonals coincide.
    d = diagonal("D")
    assert d == Poly.monomial(1, 1, 0, (1,)) + Poly.monomial(1, -1, -1, (2,))
    half_minus = Poly.const(1, Fraction(1, 2)) + Poly.monomial(1, -1, -1, (1,))
    assert diagonal("Dl") == half_minus
    assert diagonal("Dr") == half_minus
    assert diagonal("DD") == RegValue.delta0() - RegValue.beta(-1)


def test_diagonal_derivative_identities():
    # d/dtau D(tau,tau) = 2 * Dl(tau,tau) and d/dtau Dl(tau,tau) = -1/beta.
    def derivative(p: Poly) -> Poly:
        return Poly(1, {(b, e - 1): c * e for (b, e), c in p.terms().items() if e})

    d = diagonal("D")
    dl = diagonal("Dl")
    assert derivative(d) == dl * 2
    assert derivative(dl) == Poly.const(1, -1, beta_power=-1)


def test_diagonal_integrals():
    assert diagonal("D").integrate_cube() == RegValue.beta(2, Fraction(1, 6))
    square = diagonal("Dl") * diagonal("Dl")
    assert square.integrate_cube() == RegValue.beta(1, Fraction(1, 12))
    d_square = diagonal("D") * diagonal("D")
    assert d_square.integrate_cube() == RegValue.beta(3, Fraction(1, 30))


def test_boundary_values():
    # The undotted propagator vanishes at either pinned argument.
    for slot in (0, 1):
        for at_beta in (False, True):
            assert not _pinned("D", slot, at_beta)
    # Dl vanishes when its second argument is pinned, Dr when its first is.
    for at_beta in (False, True):
        assert not _pinned("Dl", 1, at_beta)
        assert not _pinned("Dr", 0, at_beta)
    # Dr(tau, 0) = 1 - tau/beta and Dr(tau, beta) = -tau/beta.
    at_zero = _pinned("Dr", 1, False)
    at_beta = _pinned("Dr", 1, True)
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


def test_average_of_regions_on_diagonal():
    # eps(0) = 0 means the diagonal value is the average of the two regions.
    avg = (_region("Dl", -1) + _region("Dl", 1)) * Fraction(1, 2)
    collapsed = avg.remap((0, 0), 1)
    assert collapsed == diagonal("Dl")

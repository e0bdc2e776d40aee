"""Closed forms, boundary values, and identities of the pinned propagators."""

from __future__ import annotations

from fractions import Fraction

import pytest

from worldline.integration import _EPS_COEFF, _SMOOTH, EQUAL_TIME_DD, _expand_factor
from worldline.values import Poly, RegValue

_HALF = Fraction(1, 2)


def _region(kind: str, sign: int) -> Poly:
    """The kind away from the diagonal, where eps(t - t') = sign."""
    return _SMOOTH[kind] + _EPS_COEFF[kind] * sign


def _diagonal(kind: str) -> Poly:
    """Equal-time value of a kind other than DD, as a polynomial in t."""
    return _SMOOTH[kind].remap((0, 0), 1)  # eps(0) = 0 drops the eps part


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
    d = _diagonal("D")
    assert d == Poly.monomial(1, 1, 0, (1,)) + Poly.monomial(1, -1, -1, (2,))
    half_minus = Poly.const(1, Fraction(1, 2)) + Poly.monomial(1, -1, -1, (1,))
    assert _diagonal("Dl") == half_minus
    assert _diagonal("Dr") == half_minus
    assert EQUAL_TIME_DD == RegValue.delta0() - RegValue.beta(-1)


def test_diagonal_derivative_identities():
    # d/dtau D(tau,tau) = 2 * Dl(tau,tau) and d/dtau Dl(tau,tau) = -1/beta.
    def derivative(p: Poly) -> Poly:
        return Poly(1, {(b, e - 1): c * e for (b, e), c in p.terms().items() if e})

    d = _diagonal("D")
    dl = _diagonal("Dl")
    assert derivative(d) == dl * 2
    assert derivative(dl) == Poly.const(1, -1, beta_power=-1)


def test_diagonal_integrals():
    assert _diagonal("D").integrate_cube() == RegValue.beta(2, Fraction(1, 6))
    square = _diagonal("Dl") * _diagonal("Dl")
    assert square.integrate_cube() == RegValue.beta(1, Fraction(1, 12))
    d_square = _diagonal("D") * _diagonal("D")
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
    assert collapsed == _diagonal("Dl")


def test_kind_tables_solve_the_field_equation():
    """Derive every kind from d^2/dt^2 D = -delta(t - t') with D pinned at 0 and beta."""
    sp = pytest.importorskip("sympy")
    t, tp, beta, delta0 = sp.symbols("t tp beta delta0", positive=True)
    a, b, c, d = sp.symbols("a b c d")
    # D'' = 0 on either side of t': linear below (eps = -1) and above (eps = +1),
    # zero at t = 0 and t = beta, continuous at t', with dD/dt dropping by 1 there.
    below, above = a * t + b, c * t + d
    conditions = [
        below.subs(t, 0),
        above.subs(t, beta),
        (above - below).subs(t, tp),
        sp.diff(above - below, t).subs(t, tp) + 1,
    ]
    solution = sp.solve(conditions, [a, b, c, d], dict=True)[0]
    regions = {"D": (below.subs(solution), above.subs(solution))}
    regions["Dl"] = tuple(sp.diff(f, t) for f in regions["D"])
    regions["Dr"] = tuple(sp.diff(f, tp) for f in regions["D"])
    regions["DD"] = tuple(sp.diff(f, t, tp) for f in regions["D"])

    def expr(poly: Poly) -> sp.Expr:
        return sum(
            (sp.Rational(q.numerator, q.denominator) * beta**e_b * t**e_t * tp**e_tp
             for (e_b, e_t, e_tp), q in poly.terms().items()),
            sp.Integer(0),
        )

    smooth, eps = {}, {}
    for kind, (low, high) in regions.items():
        smooth[kind], eps[kind] = (high + low) / 2, (high - low) / 2
        assert sp.simplify(expr(_SMOOTH[kind]) - smooth[kind]) == 0, kind
        assert sp.simplify(expr(_EPS_COEFF[kind]) - eps[kind]) == 0, kind

    # eps' = 2 delta: a derivative on t (on t') of eps(t - t') * C leaves
    # +2 C (-2 C) times delta(t - t'), with C at t = t'.
    weights = {"D": 0}
    for kind, (source, factor) in {"Dl": ("D", 2), "Dr": ("D", -2), "DD": ("Dl", -2)}.items():
        weights[kind] = sp.simplify(factor * eps[source].subs(t, tp))
    assert weights == {"D": 0, "Dl": 0, "Dr": 0, "DD": 1}
    for kind, weight in weights.items():
        pieces = _expand_factor(kind, 0, 1, 2)
        deltas = [expr(poly) for _, poly, atoms in pieces if atoms and atoms[0].kind == "delta"]
        assert deltas == ([weight] if weight else []), kind

    # DD's equal-time substitute: delta0 for its delta part, plus its smooth part.
    substitute = sum(
        (sp.Rational(q.numerator, q.denominator) * beta**e_b * delta0**e_d
         for (e_b, e_d), q in EQUAL_TIME_DD.items()),
        sp.Integer(0),
    )
    assert sp.simplify(substitute - (delta0 + smooth["DD"].subs(t, tp))) == 0

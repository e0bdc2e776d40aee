"""Exact polynomial arithmetic and integration over the time box."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from worldline.values import Poly, RegValue


def test_monomial_cube_oracle():
    # The box integral of tau1**a * tau2**b factorizes.
    for a in range(4):
        for b in range(4):
            p = Poly.monomial(2, 1, 0, (a, b))
            expected = RegValue.beta(
                a + b + 2, Fraction(1, (a + 1) * (b + 1))
            )
            assert p.integrate_cube() == expected


@pytest.mark.parametrize("coeff", [0.1, "1/3", None])
@pytest.mark.parametrize("build", [lambda c: Poly(1, {(0, 0): c}), lambda c: RegValue({(0, 0): c})])
def test_constructors_refuse_non_rational_coefficients(build, coeff):
    with pytest.raises(TypeError, match="expected an int or Fraction"):
        build(coeff)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RegValue({(0.5, 0): 1}),
        lambda: RegValue.beta(1.5),
        lambda: Poly(1, {(0, 1.7): 1}),
        lambda: Poly(1, {("1", "2"): 1}),
        lambda: Poly.const(2, 1, 0.5),
    ],
)
def test_constructors_refuse_non_int_exponents(build):
    with pytest.raises(TypeError, match="expected an int exponent"):
        build()


def test_beta_powers_carried():
    # tau / beta integrates to beta / 2.
    p = Poly.monomial(1, 1, -1, (1,))
    assert p.integrate_cube() == RegValue.beta(1, Fraction(1, 2))


def _at(p, taus, beta):
    """p in floating point at the given times and beta."""
    return math.fsum(
        float(c) * beta**b * math.prod(tau**e for tau, e in zip(taus, exps))
        for (b, *exps), c in p.terms().items()
    )


@st.composite
def polys(draw, nvars=2):
    terms = draw(st.integers(min_value=0, max_value=4))
    p = Poly.const(nvars, 0)
    for _ in range(terms):
        coeff = draw(st.fractions(min_value=-20, max_value=20, max_denominator=20))
        beta_pow = draw(st.integers(min_value=-1, max_value=2))
        exps = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars)
        )
        p = p + Poly.monomial(nvars, coeff, beta_pow, exps)
    return p


@given(polys(), polys())
def test_sector_sum_is_cube(p, q):
    # Summing the ordered-sector integrals over both orderings recovers the
    # box integral (the diagonal has measure zero).
    product = p * q
    total = product.integrate_sector((0, 1)) + product.integrate_sector((1, 0))
    assert total == product.integrate_cube()


def test_substitute_and_drop():
    p = Poly.monomial(2, 1, 0, (1, 2))
    diag = p.remap((0, 0), 2)
    assert diag == Poly.monomial(2, 1, 0, (3, 0))
    reduced = diag.remap((0, None), 1)
    assert reduced == Poly.monomial(1, 1, 0, (3,))
    with pytest.raises(ValueError):
        p.remap((None, 0), 1)


@st.composite
def remaps(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    p = draw(polys(nvars))
    n = draw(st.integers(min_value=1, max_value=3))
    slot = st.integers(min_value=0, max_value=n - 1)
    targets = [draw(st.one_of(st.none(), slot)) for _ in range(nvars)]
    return p, targets, n


@given(
    remaps(),
    st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=3, max_size=3),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_remap_matches_evaluation_at_moved_points(case, taus, beta):
    # Variable v of p lands in slot targets[v]: evaluating the remapped poly
    # at taus is evaluating p with tau_v = taus[targets[v]].  Variables that
    # share a slot share a point, so their exponents must add.
    p, targets, n = case
    if any(t is None and p.depends_on(v) for v, t in enumerate(targets)):
        with pytest.raises(ValueError):
            p.remap(targets, n)
        return
    moved = [0.0 if t is None else taus[t] for t in targets]
    assert _at(p.remap(targets, n), taus[:n], beta) == pytest.approx(
        _at(p, moved, beta), rel=1e-9, abs=1e-9
    )


def test_eval_float_matches_exact():
    # _at is the float oracle of the remap and Monte Carlo tests.
    rng = random.Random(7)
    p = (
        Poly.monomial(2, Fraction(1, 2), 0, (1, 0))
        + Poly.monomial(2, Fraction(-1, 3), -1, (1, 1))
        + Poly.const(2, Fraction(2, 5))
    )
    beta = 1.7
    for _ in range(25):
        t1, t2 = rng.uniform(0, beta), rng.uniform(0, beta)
        expected = 0.5 * t1 - t1 * t2 / (3 * beta) + 0.4
        assert _at(p, (t1, t2), beta) == pytest.approx(expected)


def test_monte_carlo_cube_integral():
    # A crude stochastic cross-check that the exact box integral is sane.
    p = Poly.monomial(2, 1, 0, (1, 1)) + Poly.monomial(2, Fraction(1, 2), 1, (1, 0))
    beta = 2.0
    exact = sum(float(c) * beta**b for (b, _), c in p.integrate_cube().items())
    rng = random.Random(11)
    samples = [
        _at(p, (rng.uniform(0, beta), rng.uniform(0, beta)), beta)
        for _ in range(20000)
    ]
    estimate = beta * beta * math.fsum(samples) / len(samples)
    assert abs(estimate - exact) < 0.15


def test_iterated_sector_ordering():
    # 0 < tau2 < tau1 < beta for the integrand tau1 * tau2.
    p = Poly.monomial(2, 1, 0, (1, 1))
    value = p.integrate_sector((1, 0))
    assert value == RegValue.beta(4, Fraction(1, 8))


def test_three_variable_sectors_cover_cube():
    p = Poly.monomial(3, 1, 0, (1, 2, 0)) + Poly.monomial(3, 2, 0, (0, 1, 1))
    total = sum(
        (p.integrate_sector(order) for order in itertools.permutations(range(3))),
        RegValue.zero(),
    )
    assert total == p.integrate_cube()

"""Tests for the target-space models and their reference data."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worldline.geometry import (
    CURVATURE_DICTIONARY,
    GAMMA_PATTERNS,
    GAMMA_SQUARED_LINES,
    SECOND_DERIVATIVE_TERMS,
    SEELEY,
    FlatTransform,
    NormalCoords,
    Sphere,
    measure_terms,
    metric_series,
    seeley_reference,
    sphere_tensors,
    vertices,
)
from worldline.integrands import named_integral_text
from worldline.values import RegValue

fraction_values = st.fractions(min_value=-2, max_value=2, max_denominator=6)


# ---------------------------------------------------------------------------
# flat transform series
# ---------------------------------------------------------------------------


def test_default_metric_series():
    assert metric_series(FlatTransform()) == {
        0: Fraction(1),
        2: Fraction(-2),
        4: Fraction(3),
    }


@given(fraction_values, fraction_values)
def test_metric_series_is_squared_slope(c1, c2):
    series = metric_series(FlatTransform((c1, c2)))
    assert series[0] == 1
    assert series[2] == 6 * c1
    assert series[4] == 9 * c1 * c1 + 10 * c2


def test_flat_vertices_default_coefficients():
    table = {v.name: v for v in vertices(FlatTransform())}
    assert table["kinetic_quadratic"].coefficient == -1
    assert table["kinetic_quadratic"].qdot_power == 2
    assert table["kinetic_quartic"].coefficient == Fraction(3, 2)
    assert table["logdet_quadratic"].coefficient == 1
    assert table["logdet_quadratic"].delta0_power == 1
    assert table["logdet_quartic"].coefficient == Fraction(-1, 2)


def test_flat_vertices_first_order_only():
    # First-order vertices come first, so catalog ties keep their order.
    listing = vertices(FlatTransform())
    assert [v.name for v in listing if v.order_in_eps == 1] == [
        "kinetic_quadratic",
        "logdet_quadratic",
    ]
    assert [v.order_in_eps for v in listing] == [1, 1, 2, 2]


# ---------------------------------------------------------------------------
# normal-coordinate vertices
# ---------------------------------------------------------------------------


def test_normal_vertex_table():
    table = {v.name: v for v in vertices(NormalCoords())}
    kinetic = table["curvature_kinetic"]
    assert kinetic.coefficient == Fraction(-1, 6)
    assert kinetic.tensors == ("riem",)
    assert kinetic.q_slots == (1, 3)
    assert kinetic.qdot_slots == (0, 2)
    measure = table["curvature_measure"]
    assert measure.coefficient == Fraction(-1, 6)
    assert measure.delta0_power == 1
    assert measure.tensors == ("ric",)
    quartic = table["curvature_kinetic_quartic"]
    assert quartic.coefficient == Fraction(1, 45)
    assert quartic.internal == ((3, 7),)
    assert quartic.slot_count == 8
    measure4 = table["curvature_measure_quartic"]
    assert measure4.coefficient == Fraction(1, 180)
    assert measure4.internal == ((3, 5), (1, 7))


def test_vertices_validation():
    with pytest.raises(ValueError):
        vertices(Sphere(3))


# ---------------------------------------------------------------------------
# measure terms
# ---------------------------------------------------------------------------


def test_measure_terms():
    assert measure_terms(NormalCoords()) == {
        "R": RegValue.beta(1, Fraction(1, 24))
    }
    assert measure_terms(FlatTransform()) == {}
    with pytest.raises(ValueError):
        measure_terms(Sphere(3))


# ---------------------------------------------------------------------------
# sphere reference data
# ---------------------------------------------------------------------------


def test_sphere_tensors_examples():
    two_sphere = sphere_tensors(Sphere(3, Fraction(1)))
    assert two_sphere["R"] == 2
    assert two_sphere["RicciSq"] == 2
    assert two_sphere["RiemannSq"] == 4
    assert two_sphere["Rsq"] == 4
    circle = sphere_tensors(Sphere(2))
    assert circle["R"] == 0 and circle["RiemannSq"] == 0
    assert sphere_tensors(Sphere(4, Fraction(2)))["R"] == Fraction(3, 2)


def test_sphere_validation():
    with pytest.raises(ValueError):
        Sphere(1)
    with pytest.raises(ValueError):
        Sphere(3, Fraction(0))


def test_seeley_reference_tables():
    assert seeley_reference(NormalCoords(), 1) == {
        "R": RegValue.beta(1, Fraction(1, 12))
    }
    assert seeley_reference(NormalCoords(), 2) == {
        "RicciSq": RegValue.beta(2, Fraction(-1, 720)),
        "RiemannSq": RegValue.beta(2, Fraction(1, 720)),
        "Rsq": RegValue.beta(2, Fraction(1, 288)),
    }
    assert seeley_reference(FlatTransform(), 2) == {}
    for order in (0, 3):
        with pytest.raises(ValueError):
            seeley_reference(NormalCoords(), order)


def test_seeley_reference_two_sphere():
    sphere = Sphere(3, Fraction(1))
    assert seeley_reference(sphere, 1) == {"one": RegValue.beta(1, Fraction(1, 6))}
    assert seeley_reference(sphere, 2) == {"one": RegValue.beta(2, Fraction(1, 60))}


@pytest.mark.parametrize("dimension", range(2, 11))
@pytest.mark.parametrize("radius", [Fraction(1), Fraction(1, 2), Fraction(3)])
def test_sphere_reference_matches_label_contraction(dimension, radius):
    sphere = Sphere(dimension, radius)
    invariants = sphere_tensors(sphere)
    first = sum(c * invariants[label] for label, c in SEELEY[1].items())
    second = sum(c * invariants[label] for label, c in SEELEY[2].items())
    assert seeley_reference(sphere, 1)["one"].coefficient(1, 0) == first
    assert seeley_reference(sphere, 2)["one"].coefficient(2, 0) == second


# ---------------------------------------------------------------------------
# pattern tables
# ---------------------------------------------------------------------------


def test_gamma_line_table_is_well_formed():
    for prefactor, patterns, integral in GAMMA_SQUARED_LINES:
        assert isinstance(prefactor, Fraction)
        assert set(patterns) <= set(GAMMA_PATTERNS)
        named_integral_text(integral)
    assert set(SECOND_DERIVATIVE_TERMS) <= set(GAMMA_PATTERNS)
    assert set(CURVATURE_DICTIONARY) <= set(GAMMA_PATTERNS)


# ---------------------------------------------------------------------------
# curvature dictionary against textbook curvature
# ---------------------------------------------------------------------------


def _random_expansion(n, rng):
    """Symmetric random first and second metric derivatives at the origin."""

    def coefficient():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    A = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                value = coefficient()
                A[i][j][k] = value
                A[j][i][k] = value
    B = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                for l in range(k, n):
                    value = coefficient()
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            B[a][b][c][d] = value
    return A, B


def _pattern_values(n, A, B):
    def slope(i, j, k):
        # (d_i g_jk + d_j g_ik - d_k g_ij) / 2 at the origin
        return (A[j][k][i] + A[i][k][j] - A[i][j][k]) / 2

    u = [sum(slope(l, i, i) for i in range(n)) for l in range(n)]
    v = [sum(slope(i, i, l) for i in range(n)) for l in range(n)]
    triples = [
        (i, l, m) for i in range(n) for l in range(n) for m in range(n)
    ]
    return {
        "trace_trace": sum(x * x for x in u),
        "trace_gtrace": sum(x * y for x, y in zip(u, v)),
        "gtrace_gtrace": sum(y * y for y in v),
        "cross": sum(slope(i, l, m) * slope(m, i, l) for i, l, m in triples),
        "full_square": sum(slope(i, l, m) ** 2 for i, l, m in triples),
        "laplace_trace": sum(B[i][i][k][k] for i in range(n) for k in range(n)),
        "double_divergence": sum(
            B[i][k][i][k] for i in range(n) for k in range(n)
        ),
    }


def _scalar_curvature_at_origin(n, A, B, full_inverse):
    sp = pytest.importorskip("sympy")
    xs = sp.symbols(f"x0:{n}")

    def rat(value):
        return sp.Rational(value.numerator, value.denominator)

    g = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            entry = sp.Integer(1 if i == j else 0)
            for k in range(n):
                entry += rat(A[i][j][k]) * xs[k]
                for l in range(n):
                    entry += rat(B[i][j][k][l]) * xs[k] * xs[l] / 2
            g[i, j] = entry
    if full_inverse:
        ginv = g.inv()
    else:
        # Only the inverse metric's value and first derivative at the
        # origin enter the curvature there, and the linear truncation
        # reproduces both.
        ginv = sp.zeros(n, n)
        for i in range(n):
            for j in range(n):
                entry = sp.Integer(1 if i == j else 0)
                for k in range(n):
                    entry -= rat(A[i][j][k]) * xs[k]
                ginv[i, j] = entry

    def dg(i, j, k):
        return sp.diff(g[i, j], xs[k])

    gamma = [
        [
            [
                sum(
                    ginv[a, d] * (dg(d, c, b) + dg(b, d, c) - dg(b, c, d))
                    for d in range(n)
                )
                / 2
                for c in range(n)
            ]
            for b in range(n)
        ]
        for a in range(n)
    ]
    at_origin = {x: 0 for x in xs}

    def riemann(a, b, c, d):
        expr = sp.diff(gamma[a][d][b], xs[c]) - sp.diff(gamma[a][c][b], xs[d])
        expr += sum(
            gamma[a][c][e] * gamma[e][d][b] - gamma[a][d][e] * gamma[e][c][b]
            for e in range(n)
        )
        return expr.subs(at_origin)

    scalar = sum(riemann(a, b, a, b) for a in range(n) for b in range(n))
    scalar = sp.nsimplify(sp.simplify(scalar))
    return Fraction(int(scalar.p), int(scalar.q))


@pytest.mark.parametrize("n,full_inverse,seed", [(2, True, 11), (2, False, 12), (3, False, 13)])
def test_curvature_dictionary_matches_textbook_curvature(n, full_inverse, seed):
    rng = random.Random(seed)
    A, B = _random_expansion(n, rng)
    patterns = _pattern_values(n, A, B)
    combined = sum(
        weight * patterns[name] for name, weight in CURVATURE_DICTIONARY.items()
    )
    assert combined == _scalar_curvature_at_origin(n, A, B, full_inverse)


def test_curvature_dictionary_on_linear_metric_only():
    # With no second derivatives the scalar curvature is purely quadratic
    # in the slopes, so the two second-derivative patterns drop out.
    rng = random.Random(5)
    n = 2
    A, _ = _random_expansion(n, rng)
    B = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    patterns = _pattern_values(n, A, B)
    assert patterns["laplace_trace"] == 0
    assert patterns["double_divergence"] == 0
    combined = sum(
        weight * patterns[name] for name, weight in CURVATURE_DICTIONARY.items()
    )
    assert combined == _scalar_curvature_at_origin(n, A, B, full_inverse=True)

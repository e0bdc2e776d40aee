"""Tests for the target-space models and their reference data."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worldline.checks import check_seeley
from worldline.geometry import (
    CURVATURE_DICTIONARY,
    GAMMA_PATTERNS,
    GAMMA_SQUARED_LINES,
    SECOND_DERIVATIVE_TERMS,
    FlatTransform,
    NormalCoords,
    metric_series,
)
from worldline import reduction
from worldline.spectral import SEELEY, _series_reference_coefficients
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


def test_identity_transform_has_every_even_power():
    assert metric_series(FlatTransform(())) == {0: 1, 2: 0, 4: 0}


def test_flat_vertices_default_coefficients():
    table = {v.name: v for v in FlatTransform().vertices()}
    assert table["kinetic_quadratic"].coefficient == -1
    assert table["kinetic_quadratic"].qdot_power == 2
    assert table["kinetic_quartic"].coefficient == Fraction(3, 2)
    assert table["logdet_quadratic"].coefficient == 1
    assert table["logdet_quadratic"].delta0_power == 1
    assert table["logdet_quartic"].coefficient == Fraction(-1, 2)


def test_flat_vertices_first_order_only():
    # First-order vertices come first, so catalog ties keep their order.
    listing = FlatTransform().vertices()
    assert [v.name for v in listing if v.order_in_eps == 1] == [
        "kinetic_quadratic",
        "logdet_quadratic",
    ]
    assert [v.order_in_eps for v in listing] == [1, 1, 2, 2]


# ---------------------------------------------------------------------------
# normal-coordinate vertices
# ---------------------------------------------------------------------------


def test_normal_vertex_table():
    table = {v.name: v for v in NormalCoords().vertices()}
    kinetic = table["curvature_kinetic"]
    assert kinetic.coefficient == Fraction(-1, 6)
    assert kinetic.tensors == ("riem",)
    assert kinetic.q_slots == (1, 3)
    assert kinetic.qdot_slots == (0, 2)
    # -1/6 ric(q, q), with ric(a, b) = -sum_c riem(c, a, c, b).
    measure = table["curvature_measure"]
    assert measure.coefficient == Fraction(1, 6)
    assert measure.delta0_power == 1
    assert measure.tensors == ("riem",)
    assert measure.q_slots == (1, 3)
    assert measure.internal == ((0, 2),)
    quartic = table["curvature_kinetic_quartic"]
    assert quartic.coefficient == Fraction(1, 45)
    assert quartic.internal == ((3, 7),)
    assert quartic.slot_count == 8
    measure4 = table["curvature_measure_quartic"]
    assert measure4.coefficient == Fraction(1, 180)
    assert measure4.internal == ((3, 5), (1, 7))


@pytest.mark.parametrize("model", [FlatTransform(), FlatTransform((Fraction(2, 3), Fraction(-5, 4))), NormalCoords()])
def test_vertices_are_the_kinetic_and_measure_terms_of_the_metric(model):
    g = metric_series(model)
    assert g[0] == 1
    # log(1 + u) = u - u^2/2 + ..., with u = g[2] q^2 + g[4] q^4
    log_g = {2: g[2], 4: g[4] - g[2] ** 2 / 2}
    listing = model.vertices()
    assert [(v.q_power, v.qdot_power, v.delta0_power) for v in listing] == [
        (2, 2, 0), (2, 0, 1), (4, 2, 0), (4, 0, 1)
    ]
    for vertex in listing:
        if vertex.qdot_power:
            assert vertex.coefficient == g[vertex.q_power] / 2
        else:
            assert vertex.coefficient == -log_g[vertex.q_power] / 2


def test_normal_metric_is_the_squared_sine_series():
    # g = (sin z / z)^2 with z^2 = M: 1 - M/3 + 2 M^2/45
    assert metric_series(NormalCoords()) == {0: 1, 2: Fraction(-1, 3), 4: Fraction(2, 45)}


@pytest.mark.parametrize(
    "root, order1_passes",
    [
        (lambda self: {0: Fraction(1), 2: Fraction(1, 6), 4: Fraction(1, 120)}, False),
        (lambda self: {0: Fraction(1), 2: Fraction(-1, 6), 4: Fraction(0)}, True),
        (lambda self: {0: Fraction(1), 2: Fraction(-1, 6), 4: Fraction(1, 60)}, True),
    ],
    ids=["sinh", "z4-zero", "z4-1/60"],
)
def test_the_heat_kernel_checks_see_every_series_term(monkeypatch, root, order1_passes):
    assert check_seeley(1).status == "pass" and check_seeley(2).status == "pass"
    monkeypatch.setattr(NormalCoords, "_root_series", root)
    assert (check_seeley(1).status == "pass") is order1_passes
    assert check_seeley(2).status == "fail"


def test_the_heat_kernel_checks_see_the_slot_trace_sign(monkeypatch):
    # Tracing M's riem slots (0, 3) in place of (0, 2) flips the sign of the
    # traced contraction in both first-order vertices.
    assert check_seeley(1).status == "pass" and check_seeley(2).status == "pass"
    mutant = (
        ("curvature_kinetic", ("riem",), (1, 2), (0, 3)),
        ("curvature_measure", ("riem",), (1, 2), (), ((0, 3),)),
    )
    monkeypatch.setattr(NormalCoords, "_vertex_table", mutant + NormalCoords._vertex_table[2:])
    reduction._reduce_lifted.cache_clear()
    reduction._integrate_leaf.cache_clear()
    first, second = check_seeley(1), check_seeley(2)
    assert first.status == "fail" and first.expected["R"] == "1/12 * beta" and first.actual["R"] == "0"
    assert second.status == "fail" and second.actual["Rsq"] == "0"


# ---------------------------------------------------------------------------
# measure terms
# ---------------------------------------------------------------------------


def test_measure_terms():
    assert NormalCoords().measure_terms() == {
        "R": RegValue.beta(1, Fraction(1, 24))
    }
    assert FlatTransform().measure_terms() == {}


# ---------------------------------------------------------------------------
# sphere reference data
# ---------------------------------------------------------------------------


def sphere_tensors(dimension: int, radius: Fraction = Fraction(1)) -> dict:
    """Curvature invariants of the round sphere of dimension n = dimension - 1."""
    n = dimension - 1
    r2 = radius * radius
    return {
        "R": Fraction(n * (n - 1)) / r2,
        "Rsq": Fraction(n * n * (n - 1) * (n - 1)) / (r2 * r2),
        "RicciSq": Fraction(n * (n - 1) * (n - 1)) / (r2 * r2),
        "RiemannSq": Fraction(2 * n * (n - 1)) / (r2 * r2),
    }


def test_sphere_tensors_examples():
    two_sphere = sphere_tensors(3)
    assert two_sphere["R"] == 2
    assert two_sphere["RicciSq"] == 2
    assert two_sphere["RiemannSq"] == 4
    assert two_sphere["Rsq"] == 4
    circle = sphere_tensors(2)
    assert circle["R"] == 0 and circle["RiemannSq"] == 0
    assert sphere_tensors(4, Fraction(2))["R"] == Fraction(3, 2)


def test_seeley_reference_tables():
    assert SEELEY == {
        1: {"R": Fraction(1, 12)},
        2: {"RicciSq": Fraction(-1, 720), "RiemannSq": Fraction(1, 720), "Rsq": Fraction(1, 288)},
    }
    # The heat-kernel check expects SEELEY[order] * beta**order, label by label.
    for order, table in SEELEY.items():
        expected = check_seeley(order).expected
        assert {label: text for label, text in expected.items() if "[" not in label} == {
            label: RegValue.beta(order, coefficient).text() for label, coefficient in table.items()
        }


def test_two_sphere_series_coefficients():
    assert _series_reference_coefficients(3, Fraction(1)) == (Fraction(1, 6), Fraction(1, 60))


@pytest.mark.parametrize("dimension", range(2, 12))
@pytest.mark.parametrize("radius", [Fraction(1), Fraction(1, 2), Fraction(3)])
def test_sphere_reference_matches_label_contraction(dimension, radius):
    # SEELEY on the round sphere against the closed forms of its heat-kernel
    # coefficients (Bastianelli & van Nieuwenhuizen, CUP 2006).
    d, r2 = dimension, radius * radius
    c1 = Fraction((d - 1) * (d - 2), 12) / r2
    c2 = Fraction((d - 1) * (d - 2) * (5 * d * d - 17 * d + 18), 1440) / (r2 * r2)
    assert _series_reference_coefficients(dimension, radius) == (c1, c2)


# ---------------------------------------------------------------------------
# pattern tables
# ---------------------------------------------------------------------------


def test_gamma_line_table_is_well_formed():
    for prefactor, patterns, integral in GAMMA_SQUARED_LINES:
        assert isinstance(prefactor, Fraction)
        assert set(patterns) <= set(GAMMA_PATTERNS)
        assert integral in reduction.NAMED_INTEGRALS or integral in reduction.FINITE_ALIASES
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

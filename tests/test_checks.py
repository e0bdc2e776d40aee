"""Tests for the verification layer."""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from worldline import integration, reduction, spectral
from worldline.checks import check_constraints, check_flat, check_seeley, run_standard_checks
from worldline.cli import main
from worldline.diagrams import sum_order
from worldline.geometry import FlatTransform, NormalCoords
from worldline.integration import DIMREG, MODEREG, RuleSet
from worldline.reduction import evaluate_named
from worldline.reports import CheckReport
from worldline.rings import PROFILES, measure_cancellation, resolve_profile
from worldline.spectral import (
    SEELEY,
    ZETA_AT_NEGATIVE_INTEGERS,
    _degeneracy,
    _regularized_sum,
    sphere_scaling_check,
    sphere_spectral_check,
    zeta_series_check,
)
from worldline.values import RegValue

from test_diagrams import perfect_matchings


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_passed_and_mismatches() -> None:
    report = CheckReport(
        check_name="demo",
        status="fail",
        expected={"a": "1", "b": "2"},
        actual={"a": "1", "b": "3", "c": "4"},
        tolerance="exact",
    )
    assert report.status == "fail"
    assert report.mismatches() == ["b", "c"]


# ---------------------------------------------------------------------------
# flat cancellation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2])
def test_flat_orders_cancel_dimensionally(order: int) -> None:
    report = check_flat(order, DIMREG)
    assert report.status == "pass"
    assert all(value == "0" for value in report.actual.values())


def test_flat_order_one_cancels_in_mode_scheme() -> None:
    assert check_flat(1, MODEREG).status == "pass"


def test_flat_order_two_fails_in_mode_scheme_with_known_residual() -> None:
    report = check_flat(2, MODEREG)
    assert report.status == "fail"
    assert report.mismatches() == ["one[delta0^0]"]
    assert report.actual["one[delta0^0]"] == "-1/36 * beta^2"
    assert report.actual["one[delta0^1]"] == "0"
    assert report.actual["one[delta0^2]"] == "0"


# ---------------------------------------------------------------------------
# first-order constraints
# ---------------------------------------------------------------------------


def test_constraints_hold_dimensionally() -> None:
    report = check_constraints(DIMREG)
    assert report.status == "pass"
    assert report.actual["I14 + I15R"] == "-1/12 * beta"
    assert report.actual["3*I14 + I15R"] == "0"
    assert report.actual["I8R + 4*I9 + I10"] == "-1/120 * beta^2"
    assert report.actual["I8R - 2*I9 + I10"] == "0"


def test_constraint_pattern_totals_match_curvature_dictionary() -> None:
    report = check_constraints(DIMREG)
    assert report.actual["pattern[laplace_trace]"] == "1/24 * beta"
    assert report.actual["pattern[double_divergence]"] == "-1/24 * beta"
    assert report.actual["pattern[gtrace_gtrace]"] == "1/24 * beta"
    assert report.actual["pattern[full_square]"] == "-1/24 * beta"
    assert report.actual["pattern[trace_trace]"] == "0"
    assert report.actual["pattern[trace_gtrace]"] == "0"
    assert report.actual["pattern[cross]"] == "0"


def test_constraints_record_move_logs() -> None:
    report = check_constraints(DIMREG)
    assert report.move_logs is not None
    assert set(report.move_logs) >= {"I14", "I15R"}
    assert report.move_logs["I14"]
    moves = {entry["move"] for entry in report.move_logs["I14"]}
    assert "FixedPoint" in moves


def test_constraints_fail_in_mode_scheme_with_recorded_values() -> None:
    report = check_constraints(MODEREG)
    assert report.status == "fail"
    assert report.actual["I14 + I15R"] == "-1/6 * beta"
    assert report.actual["3*I14 + I15R"] == "0"
    assert report.actual["I8R + 4*I9 + I10"] == "-1/45 * beta^2"
    assert report.actual["I8R - 2*I9 + I10"] == "-1/18 * beta^2"
    assert report.actual["pattern[full_square]"] == "-1/12 * beta"
    assert report.actual["pattern[cross]"] == "0"


# ---------------------------------------------------------------------------
# the rule, derived
# ---------------------------------------------------------------------------


def _interpolate(points: list[Fraction], values: list[Fraction]) -> list[Fraction]:
    """Coefficients, lowest first, of the least-degree polynomial through the points (Lagrange)."""
    coefficients = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis, scale = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(points):
            if j != i:  # basis *= (x - xj)
                basis = [low - xj * high for low, high in zip([Fraction(0), *basis], [*basis, Fraction(0)])]
                scale *= xi - xj
        coefficients = [c + yi * b / scale for c, b in zip(coefficients, basis)]
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return coefficients


def _monic_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Monic greatest common divisor of two nonzero polynomials over Q (Euclid)."""
    while q:
        r = list(p)
        while len(r) >= len(q):
            lead, shift = r[-1] / q[-1], len(r) - len(q)
            r = [c - lead * q[k - shift] if k >= shift else c for k, c in enumerate(r)][:-1]
            while r and not r[-1]:
                r.pop()
        p, q = q, r
    return [c / p[-1] for c in p]


def _at(coefficients_by_key: dict, x: Fraction) -> RegValue:
    total = RegValue.zero()
    for (beta_power, delta0_power), coefficients in coefficients_by_key.items():
        value = sum(c * x**k for k, c in enumerate(coefficients))
        total = total + RegValue.term(value, beta_power, delta0_power)
    return total


def test_the_battery_derives_that_eps_squared_delta_vanishes(monkeypatch) -> None:
    """x = int eps^2 delta is the only number a rule set sets; the battery fixes it at 0.

    Each quantity that must vanish -- the flat totals, the four constraint
    sum rules less their stated values, the heat-kernel totals less their
    references -- is computed under ``RuleSet("X", x)`` at sample points
    other than 0 and 1/3, and interpolated exactly over Q.  A term's value
    carries one factor x per eps^2*delta lookup, so every reduced value is a
    polynomial of degree at most d, the most lookups any term makes.  The
    order-2 totals add the square of order 1, which comes out constant, so
    d + 2 points determine each quantity with one to spare.
    """
    reduction._reduce_lifted.cache_clear()  # a memo hit makes no lookup to count
    reduction._integrate_leaf.cache_clear()
    lookups: dict[int, int] = {}
    per_term: list[dict[int, int]] = []
    integrate_term, eps_power_delta_value = integration.integrate_term, RuleSet.eps_power_delta_value

    def counted_term(*args):
        per_term.append({})
        try:
            return integrate_term(*args)
        finally:
            for power, count in per_term.pop().items():
                lookups[power] = max(lookups.get(power, 0), count)

    def counted_value(rules, power):
        per_term[-1][power] = per_term[-1].get(power, 0) + 1
        return eps_power_delta_value(rules, power)

    monkeypatch.setattr(integration, "integrate_term", counted_term)
    monkeypatch.setattr(RuleSet, "eps_power_delta_value", counted_value)

    model = NormalCoords()
    reference = {
        order: {label: RegValue.beta(order, c) for label, c in table.items()}
        for order, table in SEELEY.items()
    }
    zero = RegValue.zero()
    stated = {
        "I14 + I15R": RegValue.beta(1, Fraction(-1, 12)),
        "I8R + 4*I9 + I10": RegValue.beta(2, Fraction(-1, 120)),
    }

    def quantities(x: Fraction) -> dict[str, RegValue]:
        rules = RuleSet("X", x)
        flat, normal = sum_order(FlatTransform(), 1, rules), sum_order(model, 1, rules)
        out = {f"flat order 1 {k}": v for k, v in flat.items()}
        out |= {f"flat order 2 {k}": v for k, v in sum_order(FlatTransform(), 2, rules, flat).items()}
        totals = {1: normal, 2: sum_order(model, 2, rules, normal)}
        for order, total in totals.items():
            for k in set(total) | set(reference[order]):
                out[f"heat kernel order {order} {k}"] = total.get(k, zero) - reference[order].get(k, zero)
        i = {name: evaluate_named(name, rules) for name in ("I8R", "I9", "I10", "I14", "I15R")}
        out["I14 + I15R"] = i["I14"] + i["I15R"] - stated["I14 + I15R"]
        out["3*I14 + I15R"] = i["I14"] * 3 + i["I15R"]
        out["I8R + 4*I9 + I10"] = i["I8R"] + i["I9"] * 4 + i["I10"] - stated["I8R + 4*I9 + I10"]
        out["I8R - 2*I9 + I10"] = i["I8R"] - i["I9"] * 2 + i["I10"]
        return out

    samples = [Fraction(2), Fraction(-5, 7), Fraction(3, 2), Fraction(7), Fraction(-1, 4)]
    results = [quantities(samples[0])]
    d = max(lookups.values())
    points = samples[: d + 2]
    results += [quantities(x) for x in points[1:]]
    assert set(lookups) == {2}, "only eps^2*delta is looked up; no eps^4*delta"
    assert max(lookups.values()) == d

    polynomials: dict[str, dict] = {}
    for name in results[0]:
        keys = sorted({key for result in results for key, _ in result[name].items()})
        samples_by_key = [dict(result[name].items()) for result in results]
        polynomials[name] = {
            key: _interpolate(points, [values.get(key, Fraction(0)) for values in samples_by_key])
            for key in keys
        }
    for name, by_key in polynomials.items():
        assert all(len(c) <= d + 1 for c in by_key.values()), name
        if "order 1" in name:
            assert all(len(c) <= 1 for c in by_key.values()), f"{name} depends on x"

    # x = 0 is the one common root, and it is DimReg's value.
    nonzero = [c for by_key in polynomials.values() for c in by_key.values() if c]
    assert all(c[0] == 0 for c in nonzero)
    common = nonzero[0]
    for c in nonzero[1:]:
        common = _monic_gcd(common, c)
    assert common == [0, 1]
    assert DIMREG.value_eps2_delta == 0
    assert polynomials["flat order 2 one"] == {(2, 0): [0, Fraction(-1, 12)]}  # -x beta^2/12
    assert polynomials["I14 + I15R"] == {(1, 0): [0, Fraction(-1, 4)]}  # -x beta/4
    assert polynomials["I8R + 4*I9 + I10"] == {(2, 0): [0, Fraction(-1, 24)]}
    assert polynomials["I8R - 2*I9 + I10"] == {(2, 0): [0, Fraction(-1, 6)]}
    assert polynomials["heat kernel order 2 RiemannSq"] == {(2, 0): [0, Fraction(-1, 144)]}
    assert not polynomials["3*I14 + I15R"], "holds for every x, so it cannot see the rule"
    # Criterion 4's typed ModeReg residues are these polynomials at x = 1/3.
    third = MODEREG.value_eps2_delta
    assert third == Fraction(1, 3)
    flat = _at(polynomials["flat order 2 one"], third).text()
    assert flat == check_flat(2, MODEREG).actual["one[delta0^0]"] == "-1/36 * beta^2"
    residue = _at(polynomials["I14 + I15R"], third)
    mode = evaluate_named("I14", MODEREG) + evaluate_named("I15R", MODEREG)
    assert residue and residue == mode - stated["I14 + I15R"]


# ---------------------------------------------------------------------------
# heat-kernel comparison
# ---------------------------------------------------------------------------


def test_seeley_order_one() -> None:
    report = check_seeley(1)
    assert report.status == "pass"
    assert report.actual["R"] == "1/12 * beta"


def test_seeley_order_two() -> None:
    report = check_seeley(2)
    assert report.status == "pass"
    assert report.actual["Rsq"] == "1/288 * beta^2"
    assert report.actual["RiemannSq"] == "1/720 * beta^2"
    assert report.actual["RicciSq"] == "-1/720 * beta^2"
    assert report.actual["RiemannSq[delta0^1]"] == "0"


def test_seeley_rejects_other_orders() -> None:
    with pytest.raises(ValueError):
        check_seeley(3)


_SEELEY_CHECKS = {
    "heat_kernel_order2": lambda: check_seeley(2),
    "sphere_scaling": sphere_scaling_check,
    "zeta_series": zeta_series_check,
}


@pytest.mark.parametrize("value", [Fraction(0), Fraction(-1, 1080)])
@pytest.mark.parametrize("label", ["Rsq", "RiemannSq", "RicciSq"])
def test_a_wrong_order_two_seeley_entry_fails_the_wick_and_both_sphere_routes(
    monkeypatch, label: str, value: Fraction
) -> None:
    # One table feeds the Wick comparison and both sphere references, so a
    # wrong entry is caught by routes that share no other number.
    assert {name: check().status for name, check in _SEELEY_CHECKS.items()} == dict.fromkeys(_SEELEY_CHECKS, "pass")
    monkeypatch.setitem(SEELEY[2], label, value)
    assert {name: check().status for name, check in _SEELEY_CHECKS.items()} == dict.fromkeys(_SEELEY_CHECKS, "fail")


# ---------------------------------------------------------------------------
# sphere spectrum
# ---------------------------------------------------------------------------


def _machin_pi(digits: int) -> Decimal:
    """pi = 16 arctan(1/5) - 4 arctan(1/239), summed to ``digits`` places."""
    with localcontext() as context:
        context.prec = digits + 10
        total = Decimal(0)
        for weight, x in ((16, 5), (-4, 239)):
            power, k = Decimal(1) / x, 0
            while power > Decimal(10) ** -(digits + 5):
                total += weight * (-1) ** k * power / (2 * k + 1)
                power /= x * x
                k += 1
        return +total


def test_sphere_pi_is_pi_to_its_last_digit() -> None:
    # The sphere routes and the test oracles both read spectral._PI, so it
    # is checked against an outside value: pi rounded to its 58 decimals.
    places = -spectral._PI.as_tuple().exponent
    assert places == 58
    assert abs(_machin_pi(60) - spectral._PI) <= Decimal(5) * Decimal(10) ** -(places + 1)


@pytest.mark.parametrize("dimension", range(1, 22))
def test_gamma_half_integer_is_gamma(dimension: int) -> None:
    value = float(spectral._gamma_half_integer(dimension))
    assert math.isclose(value, math.gamma(dimension / 2), rel_tol=1e-14)


def test_degeneracies() -> None:
    assert [_degeneracy(3, l) for l in range(4)] == [1, 3, 5, 7]
    assert [_degeneracy(2, l) for l in range(4)] == [1, 2, 2, 2]
    assert [_degeneracy(4, l) for l in range(4)] == [1, 4, 9, 16]


def test_sphere_spectral_default_passes() -> None:
    report = sphere_spectral_check()
    assert report.status == "pass"
    deviation = float(report.actual["relative_deviation"])
    assert deviation < 1e-8


def test_sphere_spectral_accepts_string_beta() -> None:
    report = sphere_spectral_check(beta="0.01", l_max=900)
    assert report.status == "pass"


def test_sphere_spectral_reads_a_float_radius_by_its_decimal_text() -> None:
    report = sphere_spectral_check(radius=0.1, beta=0.0001, l_max=10000)
    assert report.status == "pass"
    assert report.details[0] == "dimension 3, radius 1/10, beta 1/10000, l_max 10000"


def test_sphere_spectral_refines_near_the_tolerance() -> None:
    report = sphere_spectral_check(tolerance=1e-8)
    assert report.status == "pass"
    assert "recomputed at 50 digits" in report.details


def test_sphere_spectral_fails_below_the_true_deviation() -> None:
    report = sphere_spectral_check(tolerance=1e-9)
    assert report.status == "fail"
    assert "recomputed at 50 digits" in report.details


def test_sphere_spectral_errors_on_small_cutoff() -> None:
    report = sphere_spectral_check(l_max=50)
    assert report.status == "error"
    assert "truncation bound" in report.details[0]


@pytest.mark.parametrize(
    "kwargs",
    [{"dimension": 1}, {"beta": "-0.01"}, {"beta": 0.0}],
)
def test_sphere_spectral_errors_on_bad_input(kwargs: dict) -> None:
    assert sphere_spectral_check(**kwargs).status == "error"


def test_sphere_inputs_are_exact() -> None:
    radius, betas = spectral._sphere_inputs(3, "1/2", (0.01, "1/50"), 1000)
    assert type(radius) is Fraction and radius == Fraction(1, 2)
    assert betas == (Fraction(1, 100), Fraction(1, 50))
    assert all(type(beta) is Fraction for beta in betas)


@pytest.mark.parametrize(
    ("dimension", "radius", "message"),
    [
        # The dimension is checked first, then the radius.
        (1, 1, "the sphere model needs an embedding dimension of at least 2"),
        (1, -1, "the sphere model needs an embedding dimension of at least 2"),
        (3, 0, "the sphere radius must be positive"),
        (3, Fraction(-1, 2), "the sphere radius must be positive"),
    ],
)
def test_sphere_validation(dimension: int, radius, message: str) -> None:
    with pytest.raises(ValueError) as refusal:
        spectral._sphere_inputs(dimension, radius, (0.01,), 1000)
    assert str(refusal.value) == message


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, 0.0, float("inf")])
def test_sphere_spectral_rejects_invalid_tolerances(tolerance: float) -> None:
    report = sphere_spectral_check(tolerance=tolerance)
    assert report.status == "error"
    assert len(report.details) == 1
    assert "tolerance must be a positive finite number" in report.details[0]


def test_sphere_checks_report_out_of_range_dimensions() -> None:
    for report in (
        sphere_spectral_check(dimension=400, l_max=100),
        sphere_scaling_check(dimension=400, l_max=100),
    ):
        assert report.status == "error"
        assert len(report.details) == 1
        assert "out of numeric range" in report.details[0]


def test_sphere_checks_fail_fast_for_a_huge_dimension(monkeypatch) -> None:
    # The volume overflows before any degeneracy is needed; building the
    # exact degeneracies at this dimension would run for minutes.
    def unreachable(dimension: int, level: int) -> None:
        raise AssertionError("the level sum ran for an out-of-range dimension")

    monkeypatch.setattr(spectral, "_degeneracy", unreachable)
    for report in (
        sphere_spectral_check(dimension=100000, l_max=100),
        sphere_scaling_check(dimension=100000, l_max=100),
    ):
        assert report.status == "error"
        assert len(report.details) == 1
        assert "out of numeric range" in report.details[0]


def test_sphere_scaling_on_the_circle_has_no_ratio() -> None:
    # The truncated series is exact on the circle, so every deviation is 0.
    report = sphere_scaling_check(dimension=2)
    assert report.status == "error"
    assert len(report.details) == 1
    assert "scaling ratio is undefined" in report.details[0]


def test_sphere_scaling_ratios_sit_in_the_band() -> None:
    report = sphere_scaling_check()
    assert report.status == "pass"
    assert report.details == ("dimension 3, radius 1, l_max 1000",)
    for key, value in report.actual.items():
        if key.startswith("ratio"):
            assert 6.0 <= float(value) <= 10.0


def test_sphere_scaling_recomputes_small_deviations_at_50_digits() -> None:
    # Radius 10 puts beta / r^2 at 1/2500, 1/5000 and 1/10000.  In double
    # precision these deviations (down to 1.3e-15) carry noise of about
    # 2.5e-16 and their ratios read 8.035 and 9.500.
    report = sphere_scaling_check(radius=10, l_max=3000)
    assert report.status == "pass"
    assert report.actual["ratio[0.04/0.02]"] == "8.000"
    assert report.actual["ratio[0.02/0.01]"] == "8.000"
    assert report.details[1:] == tuple(
        f"beta {beta} recomputed at 50 digits" for beta in ("1/25", "1/50", "1/100")
    )


def test_sphere_scaling_on_a_large_radius_passes_at_50_digits() -> None:
    # At double precision the deviation at beta 1/50 is exactly 0.
    report = sphere_scaling_check(radius=20, l_max=2000)
    assert report.status == "pass"
    assert report.actual["deviation[0.02]"] == "1.984e-16"
    assert "beta 1/50 recomputed at 50 digits" in report.details


def test_sphere_spectral_recomputes_below_the_double_floor() -> None:
    # In double precision this deviation rounds to 0.0, which would pass
    # any tolerance; a tolerance below 1e-10 always takes 50 digits.
    report = sphere_spectral_check(radius=20, beta="1/50", l_max=2000, tolerance=1e-17)
    assert report.status == "fail"
    assert report.actual["relative_deviation"] == "1.984e-16"
    assert report.details[1] == "recomputed at 50 digits"


def test_sphere_checks_name_the_truncation_bound_alike() -> None:
    assert sphere_spectral_check(l_max=50).details == (
        "l_max 50 is below the truncation bound 90 for beta 1/100 and radius 1",
    )
    assert sphere_scaling_check(l_max=50).details == (
        "l_max 50 is below the truncation bound 64 for beta 1/50 and radius 1",
    )


@pytest.fixture
def degeneracy_levels(monkeypatch) -> list:
    """The level of every ``_degeneracy`` call the checks make."""
    levels = []
    degeneracy = spectral._degeneracy

    def counted(dimension: int, level: int) -> int:
        levels.append(level)
        return degeneracy(dimension, level)

    monkeypatch.setattr(spectral, "_degeneracy", counted)
    return levels


def test_sphere_checks_do_bounded_work_for_a_huge_cutoff(degeneracy_levels) -> None:
    # Both level sums stop once no later level can change them; summing to
    # l_max = 10**9 would take hours.
    report = sphere_spectral_check(l_max=10**9, tolerance=1e-8)
    assert report.status == "pass"
    assert "recomputed at 50 digits" in report.details
    assert sphere_scaling_check(l_max=10**9).status == "pass"
    assert len(degeneracy_levels) < 2000


@pytest.mark.parametrize(
    "argv,bound,beta,radius",
    [
        (["--radius", "1000", "--lmax", "1000000"], 89443, "1/100", 1000),
        (["--beta", "1e-9", "--lmax", "1000000000"], 282843, "1/1000000000", 1),
    ],
)
def test_sphere_refuses_a_truncation_bound_above_the_cap(
    degeneracy_levels, capsys, argv, bound, beta, radius
) -> None:
    # The levels both sums visit grow like radius / sqrt(beta); an input
    # past the cap is refused before any level is summed.  The scaling
    # check keeps its own betas, so with radius 1 it still runs.
    assert main(["sphere", "--json", *argv]) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "error"
    assert report["details"] == [
        f"the truncation bound {bound} for beta {beta} and radius {radius} "
        "is above the largest supported bound 10000"
    ]
    assert len(degeneracy_levels) < 2000


@pytest.mark.parametrize(
    "argv, code",
    [(["--beta", "1e-1000"], 2), (["--radius", "1e1000"], 2), (["--radius", "1." + "0" * 300 + "1"], 0)],
    ids=["beta 1e-1000", "radius 1e1000", "radius 1 + 1e-301"],
)
def test_sphere_reports_an_extreme_input_in_short_lines(capsys, argv, code) -> None:
    # The exact bound, beta or radius of these inputs runs to hundreds of
    # digits; a report gives such a number to four digits.
    for output in ([], ["--json"]):
        assert main(["sphere", *argv, *output]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines and max(map(len, lines)) <= 200


# Oracles: the two level sums as they stood before they stopped early, with
# the degeneracy as an exact Fraction and every level up to l_max visited.


def _fraction_degeneracy(dimension: int, level: int) -> Fraction:
    if level == 0:
        return Fraction(1)
    if dimension == 2:
        return Fraction(2)
    rising = math.prod(range(level + 1, level + dimension - 2))
    return Fraction((2 * level + dimension - 2) * rising, math.factorial(dimension - 2))


def _full_float_sum(dimension, radius, beta, l_max):
    r = float(radius)
    b = float(beta)
    volume = (
        2 * math.pi ** (dimension / 2) * r ** (dimension - 1) / math.gamma(dimension / 2)
    )
    x = float(beta / (2 * radius * radius))
    partition = math.fsum(
        float(_fraction_degeneracy(dimension, l)) * math.exp(-l * (l + dimension - 2) * x)
        for l in range(l_max + 1)
    )
    normalized = partition / volume * (2 * math.pi * b) ** ((dimension - 1) / 2)
    c1, c2 = spectral._series_reference_coefficients(dimension, radius)
    reference = 1.0 + float(c1) * b + float(c2) * b * b
    return abs(normalized / reference - 1.0), normalized, reference


def _full_decimal_sum(dimension, radius, beta, l_max):
    with localcontext() as context:
        context.prec = 50
        b = spectral._decimal(beta)
        r = spectral._decimal(radius)
        x = b / (2 * r * r)
        partition = Decimal(0)
        for level in range(l_max + 1):
            weight = spectral._decimal(_fraction_degeneracy(dimension, level))
            partition += weight * (-x * (level * (level + dimension - 2))).exp()
        volume = (
            2
            * spectral._half_power(spectral._PI, dimension)
            * spectral._half_power(r * r, dimension - 1)
            / spectral._gamma_half_integer(dimension)
        )
        scale = spectral._half_power(2 * spectral._PI * b, dimension - 1)
        normalized = partition / volume * scale
        c1, c2 = spectral._series_reference_coefficients(dimension, radius)
        reference = Decimal(1) + spectral._decimal(c1) * b + spectral._decimal(c2) * b * b
        deviation = abs(normalized / reference - 1)
        return float(deviation), float(normalized), float(reference)


def _outcome(routine, *args):
    try:
        values = routine(*args)
    except ArithmeticError as error:
        return type(error).__name__, str(error)
    # NaN != NaN, so map it to a marker that compares equal to itself.
    return tuple("nan" if math.isnan(v) else v for v in values)


def test_integer_degeneracy_equals_the_fraction() -> None:
    for dimension in (2, 3, 4, 5, 11, 200, 343):
        for level in (0, 1, 2, 7, 100, 2999):
            got = _degeneracy(dimension, level)
            assert type(got) is int
            assert got == _fraction_degeneracy(dimension, level)


@pytest.mark.parametrize(
    "dimension,radius,beta,l_max",
    [
        (2, 1, Fraction(1, 100), 1000),
        (2, Fraction(3, 2), Fraction(1, 5), 300),
        (3, 1, Fraction(1, 100), 1000),
        (3, 1, Fraction(1, 100), 3000),
        (3, 10, Fraction(1, 10000), 3000),
        (3, Fraction(1, 3), Fraction(1, 25), 400),
        (4, 5, Fraction(1, 50), 2000),
        (4, 2, Fraction(1, 1000), 3000),
        (7, Fraction(5, 2), Fraction(1, 100), 1500),
        (30, 1, Fraction(1, 10), 500),
        (200, 1, Fraction(1, 100), 400),
        (250, 3, Fraction(1, 25), 600),
        (300, 1, Fraction(1, 100), 2000),
        (343, 1, Fraction(1, 100), 100),
        (400, 1, Fraction(1, 100), 100),
    ],
)
def test_float_sum_equals_the_full_loop(dimension, radius, beta, l_max) -> None:
    radius = Fraction(radius)
    args = (dimension, radius, beta, l_max)
    assert _outcome(spectral._spectral_deviation_float, *args) == _outcome(
        _full_float_sum, *args
    )


@pytest.mark.parametrize(
    "dimension,radius,beta,l_max,stops_early",
    [
        # On the circle the deviation is 50-digit noise, so these three see
        # a stop that drops even one ulp of the partition.
        (2, 1, Fraction(1, 50), 1000, True),
        (2, Fraction(3, 2), Fraction(1, 25), 1000, True),
        (2, 2, Fraction(1, 10), 1000, True),
        (3, 1, Fraction(1, 100), 1000, True),
        (3, 1, Fraction(1, 100), 60, False),
        (3, 20, Fraction(1, 50), 2000, False),
        (4, Fraction(3, 2), Fraction(1, 10), 800, True),
        (10, 1, Fraction(1, 50), 600, True),
        (60, 2, Fraction(1, 5), 400, True),
        # Small betas: hundreds of levels, each decay one product further
        # from the exp of the full loop.
        (3, 1, Fraction(1, 1000), 3000, True),
        (5, Fraction(1, 2), Fraction(1, 2000), 3000, True),
    ],
)
def test_decimal_sum_equals_the_full_loop(
    degeneracy_levels, dimension, radius, beta, l_max, stops_early
) -> None:
    radius = Fraction(radius)
    args = (dimension, radius, beta, l_max)
    want = _outcome(_full_decimal_sum, *args)
    assert _outcome(spectral._spectral_deviation_decimal, *args) == want
    # The first call is the bound at l_max; the rest are the visited levels.
    assert (max(degeneracy_levels[1:]) < l_max) == stops_early


# ---------------------------------------------------------------------------
# zeta-regularized series
# ---------------------------------------------------------------------------


def test_zeta_series_matches_heat_kernel() -> None:
    report = zeta_series_check()
    assert report.status == "pass"
    assert report.actual["degeneracy_sum"] == "1/3"
    assert report.actual["linear_coefficient"] == "1/30"
    assert report.actual["series"] == "(1, 1/6, 1/60)"


@given(
    left=st.dictionaries(
        st.integers(0, 3), st.fractions(max_denominator=12), max_size=4
    ),
    right=st.dictionaries(
        st.integers(0, 3), st.fractions(max_denominator=12), max_size=4
    ),
)
def test_regularized_sum_is_linear(left: dict, right: dict) -> None:
    combined = dict(left)
    for power, coefficient in right.items():
        combined[power] = combined.get(power, Fraction(0)) + coefficient
    assert _regularized_sum(combined) == _regularized_sum(left) + _regularized_sum(
        right
    )


def test_zeta_table_values() -> None:
    assert ZETA_AT_NEGATIVE_INTEGERS[1] == Fraction(-1, 12)
    assert ZETA_AT_NEGATIVE_INTEGERS[2] == 0


# ---------------------------------------------------------------------------
# measure cancellation
# ---------------------------------------------------------------------------


def _profile_moment(name: str, n: int) -> Fraction:
    """Closed form of the cube integral of the profile power, over beta."""

    if name == "1":
        return Fraction(1)
    if name == "tau/beta":
        return Fraction(1, n + 1)
    factorial = math.factorial
    return Fraction(factorial(n) ** 2, factorial(2 * n + 1))


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_measure_cancellation_through_order_six(name: str) -> None:
    report = measure_cancellation(name)
    assert report.status == "pass"
    for n in range(1, 7):
        moment = _profile_moment(name, n) * Fraction((-1) ** n, 2 * n)
        want = RegValue.delta0(coeff=moment) * RegValue.beta()
        assert report.expected[f"u^{n}"] == want.text()
        assert report.actual[f"u^{n}"] == want.text()


def test_measure_cancellation_accepts_profile_names() -> None:
    report = measure_cancellation("tau / beta", max_order=2)
    assert report.status == "pass"
    assert report.check_name == "measure_cancellation[tau/beta]"


@pytest.mark.parametrize("bad_order", [-1, 0, 9])
def test_measure_cancellation_order_bounds(bad_order: int) -> None:
    with pytest.raises(ValueError):
        measure_cancellation("1", max_order=bad_order)


def test_resolve_profile_normalizes_and_rejects() -> None:
    assert resolve_profile("constant") == "1"
    assert resolve_profile("tau * (beta - tau) / beta^2") == (
        "tau*(beta-tau)/beta^2"
    )
    with pytest.raises(ValueError, match="known profiles"):
        resolve_profile("tau^2")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_connected_ring_multiplicity(n: int) -> None:
    """Brute-force count of single-ring pairings of n two-leg vertices."""

    legs = [(vertex, side) for vertex in range(n) for side in (0, 1)]
    count = 0
    for matching in perfect_matchings(legs):
        if any(a[0] == b[0] for a, b in matching):
            continue
        neighbors: dict[int, list[int]] = {vertex: [] for vertex in range(n)}
        for (i, _), (j, _) in matching:
            neighbors[i].append(j)
            neighbors[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for other in neighbors[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) == n:
            count += 1
    assert count == math.factorial(n - 1) * 2 ** (n - 1)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def test_standard_battery_passes_dimensionally() -> None:
    reports = run_standard_checks(DIMREG)
    assert len(reports) == 11
    assert all(report.status == "pass" for report in reports)


def test_standard_battery_flags_the_mode_scheme() -> None:
    failing = [r.check_name for r in run_standard_checks(MODEREG) if r.status != "pass"]
    assert failing == ["flat_sum_order2", "first_order_constraints"]

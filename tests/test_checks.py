"""Tests for the verification layer."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from worldline import checks
from worldline.checks import (
    PROFILES,
    CheckReport,
    ZETA_AT_NEGATIVE_INTEGERS,
    _degeneracy,
    _regularized_sum,
    check_constraints,
    check_flat,
    check_seeley,
    measure_cancellation,
    resolve_profile,
    run_standard_checks,
    sphere_scaling_check,
    sphere_spectral_check,
    zeta_series_check,
)
from worldline.diagrams import perfect_matchings
from worldline.geometry import Sphere
from worldline.integration import DIMREG, MODEREG
from worldline.values import RegValue

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
    assert not report.passed
    assert report.mismatches() == ["b", "c"]


# ---------------------------------------------------------------------------
# flat cancellation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2])
def test_flat_orders_cancel_dimensionally(order: int) -> None:
    report = check_flat(order, DIMREG)
    assert report.passed
    assert all(value == "0" for value in report.actual.values())


def test_flat_order_one_cancels_in_mode_scheme() -> None:
    assert check_flat(1, MODEREG).passed


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
    assert report.passed
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
# heat-kernel comparison
# ---------------------------------------------------------------------------


def test_seeley_order_one() -> None:
    report = check_seeley(1)
    assert report.passed
    assert report.actual["R"] == "1/12 * beta"


def test_seeley_order_two() -> None:
    report = check_seeley(2)
    assert report.passed
    assert report.actual["Rsq"] == "1/288 * beta^2"
    assert report.actual["RiemannSq"] == "1/720 * beta^2"
    assert report.actual["RicciSq"] == "-1/720 * beta^2"
    assert report.actual["RiemannSq[delta0^1]"] == "0"


def test_seeley_rejects_other_orders() -> None:
    with pytest.raises(ValueError):
        check_seeley(3)


# ---------------------------------------------------------------------------
# sphere spectrum
# ---------------------------------------------------------------------------


def test_degeneracies() -> None:
    assert [_degeneracy(3, l) for l in range(4)] == [1, 3, 5, 7]
    assert [_degeneracy(2, l) for l in range(4)] == [1, 2, 2, 2]
    assert [_degeneracy(4, l) for l in range(4)] == [1, 4, 9, 16]


def test_sphere_spectral_default_passes() -> None:
    report = sphere_spectral_check()
    assert report.passed
    deviation = float(report.actual["relative_deviation"])
    assert deviation < 1e-8


def test_sphere_spectral_accepts_string_beta() -> None:
    report = sphere_spectral_check(beta="0.01", l_max=900)
    assert report.passed


def test_sphere_spectral_refines_near_the_tolerance() -> None:
    report = sphere_spectral_check(tolerance=1e-8)
    assert report.passed
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

    monkeypatch.setattr(checks, "_degeneracy", unreachable)
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
    assert report.passed
    assert report.details == ("dimension 3, radius 1, l_max 1000",)
    for key, value in report.actual.items():
        if key.startswith("ratio"):
            assert 6.0 <= float(value) <= 10.0


def test_sphere_scaling_recomputes_small_deviations_at_50_digits() -> None:
    # Radius 10 puts beta / r^2 at 1/2500, 1/5000 and 1/10000.  In double
    # precision these deviations (down to 1.3e-15) carry noise of about
    # 2.5e-16 and their ratios read 8.035 and 9.500.
    report = sphere_scaling_check(radius=10, l_max=3000)
    assert report.passed
    assert report.actual["ratio[0.04/0.02]"] == "8.000"
    assert report.actual["ratio[0.02/0.01]"] == "8.000"
    assert report.details[1:] == tuple(
        f"beta {beta} recomputed at 50 digits" for beta in ("1/25", "1/50", "1/100")
    )


def test_sphere_scaling_on_a_large_radius_passes_at_50_digits() -> None:
    # At double precision the deviation at beta 1/50 is exactly 0.
    report = sphere_scaling_check(radius=20, l_max=2000)
    assert report.passed
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
    degeneracy = checks._degeneracy

    def counted(dimension: int, level: int) -> int:
        levels.append(level)
        return degeneracy(dimension, level)

    monkeypatch.setattr(checks, "_degeneracy", counted)
    return levels


def test_sphere_checks_do_bounded_work_for_a_huge_cutoff(degeneracy_levels) -> None:
    # Both level sums stop once no later level can change them; summing to
    # l_max = 10**9 would take hours.
    spectral = sphere_spectral_check(l_max=10**9, tolerance=1e-8)
    assert spectral.passed
    assert "recomputed at 50 digits" in spectral.details
    assert sphere_scaling_check(l_max=10**9).passed
    assert len(degeneracy_levels) < 2000


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
    c1, c2 = checks._series_reference_coefficients(Sphere(dimension, radius))
    reference = 1.0 + float(c1) * b + float(c2) * b * b
    return abs(normalized / reference - 1.0), normalized, reference


def _full_decimal_sum(dimension, radius, beta, l_max):
    with localcontext() as context:
        context.prec = 50
        b = checks._decimal(beta)
        r = checks._decimal(radius)
        x = b / (2 * r * r)
        partition = Decimal(0)
        for level in range(l_max + 1):
            weight = checks._decimal(_fraction_degeneracy(dimension, level))
            partition += weight * (-x * (level * (level + dimension - 2))).exp()
        volume = (
            2
            * checks._half_power(checks._PI, dimension)
            * checks._half_power(r * r, dimension - 1)
            / checks._gamma_half_integer(dimension)
        )
        normalized = partition / volume * checks._half_power(2 * checks._PI * b, dimension - 1)
        c1, c2 = checks._series_reference_coefficients(Sphere(dimension, radius))
        reference = Decimal(1) + checks._decimal(c1) * b + checks._decimal(c2) * b * b
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
    assert _outcome(checks._spectral_deviation_float, *args) == _outcome(
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
    ],
)
def test_decimal_sum_equals_the_full_loop(
    degeneracy_levels, dimension, radius, beta, l_max, stops_early
) -> None:
    radius = Fraction(radius)
    args = (dimension, radius, beta, l_max)
    want = _outcome(_full_decimal_sum, *args)
    assert _outcome(checks._spectral_deviation_decimal, *args) == want
    # The first call is the bound at l_max; the rest are the visited levels.
    assert (max(degeneracy_levels[1:]) < l_max) == stops_early


# ---------------------------------------------------------------------------
# zeta-regularized series
# ---------------------------------------------------------------------------


def test_zeta_series_matches_heat_kernel() -> None:
    report = zeta_series_check()
    assert report.passed
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
    assert report.passed
    for n in range(1, 7):
        moment = _profile_moment(name, n) * Fraction((-1) ** n, 2 * n)
        want = RegValue.delta0(coeff=moment) * RegValue.beta()
        assert report.expected[f"u^{n}"] == want.text()
        assert report.actual[f"u^{n}"] == want.text()


def test_measure_cancellation_accepts_profile_names() -> None:
    report = measure_cancellation("tau / beta", max_order=2)
    assert report.passed
    assert report.check_name == "measure_cancellation[tau/beta]"


@pytest.mark.parametrize("bad_order", [0, 9])
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
    assert all(report.passed for report in reports)


def test_standard_battery_flags_the_mode_scheme() -> None:
    failing = [r.check_name for r in run_standard_checks(MODEREG) if not r.passed]
    assert failing == ["flat_sum_order2", "first_order_constraints"]

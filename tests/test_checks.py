"""Tests for the verification layer."""

from __future__ import annotations

import math
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
    for key, value in report.actual.items():
        if key.startswith("ratio"):
            assert 6.0 <= float(value) <= 10.0


def test_sphere_scaling_requires_decreasing_betas() -> None:
    report = sphere_scaling_check(betas=("0.01", "0.02"))
    assert report.status == "error"


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
    report = measure_cancellation(PROFILES[name])
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
    assert resolve_profile("constant").name == "1"
    assert resolve_profile("tau * (beta - tau) / beta^2").name == (
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

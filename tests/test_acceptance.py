"""Acceptance suite.

One test per criterion, each printing a single verdict line of the form
``criterion NN [PASS|FAIL] summary``.  Exact statements use rational
arithmetic; the sphere cross-check states its numeric tolerance.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest

from worldline.checks import (
    check_flat,
    check_seeley,
    measure_cancellation,
    sphere_scaling_check,
    sphere_spectral_check,
    zeta_series_check,
)
from worldline.diagrams import catalog
from worldline.geometry import FlatTransform
from worldline.integration import DIMREG, MODEREG, evaluate_naive_1d
from worldline.reduction import (
    ReductionError,
    evaluate_named,
    forbidden_one_dimensional_return,
)
from worldline.values import RegValue


def _criterion(
    number: int, summary: str, ok: bool, problems: Sequence[str] = ()
) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {summary}")
    for problem in problems:
        print(f"    {problem}")
    assert ok, f"criterion {number:02d} failed: {summary}; " + "; ".join(problems)


# ---------------------------------------------------------------------------
# 1. ambiguous-integral table
# ---------------------------------------------------------------------------

_INTEGRAL_TABLE = {
    "I14": RegValue.beta(1, Fraction(1, 24)),
    "I15R": RegValue.beta(1, Fraction(-1, 8)),
    "I2R": RegValue.beta(2, Fraction(-7, 180)),
    "I4": RegValue.beta(2, Fraction(1, 90)),
    "I7": RegValue.beta(2, Fraction(-1, 720)),
    "I8R": RegValue.beta(2, Fraction(-1, 72)),
    "I9": RegValue.beta(2, Fraction(-1, 720)),
    "I10": RegValue.beta(2, Fraction(1, 90)),
    "I11": RegValue.beta(1, Fraction(1, 12)),
    "I12": RegValue.beta(1, Fraction(-1, 12)),
    "I13": RegValue.beta(1, Fraction(1, 12)),
}


def test_criterion_01_integral_table() -> None:
    problems = []
    for name, want in _INTEGRAL_TABLE.items():
        got = evaluate_named(name, DIMREG)
        if got != want:
            problems.append(f"{name} = {got.text()}, expected {want.text()}")
    divergent = evaluate_named("I15", DIMREG).grade(1)
    want_divergent = RegValue.term(Fraction(1, 6), 2, 1)
    if divergent != want_divergent:
        problems.append(
            f"I15 divergent part = {divergent.text()}, "
            f"expected {want_divergent.text()}"
        )
    _criterion(1, "named two-time integral table (exact)", not problems, problems)


# ---------------------------------------------------------------------------
# 2. constraint systems
# ---------------------------------------------------------------------------


def test_criterion_02_constraint_systems() -> None:
    values = {
        name: evaluate_named(name, DIMREG)
        for name in ("I8R", "I9", "I10", "I14", "I15R")
    }
    combos = {
        "I14 + I15R": (
            values["I14"] + values["I15R"],
            RegValue.beta(1, Fraction(-1, 12)),
        ),
        "3*I14 + I15R": (values["I14"] * 3 + values["I15R"], RegValue.zero()),
        "I8R + 4*I9 + I10": (
            values["I8R"] + values["I9"] * 4 + values["I10"],
            RegValue.beta(2, Fraction(-1, 120)),
        ),
        "I8R - 2*I9 + I10": (
            values["I8R"] - values["I9"] * 2 + values["I10"],
            RegValue.zero(),
        ),
    }
    problems = [
        f"{label} = {got.text()}, expected {want.text()}"
        for label, (got, want) in combos.items()
        if got != want
    ]
    _criterion(2, "integral constraint systems (exact)", not problems, problems)


# ---------------------------------------------------------------------------
# 3. flat coordinate independence
# ---------------------------------------------------------------------------


def test_criterion_03_flat_coordinate_independence() -> None:
    problems = []
    for order in (1, 2):
        report = check_flat(order, DIMREG)
        for key in report.mismatches():
            problems.append(f"order {order}: {key} = {report.actual[key]}")
    _criterion(
        3,
        "flat sums vanish per divergence grade under the dimensional scheme",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 4. scheme falsification
# ---------------------------------------------------------------------------


def test_criterion_04_mode_scheme_falsification() -> None:
    problems = []
    flat = check_flat(2, MODEREG)
    residual = flat.actual.get("one[delta0^0]", "missing")
    if flat.status != "fail" or residual != "-1/36 * beta^2":
        problems.append(
            f"flat order-2 mode-scheme residual {residual} (status {flat.status})"
        )
    constraint = evaluate_named("I14", MODEREG) + evaluate_named("I15R", MODEREG)
    if constraint == RegValue.beta(1, Fraction(-1, 12)):
        problems.append("mode-scheme constraint I14 + I15R unexpectedly holds")
    naive_i14 = evaluate_naive_1d("I14", "partial_integration")
    if naive_i14 != RegValue.beta(1, Fraction(1, 12)):
        problems.append(f"naive I14 = {naive_i14.text()}, expected 1/12 * beta")
    naive_i15 = evaluate_naive_1d("I15", "partial_integration").finite_part()
    if naive_i15 != RegValue.beta(1, Fraction(-1, 4)):
        problems.append(f"naive I15 finite part = {naive_i15.text()}")
    _criterion(
        4,
        "mode scheme fails flat order 2 (residual -1/36 * beta^2) and the "
        f"constraint (I14 + I15R = {constraint.text()}); naive one-dimensional "
        f"routes give {naive_i14.text()} and {naive_i15.text()}",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 5. heat-kernel coefficient matching
# ---------------------------------------------------------------------------


def test_criterion_05_heat_kernel_matching() -> None:
    problems = []
    first = check_seeley(1)
    if first.actual.get("R") != "1/12 * beta":
        problems.append(f"order-1 total {first.actual.get('R')}")
    problems.extend(f"order 1: {key}" for key in first.mismatches())
    second = check_seeley(2)
    wanted = {
        "Rsq": "1/288 * beta^2",
        "RiemannSq": "1/720 * beta^2",
        "RicciSq": "-1/720 * beta^2",
    }
    for label, text in wanted.items():
        if second.actual.get(label) != text:
            problems.append(f"order-2 {label} = {second.actual.get(label)}")
    problems.extend(f"order 2: {key}" for key in second.mismatches())
    _criterion(
        5,
        "curved totals match the heat-kernel coefficients (exact)",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 6. sphere spectral cross-check
# ---------------------------------------------------------------------------


def test_criterion_06_sphere_spectrum() -> None:
    problems = []
    spectral = sphere_spectral_check(
        dimension=3,
        radius=1,
        beta=Fraction(1, 100),
        l_max=1000,
        tolerance=1e-6,
    )
    if not spectral.passed:
        problems.append(
            f"spectral status {spectral.status}: {spectral.actual} {spectral.details}"
        )
    scaling = sphere_scaling_check()
    if not scaling.passed:
        problems.append(f"scaling status {scaling.status}: {scaling.actual}")
    deviation = spectral.actual.get("relative_deviation", "?")
    ratios = ", ".join(
        value for key, value in scaling.actual.items() if key.startswith("ratio")
    )
    _criterion(
        6,
        f"sphere spectrum deviation {deviation} <= 1e-06, ratios [{ratios}] in [6, 10]",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 7. zeta-series check
# ---------------------------------------------------------------------------


def test_criterion_07_zeta_series() -> None:
    report = zeta_series_check()
    problems = []
    if report.actual.get("degeneracy_sum") != "1/3":
        problems.append(f"degeneracy sum {report.actual.get('degeneracy_sum')}")
    if report.actual.get("linear_coefficient") != "1/30":
        problems.append(
            f"linear coefficient {report.actual.get('linear_coefficient')}"
        )
    if report.actual.get("series") != "(1, 1/6, 1/60)":
        problems.append(f"series {report.actual.get('series')}")
    problems.extend(report.mismatches())
    _criterion(
        7,
        "zeta-regularized sums 1/3 and beta/(30 r^2); series (1, 1/6, 1/60)",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 8. measure cancellation
# ---------------------------------------------------------------------------


def test_criterion_08_measure_cancellation() -> None:
    problems = []
    for name in ("1", "tau/beta", "tau*(beta-tau)/beta^2"):
        report = measure_cancellation(name, max_order=6)
        if len(report.actual) != 6:
            problems.append(f"profile {name}: {len(report.actual)} orders checked")
        for key in report.mismatches():
            problems.append(
                f"profile {name} {key}: ring {report.actual[key]}, "
                f"measure {report.expected[key]}"
            )
    _criterion(
        8,
        "ring divergences cancel the measure expansion through u^6, term by term",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 9. diagram catalog
# ---------------------------------------------------------------------------


def test_criterion_09_diagram_catalog() -> None:
    problems = []
    first = catalog(FlatTransform(), 1)
    if len(first) != 3:
        problems.append(f"order-1 diagram count {len(first)} != 3")
    second = catalog(FlatTransform(), 2)
    counts = Counter(row["shape"] for row in second)
    expected_counts = {
        "single_vertex": 3,
        "measure_pair": 4,
        "three_bubble": 7,
        "watermelon": 3,
    }
    for shape, count in expected_counts.items():
        if counts.get(shape, 0) != count:
            problems.append(f"{shape} count {counts.get(shape, 0)} != {count}")
    expected_weights = {
        "single_vertex": Counter(["3/2 * delta0", "-9/2", "-18"]),
        "measure_pair": Counter(
            ["1 * delta0^2", "-2 * delta0", "-2 * delta0", "-8 * delta0"]
        ),
        "three_bubble": Counter(["2", "1", "1", "8", "8", "8", "8"]),
        "watermelon": Counter(["2", "8", "2"]),
    }
    for shape, wanted in expected_weights.items():
        got = Counter(row["weight"] for row in second if row["shape"] == shape)
        missing = wanted - got
        if missing:
            problems.append(f"{shape} weights missing {sorted(missing)}")
    _criterion(
        9,
        "diagram catalog counts (3; 3, 4, 7, 3) and weights",
        not problems,
        problems,
    )


# ---------------------------------------------------------------------------
# 10. legality audit
# ---------------------------------------------------------------------------


def test_criterion_10_legality_audit() -> None:
    problems = []
    log: list = []
    evaluate_named("I14", DIMREG, log=log)
    for entry in log:
        if entry["move"] in ("FieldEquation", "EqualTimeSubstitute"):
            if entry.get("tag") == "MuNu":
                problems.append(f"delta substitution on a mixed factor: {entry}")
    try:
        forbidden_one_dimensional_return("I14")
        problems.append("the one-dimensional return shortcut did not raise")
    except ReductionError as error:
        message = str(error)
        if "MuNu" not in message or "D[nu]" not in message:
            problems.append(f"rejection does not name the blocking factor: {message}")
    _criterion(
        10,
        "no delta substitution touches a mixed-derivative factor and the "
        "one-dimensional shortcut is rejected by name",
        not problems,
        problems,
    )

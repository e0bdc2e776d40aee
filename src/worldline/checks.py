"""Verification layer: every check computes a quantity along two routes.

The flat checks demand that a pure change of coordinates leaves the
partition function trivial, grading by powers of the equal-time
distributional constant so divergent and finite parts must cancel
separately.  The curved checks compare Wick totals against heat-kernel
coefficients.  The battery adds the sphere routes of :mod:`.spectral`
and the measure rings of :mod:`.rings`.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import sum_order
from .geometry import (
    CURVATURE_DICTIONARY,
    GAMMA_PATTERNS,
    GAMMA_SQUARED_LINES,
    SECOND_DERIVATIVE_TERMS,
    FlatTransform,
    NormalCoords,
)
from .integration import DIMREG, RuleSet
from .reduction import evaluate_named
from .reports import CheckReport, finish_report
from .rings import PROFILES, measure_cancellation
from .spectral import SEELEY, sphere_scaling_check, sphere_spectral_check, zeta_series_check
from .values import RegValue


# ---------------------------------------------------------------------------
# flat cancellation
# ---------------------------------------------------------------------------


def check_flat(
    order: int, rules: RuleSet = DIMREG, first: dict[str, RegValue] | None = None
) -> CheckReport:
    """A coordinate change on the flat line must contribute nothing.

    The diagram total is graded by powers of the equal-time constant and
    every grade must vanish on its own.  ``first`` is the order-1 total
    under ``rules``, if the caller has it (``sum_order``).
    """

    totals = sum_order(FlatTransform(), order, rules, first)
    expected: dict[str, str] = {}
    actual: dict[str, str] = {}
    for label, value in sorted(totals.items()):
        for grade in range(order + 1):
            key = f"{label}[delta0^{grade}]"
            expected[key] = "0"
            actual[key] = value.grade(grade).text()
    return finish_report(
        f"flat_sum_order{order}",
        expected,
        actual,
        details=(f"ruleset {rules.name}",),
    )


# ---------------------------------------------------------------------------
# first-order constraints in general coordinates
# ---------------------------------------------------------------------------

_CONSTRAINT_INTEGRALS = ("I8R", "I9", "I10", "I11", "I12", "I13", "I14", "I15R")


def check_constraints(rules: RuleSet = DIMREG) -> CheckReport:
    """Integral constraints and the assembled first-order pattern totals.

    The two-time integrals must satisfy the sum rules that make the
    general-coordinate first-order total proportional to the scalar
    curvature: the assembled coefficient of every metric-derivative
    pattern has to match minus one twenty-fourth of the curvature
    dictionary, which rewrites the total as ``-1/24 * beta`` times R.
    """

    values: dict[str, RegValue] = {}
    logs: dict[str, list[dict]] = {}
    for name in _CONSTRAINT_INTEGRALS:
        log: list[dict] = []
        values[name] = evaluate_named(name, rules, log=log)
        logs[name] = log

    expected: dict[str, str] = {}
    actual: dict[str, str] = {}
    combinations = {
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
    for key, (got, want) in combinations.items():
        expected[key] = want.text()
        actual[key] = got.text()

    patterns: dict[str, RegValue] = {name: RegValue.zero() for name in GAMMA_PATTERNS}
    for prefactor, multiplicities, integral in GAMMA_SQUARED_LINES:
        line_value = values[integral] * prefactor
        for pattern, multiplicity in multiplicities.items():
            patterns[pattern] = patterns[pattern] + line_value * multiplicity
    for pattern, value in SECOND_DERIVATIVE_TERMS.items():
        patterns[pattern] = patterns[pattern] + value

    scale = RegValue.beta(1, Fraction(-1, 24))
    for pattern in GAMMA_PATTERNS:
        want = scale * CURVATURE_DICTIONARY.get(pattern, Fraction(0))
        expected[f"pattern[{pattern}]"] = want.text()
        actual[f"pattern[{pattern}]"] = patterns[pattern].text()

    ok = expected == actual
    details = [f"ruleset {rules.name}"]
    if ok:
        details.append(
            "pattern totals equal -1/24 * beta times the curvature dictionary, "
            "so the first-order sum is -1/24 * beta * R"
        )
    return finish_report(
        "first_order_constraints",
        expected,
        actual,
        details=details,
        move_logs=logs,
    )


# ---------------------------------------------------------------------------
# heat-kernel comparison
# ---------------------------------------------------------------------------


def check_seeley(order: int, first: dict[str, RegValue] | None = None) -> CheckReport:
    """The normal-coordinate amplitude against the heat-kernel coefficients.

    Divergent grades must vanish label by label.  ``first`` is the
    order-1 amplitude, if the caller has it.
    """

    totals = sum_order(NormalCoords(), order, DIMREG, first)
    reference = {label: RegValue.beta(order, coefficient) for label, coefficient in SEELEY[order].items()}

    expected: dict[str, str] = {}
    actual: dict[str, str] = {}
    for label in sorted(set(totals) | set(reference)):
        value = totals.get(label, RegValue.zero())
        expected[label] = reference.get(label, RegValue.zero()).text()
        actual[label] = value.text()
        for grade in (1, 2):
            expected[f"{label}[delta0^{grade}]"] = "0"
            actual[f"{label}[delta0^{grade}]"] = value.grade(grade).text()
    return finish_report(f"heat_kernel_order{order}", expected, actual)


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------


def run_standard_checks(rules: RuleSet = DIMREG) -> list[CheckReport]:
    """The full battery.

    The flat and constraint checks honor the requested ruleset; the
    heat-kernel, sphere, and cancellation checks are exact statements
    evaluated in the dimensional scheme.
    """

    # Each model's order-1 total is built once and passed to order 2.
    flat = sum_order(FlatTransform(), 1, rules)
    normal = sum_order(NormalCoords(), 1)
    reports = [
        check_flat(1, rules, flat),
        check_flat(2, rules, flat),
        check_constraints(rules),
        check_seeley(1, normal),
        check_seeley(2, normal),
        zeta_series_check(),
        sphere_spectral_check(),
        sphere_scaling_check(),
    ]
    reports.extend(measure_cancellation(profile) for profile in PROFILES)
    return reports

"""Verification layer: every check computes a quantity along two routes.

The flat checks demand that a pure change of coordinates leaves the
partition function trivial, grading by powers of the equal-time
distributional constant so divergent and finite parts must cancel
separately.  The curved checks compare Wick totals against heat-kernel
coefficients, and the sphere supplies two further independent routes: a
numerically summed spectrum and an exact zeta-regularized series.  The
cancellation check exercises the distributional ring integrals that the
path-integral measure must absorb order by order.

Each check returns a :class:`CheckReport` with rendered expected and
actual values, so failures show the residual rather than a bare flag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .diagrams import sum_order
from .geometry import (
    CURVATURE_DICTIONARY,
    GAMMA_PATTERNS,
    GAMMA_SQUARED_LINES,
    SECOND_DERIVATIVE_TERMS,
    FlatTransform,
    NormalCoords,
    Sphere,
    measure_terms,
    seeley_reference,
)
from .integrands import product
from .integration import DIMREG, RuleSet, integrate
from .polynomials import Poly
from .propagators import Kind
from .reduction import evaluate_named
from .values import RegValue


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check, with rendered values on both routes."""

    check_name: str
    status: str  # "pass" | "fail" | "error"
    expected: Dict[str, str]
    actual: Dict[str, str]
    tolerance: Union[str, float]
    details: Tuple[str, ...] = ()
    move_logs: Optional[Dict[str, List[dict]]] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def mismatches(self) -> List[str]:
        """Keys whose expected and actual renderings differ."""
        return sorted(
            key
            for key in set(self.expected) | set(self.actual)
            if self.expected.get(key) != self.actual.get(key)
        )


def _finish(
    name: str,
    expected: Dict[str, str],
    actual: Dict[str, str],
    tolerance: Union[str, float] = "exact",
    details: Iterable[str] = (),
    move_logs: Optional[Dict[str, List[dict]]] = None,
    ok: Optional[bool] = None,
) -> CheckReport:
    if ok is None:
        ok = expected == actual
    return CheckReport(
        check_name=name,
        status="pass" if ok else "fail",
        expected=expected,
        actual=actual,
        tolerance=tolerance,
        details=tuple(details),
        move_logs=move_logs,
    )


def _error(name: str, tolerance: Union[str, float], detail: str) -> CheckReport:
    """A check that could not run, with the one-line reason."""
    return CheckReport(name, "error", {}, {}, tolerance, (detail,))


# ---------------------------------------------------------------------------
# flat cancellation
# ---------------------------------------------------------------------------


def check_flat(order: int, rules: RuleSet = DIMREG) -> CheckReport:
    """A coordinate change on the flat line must contribute nothing.

    The diagram total is graded by powers of the equal-time constant and
    every grade must vanish on its own.
    """

    totals = sum_order(FlatTransform(), order, rules)
    expected: Dict[str, str] = {}
    actual: Dict[str, str] = {}
    for label, value in sorted(totals.items()):
        for grade in range(order + 1):
            key = f"{label}[delta0^{grade}]"
            expected[key] = "0"
            actual[key] = value.grade(grade).text()
    return _finish(
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

    values: Dict[str, RegValue] = {}
    logs: Dict[str, List[dict]] = {}
    for name in _CONSTRAINT_INTEGRALS:
        log: List[dict] = []
        values[name] = evaluate_named(name, rules, log=log)
        logs[name] = log

    expected: Dict[str, str] = {}
    actual: Dict[str, str] = {}
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

    patterns: Dict[str, RegValue] = {name: RegValue.zero() for name in GAMMA_PATTERNS}
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
    return _finish(
        "first_order_constraints",
        expected,
        actual,
        details=details,
        move_logs=logs,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# heat-kernel comparison
# ---------------------------------------------------------------------------


def check_seeley(order: int) -> CheckReport:
    """Normal-coordinate totals against the heat-kernel coefficients.

    First order adds the curvature measure term to the diagram total;
    second order already contains the disconnected square of the complete
    first-order value.  Divergent grades must vanish label by label.
    """

    if order not in (1, 2):
        raise ValueError("the heat-kernel comparison covers first and second order")
    model = NormalCoords()
    totals = dict(sum_order(model, order, DIMREG))
    if order == 1:
        for label, value in measure_terms(model).items():
            totals[label] = totals.get(label, RegValue.zero()) + value
    reference = seeley_reference(model, order)

    expected: Dict[str, str] = {}
    actual: Dict[str, str] = {}
    for label in sorted(set(totals) | set(reference)):
        value = totals.get(label, RegValue.zero())
        expected[label] = reference.get(label, RegValue.zero()).text()
        actual[label] = value.text()
        for grade in (1, 2):
            expected[f"{label}[delta0^{grade}]"] = "0"
            actual[f"{label}[delta0^{grade}]"] = value.grade(grade).text()
    return _finish(f"heat_kernel_order{order}", expected, actual)


# ---------------------------------------------------------------------------
# sphere spectrum
# ---------------------------------------------------------------------------

_PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749")


def _to_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def _degeneracy(dimension: int, level: int) -> int:
    """Multiplicity of the sphere spectrum at a level; it never falls as the level grows."""

    if level == 0:
        return 1
    if dimension == 2:
        return 2
    rising = math.prod(range(level + 1, level + dimension - 2))
    return (2 * level + dimension - 2) * rising // math.factorial(dimension - 2)


def _series_reference_coefficients(sphere: Sphere) -> Tuple[Fraction, Fraction]:
    return (
        seeley_reference(sphere, 1)["one"].coefficient(1, 0),
        seeley_reference(sphere, 2)["one"].coefficient(2, 0),
    )


def _spectral_deviation_float(
    dimension: int, radius: Fraction, beta: Fraction, l_max: int
) -> Tuple[float, float, float]:
    r = float(radius)
    b = float(beta)
    # The volume overflows for every dimension above 343; computing it first
    # spares such an input the exact degeneracies of the level sum.
    volume = (
        2 * math.pi ** (dimension / 2) * r ** (dimension - 1) / math.gamma(dimension / 2)
    )
    x = float(beta / (2 * radius * radius))
    # Degeneracies never fall, so the one at l_max raises the full loop's
    # OverflowError text, if any.  Decays only shrink: from the first that
    # underflows to 0.0 on, every term adds exactly nothing.
    _degeneracy(dimension, l_max) / 1
    decays = (math.exp(-l * (l + dimension - 2) * x) for l in range(l_max + 1))
    partition = math.fsum(
        _degeneracy(dimension, l) * decay
        for l, decay in enumerate(itertools.takewhile(bool, decays))
    )
    normalized = partition / volume * (2 * math.pi * b) ** ((dimension - 1) / 2)
    c1, c2 = _series_reference_coefficients(Sphere(dimension, radius))
    reference = 1.0 + float(c1) * b + float(c2) * b * b
    return abs(normalized / reference - 1.0), normalized, reference


def _half_power(base: Decimal, numerator: int) -> Decimal:
    result = base ** (numerator // 2)
    if numerator % 2:
        result *= base.sqrt()
    return result


def _gamma_half_integer(dimension: int) -> Decimal:
    """Exact Gamma(dimension / 2) for integer dimension."""

    if dimension % 2 == 0:
        return Decimal(math.factorial(dimension // 2 - 1))
    m = (dimension - 1) // 2
    odd_product = math.prod(range(1, 2 * m, 2))
    return Decimal(odd_product) * _PI.sqrt() / (Decimal(2) ** m)


def _decimal(fraction: Fraction) -> Decimal:
    return Decimal(fraction.numerator) / Decimal(fraction.denominator)


def _spectral_deviation_decimal(
    dimension: int, radius: Fraction, beta: Fraction, l_max: int
) -> Tuple[float, float, float]:
    with localcontext() as context:
        context.prec = 50
        b = _decimal(beta)
        r = _decimal(radius)
        x = b / (2 * r * r)
        # No later term exceeds top * decay, and the partition only grows;
        # once that bound is below half an ulp of the partition, every
        # remaining addition rounds back to it (ROUND_HALF_EVEN).
        top = +Decimal(_degeneracy(dimension, l_max))
        partition = Decimal(0)
        for level in range(l_max + 1):
            decay = (-x * (level * (level + dimension - 2))).exp()
            if top * decay < (partition.next_plus() - partition) / 2:
                break
            partition += +Decimal(_degeneracy(dimension, level)) * decay
        volume = (
            2
            * _half_power(_PI, dimension)
            * _half_power(r * r, dimension - 1)
            / _gamma_half_integer(dimension)
        )
        normalized = partition / volume * _half_power(2 * _PI * b, dimension - 1)
        c1, c2 = _series_reference_coefficients(Sphere(dimension, radius))
        reference = Decimal(1) + _decimal(c1) * b + _decimal(c2) * b * b
        deviation = abs(normalized / reference - 1)
        return float(deviation), float(normalized), float(reference)


def _arithmetic_detail(dimension: int, error: ArithmeticError) -> str:
    return f"the spectral sum for dimension {dimension} is out of numeric range: {error}"


# A double-precision deviation below _DOUBLE_FLOOR is mostly rounding noise
# (about 2.5e-16 per sum), so it is recomputed at fifty digits; below
# _DECIMAL_FLOOR the fifty-digit deviation is noise too.
_DOUBLE_FLOOR = 1e-10
_DECIMAL_FLOOR = 1e-40
_SCALING_BETAS = (Fraction(1, 25), Fraction(1, 50), Fraction(1, 100))
_SCALING_BAND = (6.0, 10.0)


def _sphere_inputs(
    dimension: int,
    radius: Union[int, Fraction],
    betas: Iterable[Union[float, str, Fraction]],
    l_max: int,
) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Exact radius and betas of a sphere check, or the one-line reason they are unusable."""

    radius = Sphere(dimension, radius).radius
    betas = tuple(map(_to_fraction, betas))
    for beta in betas:
        if beta <= 0:
            raise ValueError("beta must be positive")
        bound = math.isqrt(int(80 * radius * radius / beta)) + 1
        if l_max < bound:
            raise ValueError(
                f"l_max {l_max} is below the truncation bound {bound} "
                f"for beta {beta} and radius {radius}"
            )
    return radius, betas


def sphere_spectral_check(
    dimension: int = 3,
    radius: Union[int, Fraction] = 1,
    beta: Union[float, str, Fraction] = Fraction(1, 100),
    l_max: int = 1000,
    tolerance: float = 1e-6,
) -> CheckReport:
    """Summed sphere spectrum against the truncated series, numerically.

    The deviation is recomputed at fifty digits whenever the double
    precision value lands within a decade of the tolerance, or the
    tolerance is below the double-precision floor.
    """

    name = "sphere_spectral"
    try:
        radius, (beta,) = _sphere_inputs(dimension, radius, (beta,), l_max)
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"tolerance must be a positive finite number, got {tolerance}")
    except (ValueError, ZeroDivisionError, TypeError) as error:
        return _error(name, tolerance, str(error))
    try:
        deviation, normalized, reference = _spectral_deviation_float(
            dimension, radius, beta, l_max
        )
        precision_note = "double precision"
        if tolerance / 10 <= deviation <= tolerance * 10 or tolerance < _DOUBLE_FLOOR:
            deviation, normalized, reference = _spectral_deviation_decimal(
                dimension, radius, beta, l_max
            )
            precision_note = "recomputed at 50 digits"
    except ArithmeticError as error:
        return _error(name, tolerance, _arithmetic_detail(dimension, error))
    expected = {"relative_deviation": f"<= {tolerance:.1e}"}
    actual = {
        "relative_deviation": f"{deviation:.3e}",
        "normalized_amplitude": f"{normalized:.12f}",
        "series_reference": f"{reference:.12f}",
    }
    return _finish(
        name,
        expected,
        actual,
        tolerance=tolerance,
        details=(
            f"dimension {dimension}, radius {radius}, beta {beta}, l_max {l_max}",
            precision_note,
        ),
        ok=deviation <= tolerance,
    )


def sphere_scaling_check(
    dimension: int = 3, radius: Union[int, Fraction] = 1, l_max: int = 1000
) -> CheckReport:
    """Deviation from the truncated series must shrink like the next power.

    Halving beta should cut the deviation by roughly eight; the observed
    ratios must fall inside the accepted band.  A double-precision
    deviation below the double floor is recomputed at fifty digits, and
    one below the fifty-digit floor there is noise, so no ratio exists.
    """

    name = "sphere_scaling"
    band = str(_SCALING_BAND)
    try:
        radius, betas = _sphere_inputs(dimension, radius, _SCALING_BETAS, l_max)
    except (ValueError, ZeroDivisionError, TypeError) as error:
        return _error(name, band, str(error))
    deviations = []
    details = [f"dimension {dimension}, radius {radius}, l_max {l_max}"]
    try:
        for beta in betas:
            deviation = _spectral_deviation_float(dimension, radius, beta, l_max)[0]
            if deviation < _DOUBLE_FLOOR:
                deviation = _spectral_deviation_decimal(dimension, radius, beta, l_max)[0]
                details.append(f"beta {beta} recomputed at 50 digits")
                if deviation < _DECIMAL_FLOOR:
                    return _error(
                        name,
                        band,
                        f"the deviation at beta {beta} is below the 50-digit "
                        "precision floor, so the scaling ratio is undefined",
                    )
            deviations.append(deviation)
    except ArithmeticError as error:
        return _error(name, band, _arithmetic_detail(dimension, error))
    low, high = _SCALING_BAND
    expected: Dict[str, str] = {}
    actual: Dict[str, str] = {}
    ok = True
    for index in range(len(betas) - 1):
        ratio = deviations[index] / deviations[index + 1]
        key = f"ratio[{float(betas[index]):g}/{float(betas[index + 1]):g}]"
        expected[key] = f"in [{low:g}, {high:g}]"
        actual[key] = f"{ratio:.3f}"
        ok = ok and low <= ratio <= high
    for beta, deviation in zip(betas, deviations):
        actual[f"deviation[{float(beta):g}]"] = f"{deviation:.3e}"
    return _finish(name, expected, actual, tolerance=band, details=details, ok=ok)


# ---------------------------------------------------------------------------
# zeta-regularized series
# ---------------------------------------------------------------------------

ZETA_AT_NEGATIVE_INTEGERS: Dict[int, Fraction] = {
    0: Fraction(-1, 2),
    1: Fraction(-1, 12),
    2: Fraction(0),
    3: Fraction(1, 120),
}


def _poly_in_level_mul(
    left: Dict[int, Fraction], right: Dict[int, Fraction]
) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + ca * cb
    return out


def _regularized_sum(coefficients: Dict[int, Fraction]) -> Fraction:
    """Zeta-regularized sum over levels l >= 0 of a polynomial in l.

    The l = 0 term is kept verbatim; the tail over l >= 1 is assigned
    power by power through the zeta values at nonpositive integers.
    """

    at_zero = coefficients.get(0, Fraction(0))
    tail = sum(
        (c * ZETA_AT_NEGATIVE_INTEGERS[k] for k, c in coefficients.items()),
        Fraction(0),
    )
    return at_zero + tail


def zeta_series_check() -> CheckReport:
    """Two-sphere spectral sums by zeta regularization, exactly.

    The regularized degeneracy sum and first eigenvalue moment assemble
    into series coefficients that must reproduce the heat-kernel values
    obtained from the curvature route.
    """

    degeneracy = {0: Fraction(1), 1: Fraction(2)}  # 2 l + 1
    eigenvalue = {1: Fraction(1), 2: Fraction(1)}  # l (l + 1)
    s0 = _regularized_sum(degeneracy)
    s1 = _regularized_sum(_poly_in_level_mul(degeneracy, eigenvalue))
    c1, c2 = _series_reference_coefficients(Sphere(3, Fraction(1)))
    expected = {
        "degeneracy_sum": str(2 * c1),
        "linear_coefficient": str(2 * c2),
        "series": f"(1, {c1}, {c2})",
    }
    actual = {
        "degeneracy_sum": str(s0),
        "linear_coefficient": str(-s1 / 2),
        "series": f"(1, {s0 / 2}, {-s1 / 4})",
    }
    return _finish(
        "zeta_series",
        expected,
        actual,
        details=("coefficients are of the series (2 r^2 / beta) "
                 "(1 + c1 beta/r^2 + c2 beta^2/r^4)",),
    )


# ---------------------------------------------------------------------------
# measure cancellation
# ---------------------------------------------------------------------------


# Kinetic weights 1 + u p(tau): each rational one-variable profile p,
# keyed by its formula.
PROFILES: Dict[str, Poly] = {
    "1": Poly.const(1, Fraction(1)),
    "tau/beta": Poly.monomial(1, Fraction(1), -1, (1,)),
    "tau*(beta-tau)/beta^2": Poly.monomial(1, Fraction(1), -1, (1,))
    - Poly.monomial(1, Fraction(1), -2, (2,)),
}


def resolve_profile(text: str) -> str:
    """The key of a mass profile given by its formula, ignoring whitespace."""

    key = "".join(text.split()).lower()
    if key == "constant":
        key = "1"
    if key in PROFILES:
        return key
    known = ", ".join(sorted(PROFILES))
    raise ValueError(f"unknown mass profile {text!r}; known profiles: {known}")


def _ring_value(density: Poly, n: int) -> RegValue:
    """Cyclic product of double-derivative propagators weighted by the profile."""

    factors = [(Kind.DOT_DOT, *sorted((i, (i + 1) % n))) for i in range(n)]
    return integrate(product(factors, n), DIMREG, weight=density)


def measure_cancellation(profile: str, max_order: int = 6) -> CheckReport:
    """Divergent ring terms against the measure expansion, order by order.

    The divergent grade of the order-n connected ring must equal the u^n
    term that the square-root measure of the weighted kinetic operator
    provides, with the same rational prefactor, so the two cancel in the
    combined partition function.  ``profile`` is a formula that
    :func:`resolve_profile` knows.
    """

    profile = resolve_profile(profile)
    density = PROFILES[profile]
    if not 1 <= max_order <= 8:
        raise ValueError("the ring expansion is implemented through order u^8")
    expected: Dict[str, str] = {}
    actual: Dict[str, str] = {}
    power = Poly.const(1, Fraction(1))
    for n in range(1, max_order + 1):
        power = power * density
        prefactor = Fraction((-1) ** n, 2 * n)
        ring = _ring_value(density, n)
        divergent = ring.grade(1) * prefactor
        measure = RegValue.delta0() * power.integrate_cube() * prefactor
        expected[f"u^{n}"] = measure.text()
        actual[f"u^{n}"] = divergent.text()
    return _finish(
        f"measure_cancellation[{profile}]",
        expected,
        actual,
        details=(f"profile {profile}",),
    )


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------


def run_standard_checks(rules: RuleSet = DIMREG) -> List[CheckReport]:
    """The full battery.

    The flat and constraint checks honor the requested ruleset; the
    heat-kernel, sphere, and cancellation checks are exact statements
    evaluated in the dimensional scheme.
    """

    reports = [
        check_flat(1, rules),
        check_flat(2, rules),
        check_constraints(rules),
        check_seeley(1),
        check_seeley(2),
        zeta_series_check(),
        sphere_spectral_check(),
        sphere_scaling_check(),
    ]
    reports.extend(measure_cancellation(profile) for profile in PROFILES)
    return reports

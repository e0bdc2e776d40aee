"""The sphere's numerical and zeta routes to the heat kernel.

Neither sphere route touches products of distributions or the move search.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from decimal import Decimal, localcontext
from fractions import Fraction

from .reports import CheckReport, error_report, finish_report


# ---------------------------------------------------------------------------
# sphere spectrum
# ---------------------------------------------------------------------------

_PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749")


def _to_fraction(value: int | float | str | Fraction) -> Fraction:
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


def _series_reference_coefficients(
    dimension: int, radius: Fraction
) -> tuple[Fraction, Fraction]:
    """Heat-kernel coefficients c1 and c2 of the sphere of dimension ``dimension - 1``."""

    d = dimension
    r2 = radius * radius
    return (
        Fraction((d - 1) * (d - 2), 12) / r2,
        Fraction((d - 1) * (d - 2) * (5 * d * d - 17 * d + 18), 1440) / (r2 * r2),
    )


def _spectral_deviation_float(
    dimension: int, radius: Fraction, beta: Fraction, l_max: int
) -> tuple[float, float, float]:
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
    c1, c2 = _series_reference_coefficients(dimension, radius)
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
) -> tuple[float, float, float]:
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
        c1, c2 = _series_reference_coefficients(dimension, radius)
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
# Both level sums visit a few times the truncation bound, which grows like
# radius / sqrt(beta); above this cap an input is refused, not summed.
_MAX_TRUNCATION_BOUND = 10_000


def _sphere_inputs(
    dimension: int,
    radius: int | float | str | Fraction,
    betas: Iterable[float | str | Fraction],
    l_max: int,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact radius and betas of a sphere check, or the one-line reason they are unusable."""

    if dimension < 2:
        raise ValueError("the sphere model needs an embedding dimension of at least 2")
    radius = _to_fraction(radius)
    if radius <= 0:
        raise ValueError("the sphere radius must be positive")
    betas = tuple(map(_to_fraction, betas))
    for beta in betas:
        if beta <= 0:
            raise ValueError("beta must be positive")
        bound = math.isqrt(int(80 * radius * radius / beta)) + 1
        if bound > _MAX_TRUNCATION_BOUND:
            raise ValueError(
                f"the truncation bound {bound} for beta {beta} and radius {radius} "
                f"is above the largest supported bound {_MAX_TRUNCATION_BOUND}"
            )
        if l_max < bound:
            raise ValueError(
                f"l_max {l_max} is below the truncation bound {bound} "
                f"for beta {beta} and radius {radius}"
            )
    return radius, betas


def sphere_spectral_check(
    dimension: int = 3,
    radius: int | float | str | Fraction = 1,
    beta: float | str | Fraction = Fraction(1, 100),
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
        return error_report(name, tolerance, str(error))
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
        return error_report(name, tolerance, _arithmetic_detail(dimension, error))
    expected = {"relative_deviation": f"<= {tolerance:.1e}"}
    actual = {
        "relative_deviation": f"{deviation:.3e}",
        "normalized_amplitude": f"{normalized:.12f}",
        "series_reference": f"{reference:.12f}",
    }
    return finish_report(
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
    dimension: int = 3, radius: int | float | str | Fraction = 1, l_max: int = 1000
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
        return error_report(name, band, str(error))
    deviations = []
    details = [f"dimension {dimension}, radius {radius}, l_max {l_max}"]
    try:
        for beta in betas:
            deviation = _spectral_deviation_float(dimension, radius, beta, l_max)[0]
            if deviation < _DOUBLE_FLOOR:
                deviation = _spectral_deviation_decimal(dimension, radius, beta, l_max)[0]
                details.append(f"beta {beta} recomputed at 50 digits")
                if deviation < _DECIMAL_FLOOR:
                    return error_report(
                        name,
                        band,
                        f"the deviation at beta {beta} is below the 50-digit "
                        "precision floor, so the scaling ratio is undefined",
                    )
            deviations.append(deviation)
    except ArithmeticError as error:
        return error_report(name, band, _arithmetic_detail(dimension, error))
    low, high = _SCALING_BAND
    expected: dict[str, str] = {}
    actual: dict[str, str] = {}
    ok = True
    for index in range(len(betas) - 1):
        ratio = deviations[index] / deviations[index + 1]
        key = f"ratio[{float(betas[index]):g}/{float(betas[index + 1]):g}]"
        expected[key] = f"in [{low:g}, {high:g}]"
        actual[key] = f"{ratio:.3f}"
        ok = ok and low <= ratio <= high
    for beta, deviation in zip(betas, deviations):
        actual[f"deviation[{float(beta):g}]"] = f"{deviation:.3e}"
    return finish_report(name, expected, actual, tolerance=band, details=details, ok=ok)


# ---------------------------------------------------------------------------
# zeta-regularized series
# ---------------------------------------------------------------------------

ZETA_AT_NEGATIVE_INTEGERS: dict[int, Fraction] = {
    0: Fraction(-1, 2),
    1: Fraction(-1, 12),
    2: Fraction(0),
    3: Fraction(1, 120),
}


def _poly_in_level_mul(
    left: dict[int, Fraction], right: dict[int, Fraction]
) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + ca * cb
    return out


def _regularized_sum(coefficients: dict[int, Fraction]) -> Fraction:
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
    c1, c2 = _series_reference_coefficients(3, Fraction(1))
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
    return finish_report(
        "zeta_series",
        expected,
        actual,
        details=("coefficients are of the series (2 r^2 / beta) "
                 "(1 + c1 beta/r^2 + c2 beta^2/r^4)",),
    )

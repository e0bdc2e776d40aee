"""Measure cancellation: the divergent grade of each weighted ring against the
square-root measure of the weighted kinetic operator, order by order."""

from __future__ import annotations

from fractions import Fraction

from .integration import _ring_chain
from .polynomials import Poly
from .reports import CheckReport, finish_report
from .values import RegValue


# ---------------------------------------------------------------------------
# measure cancellation
# ---------------------------------------------------------------------------


# Kinetic weights 1 + u p(tau): each rational one-variable profile p,
# keyed by its formula.
PROFILES: dict[str, Poly] = {
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
        raise ValueError(
            "the ring expansion is implemented through order u^8: "
            f"the max order must be in 1..8, got {max_order}"
        )
    expected: dict[str, str] = {}
    actual: dict[str, str] = {}
    power = Poly.const(1, Fraction(1))
    for n, ring in enumerate(_ring_chain(density, max_order), 1):
        power = power * density
        prefactor = Fraction((-1) ** n, 2 * n)
        divergent = ring.grade(1) * prefactor
        measure = RegValue.delta0() * power.integrate_cube() * prefactor
        expected[f"u^{n}"] = measure.text()
        actual[f"u^{n}"] = divergent.text()
    return finish_report(
        f"measure_cancellation[{profile}]",
        expected,
        actual,
        details=(f"profile {profile}",),
    )

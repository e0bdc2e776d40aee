"""The full expansion of a propagator product into canonical terms.

``worldline.integration.integrate_product`` multiplies the factors in one
at a time and integrates variables out on the way, so it never lists the
expanded terms.  The tests keep the full expansion: it states what the
pieces of ``worldline.integrands`` mean when multiplied out, and, summed
term by term, it is the oracle the one-factor-at-a-time route must match.
"""

from __future__ import annotations

from fractions import Fraction

from worldline.integrands import (
    IntegrandTerm,
    SingularAtom,
    _expand_factor,
    _grade_pieces,
    canonicalize,
)
from worldline.propagators import Kind
from worldline.values import RegValue


def product(
    factors: list[tuple[Kind, int, int]],
    nvars: int,
    coefficient: RegValue | int | Fraction = 1,
    extra_atoms: tuple[SingularAtom, ...] = (),
) -> list[IntegrandTerm]:
    """Expand a product of propagator factors into canonical integrand terms.

    ``extra_atoms`` join the expansion before the atoms merge; this matters
    because an even eps power may only be simplified away when no delta on
    the same pair is present.
    """
    if not isinstance(coefficient, RegValue):
        coefficient = RegValue.rational(coefficient)
    pieces = _grade_pieces(coefficient, nvars, extra_atoms)
    for kind, i, j in factors:
        expanded = _expand_factor(kind, i, j, nvars)
        pieces = [
            (k1 + k2, p1 * p2, a1 + a2)
            for (k1, p1, a1) in pieces
            for (k2, p2, a2) in expanded
        ]
    return canonicalize([IntegrandTerm(k, nvars, p, a) for (k, p, a) in pieces])

"""The full expansion of a propagator product into canonical terms.

``worldline.integration.integrate_product`` multiplies the factors in one
at a time and integrates variables out on the way, so it never lists the
expanded terms.  The tests keep the full expansion and the term-by-term
route that integrates it: they state what the pieces of
``worldline.integration`` mean when multiplied out, and they are the oracle
the one-factor-at-a-time route must match.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from worldline.integration import (
    DIMREG,
    RuleSet,
    SingularAtom,
    _expand_factor,
    _grade_pieces,
    _merge_atoms,
    integrate_term,
)
from worldline.values import Poly, RegValue


class IntegrandTerm(namedtuple("IntegrandTerm", "delta0 nvars poly atoms")):
    """delta0 to the power ``delta0``, times ``poly``, times the atoms.

    Beta and the rationals live in ``poly``.  The atoms are stored merged
    and sorted, because delta collapse depends on their order.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> IntegrandTerm:
        self = super().__new__(cls, *args, **kwargs)
        if self.delta0 < 0:
            raise ValueError("delta0 power must be non-negative")
        if self.poly.nvars != self.nvars:
            raise ValueError("polynomial variable count does not match nvars")
        for atom in self.atoms:
            if atom.j >= self.nvars:
                raise ValueError("atom refers to a variable outside the term")
        return self._replace(atoms=_merge_atoms(self.atoms))


def canonicalize(terms: list[IntegrandTerm]) -> list[IntegrandTerm]:
    """Combine terms with the same atoms and delta0 grade by adding polynomials."""
    buckets: dict[tuple[int, int, tuple[SingularAtom, ...]], Poly] = {}
    for term in terms:
        key = (term.nvars, term.delta0, term.atoms)
        buckets[key] = buckets[key] + term.poly if key in buckets else term.poly
    out = []
    for (nvars, delta0, atoms), poly in sorted(buckets.items()):
        if poly:
            # The atoms are merged already; the constructor would merge them again.
            out.append(IntegrandTerm._make((delta0, nvars, poly, atoms)))
    return out


def product(
    factors: list[tuple[str, int, int]],
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
    pieces = [(k, poly, extra_atoms) for k, poly, _ in _grade_pieces(coefficient, nvars)]
    for kind, i, j in factors:
        expanded = _expand_factor(kind, i, j, nvars)
        pieces = [
            (k1 + k2, p1 * p2, a1 + a2)
            for (k1, p1, a1) in pieces
            for (k2, p2, a2) in expanded
        ]
    return canonicalize([IntegrandTerm(k, nvars, p, a) for (k, p, a) in pieces])


def integrate(
    terms: list[IntegrandTerm],
    rules: RuleSet = DIMREG,
    notes: list[str] | None = None,
) -> RegValue:
    """Exact integral of the given terms over [0, beta]**n.

    Each term is one partial state of ``integrate_term`` with every
    variable still open.
    """
    total = RegValue.zero()
    for term in terms:
        state = (term.delta0, term.atoms, (True,) * term.nvars)
        total = total + integrate_term(state, term.poly, rules, notes)
    return total

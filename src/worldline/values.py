"""Exact value ring for regularized one-dimensional integrals.

Every integral computed by this package lands in the ring of polynomials in
the interval length ``beta`` (any integer power) and the formal coincidence
symbol ``delta0`` standing for delta(0) (non-negative powers), with rational
coefficients.  ``delta0`` is never assigned a number; it is carried
algebraically until it cancels or is reported as a divergent grade.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add
from typing import Union

Rational = Union[int, Fraction]

# A term key is (beta_power, delta0_power).
Key = tuple[int, int]


# -- the sparse kernel ----------------------------------------------------------
#
# Both exact rings of the package, RegValue here and Poly in polynomials.py,
# store a dict from flat integer exponent tuples to nonzero Fractions.  These
# three functions are their only addition and multiplication loops.


def merge(acc: dict, items: Iterable[tuple[tuple[int, ...], Fraction]]) -> dict:
    """Add (key, coeff) pairs into ``acc``, dropping keys that cancel."""
    for key, coeff in items:
        if key in acc:
            total = acc[key] + coeff
            if total:
                acc[key] = total
            else:
                del acc[key]
        elif coeff:
            acc[key] = coeff
    return acc


def add_terms(left: dict, right: dict) -> dict:
    return merge(dict(left), right.items())


def mul_terms(left: dict, right: dict) -> dict:
    """Product of two term dicts: keys add entrywise, coefficients multiply."""
    return merge(
        {},
        (
            (tuple(map(add, k1, k2)), c1 * c2)
            for k1, c1 in left.items()
            for k2, c2 in right.items()
        ),
    )


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class RegValue:
    """Element of the exact ring Q[beta, 1/beta, delta0]."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Key, Rational] | Iterable[tuple[Key, Rational]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for (beta_pow, delta0_pow), coeff in items:
            if delta0_pow < 0:
                raise ValueError("delta0 power must be non-negative")
            checked.append(((int(beta_pow), int(delta0_pow)), _as_fraction(coeff)))
        self._terms = merge({}, checked)

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, value: Rational) -> "RegValue":
        return cls({(0, 0): value})

    @classmethod
    def term(cls, coeff: Rational, beta_power: int = 0, delta0_power: int = 0) -> "RegValue":
        return cls({(beta_power, delta0_power): coeff})

    @classmethod
    def beta(cls, power: int = 1, coeff: Rational = 1) -> "RegValue":
        return cls({(power, 0): coeff})

    @classmethod
    def delta0(cls, power: int = 1, coeff: Rational = 1) -> "RegValue":
        return cls({(0, power): coeff})

    @classmethod
    def zero(cls) -> "RegValue":
        return _make({})

    @classmethod
    def one(cls) -> "RegValue":
        return _make({(0, 0): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RegValue | Rational") -> "RegValue":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> "RegValue":
        return _make({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "RegValue | Rational") -> "RegValue":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RegValue | Rational") -> "RegValue":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "RegValue | Rational") -> "RegValue":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "RegValue":
        factor = _as_fraction(other)
        if factor == 0:
            raise ZeroDivisionError("division of a RegValue by zero")
        return _make({key: coeff / factor for key, coeff in self._terms.items()})

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RegValue.rational(other)
        if not isinstance(other, RegValue):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- structure access ---------------------------------------------------

    def items(self) -> list[tuple[Key, Fraction]]:
        """Terms sorted ascending by (beta_power, delta0_power)."""
        return sorted(self._terms.items())

    def coefficient(self, beta_power: int = 0, delta0_power: int = 0) -> Fraction:
        return self._terms.get((beta_power, delta0_power), Fraction(0))

    def grade(self, delta0_power: int) -> "RegValue":
        """The part of the value proportional to delta0**delta0_power."""
        return _make({key: c for key, c in self._terms.items() if key[1] == delta0_power})

    def finite_part(self) -> "RegValue":
        return self.grade(0)

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering, e.g. ``1/24 * beta`` or ``0``.

        Terms are sorted ascending by (beta_power, delta0_power); power-one
        factors print without an exponent and power-zero factors are omitted.
        """
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for (beta_pow, delta0_pow), coeff in self.items():
            factors: list[str] = []
            if beta_pow == 1:
                factors.append("beta")
            elif beta_pow != 0:
                factors.append(f"beta^{beta_pow}")
            if delta0_pow == 1:
                factors.append("delta0")
            elif delta0_pow != 0:
                factors.append(f"delta0^{delta0_pow}")
            magnitude = " * ".join([str(abs(coeff))] + factors)
            if not pieces:
                sign = "-" if coeff < 0 else ""
                pieces.append(sign + magnitude)
            else:
                joiner = " - " if coeff < 0 else " + "
                pieces.append(joiner + magnitude)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"RegValue({self.text()!r})"


def _coerce(value: "RegValue | Rational") -> "RegValue":
    if isinstance(value, RegValue):
        return value
    if isinstance(value, (int, Fraction)):
        return RegValue.rational(value)
    return NotImplemented


def _make(terms: dict[Key, Fraction]) -> RegValue:
    """Wrap a dict whose coefficients are all nonzero."""
    out = RegValue.__new__(RegValue)
    out._terms = terms
    return out

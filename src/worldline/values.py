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
from math import gcd, lcm
from operator import add

Rational = int | Fraction

# A term key is (beta_power, delta0_power).
Key = tuple[int, int]


# -- the sparse kernel ----------------------------------------------------------
#
# Both exact rings of the package, RegValue here and Poly in polynomials.py,
# subclass ``_Sparse``: a dict from flat integer exponent tuples to nonzero
# int numerators over one positive int denominator, with the ring operators
# written once.  Sums and products stay in int arithmetic and leave any
# common factor in place.  It is divided out where a value leaves the
# kernel: by ``_reduce`` for comparison, hashing, grades and integrals, and
# by the Fraction constructor for coefficients and rendering.  Fractions
# enter through the constructors and appear again only there.


def merge(acc: dict, items: Iterable[tuple[tuple[int, ...], int]]) -> dict:
    """Add (key, numerator) pairs into ``acc``, dropping keys that cancel."""
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


def _reduce(terms: dict, den: int) -> tuple[dict, int]:
    """The same value with the numerators and the denominator coprime."""
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {key: coeff // g for key, coeff in terms.items()}, den // g


def _checked(value: Rational) -> Rational:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class _Sparse:
    """Ring operators over int numerators (``_terms``) and one denominator (``_den``).

    A subclass supplies ``_wrap``, which makes a result of its own shape
    from a numerator dict and a denominator, and ``_unit_key``, the
    exponent tuple of its constant term.  Keys of one element all have
    that length; the first exponent is the power of beta, and only it may
    be negative.  Two elements combine only when their unit keys agree.
    """

    __slots__ = ("_terms", "_den")

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], Rational] | Iterable[tuple[tuple[int, ...], Rational]] = (),
    ) -> None:
        """Store (key, int or Fraction) pairs as numerators over the lcm of their denominators."""
        width = len(self._unit_key())
        items = []
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            key = tuple(key)
            for e in key:
                if not isinstance(e, int):
                    raise TypeError(f"expected an int exponent, got {type(e).__name__}")
            if len(key) != width:
                raise ValueError(f"expected {width} exponents, got {len(key)}")
            if any(e < 0 for e in key[1:]):
                raise ValueError("only the beta power may be negative")
            items.append((key, _checked(coeff)))
        den = lcm(*(coeff.denominator for _, coeff in items))
        self._terms = merge({}, ((key, c.numerator * (den // c.denominator)) for key, c in items))
        self._den = den

    def _coerce(self, value: object) -> _Sparse:
        """``value`` as an element of this one's shape, or NotImplemented."""
        if type(value) is type(self):
            if value._unit_key() != self._unit_key():
                raise ValueError("polynomials over different variable counts")
            return value
        if isinstance(value, (int, Fraction)):
            terms = {self._unit_key(): value.numerator} if value else {}
            return self._wrap(terms, value.denominator)
        return NotImplemented

    def __add__(self, other: _Sparse | Rational) -> _Sparse:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        left, lden, right, rden = self._terms, self._den, other._terms, other._den
        if lden == rden:
            return self._wrap(merge(dict(left), right.items()), lden)
        g = gcd(lden, rden)
        lscale, rscale = rden // g, lden // g
        scaled = {key: coeff * lscale for key, coeff in left.items()}
        return self._wrap(
            merge(scaled, ((key, coeff * rscale) for key, coeff in right.items())), lden * lscale
        )

    __radd__ = __add__

    def __neg__(self) -> _Sparse:
        return self._wrap({key: -coeff for key, coeff in self._terms.items()}, self._den)

    def __sub__(self, other: _Sparse | Rational) -> _Sparse:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: _Sparse | Rational) -> _Sparse:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: _Sparse | Rational) -> _Sparse:
        """Keys add entrywise, numerators and denominators multiply."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        products = (
            (tuple(map(add, k1, k2)), c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()
        )
        return self._wrap(merge({}, products), self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        elif type(other) is not type(self):
            return NotImplemented
        same = _reduce(self._terms, self._den) == _reduce(other._terms, other._den)
        return same and self._unit_key() == other._unit_key()

    def __hash__(self) -> int:
        terms, den = _reduce(self._terms, self._den)
        return hash((den, frozenset(terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)


class RegValue(_Sparse):
    """Element of the exact ring Q[beta, 1/beta, delta0]."""

    __slots__ = ()

    @staticmethod
    def _unit_key() -> Key:
        return (0, 0)

    @staticmethod
    def _wrap(terms: dict[Key, int], den: int) -> RegValue:
        """Wrap a dict of nonzero numerators over the positive denominator ``den``."""
        out = RegValue.__new__(RegValue)
        out._terms = terms
        out._den = den
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, value: Rational) -> RegValue:
        return cls({(0, 0): value})

    @classmethod
    def term(cls, coeff: Rational, beta_power: int = 0, delta0_power: int = 0) -> RegValue:
        return cls({(beta_power, delta0_power): coeff})

    @classmethod
    def beta(cls, power: int = 1, coeff: Rational = 1) -> RegValue:
        return cls({(power, 0): coeff})

    @classmethod
    def delta0(cls, power: int = 1, coeff: Rational = 1) -> RegValue:
        return cls({(0, power): coeff})

    @classmethod
    def zero(cls) -> RegValue:
        return cls._wrap({}, 1)

    @classmethod
    def one(cls) -> RegValue:
        return cls._wrap({(0, 0): 1}, 1)

    def __truediv__(self, other: Rational) -> RegValue:
        if _checked(other) == 0:
            raise ZeroDivisionError("division of a RegValue by zero")
        return self * RegValue.rational(Fraction(other.denominator, other.numerator))

    # -- structure access ---------------------------------------------------

    def items(self) -> list[tuple[Key, Fraction]]:
        """Terms sorted ascending by (beta_power, delta0_power)."""
        return sorted((key, Fraction(coeff, self._den)) for key, coeff in self._terms.items())

    def grade(self, delta0_power: int) -> RegValue:
        """The part of the value proportional to delta0**delta0_power."""
        terms = {key: c for key, c in self._terms.items() if key[1] == delta0_power}
        return self._wrap(*_reduce(terms, self._den))

    def finite_part(self) -> RegValue:
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


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

Rational = int | Fraction

# A term key is (beta_power, delta0_power).
Key = tuple[int, int]


# -- the sparse kernel ----------------------------------------------------------
#
# Both exact rings of the package, RegValue here and Poly in polynomials.py,
# subclass ``_Sparse``: a dict from packed int keys to nonzero int numerators
# over one positive int denominator, with the ring operators written once.
# The key of an exponent tuple (beta, e_0, ..., e_{n-1}) holds each e_v in a
# ``_FIELD_BITS``-bit field, e_0 highest, and the signed beta power above
# them, so a product's key is the sum of its factors' keys and keys order as
# their tuples.  ``_top`` bounds the sum of the e_v of every key, so each
# field: an operation that can raise it (a product, an integral up to a
# variable) checks the bound in O(1) and raises OverflowError rather than
# let a field carry into the next.  Sums and products stay in int arithmetic
# and leave any common factor in place.  It is divided out where a value
# leaves the kernel: by ``_reduce`` for comparison, hashing, grades and
# integrals, and by the Fraction constructor for coefficients and rendering.
# Fractions and exponent tuples appear only in constructors and readers.

_FIELD_BITS = 16
_FIELD_MAX = (1 << _FIELD_BITS) - 1


def merge(acc: dict, items: Iterable[tuple[int, int]]) -> dict:
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


def _bounded(top: int) -> int:
    """``top`` if every field can hold it; else OverflowError."""
    if top > _FIELD_MAX:
        raise OverflowError(f"an exponent sum of {top} does not fit a {_FIELD_BITS}-bit key field")
    return top


class _Sparse:
    """Ring operators over int numerators (``_terms``) and one denominator (``_den``).

    A subclass supplies ``nvars``, the number of unsigned exponents after
    beta, and ``_wrap``, which makes a result of its own shape from a
    numerator dict, a denominator and a ``_top``.  Two elements combine only
    when their ``nvars`` agree.
    """

    __slots__ = ("_terms", "_den", "_top")

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], Rational] | Iterable[tuple[tuple[int, ...], Rational]] = (),
    ) -> None:
        """Store (exponent tuple, int or Fraction) pairs as numerators over the lcm of their denominators."""
        width = self.nvars + 1
        items = []
        top = 0
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            key = tuple(key)
            for e in key:
                if not isinstance(e, int):
                    raise TypeError(f"expected an int exponent, got {type(e).__name__}")
            if len(key) != width:
                raise ValueError(f"expected {width} exponents, got {len(key)}")
            if any(e < 0 for e in key[1:]):
                raise ValueError("only the beta power may be negative")
            top = max(top, sum(key[1:]))
            packed = key[0]
            for e in key[1:]:
                packed = packed << _FIELD_BITS | e
            items.append((packed, _checked(coeff)))
        den = lcm(*(coeff.denominator for _, coeff in items))
        self._terms = merge({}, ((key, c.numerator * (den // c.denominator)) for key, c in items))
        self._den = den
        self._top = _bounded(top)

    def _coerce(self, value: object) -> _Sparse:
        """``value`` as an element of this one's shape, or NotImplemented."""
        if type(value) is type(self):
            if value.nvars != self.nvars:
                raise ValueError("polynomials over different variable counts")
            return value
        if isinstance(value, (int, Fraction)):
            return self._wrap({0: value.numerator} if value else {}, value.denominator, 0)
        return NotImplemented

    def __add__(self, other: _Sparse | Rational) -> _Sparse:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        left, lden, right, rden = self._terms, self._den, other._terms, other._den
        top = max(self._top, other._top)
        if lden == rden:
            return self._wrap(merge(dict(left), right.items()), lden, top)
        g = gcd(lden, rden)
        lscale, rscale = rden // g, lden // g
        scaled = {key: coeff * lscale for key, coeff in left.items()}
        return self._wrap(
            merge(scaled, ((key, coeff * rscale) for key, coeff in right.items())), lden * lscale, top
        )

    __radd__ = __add__

    def __neg__(self) -> _Sparse:
        return self._wrap({key: -coeff for key, coeff in self._terms.items()}, self._den, self._top)

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
        """Keys add, numerators and denominators multiply."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        top = _bounded(self._top + other._top)
        products = (
            (k1 + k2, c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()
        )
        return self._wrap(merge({}, products), self._den * other._den, top)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        elif type(other) is not type(self):
            return NotImplemented
        same = _reduce(self._terms, self._den) == _reduce(other._terms, other._den)
        return same and self.nvars == other.nvars

    def __hash__(self) -> int:
        terms, den = _reduce(self._terms, self._den)
        if terms.keys() <= {0}:
            # A constant equals the rational it holds, so it hashes as one.
            return hash(Fraction(terms.get(0, 0), den))
        return hash((den, frozenset(terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)


class RegValue(_Sparse):
    """Element of the exact ring Q[beta, 1/beta, delta0]."""

    __slots__ = ()

    # delta0 is the one unsigned exponent: a key packs (beta, delta0) as a
    # one-variable Poly packs (beta, e_0).
    nvars = 1

    @staticmethod
    def _wrap(terms: dict[int, int], den: int, top: int) -> RegValue:
        """Wrap a dict of nonzero numerators over the positive denominator ``den``."""
        out = RegValue.__new__(RegValue)
        out._terms = terms
        out._den = den
        out._top = top
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
        return cls._wrap({}, 1, 0)

    @classmethod
    def one(cls) -> RegValue:
        return cls._wrap({0: 1}, 1, 0)

    def __truediv__(self, other: Rational) -> RegValue:
        if _checked(other) == 0:
            raise ZeroDivisionError("division of a RegValue by zero")
        return self * RegValue.rational(Fraction(other.denominator, other.numerator))

    # -- structure access ---------------------------------------------------

    def items(self) -> list[tuple[Key, Fraction]]:
        """Terms sorted ascending by (beta_power, delta0_power)."""
        terms, den = self._terms, self._den
        return [((key >> _FIELD_BITS, key & _FIELD_MAX), Fraction(terms[key], den)) for key in sorted(terms)]

    def grade(self, delta0_power: int) -> RegValue:
        """The part of the value proportional to delta0**delta0_power."""
        terms = {key: c for key, c in self._terms.items() if key & _FIELD_MAX == delta0_power}
        return self._wrap(*_reduce(terms, self._den), self._top)

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


"""Exact rings for regularized one-dimensional integrals.

Every integral computed by this package lands in the ring of polynomials in
the interval length ``beta`` (any integer power) and the formal coincidence
symbol ``delta0`` standing for delta(0) (non-negative powers), with rational
coefficients: a ``RegValue``.  ``delta0`` is never assigned a number; it is
carried algebraically until it cancels or is reported as a divergent grade.

The integrands are ``Poly``s, polynomials in ``nvars`` time variables with
coefficients in Q[beta, 1/beta].  Monomials are read and written as the flat
exponent tuple (beta_power, e_0, ..., e_{nvars-1}), and both rings share one
sparse kernel: int numerators over one shared denominator, keyed by the tuple
packed into one int.  All integration in the package reduces to two exact
primitives on these polynomials: integration of each variable independently
over [0, beta], and integration over an ordered sector
tau_{s1} < tau_{s2} < ... < tau_{sn}.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

Rational = int | Fraction

# A term key is (beta_power, delta0_power).
Key = tuple[int, int]

# Monomial key: (beta_power, exponent of variable 0, ..., of variable n-1).
Monomial = tuple[int, ...]


# -- the sparse kernel ----------------------------------------------------------
#
# Both exact rings of the package, RegValue and Poly below, subclass
# ``_Sparse``: a dict from packed int keys to nonzero int numerators over
# one positive int denominator, with the ring operators written once.
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


def _merge(acc: dict, items: Iterable[tuple[int, int]]) -> dict:
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
        terms: Mapping[Monomial, Rational] | Iterable[tuple[Monomial, Rational]] = (),
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
        self._terms = _merge({}, ((key, c.numerator * (den // c.denominator)) for key, c in items))
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
            return self._wrap(_merge(dict(left), right.items()), lden, top)
        g = gcd(lden, rden)
        lscale, rscale = rden // g, lden // g
        scaled = {key: coeff * lscale for key, coeff in left.items()}
        return self._wrap(
            _merge(scaled, ((key, coeff * rscale) for key, coeff in right.items())), lden * lscale, top
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
        return self._wrap(_merge({}, products), self._den * other._den, top)

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
        return [(_unpack(key, 1), Fraction(terms[key], den)) for key in sorted(terms)]

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


def _shift(nvars: int, v: int) -> int:
    """Bit offset of variable ``v``'s field in a packed key; ``v`` -1 is beta."""
    return _FIELD_BITS * (nvars - 1 - v)


def _unpack(key: int, nvars: int) -> Monomial:
    """The exponent tuple of a packed key with ``nvars`` unsigned fields."""
    return (key >> _shift(nvars, -1), *(key >> _shift(nvars, v) & _FIELD_MAX for v in range(nvars)))


class Poly(_Sparse):
    __slots__ = ("nvars",)

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Monomial, Rational] | Iterable[tuple[Monomial, Rational]] = (),
    ) -> None:
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = nvars
        super().__init__(terms)

    def _wrap(self, terms: dict[int, int], den: int, top: int) -> Poly:
        return _make(self.nvars, terms, den, top)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, nvars: int, coeff: Rational, beta_power: int = 0) -> Poly:
        if type(coeff) is int and coeff and nvars >= 0 and type(beta_power) is int:  # a numerator over 1
            return _make(nvars, {beta_power << _shift(nvars, -1): coeff}, 1, 0)
        return cls(nvars, {(beta_power,) + (0,) * nvars: coeff})

    @classmethod
    def monomial(
        cls, nvars: int, coeff: Rational, beta_power: int, exps: Sequence[int]
    ) -> Poly:
        return cls(nvars, {(beta_power, *exps): coeff})

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars}, terms={sorted(self.terms().items())})"

    def terms(self) -> dict[Monomial, Fraction]:
        return {_unpack(key, self.nvars): Fraction(coeff, self._den) for key, coeff in self._terms.items()}

    # -- variable manipulation ------------------------------------------------

    def depends_on(self, index: int) -> bool:
        field = _FIELD_MAX << _shift(self.nvars, index)
        return any(key & field for key in self._terms)

    def remap(self, targets: Sequence[int | None], nvars: int) -> Poly:
        """Move variable v to slot ``targets[v]`` of an ``nvars``-variable poly.

        Variables sent to one slot multiply, so their exponents add; their
        sum is bounded like any key's, so no field overflows.  A ``None``
        target drops a variable the polynomial must not depend on.
        """
        if len(targets) != self.nvars:
            raise ValueError("remap needs one target per variable")
        if nvars == self.nvars and list(targets) == list(range(nvars)):
            return self  # no Poly is changed in place, so the identity can be shared
        moves = []
        for v, target in enumerate(targets):
            if target is None:
                if self.depends_on(v):
                    raise ValueError("cannot drop a variable the polynomial depends on")
            elif 0 <= target < nvars:
                moves.append((_shift(self.nvars, v), _shift(nvars, target)))
            else:
                raise ValueError(f"remap target {target} is outside {nvars} variables")
        beta_in, beta_out = _shift(self.nvars, -1), _shift(nvars, -1)

        def move(key: int) -> int:
            new = key >> beta_in << beta_out
            for source, slot in moves:
                new += (key >> source & _FIELD_MAX) << slot
            return new

        terms = _merge({}, ((move(k), c) for k, c in self._terms.items()))
        return _make(nvars, terms, self._den, self._top)

    # -- exact integration --------------------------------------------------------

    def integrate_cube(self) -> RegValue:
        """Integrate every variable independently over [0, beta]."""
        terms, den, nvars = self._terms, self._den, self.nvars
        for v in range(nvars):
            terms, den = _integrate_step(terms, den, _shift(nvars, v), _shift(nvars, -1))
        return _closed(terms, den, nvars)

    def integrate_out(self, index: int) -> Poly:
        """Integrate variable ``index`` over [0, beta]; the result no longer depends on it."""
        nvars = self.nvars
        terms, den = _integrate_step(self._terms, self._den, _shift(nvars, index), _shift(nvars, -1))
        return _make(nvars, terms, den, self._top)

    def integrate_sector(self, order: Sequence[int]) -> RegValue:
        """Integrate over 0 < tau_{order[0]} < tau_{order[1]} < ... < beta.

        ``order`` must list every variable exactly once, smallest first.
        """
        if sorted(order) != list(range(self.nvars)):
            raise ValueError("order must be a permutation of all variables")
        terms, den, nvars = self._terms, self._den, self.nvars
        # Integrate variables from the innermost (smallest) outwards; each
        # integral runs from 0 to the next variable in the ordering, which
        # raises the exponent sum by one, the last from 0 to beta.
        _bounded(self._top + nvars - 1)
        for pos, var in enumerate(order):
            upper = order[pos + 1] if pos + 1 < len(order) else -1
            terms, den = _integrate_step(terms, den, _shift(nvars, var), _shift(nvars, upper))
        return _closed(terms, den, nvars)


def _closed(terms: dict[int, int], den: int, nvars: int) -> RegValue:
    """A polynomial with every variable integrated out, as a reduced RegValue."""
    beta = _shift(nvars, -1)
    return RegValue._wrap(*_reduce({key >> beta << _FIELD_BITS: coeff for key, coeff in terms.items()}, den), 0)


def _integrate_step(terms: dict[int, int], den: int, field: int, upper: int) -> tuple[dict, int]:
    """Integrate the exponent at bit offset ``field`` from 0 to the one at ``upper``.

    Each term divides by its new exponent; the numerators are scaled to the
    lcm of those divisors, which multiplies the denominator.  The caller
    checks that the field at ``upper`` can take the raised exponent.
    """
    scale = lcm(*{(key >> field & _FIELD_MAX) + 1 for key in terms})
    items = []
    for key, coeff in terms.items():
        e = (key >> field & _FIELD_MAX) + 1
        items.append((key - (e - 1 << field) + (e << upper), coeff * (scale // e)))
    return _merge({}, items), den * scale


def _make(nvars: int, terms: dict[int, int], den: int, top: int) -> Poly:
    """Wrap a dict of nonzero numerators over the positive denominator ``den``."""
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out._terms = terms
    out._den = den
    out._top = top
    return out

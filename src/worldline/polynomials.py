"""Exact polynomials in several time variables.

A ``Poly`` is a polynomial in ``nvars`` time variables with coefficients in
Q[beta, 1/beta].  Monomials are read and written as the flat exponent tuple
(beta_power, e_0, ..., e_{nvars-1}), and the arithmetic is the sparse kernel
of ``values``: int numerators over one shared denominator, keyed by the tuple
packed into one int.  All integration in the package reduces to two exact
primitives on these polynomials: integration of each variable independently
over [0, beta], and integration over an ordered sector
tau_{s1} < tau_{s2} < ... < tau_{sn}.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

from .values import _FIELD_BITS, _FIELD_MAX, RegValue, _bounded, _reduce, _Sparse, merge

Rational = int | Fraction

# Monomial key: (beta_power, exponent of variable 0, ..., of variable n-1).
Key = tuple[int, ...]


def _shift(nvars: int, v: int) -> int:
    """Bit offset of variable ``v``'s field in a packed key; ``v`` -1 is beta."""
    return _FIELD_BITS * (nvars - 1 - v)


class Poly(_Sparse):
    __slots__ = ("nvars",)

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Key, Rational] | Iterable[tuple[Key, Rational]] = (),
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

    def terms(self) -> dict[Key, Fraction]:
        out = {}
        for key, coeff in self._terms.items():
            exps = []
            for _ in range(self.nvars):
                exps.append(key & _FIELD_MAX)
                key >>= _FIELD_BITS
            out[(key, *reversed(exps))] = Fraction(coeff, self._den)
        return out

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

        terms = merge({}, ((move(k), c) for k, c in self._terms.items()))
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
    return merge({}, items), den * scale


def _make(nvars: int, terms: dict[int, int], den: int, top: int) -> Poly:
    """Wrap a dict of nonzero numerators over the positive denominator ``den``."""
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out._terms = terms
    out._den = den
    out._top = top
    return out

"""Exact polynomials in several time variables.

A ``Poly`` is a polynomial in ``nvars`` time variables with coefficients in
Q[beta, 1/beta].  Monomials are keyed by the flat exponent tuple
(beta_power, e_0, ..., e_{nvars-1}), and the arithmetic is the sparse kernel
of ``values``: int numerators over one shared denominator.  All integration
in the package reduces to two exact primitives on these polynomials:
integration of each variable independently over [0, beta], and integration
over an ordered sector tau_{s1} < tau_{s2} < ... < tau_{sn}.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

from .values import RegValue, _reduce, _Sparse, merge

Rational = int | Fraction

# Monomial key: (beta_power, exponent of variable 0, ..., of variable n-1).
Key = tuple[int, ...]


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

    def _unit_key(self) -> Key:
        return (0,) * (self.nvars + 1)

    def _wrap(self, terms: dict[Key, int], den: int) -> Poly:
        return _make(self.nvars, terms, den)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, nvars: int, coeff: Rational, beta_power: int = 0) -> Poly:
        if type(coeff) is int and coeff and nvars >= 0 and type(beta_power) is int:  # a numerator over 1
            return _make(nvars, {(beta_power,) + (0,) * nvars: coeff}, 1)
        return cls(nvars, {(beta_power,) + (0,) * nvars: coeff})

    @classmethod
    def monomial(
        cls, nvars: int, coeff: Rational, beta_power: int, exps: Sequence[int]
    ) -> Poly:
        return cls(nvars, {(beta_power, *exps): coeff})

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars}, terms={sorted(self.terms().items())})"

    def terms(self) -> dict[Key, Fraction]:
        return {key: Fraction(coeff, self._den) for key, coeff in self._terms.items()}

    # -- variable manipulation ------------------------------------------------

    def depends_on(self, index: int) -> bool:
        return any(key[index + 1] for key in self._terms)

    def remap(self, targets: Sequence[int | None], nvars: int) -> Poly:
        """Move variable v to slot ``targets[v]`` of an ``nvars``-variable poly.

        Variables sent to one slot multiply, so their exponents add.  A
        ``None`` target drops a variable the polynomial must not depend on.
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
                moves.append((v + 1, target + 1))
            else:
                raise ValueError(f"remap target {target} is outside {nvars} variables")

        def move(key: Key) -> Key:
            new = [key[0]] + [0] * nvars
            for source, slot in moves:
                new[slot] += key[source]
            return tuple(new)

        return _make(nvars, merge({}, ((move(k), c) for k, c in self._terms.items())), self._den)

    # -- exact integration --------------------------------------------------------

    def integrate_cube(self) -> RegValue:
        """Integrate every variable independently over [0, beta]."""
        terms, den = self._terms, self._den
        for slot in range(1, self.nvars + 1):
            terms, den = _integrate_step(terms, den, slot, 0)
        return _closed(terms, den)

    def integrate_out(self, index: int) -> Poly:
        """Integrate variable ``index`` over [0, beta]; the result no longer depends on it."""
        return _make(self.nvars, *_integrate_step(self._terms, self._den, index + 1, 0))

    def integrate_sector(self, order: Sequence[int]) -> RegValue:
        """Integrate over 0 < tau_{order[0]} < tau_{order[1]} < ... < beta.

        ``order`` must list every variable exactly once, smallest first.
        """
        if sorted(order) != list(range(self.nvars)):
            raise ValueError("order must be a permutation of all variables")
        terms, den = self._terms, self._den
        # Integrate variables from the innermost (smallest) outwards; each
        # integral runs from 0 to the next variable in the ordering, the last
        # from 0 to beta, whose exponent is slot 0 of the key.
        for pos, var in enumerate(order):
            upper = order[pos + 1] + 1 if pos + 1 < len(order) else 0
            terms, den = _integrate_step(terms, den, var + 1, upper)
        return _closed(terms, den)


def _closed(terms: dict[Key, int], den: int) -> RegValue:
    """A polynomial with every variable integrated out, as a reduced RegValue."""
    return RegValue._wrap(*_reduce({(key[0], 0): coeff for key, coeff in terms.items()}, den))


def _integrate_step(terms: dict[Key, int], den: int, slot: int, upper: int) -> tuple[dict, int]:
    """Integrate key slot ``slot`` from 0 to the variable in slot ``upper``.

    Slot 0 holds the power of beta, so ``upper`` 0 integrates up to beta.
    Each term divides by its new exponent; the numerators are scaled to the
    lcm of those divisors, which multiplies the denominator.
    """
    scale = lcm(*{key[slot] + 1 for key in terms})
    items = []
    for key, coeff in terms.items():
        e = key[slot] + 1
        new = list(key)
        new[slot] = 0
        new[upper] += e
        items.append((tuple(new), coeff * (scale // e)))
    return merge({}, items), den * scale


def _make(nvars: int, terms: dict[Key, int], den: int) -> Poly:
    """Wrap a dict of nonzero numerators over the positive denominator ``den``."""
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out._terms = terms
    out._den = den
    return out

"""Exact polynomials in several time variables.

A ``Poly`` is a polynomial in ``nvars`` time variables with coefficients in
Q[beta, 1/beta].  Monomials are keyed by the flat exponent tuple
(beta_power, e_0, ..., e_{nvars-1}), and the arithmetic is the sparse kernel
of ``values``.  All integration in the package reduces to two exact
primitives on these polynomials: integration of each variable independently
over [0, beta], and integration over an ordered sector
tau_{s1} < tau_{s2} < ... < tau_{sn}.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Union

from .values import RegValue, add_terms, merge, mul_terms

Rational = Union[int, Fraction]

# Monomial key: (beta_power, exponent of variable 0, ..., of variable n-1).
Key = tuple[int, ...]


class Poly:
    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Key, Rational] | Iterable[tuple[Key, Rational]] = (),
    ) -> None:
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for key, coeff in items:
            key = tuple(int(e) for e in key)
            if len(key) != nvars + 1:
                raise ValueError("exponent tuple length does not match nvars")
            if any(e < 0 for e in key[1:]):
                raise ValueError("variable exponents must be non-negative")
            checked.append((key, Fraction(coeff)))
        self.nvars = nvars
        self._terms = merge({}, checked)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, nvars: int, coeff: Rational, beta_power: int = 0) -> "Poly":
        return cls(nvars, {(beta_power,) + (0,) * nvars: coeff})

    @classmethod
    def monomial(
        cls, nvars: int, coeff: Rational, beta_power: int, exps: Sequence[int]
    ) -> "Poly":
        return cls(nvars, {(beta_power, *exps): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly | Rational") -> "Poly":
        return _make(self.nvars, add_terms(self._terms, self._coerce(other)._terms))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Poly | Rational") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Poly | Rational") -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        return _make(self.nvars, mul_terms(self._terms, self._coerce(other)._terms))

    __rmul__ = __mul__

    def _coerce(self, value: "Poly | Rational") -> "Poly":
        if isinstance(value, (int, Fraction)):
            return Poly.const(self.nvars, value)
        if not isinstance(value, Poly):
            raise TypeError(f"cannot combine Poly with {type(value).__name__}")
        if value.nvars != self.nvars:
            raise ValueError("polynomials over different variable counts")
        return value

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars}, terms={sorted(self._terms.items())})"

    def terms(self) -> dict[Key, Fraction]:
        return dict(self._terms)

    # -- variable manipulation ------------------------------------------------

    def depends_on(self, index: int) -> bool:
        return any(key[index + 1] for key in self._terms)

    def remap(self, targets: Sequence[int | None], nvars: int) -> "Poly":
        """Move variable v to slot ``targets[v]`` of an ``nvars``-variable poly.

        Variables sent to one slot multiply, so their exponents add.  A
        ``None`` target drops a variable the polynomial must not depend on.
        """
        if len(targets) != self.nvars:
            raise ValueError("remap needs one target per variable")
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

        return _make(nvars, merge({}, ((move(k), c) for k, c in self._terms.items())))

    def set_boundary(self, index: int, at_beta: bool) -> "Poly":
        """Pin tau_index to 0 or to beta (exponents convert to beta powers)."""
        slot = index + 1
        return _make(
            self.nvars,
            merge(
                {},
                (
                    ((key[0] + key[slot],) + key[1:slot] + (0,) + key[slot + 1 :], coeff)
                    for key, coeff in self._terms.items()
                    if at_beta or not key[slot]
                ),
            ),
        )

    def derivative(self, index: int) -> "Poly":
        slot = index + 1
        return _make(
            self.nvars,
            merge(
                {},
                (
                    (key[:slot] + (key[slot] - 1,) + key[slot + 1 :], coeff * key[slot])
                    for key, coeff in self._terms.items()
                    if key[slot]
                ),
            ),
        )

    # -- evaluation -------------------------------------------------------------

    def eval_float(self, taus: Sequence[float], beta: float) -> float:
        total = 0.0
        for (beta_pow, *exps), coeff in self._terms.items():
            term = float(coeff) * beta**beta_pow
            for tau, e in zip(taus, exps):
                if e:
                    term *= tau**e
            total += term
        return total

    # -- exact integration --------------------------------------------------------

    def integrate_cube(self) -> RegValue:
        """Integrate every variable independently over [0, beta]."""
        items = []
        for (power, *exps), value in self._terms.items():
            for e in exps:
                value /= e + 1
                power += e + 1
            items.append(((power, 0), value))
        return RegValue(items)

    def integrate_sector(self, order: Sequence[int]) -> RegValue:
        """Integrate over 0 < tau_{order[0]} < tau_{order[1]} < ... < beta.

        ``order`` must list every variable exactly once, smallest first.
        """
        if sorted(order) != list(range(self.nvars)):
            raise ValueError("order must be a permutation of all variables")
        terms = self._terms
        # Integrate variables from the innermost (smallest) outwards; each
        # integral runs from 0 to the next variable in the ordering, the last
        # from 0 to beta, whose exponent is slot 0 of the key.
        for pos, var in enumerate(order):
            slot = var + 1
            upper = order[pos + 1] + 1 if pos + 1 < len(order) else 0
            items = []
            for key, coeff in terms.items():
                e = key[slot] + 1
                new = list(key)
                new[slot] = 0
                new[upper] += e
                items.append((tuple(new), coeff / e))
            terms = merge({}, items)
        return RegValue(((key[0], 0), coeff) for key, coeff in terms.items())


def _make(nvars: int, terms: dict[Key, Fraction]) -> Poly:
    """Wrap a dict whose coefficients are all nonzero."""
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out._terms = terms
    return out

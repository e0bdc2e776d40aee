"""Products of propagator factors with their singular content made explicit.

A propagator factor is one of four kinds, each named by its text: the
two-point function of a free particle pinned to zero at both ends of
[0, beta], and its left, right, and mixed time derivatives:

    D(t, t')  = -eps(t - t')*(t - t')/2 + (t + t')/2 - t*t'/beta
    Dl(t, t') = -eps(t - t')/2 + 1/2 - t'/beta          (derivative on t)
    Dr(t, t') = +eps(t - t')/2 + 1/2 - t/beta           (derivative on t')
    DD(t, t') = delta(t - t') - 1/beta                  (one derivative each)

``eps`` is the sign function with eps(0) = 0, so the equal-time values of Dl
and Dr are the averages 1/2 - t/beta.  DD never has a pointwise value: its
delta part is kept as a singular atom and its equal-time substitute is the
formal combination ``EQUAL_TIME_DD`` = delta0 - 1/beta.

Each factor expands into pieces  delta0**k * poly(tau_1..tau_n) * product
of atoms, where each atom is a power of eps(tau_i - tau_j) or
delta(tau_i - tau_j); ``integration.integrate_product`` multiplies the
pieces of a product together and merges their atoms.  The text grammar
accepted by :func:`parse` writes products the way they are tabled, e.g.
``Dl(1,2)*Dr(1,2)*DD(1,2)`` with 1-based variable indices, rational
prefactors, and ``d0`` for an explicit delta(0).
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .polynomials import Poly
from .values import RegValue

# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


# Value types are ``collections.namedtuple`` subclasses, cheap to define at
# import.  A checked type runs its checks in ``__new__``; ``_make`` and
# ``_replace`` skip them, so they take only fields that are already valid.


class SingularAtom(namedtuple("SingularAtom", "kind i j power", defaults=(1,))):
    """A power of eps(tau_i - tau_j) or delta(tau_i - tau_j), with i < j.

    ``kind`` is "eps" or "delta"; ``power`` defaults to 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SingularAtom:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("eps", "delta"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if not 0 <= self.i < self.j:
            raise ValueError("atom arguments must satisfy 0 <= i < j")
        if self.power < 1:
            raise ValueError("atom power must be positive")
        return self


_Piece = tuple[int, Poly, tuple[SingularAtom, ...]]


# ---------------------------------------------------------------------------
# propagator kinds
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)

# Smooth part and eps-coefficient of each kind over (t, t'), keyed (beta, t,
# t') exponents: the docstring's closed forms.
_SMOOTH: dict[str, Poly] = {
    "D": Poly(2, {(0, 1, 0): _HALF, (0, 0, 1): _HALF, (-1, 1, 1): -1}),
    "Dl": Poly(2, {(0, 0, 0): _HALF, (-1, 0, 1): -1}),
    "Dr": Poly(2, {(0, 0, 0): _HALF, (-1, 1, 0): -1}),
    "DD": Poly(2, {(-1, 0, 0): -1}),
}

_EPS_COEFF: dict[str, Poly] = {
    "D": Poly(2, {(0, 1, 0): -_HALF, (0, 0, 1): _HALF}),
    "Dl": Poly(2, {(0, 0, 0): -_HALF}),
    "Dr": Poly(2, {(0, 0, 0): _HALF}),
    "DD": Poly(2),
}

# The formal equal-time value of DD, which has no pointwise one.
EQUAL_TIME_DD = RegValue.delta0() - RegValue.beta(-1)


def _grade_pieces(value: RegValue, nvars: int) -> list[_Piece]:
    """A ring value, one constant-polynomial piece per delta0 grade."""
    grades: dict[int, Poly] = {}
    for (beta_pow, delta0_pow), coeff in value.items():
        const = Poly.const(nvars, coeff, beta_pow)
        grades[delta0_pow] = grades[delta0_pow] + const if delta0_pow in grades else const
    return [(k, poly, ()) for k, poly in grades.items()]


def _expand_factor(kind: str, i: int, j: int, nvars: int) -> list[_Piece]:
    """One propagator factor as a sum of (delta0 power, poly, atoms) pieces.

    Equal arguments give the smooth part alone, since eps(0) = 0, with
    DD(i,i) becoming the formal substitute ``EQUAL_TIME_DD``.
    """
    if kind not in _SMOOTH:
        raise ValueError(f"unknown propagator kind {kind!r}")
    if i == j:
        if kind == "DD":
            return _grade_pieces(EQUAL_TIME_DD, nvars)
        return [(0, _SMOOTH[kind].remap((i, i), nvars), ())]

    lo, hi = (i, j) if i < j else (j, i)
    flip = i > j  # eps(tau_i - tau_j) = -eps(tau_lo - tau_hi) when i > j
    out: list[_Piece] = [(0, _SMOOTH[kind].remap((i, j), nvars), ())]
    eps_poly = _EPS_COEFF[kind].remap((i, j), nvars)
    if eps_poly:
        if flip:
            eps_poly = -eps_poly
        out.append((0, eps_poly, (SingularAtom._make(("eps", lo, hi, 1)),)))
    if kind == "DD":
        out.append((0, Poly.const(nvars, 1), (SingularAtom._make(("delta", lo, hi, 1)),)))
    return out


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def _merge_atoms(atoms: tuple[SingularAtom, ...]) -> tuple[SingularAtom, ...]:
    powers: dict[tuple[str, int, int], int] = {}
    for atom in atoms:
        key = (atom.kind, atom.i, atom.j)
        powers[key] = powers.get(key, 0) + atom.power
    delta_pairs = {(i, j) for (kind, i, j) in powers if kind == "delta"}
    merged: list[SingularAtom] = []
    for (kind, i, j), power in powers.items():
        if kind == "eps" and (i, j) not in delta_pairs:
            # Away from coincidence eps**2 = 1; with no delta on the same
            # pair the coincidence point has measure zero.
            if power % 2 == 0:
                continue
            power = 1
        merged.append(SingularAtom._make((kind, i, j, power)))
    return tuple(sorted(merged))


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<prop>DD|Dl|Dr|D)\((?P<i>\d+),(?P<j>\d+)\)"
    r"|(?P<d0>d0)(?:\^(?P<d0pow>\d+))?"
    r"|(?P<rat>\d+(?:/\d*[1-9]\d*)?)"
    r"|(?P<op>[+*-]))"
)


class ParsedProduct(namedtuple("ParsedProduct", "coefficient factors nvars")):
    """One summand of a parsed integrand: a RegValue, its (kind, i, j) factors, nvars."""

    __slots__ = ()


def parse(text: str) -> list[ParsedProduct]:
    """Parse sums of propagator products, e.g. ``Dl(1,2)*Dr(1,2)*DD(1,2)``.

    Each summand integrates over its own variables, so a sum may mix
    products with different variable counts.  Indices are 1-based in the
    text and remapped to a dense 0-based range per summand.
    """
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse integrand text at: {text[pos:]!r}")
        pos = match.end()
        if match["prop"]:
            tokens.append(("prop", (match["prop"], int(match["i"]), int(match["j"]))))
        elif match["d0"]:
            tokens.append(("d0", int(match["d0pow"] or 1)))
        elif match["rat"]:
            tokens.append(("rat", Fraction(match["rat"])))
        else:
            tokens.append(("op", match["op"]))
    if text[pos:].strip():
        raise ValueError(f"trailing input in integrand text: {text[pos:]!r}")

    products: list[ParsedProduct] = []
    sign = Fraction(1)
    current: list[tuple[str, object]] | None = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        coeff = RegValue.rational(sign)
        raw_factors: list[tuple[str, int, int]] = []
        for token_kind, payload in current:
            if token_kind == "rat":
                coeff = coeff * payload
            elif token_kind == "d0":
                coeff = coeff * RegValue.delta0(payload)
            else:
                raw_factors.append(payload)
        indices = sorted({idx for (_, i, j) in raw_factors for idx in (i, j)})
        remap = {orig: new for new, orig in enumerate(indices)}
        factors = tuple((k, remap[i], remap[j]) for (k, i, j) in raw_factors)
        products.append(ParsedProduct(coeff, factors, len(indices)))
        current = None

    expecting_factor = True
    for token_kind, payload in tokens:
        if token_kind == "op" and payload in "+-" and not expecting_factor:
            flush()
            sign = Fraction(1) if payload == "+" else Fraction(-1)
            expecting_factor = True
            continue
        if token_kind == "op":
            if payload == "*" and not expecting_factor:
                expecting_factor = True
                continue
            if payload == "-" and expecting_factor:
                sign = -sign
                continue
            raise ValueError(f"misplaced operator {payload!r} in integrand text")
        if current is None:
            current = []
        current.append((token_kind, payload))
        expecting_factor = False
    if expecting_factor and tokens:
        raise ValueError("integrand text ends with a dangling operator")
    flush()
    if not products:
        raise ValueError("empty integrand text")
    return products


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

# The recurring two-vertex integrals, written exactly as tabled.  Names with
# an R suffix denote the finite (delta0-free) grade of the base integral.
NAMED_INTEGRALS: dict[str, str] = {
    "I2": "D(1,1)*DD(1,2)*DD(1,2)*D(2,2)",
    "I4": "D(1,1)*Dl(1,2)*DD(1,2)*Dr(2,2)",
    "I6": "Dl(1,1)*D(1,2)*DD(1,2)*Dr(2,2)",
    "I7": "Dl(1,1)*Dl(1,2)*Dr(1,2)*Dr(2,2)",
    "I8": "D(1,2)*D(1,2)*DD(1,2)*DD(1,2)",
    "I9": "D(1,2)*Dl(1,2)*Dr(1,2)*DD(1,2)",
    "I10": "Dl(1,2)*Dl(1,2)*Dr(1,2)*Dr(1,2)",
    "I11": "DD(1,1)*D(1,2)*DD(2,2) - 2*d0*DD(1,1)*D(1,2) + d0^2*D(1,2)",
    "I12": "Dl(1,1)*Dl(1,2)*DD(2,2) - d0*Dl(1,1)*Dl(1,2)",
    "I13": "Dl(1,1)*Dr(2,2)*DD(1,2)",
    "I14": "Dl(1,2)*Dr(1,2)*DD(1,2)",
    "I15": "D(1,2)*DD(1,2)*DD(1,2)",
}

FINITE_ALIASES: dict[str, str] = {
    "I2R": "I2",
    "I8R": "I8",
    "I15R": "I15",
}


def named_integral_text(name: str) -> tuple[str, bool]:
    """Resolve a fixture name to (integrand text, finite_grade_only)."""
    if name in NAMED_INTEGRALS:
        return NAMED_INTEGRALS[name], False
    if name in FINITE_ALIASES:
        return NAMED_INTEGRALS[FINITE_ALIASES[name]], True
    known = sorted(NAMED_INTEGRALS) + sorted(FINITE_ALIASES)
    raise KeyError(f"unknown integral name {name!r}; known names: {', '.join(known)}")

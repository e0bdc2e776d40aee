"""Products of propagator factors with their singular content made explicit.

An ``IntegrandTerm`` is  delta0**k * poly(tau_1..tau_n) * product of atoms,
where each atom is a power of eps(tau_i - tau_j) or delta(tau_i - tau_j).
Products of the four propagator kinds expand into sums of such terms; the
text grammar accepted by :func:`parse` writes them the way they are tabled,
e.g. ``Dl(1,2)*Dr(1,2)*DD(1,2)`` with 1-based variable indices, rational
prefactors, and ``d0`` for an explicit delta(0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly
from .propagators import Kind, diagonal, eps_coefficient, has_delta, smooth_part
from .values import RegValue

# ---------------------------------------------------------------------------
# atoms and terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class SingularAtom:
    """A power of eps(tau_i - tau_j) or delta(tau_i - tau_j), with i < j."""

    kind: str  # "eps" | "delta"
    i: int
    j: int
    power: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("eps", "delta"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if not 0 <= self.i < self.j:
            raise ValueError("atom arguments must satisfy 0 <= i < j")
        if self.power < 1:
            raise ValueError("atom power must be positive")


@dataclass(frozen=True)
class IntegrandTerm:
    """delta0 to the power ``delta0``, times ``poly``, times the atoms.

    Beta and the rationals live in ``poly``.  The atoms are stored merged
    and sorted, because delta collapse depends on their order.
    """

    delta0: int
    nvars: int
    poly: Poly
    atoms: tuple[SingularAtom, ...]

    def __post_init__(self) -> None:
        if self.delta0 < 0:
            raise ValueError("delta0 power must be non-negative")
        if self.poly.nvars != self.nvars:
            raise ValueError("polynomial variable count does not match nvars")
        for atom in self.atoms:
            if atom.j >= self.nvars:
                raise ValueError("atom refers to a variable outside the term")
        object.__setattr__(self, "atoms", _merge_atoms(self.atoms))


_Piece = tuple[int, Poly, tuple[SingularAtom, ...]]


def _grade_pieces(
    value: RegValue, nvars: int, atoms: tuple[SingularAtom, ...] = ()
) -> list[_Piece]:
    """A ring value times ``atoms``, one constant-polynomial piece per delta0 grade."""
    grades: dict[int, Poly] = {}
    for (beta_pow, delta0_pow), coeff in value.items():
        const = Poly.const(nvars, coeff, beta_pow)
        grades[delta0_pow] = grades[delta0_pow] + const if delta0_pow in grades else const
    return [(k, poly, atoms) for k, poly in grades.items()]


def _expand_factor(kind: Kind, i: int, j: int, nvars: int) -> list[_Piece]:
    """One propagator factor as a sum of (delta0 power, poly, atoms) pieces.

    Equal arguments use the diagonal values directly, with DD(i,i) becoming
    the formal substitute delta0 - 1/beta.
    """
    if i == j:
        diag = diagonal(kind)
        if isinstance(diag, RegValue):
            return _grade_pieces(diag, nvars)
        return [(0, diag.remap((i,), nvars), ())]

    lo, hi = (i, j) if i < j else (j, i)
    flip = i > j  # eps(tau_i - tau_j) = -eps(tau_lo - tau_hi) when i > j
    out: list[_Piece] = []
    smooth = smooth_part(kind).remap((i, j), nvars)
    if smooth:
        out.append((0, smooth, ()))
    eps_poly = eps_coefficient(kind).remap((i, j), nvars)
    if eps_poly:
        if flip:
            eps_poly = -eps_poly
        out.append((0, eps_poly, (SingularAtom("eps", lo, hi),)))
    if has_delta(kind):
        out.append((0, Poly.const(nvars, 1), (SingularAtom("delta", lo, hi),)))
    return out


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
        merged.append(SingularAtom(kind, i, j, power))
    return tuple(sorted(merged))


def canonicalize(terms: list[IntegrandTerm]) -> list[IntegrandTerm]:
    """Combine terms with the same atoms and delta0 grade by adding polynomials."""
    buckets: dict[tuple[int, int, tuple[SingularAtom, ...]], Poly] = {}
    for term in terms:
        key = (term.nvars, term.delta0, term.atoms)
        buckets[key] = buckets[key] + term.poly if key in buckets else term.poly
    return [
        IntegrandTerm(delta0, nvars, poly, atoms)
        for (nvars, delta0, atoms), poly in sorted(buckets.items())
        if not poly.is_zero()
    ]


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_KINDS = {"D": Kind.D, "Dl": Kind.DOT_LEFT, "Dr": Kind.DOT_RIGHT, "DD": Kind.DOT_DOT}

_TOKEN = re.compile(
    r"\s*(?:(?P<prop>DD|Dl|Dr|D)\((?P<i>\d+),(?P<j>\d+)\)"
    r"|(?P<d0>d0)(?:\^(?P<d0pow>\d+))?"
    r"|(?P<rat>\d+(?:/\d*[1-9]\d*)?)"
    r"|(?P<op>[+*-]))"
)


@dataclass(frozen=True)
class ParsedProduct:
    """One summand of a parsed integrand expression."""

    coefficient: RegValue
    factors: tuple[tuple[Kind, int, int], ...]
    nvars: int


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
            tokens.append(("prop", (_KINDS[match["prop"]], int(match["i"]), int(match["j"]))))
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
        raw_factors: list[tuple[Kind, int, int]] = []
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


def terms_from_text(text: str) -> list[IntegrandTerm]:
    out: list[IntegrandTerm] = []
    for parsed in parse(text):
        out.extend(product(list(parsed.factors), parsed.nvars, parsed.coefficient))
    return out


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

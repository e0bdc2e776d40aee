"""Exact one-dimensional integration of products of propagators.

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
delta(tau_i - tau_j); ``integrate_product`` multiplies the pieces of a
product together and merges their atoms.

``integrate_product`` integrates a product of propagator factors over
[0, beta]**n, one factor at a time.  Each partial term it ends with has its
delta atoms resolved first, one connected component of the delta graph at
a time (``integrate_term``); what survives is a regionwise polynomial
integral evaluated exactly, sector by sector, with every eps factor
resolved to a sign.

Products of distributions at coincident points have no unique value.
Since eps is odd and delta even, int eps(t)**k delta(t) dt = 0 for every
odd k.  A ``RuleSet`` fixes the one remaining number,
``value_eps2_delta`` = int eps(t)**2 delta(t) dt.  ``DIMREG`` assigns 0, the
value forced by continuing the time coordinate to d dimensions.  ``MODEREG``
assigns 1/3, which is what straight mode expansion (equivalently: insisting
on partial integration with delta = eps'/2) produces.  Higher even powers
follow the square: 0, or 1/(k+1) when the square survives.  An eps power
whose ends a path of deltas joins is resolved once against that path, as
if its delta sat on its own pair.  Under DimReg every such value is 0;
under ModeReg resolving each atom on its own is a convention, which a mode
limit has yet to confirm.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations

from .values import Poly, RegValue

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


def _components(atoms: tuple[SingularAtom, ...]) -> tuple[dict[int, int], dict[int, int]]:
    """The connected components of the delta atoms' graph: (root, surplus).

    ``root[v]``, for each variable a delta touches, is the smallest variable
    joined to v by a path of deltas; ``surplus[r]`` is the delta power of
    r's component minus its variable count.  A tree has surplus -1, one
    cycle (a squared delta is a 2-cycle) 0, and a second cycle more.
    """
    root: dict[int, int] = {}

    def find(v: int) -> int:
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    deltas = [atom for atom in atoms if atom.kind == "delta"]
    for atom in deltas:
        a, b = sorted((find(atom.i), find(atom.j)))
        root[b] = a
    surplus: dict[int, int] = {}
    for v in root:
        root[v] = r = find(v)
        surplus[r] = surplus.get(r, 0) - 1
    for atom in deltas:
        surplus[root[atom.i]] += atom.power
    return root, surplus


def _merge_atoms(atoms: tuple[SingularAtom, ...]) -> tuple[SingularAtom, ...]:
    powers: dict[tuple[str, int, int], int] = {}
    for atom in atoms:
        key = (atom.kind, atom.i, atom.j)
        powers[key] = powers.get(key, 0) + atom.power
    kinds = {kind for kind, _, _ in powers}
    root = _components(atoms)[0] if len(kinds) == 2 else {}
    merged: list[SingularAtom] = []
    for (kind, i, j), power in powers.items():
        if kind == "eps" and root.get(i, i) != root.get(j, j):
            # Away from coincidence eps**2 = 1.  Unless a path of deltas
            # joins i and j, tau_i = tau_j has measure zero.
            if power % 2 == 0:
                continue
            power = 1
        merged.append(SingularAtom._make((kind, i, j, power)))
    return tuple(sorted(merged))


# ---------------------------------------------------------------------------
# rule sets
# ---------------------------------------------------------------------------


class UnreducedSingularStructureError(ValueError):
    """Raised when a term's delta content has no assigned resolution."""


class RuleSet(namedtuple("RuleSet", "name value_eps2_delta")):
    """A named rule set: the ``Fraction`` value of eps**2*delta."""

    __slots__ = ()

    def eps_power_delta_value(self, power: int) -> Fraction:
        """Value of  int eps(t)**power delta(t) dt  for an even power."""
        if power == 2 or not self.value_eps2_delta:
            return self.value_eps2_delta  # higher powers vanish with the square
        return Fraction(1, power + 1)


DIMREG = RuleSet("DimReg", value_eps2_delta=Fraction(0))
MODEREG = RuleSet("ModeReg", value_eps2_delta=Fraction(1, 3))

RULESETS = {"dimreg": DIMREG, "modereg": MODEREG}


def _reads_rules(factors: tuple[tuple[str, int, int], ...], deltas: tuple[SingularAtom, ...]) -> bool:
    """Whether integrating DD-free ``factors`` times ``deltas`` can look a rule set up.

    ``integrate_term`` looks one up only for an even eps power on a pair
    that a path of deltas joins.  Without a ``DD`` every delta is in
    ``deltas``, and each factor on two distinct variables carries one eps of
    power 1 on its pair, so such a power needs two factors on one pair.
    """
    root = _components(deltas)[0]
    pairs = [(min(i, j), max(i, j)) for _, i, j in factors if i != j and root.get(i, i) == root.get(j, j)]
    return len(set(pairs)) < len(pairs)


# ---------------------------------------------------------------------------
# regionwise integration
# ---------------------------------------------------------------------------


def _integrate_regular(poly: Poly, atoms: tuple[SingularAtom, ...]) -> RegValue:
    """Integrate a delta-free term, resolving eps factors sector by sector."""
    if not atoms:
        return poly.integrate_cube()
    total = RegValue.zero()
    for order in permutations(range(poly.nvars)):
        position = {var: rank for rank, var in enumerate(order)}
        sign = 1
        for atom in atoms:
            s = 1 if position[atom.i] > position[atom.j] else -1
            sign *= s**atom.power
        value = poly.integrate_sector(order)
        total = total + value if sign == 1 else total - value
    return total


def integrate_term(
    state: tuple[int, tuple[SingularAtom, ...], tuple[bool, ...]],
    poly: Poly,
    rules: RuleSet,
    notes: list[str] | None,
) -> RegValue:
    """Integrate one partial term over the variables it leaves open.

    ``state`` is (delta0 power, merged atoms, whether each variable is still
    open); a variable that is not open is integrated out already.  Each
    component of the delta graph collapses onto its smallest variable, its
    root: a tree needs no rule and one cycle gives one delta0.  A component
    with a second cycle has no assigned value, and the term raises whatever
    else it holds, unless its polynomial is 0.  Each eps atom with both ends in one component is
    resolved once against it: an odd power gives 0 by parity, an even one
    the rule set's value.  Every other eps atom moves to the roots of its
    ends.  Then each open survivor that no eps atom touches is integrated
    out, and one remap moves the polynomial to the rest, which the sector
    sum integrates.
    """
    delta0, atoms, still_open = state
    nvars = poly.nvars
    rational = Fraction(1)
    root: dict[int, int] = {}
    if any(atom.kind == "delta" for atom in atoms):
        root, surplus = _components(atoms)
        if max(surplus.values()) > 0:
            if not poly:
                return RegValue.zero()
            raise UnreducedSingularStructureError(
                "unreduced singular structure: delta powers beyond 2 or branching "
                "delta graphs have no assigned value"
            )
        delta0 += sum(count == 0 for count in surplus.values())
        renamed: list[SingularAtom] = []
        for atom in atoms:
            if atom.kind == "delta":
                continue
            a, b = root.get(atom.i, atom.i), root.get(atom.j, atom.j)
            if a == b:
                # eps is odd and delta even, so an odd power integrates to 0.
                odd = atom.power % 2
                value = Fraction(0) if odd else rules.eps_power_delta_value(atom.power)
                if atom.power > 2 and notes is not None:
                    why = "odd power" if odd else rules.name
                    notes.append(f"eps^{atom.power}*delta resolved to {value} ({why})")
                if not value:
                    return RegValue.zero()
                rational *= value
                continue
            if a > b:
                a, b = b, a
                if atom.power % 2:
                    rational = -rational
            renamed.append(SingularAtom._make((atom.kind, a, b, atom.power)))
        atoms = _merge_atoms(tuple(renamed))
        poly = poly.remap([root.get(v, v) for v in range(nvars)], nvars)

    touched = {v for atom in atoms for v in (atom.i, atom.j)}
    for v in range(nvars):
        if still_open[v] and root.get(v, v) == v and v not in touched:
            poly = poly.integrate_out(v)
    if len(touched) < nvars:  # else every variable keeps its slot
        slot = {s: k for k, s in enumerate(sorted(touched))}
        poly = poly.remap([slot.get(v) for v in range(nvars)], len(slot))
        atoms = tuple(SingularAtom._make((a.kind, slot[a.i], slot[a.j], a.power)) for a in atoms)
    regular = _integrate_regular(poly, atoms)
    return regular if rational == 1 and not delta0 else RegValue.term(rational, 0, delta0) * regular


# ---------------------------------------------------------------------------
# products, one factor at a time
# ---------------------------------------------------------------------------


def _finish(state: tuple, poly: Poly, done: list[int]) -> tuple[tuple, Poly]:
    """Integrate out each done variable of a partial term that needs no rule.

    A state is (delta0 power, atoms sorted but not merged, whether each
    variable is still open).  A variable that no atom touches is integrated
    out of the polynomial; one that one or two power-1 deltas touch, and
    nothing else, collapses into the other end of its first delta.
    """
    delta0, atoms, still_open = state
    still_open = list(still_open)
    for v in done:
        touching = [a for a in atoms if v in (a.i, a.j)]
        if not still_open[v] or not len(set(touching)) == len(touching) <= 2:
            continue
        if not touching:
            poly = poly.integrate_out(v)
        elif all(a.power == 1 for a in touching):
            first, *rest = touching
            u = first.i + first.j - v
            renamed = [SingularAtom._make(("delta", *sorted((u, a.i + a.j - v)), 1)) for a in rest]
            atoms = tuple(sorted([a for a in atoms if a not in touching] + renamed))
            poly = poly.remap([u if x == v else x for x in range(poly.nvars)], poly.nvars)
        else:
            continue
        still_open[v] = False
    return (delta0, atoms, tuple(still_open)), poly


def _multiply(partials: dict, pieces: list, done: list[int]) -> dict:
    """Multiply one factor's pieces into the partial terms, finish, merge equal states."""
    step: dict[tuple, Poly] = {}
    for (delta0, atoms, still_open), poly in partials.items():
        for k, factor, new in pieces:
            state, value = (delta0 + k, tuple(sorted(atoms + new)), still_open), poly * factor
            if done:
                state, value = _finish(state, value, done)
            step[state] = step[state] + value if state in step else value
    return {state: poly for state, poly in step.items() if poly}


def _integrate_partials(partials: dict, rules: RuleSet, notes: list[str] | None) -> RegValue:
    """Merge the final partial terms by their merged atoms and integrate each, in sorted order."""
    finals: dict[tuple, Poly] = {}
    for (delta0, atoms, still_open), poly in partials.items():
        state = (delta0, _merge_atoms(atoms), still_open)
        finals[state] = finals[state] + poly if state in finals else poly
    total = RegValue.zero()
    for state in sorted(finals):
        if finals[state]:
            total = total + integrate_term(state, finals[state], rules, notes)
    return total


def integrate_product(
    factors: list[tuple[str, int, int]],
    nvars: int,
    rules: RuleSet,
    notes: list[str] | None = None,
    weight: Poly | None = None,
    extra_atoms: tuple[SingularAtom, ...] = (),
) -> RegValue:
    """Exact integral of extra_atoms * the factors * w(tau_1)...w(tau_n).

    Each w(tau_v) multiplies the pieces of the last factor that touches v,
    or the unit start piece when none does.  The factors' pieces multiply in
    one at a time and partial terms with equal states merge, so the 2**n
    expanded terms are never listed (bucket elimination; Dechter, Artif.
    Intell. 113, 41 (1999)).  If no factor has an eps part and no component
    of the delta graph has a positive surplus (``_components``), each
    variable is finished as soon as no pending factor touches it.  Otherwise nothing
    finishes early: an eps factor could meet a collapsed delta and change
    what merges first, or a merge could cancel a term that would raise.  The
    final states merge once more by their merged atoms and
    ``integrate_term`` integrates each one; with every variable open these
    are the canonical terms of the full expansion, in their sorted order, so
    eps notes and errors come in the same order as term by term.
    """
    expanded = [_expand_factor(kind, i, j, nvars) for kind, i, j in factors]
    atoms = extra_atoms + tuple(a for pieces in expanded for _, _, new in pieces for a in new)
    early = all(a.kind == "delta" for a in atoms) and max(_components(atoms)[1].values(), default=0) <= 0
    last = {v: index for index, (_, i, j) in enumerate(factors) for v in (i, j)}
    start = [(0, Poly.const(nvars, 1), extra_atoms)]
    if weight is not None:
        for v in range(nvars):
            pieces = expanded[last[v]] if v in last else start
            w = weight.remap((v,), nvars)
            pieces[:] = [(k, poly * w, new) for k, poly, new in pieces]
    partials = {(k, tuple(sorted(atoms)), (True,) * nvars): poly for k, poly, atoms in start}
    for index, pieces in enumerate(expanded):
        done = [v for v in range(nvars) if last.get(v, -1) <= index] if early else []
        partials = _multiply(partials, pieces, done)
    return _integrate_partials(partials, rules, notes)


def _ring_chain(weight: Poly, max_order: int) -> list[RegValue]:
    """The weighted rings DD(0,1)DD(1,2)...DD(n-1,0) for n = 1..max_order.

    Rings from order 2 share one chain, in a three-variable frame: tau_0, the
    chain's end, the next variable.  A step multiplies in DD(end, next) w(end),
    finishes the old end and renames the next variable into the end slot;
    closed with DD(0, end) w(0) w(end), a copy of the chain is the ring.  The
    weights sit where ``integrate_product`` puts them, and a ring's atoms are
    deltas on one cycle, a component of surplus 0, so each old end
    finishes early as it does there.
    """
    rings = [integrate_product([("DD", 0, 0)], 1, DIMREG, weight=weight)]
    w0, w1 = (weight.remap((v,), 3) for v in (0, 1))
    link = _expand_factor("DD", 0, 1, 3)
    step = [(k, poly * w1, atoms) for k, poly, atoms in _expand_factor("DD", 1, 2, 3)]
    close = [(k, poly * w0 * w1, atoms) for k, poly, atoms in link]
    frame = (True, True, False)  # slot 2 holds no variable between steps
    for n in range(2, max_order + 1):
        if n == 2:
            chain = _multiply({(0, (), frame): Poly.const(3, 1)}, link, [])
        else:
            # The finished end leaves no atom on slot 1: what remains is the
            # delta chained from tau_0 to the next variable, if any.
            chain = {
                (delta0, tuple(SingularAtom._make((a.kind, a.i, 1, a.power)) for a in atoms), frame):
                poly.remap((0, None, 1), 3)
                for (delta0, atoms, _), poly in _multiply(chain, step, [1]).items()
            }
        rings.append(_integrate_partials(_multiply(chain, close, [0, 1]), DIMREG, None))
    return rings

"""Exact one-dimensional integration of singular integrand terms.

The engine integrates sums of ``IntegrandTerm`` over [0, beta]**n.  Delta
atoms are resolved first by collapsing variables; what survives is a
regionwise polynomial integral evaluated exactly, sector by sector, with
every eps factor resolved to a sign.

Products of distributions at coincident points have no unique value.  A
``RuleSet`` fixes the convention:

* ``value_eps_delta``   -- the value assigned to  int eps(t) delta(t) dt
* ``value_eps2_delta``  -- the value assigned to  int eps(t)^2 delta(t) dt

``DIMREG`` assigns zero to both eps integrals, the values forced by
continuing the time coordinate to d dimensions.  ``MODEREG`` keeps the
value 1/3 for the eps**2 integral, which is what straight mode expansion
(equivalently: insisting on partial integration with delta = eps'/2)
produces.  Both rule sets resolve squares and chains of deltas the same
way; they differ only at coincident eps factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .integrands import (
    IntegrandTerm,
    SingularAtom,
    _merge_atoms,
    named_integral_text,
    product,
    terms_from_text,
)
from .polynomials import Poly
from .propagators import Kind, boundary_value
from .values import RegValue


class UnreducedSingularStructureError(ValueError):
    """Raised when a term's delta content has no assigned resolution."""


@dataclass(frozen=True)
class RuleSet:
    name: str
    value_eps2_delta: Fraction
    value_eps_delta: Fraction

    def eps_power_delta_value(self, power: int, notes: list[str] | None = None) -> Fraction:
        """Value of  int eps(t)**power delta(t) dt  under this rule set."""
        if power == 0:
            return Fraction(1)
        if power == 1:
            return self.value_eps_delta
        if power == 2:
            return self.value_eps2_delta
        if power % 2 == 1:
            if notes is not None:
                notes.append(f"eps^{power}*delta resolved to 0 (odd power)")
            return Fraction(0)
        # Even powers beyond 2 never occur in the shipped catalogs; they
        # follow the same pattern as the square (0, or 1/(power+1) when the
        # square survives) and are flagged so a caller can tell.
        value = Fraction(0) if self.value_eps2_delta == 0 else Fraction(1, power + 1)
        if notes is not None:
            notes.append(f"eps^{power}*delta resolved to {value} ({self.name})")
        return value


DIMREG = RuleSet("DimReg", value_eps2_delta=Fraction(0), value_eps_delta=Fraction(0))
MODEREG = RuleSet("ModeReg", value_eps2_delta=Fraction(1, 3), value_eps_delta=Fraction(0))

RULESETS = {"dimreg": DIMREG, "modereg": MODEREG}


# ---------------------------------------------------------------------------
# delta resolution
# ---------------------------------------------------------------------------


def _collapse_once(
    atoms: tuple[SingularAtom, ...], rules: RuleSet, notes: list[str] | None
) -> tuple[Fraction, int, tuple[int, int], tuple[SingularAtom, ...]] | None:
    """Resolve one delta edge by setting tau_j := tau_i, with i < j.

    Variables keep their indices; j just stops occurring in the atoms.
    Returns (rational factor, delta0 power, (i, j), remaining atoms), or
    None when no delta edge has an assigned resolution.
    """
    deltas = [a for a in atoms if a.kind == "delta"]
    target_atom = None
    squared = 0

    degree: dict[int, int] = {}
    for atom in deltas:
        degree[atom.i] = degree.get(atom.i, 0) + atom.power
        degree[atom.j] = degree.get(atom.j, 0) + atom.power

    for atom in deltas:
        if atom.power == 1 and (degree[atom.i] == 1 or degree[atom.j] == 1):
            target_atom = atom  # a loose end of a chain: plain collapse
            break
    if target_atom is None:
        for atom in deltas:
            if atom.power == 2 and degree[atom.i] == 2 and degree[atom.j] == 2:
                # An isolated squared delta (possibly the residue of a closed
                # chain): one factor of delta0, then a plain collapse.
                target_atom = atom
                squared = 1
                break
    if target_atom is None:
        for atom in deltas:
            if atom.power == 1 and degree[atom.i] == 2 and degree[atom.j] == 2:
                target_atom = atom  # an edge of a closed chain
                break
    if target_atom is None:
        return None

    i, j = target_atom.i, target_atom.j
    factor = Fraction(1)
    renamed: list[SingularAtom] = []
    for atom in atoms:
        if atom is target_atom:
            continue
        if atom.kind == "eps" and (atom.i, atom.j) == (i, j):
            factor *= rules.eps_power_delta_value(atom.power, notes)
            continue
        a, b = (i if v == j else v for v in (atom.i, atom.j))
        if a > b:
            a, b = b, a
            if atom.kind == "eps" and atom.power % 2 == 1:
                factor = -factor
        renamed.append(SingularAtom(atom.kind, a, b, atom.power))
    return factor, squared, (i, j), _merge_atoms(tuple(renamed))


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
        total = total + (value * sign if sign != 1 else value)
    return total


def _weight_power(
    weight: Poly, m: int, powers: dict[int, tuple[Poly, RegValue]]
) -> tuple[Poly, RegValue]:
    """(w**m, int_0^beta w**m dt), memoized in ``powers``."""
    if m not in powers:
        power = weight
        for _ in range(m - 1):
            power = power * weight
        powers[m] = (power, power.integrate_cube())
    return powers[m]


def integrate_term(
    term: IntegrandTerm,
    rules: RuleSet,
    notes: list[str] | None,
    weight: Poly,
    powers: dict[int, tuple[Poly, RegValue]],
) -> RegValue:
    """Integrate one term times w(tau_1)...w(tau_n).

    Collapsing tau_j := tau_i keeps every index and records root[v], the
    variable that tau_v now equals, so each survivor carries w to the size
    of its block.  After the last delta one remap moves the polynomial from
    the original variables to the survivors that the polynomial or an eps
    atom touches; every other survivor separates into int w**m.
    ``powers`` memoizes the weight powers across the terms of one call.
    """
    nvars = term.nvars
    root = list(range(nvars))
    atoms = term.atoms
    rational = Fraction(1)
    delta0 = 0
    while any(atom.kind == "delta" for atom in atoms):
        step = _collapse_once(atoms, rules, notes)
        if step is None:
            if term.poly.remap(root, nvars).is_zero():
                return RegValue.zero()  # the polynomial vanished on an earlier collapse
            raise UnreducedSingularStructureError(
                "unreduced singular structure: delta powers beyond 2 or branching "
                "delta graphs have no assigned value"
            )
        factor, squared, (i, j), atoms = step
        if factor == 0:
            return RegValue.zero()
        rational *= factor
        delta0 += squared
        root = [i if r == j else r for r in root]

    touched = {v for atom in atoms for v in (atom.i, atom.j)}
    touched.update(root[v] for v in range(nvars) if term.poly.depends_on(v))
    value = RegValue.term(rational, 0, term.delta0 + delta0)
    kept: list[int] = []
    for s in sorted(set(root)):
        if s in touched:
            kept.append(s)
        else:
            value = value * _weight_power(weight, root.count(s), powers)[1]
    slot = {s: k for k, s in enumerate(kept)}
    poly = term.poly.remap([slot.get(r) for r in root], len(kept))
    for s in kept:
        power = _weight_power(weight, root.count(s), powers)[0]
        poly = poly * power.remap((slot[s],), len(kept))
    atoms = tuple(SingularAtom(a.kind, slot[a.i], slot[a.j], a.power) for a in atoms)
    return value * _integrate_regular(poly, atoms)


def integrate(
    terms: list[IntegrandTerm],
    rules: RuleSet = DIMREG,
    notes: list[str] | None = None,
    weight: Poly | None = None,
) -> RegValue:
    """Exact integral of the given terms over [0, beta]**n.

    ``weight`` is an optional one-variable polynomial w; the integrand is
    then  terms * w(tau_1) * ... * w(tau_n).  No weight is the unit weight.
    """
    if weight is None:
        weight = Poly.const(1, 1)
    if weight.nvars != 1:
        raise ValueError("the weight must be a polynomial in one variable")
    if weight.is_zero():
        return RegValue.zero()  # a zero weight makes every term vanish, deltas or not
    powers: dict[int, tuple[Poly, RegValue]] = {}
    total = RegValue.zero()
    for term in terms:
        total = total + integrate_term(term, rules, notes, weight, powers)
    return total


def integrate_text(text: str, rules: RuleSet = DIMREG) -> RegValue:
    return integrate(terms_from_text(text), rules)


# ---------------------------------------------------------------------------
# straight one-dimensional evaluations
# ---------------------------------------------------------------------------

_STRATEGIES = ("partial_integration", "equation_of_motion", "mixed")


def _boundary_cubed_integral() -> tuple[RegValue, RegValue]:
    """(int Dr(t,0)**3 dt, int Dr(t,β)**3 dt) -- the boundary terms that a
    double partial integration of the triple-dotted product leaves behind."""
    at_zero = boundary_value(Kind.DOT_RIGHT, slot=1, at_beta=False)
    at_beta = boundary_value(Kind.DOT_RIGHT, slot=1, at_beta=True)
    values = []
    for pinned in (at_zero, at_beta):
        cubed = pinned * pinned * pinned
        values.append(cubed.remap((0, None), 1).integrate_cube())
    return values[0], values[1]


def _dotted_square_times_delta() -> list[IntegrandTerm]:
    """The terms of  Dr(1,2)**2 * delta(1,2)."""
    return product(
        [(Kind.DOT_RIGHT, 0, 1), (Kind.DOT_RIGHT, 0, 1)],
        2,
        extra_atoms=(SingularAtom("delta", 0, 1),),
    )


def evaluate_naive_1d(name: str, strategy: str, rules: RuleSet = DIMREG) -> RegValue:
    """Evaluate I14 or I15 by one of the three one-dimensional routes.

    The three routes differ in which of partial integration and the equation
    of motion they lean on; they agree only when int eps^2 delta = 1/3, which
    is exactly what breaks coordinate invariance.  The strategies are:

    * ``partial_integration``: integrate by parts until only boundary terms
      and regular integrals remain (no coincident-point products at all).
    * ``equation_of_motion``: substitute the double-dotted propagator by
      delta - 1/beta immediately and integrate what results.
    * ``mixed``: one partial integration, then the equation of motion.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {_STRATEGIES}")
    finite_only = False
    if name in ("I15R", "I2R", "I8R"):
        finite_only = name == "I15R"
        if not finite_only:
            raise ValueError(f"{name} has no scripted one-dimensional route")
        name = "I15"
    if name == "I14":
        value = _naive_i14(strategy, rules)
    elif name == "I15":
        value = _naive_i15(strategy, rules)
    else:
        raise ValueError(
            f"no one-dimensional route is scripted for {name!r}; "
            "only I14 and I15 (and I15R) have one"
        )
    return value.finite_part() if finite_only else value


def _naive_i14(strategy: str, rules: RuleSet) -> RegValue:
    if strategy == "partial_integration":
        # Two partial integrations; all that survives are the endpoint values
        # of the right-dotted propagator, cubed.
        at_zero, at_beta = _boundary_cubed_integral()
        return (at_zero - at_beta) / 6
    if strategy == "equation_of_motion":
        text, _ = named_integral_text("I14")
        return integrate_text(text, rules)
    # mixed: one partial integration throws the double-dotted factor onto the
    # remaining pair, then the equation of motion turns it into a delta.
    return integrate(_dotted_square_times_delta(), rules) / 2


def _naive_i15(strategy: str, rules: RuleSet) -> RegValue:
    divergent = RegValue.delta0() * RegValue.beta(2, Fraction(1, 6))
    if strategy == "equation_of_motion":
        text, _ = named_integral_text("I15")
        return integrate_text(text, rules)
    if strategy == "partial_integration":
        # Add and subtract the squared delta, trade it for squared seconds
        # derivatives, and integrate by parts twice: the finite part becomes
        # -I14 plus a pure boundary contribution.
        at_zero, at_beta = _boundary_cubed_integral()
        boundary = (at_beta - at_zero) / 3
        return divergent - _naive_i14(strategy, rules) + boundary
    # mixed: same add-and-subtract, but the intermediate integral is handed
    # to the equation of motion instead of a further partial integration.
    return divergent - _naive_i14(strategy, rules) - integrate(
        _dotted_square_times_delta(), rules
    )


def naive_disagreement(name: str, rules: RuleSet = DIMREG) -> dict[str, RegValue]:
    """The three route values side by side; equal iff the rules force it."""
    return {strategy: evaluate_naive_1d(name, strategy, rules) for strategy in _STRATEGIES}

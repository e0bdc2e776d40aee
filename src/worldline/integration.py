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
    canonicalize,
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


def _renumber_atom(atom: SingularAtom, removed: int, target: int) -> tuple[int, SingularAtom]:
    """Rewrite an atom after tau_removed := tau_target; returns (sign, atom)."""

    def rename(v: int) -> int:
        if v == removed:
            v = target
        return v - 1 if v > removed else v

    i, j = rename(atom.i), rename(atom.j)
    if i == j:
        raise AssertionError("same-pair atoms must be resolved before renaming")
    sign = 1
    if i > j:
        i, j = j, i
        if atom.kind == "eps" and atom.power % 2 == 1:
            sign = -1
    return sign, SingularAtom(atom.kind, i, j, atom.power)


def _collapse_once(
    term: IntegrandTerm, rules: RuleSet, notes: list[str] | None
) -> tuple[Fraction, RegValue, tuple[int, int], IntegrandTerm]:
    """Resolve one delta edge by setting tau_j := tau_i, with i < j.

    Returns (rational factor, delta0 factor, (i, j), rest).
    """
    deltas = [a for a in term.atoms if a.kind == "delta"]
    target_atom = None
    extra_delta0 = RegValue.one()

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
                extra_delta0 = RegValue.delta0()
                break
    if target_atom is None:
        for atom in deltas:
            if atom.power == 1 and degree[atom.i] == 2 and degree[atom.j] == 2:
                target_atom = atom  # an edge of a closed chain
                break
    if target_atom is None:
        raise UnreducedSingularStructureError(
            "unreduced singular structure: delta powers beyond 2 or branching "
            "delta graphs have no assigned value"
        )

    i, j = target_atom.i, target_atom.j
    factor = Fraction(1)
    kept: list[SingularAtom] = []
    for atom in term.atoms:
        if atom is target_atom:
            continue
        if (atom.i, atom.j) == (i, j):
            if atom.kind == "eps":
                factor *= rules.eps_power_delta_value(atom.power, notes)
            else:
                kept.append(atom)  # remaining parallel delta: collapses next round
        else:
            kept.append(atom)
    if factor == 0:
        empty = IntegrandTerm(RegValue.one(), 0, Poly.const(0, 0), ())
        return Fraction(0), RegValue.one(), (i, j), empty

    targets = [i if v == j else v - (v > j) for v in range(term.nvars)]
    poly = term.poly.remap(targets, term.nvars - 1)
    atoms: list[SingularAtom] = []
    sign = Fraction(1)
    for atom in kept:
        s, renamed = _renumber_atom(atom, removed=j, target=i)
        sign *= s
        atoms.append(renamed)
    rest = IntegrandTerm(term.coefficient, term.nvars - 1, poly, tuple(sorted(atoms)))
    return factor * sign, extra_delta0, (i, j), rest


# ---------------------------------------------------------------------------
# regionwise integration
# ---------------------------------------------------------------------------


def _integrate_regular(term: IntegrandTerm) -> RegValue:
    """Integrate a delta-free term, resolving eps factors sector by sector."""
    eps_atoms = [a for a in term.atoms if a.kind == "eps"]
    if not eps_atoms:
        return term.coefficient * term.poly.integrate_cube()
    total = RegValue.zero()
    for order in permutations(range(term.nvars)):
        position = {var: rank for rank, var in enumerate(order)}
        sign = 1
        for atom in eps_atoms:
            s = 1 if position[atom.i] > position[atom.j] else -1
            sign *= s**atom.power
        value = term.poly.integrate_sector(order)
        total = total + (value * sign if sign != 1 else value)
    return term.coefficient * total


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


def _integrate_weighted(
    term: IntegrandTerm,
    multiplicity: list[int],
    weight: Poly,
    powers: dict[int, tuple[Poly, RegValue]],
) -> RegValue:
    """Integrate a delta-free term times prod_v w(tau_v)**multiplicity[v].

    A variable that neither the polynomial nor an eps atom touches separates:
    it contributes the one-dimensional factor int w**m.  The weight powers of
    the remaining variables are embedded into the polynomial.
    """
    touched = {v for atom in term.atoms for v in (atom.i, atom.j)}
    kept = [v for v in range(term.nvars) if v in touched or term.poly.depends_on(v)]
    index = {v: k for k, v in enumerate(kept)}
    factor = RegValue.one()
    for v in range(term.nvars):
        if v not in index:
            factor = factor * _weight_power(weight, multiplicity[v], powers)[1]
    nvars = len(kept)
    poly = term.poly.remap([index.get(v) for v in range(term.nvars)], nvars)
    for v in kept:
        power = _weight_power(weight, multiplicity[v], powers)[0]
        poly = poly * power.remap((index[v],), nvars)
    atoms = tuple(SingularAtom(a.kind, index[a.i], index[a.j], a.power) for a in term.atoms)
    return factor * _integrate_regular(IntegrandTerm(term.coefficient, nvars, poly, atoms))


def integrate_term(
    term: IntegrandTerm,
    rules: RuleSet,
    notes: list[str] | None = None,
    weight: Poly | None = None,
    powers: dict[int, tuple[Poly, RegValue]] | None = None,
) -> RegValue:
    """Integrate one term, times w(tau_1)...w(tau_n) when a weight is given.

    Collapsing tau_j := tau_i merges the weight of tau_j into tau_i, so each
    surviving variable carries w to the number of variables it absorbed.
    ``powers`` memoizes the weight powers across the terms of one call.
    """
    multiplicity = [1] * term.nvars
    factor = RegValue.one()
    while any(atom.kind == "delta" for atom in term.atoms):
        rational, delta0, (i, j), term = _collapse_once(term, rules, notes)
        if rational == 0:
            return RegValue.zero()
        multiplicity[i] += multiplicity.pop(j)
        factor = factor * rational * delta0
        term = canonicalize([term])[0] if term.poly else term
        if term.poly.is_zero():
            return RegValue.zero()
    if weight is None:
        return factor * _integrate_regular(term)
    return factor * _integrate_weighted(term, multiplicity, weight, {} if powers is None else powers)


def integrate(
    terms: list[IntegrandTerm] | IntegrandTerm,
    rules: RuleSet = DIMREG,
    notes: list[str] | None = None,
    weight: Poly | None = None,
) -> RegValue:
    """Exact integral of the given terms over [0, beta]**n.

    ``weight`` is an optional one-variable polynomial w; the integrand is
    then  terms * w(tau_1) * ... * w(tau_n).
    """
    if isinstance(terms, IntegrandTerm):
        terms = [terms]
    if weight is not None and weight.nvars != 1:
        raise ValueError("the weight must be a polynomial in one variable")
    if weight is not None and weight.is_zero():
        return RegValue.zero()  # a zero weight makes every term vanish, deltas or not
    powers: dict[int, tuple[Poly, RegValue]] = {}
    total = RegValue.zero()
    for term in canonicalize(list(terms)):
        total = total + integrate_term(term, rules, notes, weight, powers)
    return total


def integrate_text(text: str, rules: RuleSet = DIMREG) -> RegValue:
    return integrate(terms_from_text(text), rules)


# ---------------------------------------------------------------------------
# straight one-dimensional evaluations
# ---------------------------------------------------------------------------

STRATEGIES = ("partial_integration", "equation_of_motion", "mixed")


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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
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
    return {strategy: evaluate_naive_1d(name, strategy, rules) for strategy in STRATEGIES}

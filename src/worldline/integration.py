"""Exact one-dimensional integration of products of propagators.

``integrate_product`` integrates a product of propagator factors over
[0, beta]**n, one factor at a time.  Each partial term it ends with has its
delta atoms resolved first by collapsing variables; what survives is a
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

from collections import namedtuple
from fractions import Fraction
from itertools import permutations

from .integrands import SingularAtom, _expand_factor, _merge_atoms
from .polynomials import Poly
from .values import RegValue


class UnreducedSingularStructureError(ValueError):
    """Raised when a term's delta content has no assigned resolution."""


class RuleSet(namedtuple("RuleSet", "name value_eps2_delta value_eps_delta")):
    """A named rule set: the ``Fraction`` values of eps**2*delta and eps*delta."""

    __slots__ = ()

    def eps_power_delta_value(self, power: int, notes: list[str] | None = None) -> Fraction:
        """Value of  int eps(t)**power delta(t) dt  under this rule set."""
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
        renamed.append(SingularAtom._make((atom.kind, a, b, atom.power)))
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
    open); a variable that is not open is integrated out already.
    Collapsing tau_j := tau_i keeps every index and records root[v], the
    variable that tau_v now equals.  After the last delta each open survivor
    that no eps atom touches is integrated out, and one remap moves the
    polynomial to the rest, which the sector sum integrates.
    """
    delta0, atoms, still_open = state
    nvars = poly.nvars
    root = list(range(nvars))
    rational = Fraction(1)
    while any(atom.kind == "delta" for atom in atoms):
        step = _collapse_once(atoms, rules, notes)
        if step is None:
            if not poly.remap(root, nvars):
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

    poly = poly.remap(root, nvars)
    touched = {v for atom in atoms for v in (atom.i, atom.j)}
    for v in range(nvars):
        if still_open[v] and root[v] == v and v not in touched:
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


def _deltas_resolve(atoms: tuple[SingularAtom, ...]) -> bool:
    """True when the atoms are deltas and their whole graph collapses.

    In a connected component a tree collapses, one cycle (a squared delta
    is a 2-cycle) leaves one delta0, and a second cycle has no rule.  So the
    graph collapses exactly when no component's delta powers outnumber its
    vertices, and then every subgraph, and every term of the expansion,
    collapses too.
    """
    if any(atom.kind == "eps" for atom in atoms):
        return False
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for atom in atoms:
        parent[root(atom.i)] = root(atom.j)
    surplus: dict[int, int] = {}
    for v in parent:
        surplus[root(v)] = surplus.get(root(v), 0) - 1
    for atom in atoms:
        surplus[root(atom.i)] += atom.power
    return all(count <= 0 for count in surplus.values())


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
    Intell. 113, 41 (1999)).  If ``_deltas_resolve`` holds, each variable is
    finished as soon as no pending factor touches it.  Otherwise nothing
    finishes early: an eps factor could meet a collapsed delta and change
    what merges first, or a merge could cancel a term that would raise.  The
    final states merge once more by their merged atoms and
    ``integrate_term`` integrates each one; with every variable open these
    are the canonical terms of the full expansion, in their sorted order, so
    eps notes and errors come in the same order as term by term.
    """
    expanded = [_expand_factor(kind, i, j, nvars) for kind, i, j in factors]
    atoms = tuple(a for pieces in expanded for _, _, new in pieces for a in new)
    early = _deltas_resolve(atoms + extra_atoms)
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
    deltas on one cycle, which ``_deltas_resolve`` accepts, so each old end
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

"""Contractions of curvature tensors on a maximally symmetric target.

Wick pairings of curved-space vertices produce products of Riemann
tensors fully contracted with Kronecker deltas; a Ricci factor is a
Riemann factor whose first and third slots the vertex contracts itself.
On a maximally symmetric target the Riemann tensor is an antisymmetrized
product of metric deltas times a single scale, so every full contraction
evaluates to a signed sum over delta cycles whose value is a polynomial
in the target dimension n, with one term n**cycles per branch
combination.  Matching the integer coefficients of that polynomial
against those of the curvature invariants on the same target recovers
the invariant decomposition exactly, with no symbolic index algebra.

Conventions baked into the pattern: the four-index tensor is
antisymmetric in slots (0, 1) and in (2, 3); tracing its first and third
slots gives minus the Ricci tensor, ric(a, b) = -sum_c riem(c, a, c, b);
the scalar curvature of a sphere is positive.  Each factor carries one
power of the overall scale, so matching at unit scale determines the
invariant coefficients for every maximally symmetric target at once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# delta-expansion patterns
# ---------------------------------------------------------------------------


class Pattern(namedtuple("Pattern", "externals branches")):
    """Delta expansion of one tensor factor.

    All ``externals`` slots are visible to the caller and must be
    contracted by the pairing.  Each branch is a sign together with the
    delta edges it contributes, using local slot numbers.
    """

    __slots__ = ()


PATTERNS: dict[str, Pattern] = {
    # Riemann tensor with written slots (0, 1, 2, 3):
    #   delta(0,2) delta(1,3) - delta(0,3) delta(1,2), times the scale.
    "riem": Pattern(
        externals=4,
        branches=(
            (+1, ((0, 2), (1, 3))),
            (-1, ((0, 3), (1, 2))),
        ),
    ),
}


# ---------------------------------------------------------------------------
# cycle counting
# ---------------------------------------------------------------------------

_UNPAIRED = "every tensor slot must appear in exactly two contractions; slots {} do not"


def _contraction_powers(
    factors: Sequence[str], pairings: Iterable[Sequence[Edge]]
) -> dict[int, int]:
    """Coefficient of n**k, by k, in the summed values of the contractions.

    Every pairing and every branch combination adds its sign to the power
    given by its number of delta cycles, the same for all n.  A branch
    joins each slot of its factor to one other, and a pairing joins each
    slot of the contraction to one other, so the delta graph alternates
    between the two partner maps and is walked, not rebuilt.
    """

    # Each factor's slots follow those of the factors before it.
    combos: list[tuple[int, list[int]]] = [(1, [])]
    for name in factors:
        try:
            pattern = PATTERNS[name]
        except KeyError:
            raise ValueError(f"unknown tensor pattern {name!r}") from None
        base = len(combos[0][1])
        branches = []
        for branch_sign, branch_edges in pattern.branches:
            partner = [-1] * pattern.externals
            for a, b in branch_edges:
                partner[a], partner[b] = b + base, a + base
            if sorted(partner) != list(range(base, base + pattern.externals)):
                raise ValueError(f"a branch of {name!r} must join each slot to one other")
            branches.append((branch_sign, partner))
        combos = [
            (sign * branch_sign, partner + branch_partner)
            for sign, partner in combos
            for branch_sign, branch_partner in branches
        ]
    nslots = len(combos[0][1])
    slots = list(range(nslots))
    powers: dict[int, int] = {}
    for pairing in pairings:
        ends = sorted([slot for edge in pairing for slot in edge])
        if ends != slots:
            bad = {s for s in slots + ends if ends.count(s) != 1 or not 0 <= s < nslots}
            raise ValueError(_UNPAIRED.format(sorted(bad)))
        paired = slots[:]
        for a, b in pairing:
            paired[a], paired[b] = b, a
        for sign, partner in combos:
            # Every cycle passes through a pairing edge.
            seen = [False] * nslots
            cycles = 0
            for start, _ in pairing:
                if not seen[start]:
                    cycles += 1
                    slot = start
                    while not seen[slot]:
                        other = paired[slot]
                        seen[slot] = seen[other] = True
                        slot = partner[other]
            powers[cycles] = powers.get(cycles, 0) + sign
    return powers


# ---------------------------------------------------------------------------
# invariant decomposition
# ---------------------------------------------------------------------------

# At unit scale on a maximally symmetric target of dimension n,
#   R = -n**2 + n,
#   Rsq = n**4 - 2 n**3 + n**2,
#   RicciSq = n**3 - 2 n**2 + n,
#   RiemannSq = 2 n**2 - 2 n.
# Each basis is triangular in its top powers, so the coefficients of a
# contraction polynomial are read off from the top down, and the lower
# powers it has left over must match what those coefficients predict.


def invariant_coefficients(
    factors: Sequence[str], *pairings: Sequence[Edge]
) -> dict[str, int | Fraction]:
    """Decompose the sum of full contractions over the curvature invariants.

    Every pairing contracts the same ``factors``; their contraction
    polynomials are summed and the sum is decomposed once.  Returns the
    exact coefficients of ``one`` (no factors), ``R`` (one factor), or
    ``Rsq``/``RicciSq``/``RiemannSq`` (two factors), as ints (a
    half-integer ``RiemannSq`` is a Fraction), dropping zero entries, so
    no pairings give ``{}``.  Raises ``ValueError`` when the
    coefficients of the summed polynomial do not lie in the corresponding
    basis, which would mean a pairing is inconsistent with the patterns.
    """

    count = len(factors)
    if count > 2:
        raise ValueError(
            "contractions with more than two curvature factors exceed second order"
        )
    powers = _contraction_powers(factors, pairings)
    # p[k] is the coefficient of n**k; anything left in ``powers`` lies
    # above the basis degree.
    p = [powers.pop(k, 0) for k in range(2 * count + 1)]
    if count == 0:
        return {"one": p[0]} if p[0] else {}
    leftover = p[0] or any(powers.values())
    if count == 1:
        scalar = -p[2]
        if leftover or p[1] != scalar:
            raise ValueError(
                "single-factor contraction is not proportional to the scalar curvature"
            )
        return {"R": scalar} if scalar else {}
    r_sq = p[4]
    ricci_sq = p[3] + 2 * r_sq
    twice = p[2] - r_sq + 2 * ricci_sq
    riemann_sq = twice // 2 if twice % 2 == 0 else Fraction(twice, 2)
    if leftover or p[1] != ricci_sq - 2 * riemann_sq:
        raise ValueError(
            "two-factor contraction values do not lie in the "
            "quadratic curvature-invariant basis"
        )
    decomposition = {"Rsq": r_sq, "RicciSq": ricci_sq, "RiemannSq": riemann_sq}
    return {label: value for label, value in decomposition.items() if value}

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

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

Edge = Tuple[int, int]
Branch = Tuple[int, Tuple[Edge, ...]]


# ---------------------------------------------------------------------------
# delta-expansion patterns
# ---------------------------------------------------------------------------


class Pattern(NamedTuple):
    """Delta expansion of one tensor factor.

    All ``externals`` slots are visible to the caller and must be
    contracted by the pairing.  Each branch is a sign together with the
    delta edges it contributes, using local slot numbers.
    """

    externals: int
    branches: Tuple[Branch, ...]


PATTERNS: Dict[str, Pattern] = {
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


def _cycle_count(edges: Sequence[Edge], nslots: int) -> int:
    """Number of closed delta cycles in a 2-regular contraction graph."""

    degree = [0] * nslots
    parent = list(range(nslots))
    cycles = nslots
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            cycles -= 1
    bad = [slot for slot, count in enumerate(degree) if count != 2]
    if bad:
        raise ValueError(_UNPAIRED.format(bad))
    return cycles


def _cycle_terms(
    factors: Sequence[str], pairing: Sequence[Edge]
) -> List[Tuple[int, int]]:
    """(sign, cycle count) of every branch combination; the same for all n."""

    # Each factor's slots follow those of the factors before it.
    combos = [(1, list(pairing))]
    nslots = 0
    for name in factors:
        try:
            pattern = PATTERNS[name]
        except KeyError:
            raise ValueError(f"unknown tensor pattern {name!r}") from None
        combos = [
            (sign * branch_sign, edges + [(a + nslots, b + nslots) for a, b in branch_edges])
            for sign, edges in combos
            for branch_sign, branch_edges in pattern.branches
        ]
        nslots += pattern.externals
    stray = sorted({slot for edge in pairing for slot in edge if not 0 <= slot < nslots})
    if stray:
        raise ValueError(_UNPAIRED.format(stray))
    return [(sign, _cycle_count(edges, nslots)) for sign, edges in combos]


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
) -> Dict[str, Fraction]:
    """Decompose the sum of full contractions over the curvature invariants.

    Every pairing contracts the same ``factors``; their contraction
    polynomials are summed and the sum is decomposed once.  Returns the
    exact coefficients of ``one`` (no factors), ``R`` (one factor), or
    ``Rsq``/``RicciSq``/``RiemannSq`` (two factors), dropping zero
    entries, so no pairings give ``{}``.  Raises ``ValueError`` when the
    coefficients of the summed polynomial do not lie in the corresponding
    basis, which would mean a pairing is inconsistent with the patterns.
    """

    count = len(factors)
    if count > 2:
        raise ValueError(
            "contractions with more than two curvature factors exceed second order"
        )
    powers: Dict[int, int] = {}
    for pairing in pairings:
        for sign, cycles in _cycle_terms(factors, pairing):
            powers[cycles] = powers.get(cycles, 0) + sign
    # p[k] is the coefficient of n**k; anything left in ``powers`` lies
    # above the basis degree.
    p = [powers.pop(k, 0) for k in range(2 * count + 1)]
    if count == 0:
        return {"one": Fraction(p[0])} if p[0] else {}
    leftover = p[0] or any(powers.values())
    if count == 1:
        scalar = -p[2]
        if leftover or p[1] != scalar:
            raise ValueError(
                "single-factor contraction is not proportional to the scalar curvature"
            )
        return {"R": Fraction(scalar)} if scalar else {}
    r_sq = p[4]
    ricci_sq = p[3] + 2 * r_sq
    riemann_sq = Fraction(p[2] - r_sq + 2 * ricci_sq, 2)
    if leftover or p[1] != ricci_sq - 2 * riemann_sq:
        raise ValueError(
            "two-factor contraction values do not lie in the "
            "quadratic curvature-invariant basis"
        )
    decomposition = {
        "Rsq": Fraction(r_sq),
        "RicciSq": Fraction(ricci_sq),
        "RiemannSq": riemann_sq,
    }
    return {label: value for label, value in decomposition.items() if value}

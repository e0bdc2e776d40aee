"""Contractions of curvature tensors on a maximally symmetric target.

Wick pairings of curved-space vertices produce products of Riemann and
Ricci tensors fully contracted with Kronecker deltas.  On a maximally
symmetric target the Riemann tensor is an antisymmetrized product of
metric deltas times a single scale, so every full contraction evaluates
to a signed sum over delta cycles whose value is a polynomial in the
target dimension n, with one term n**cycles per branch combination.
Matching the integer coefficients of that polynomial against those of
the curvature invariants on the same target recovers the invariant
decomposition exactly, with no symbolic index algebra.

Conventions baked into the patterns: the four-index tensor is
antisymmetric in slots (0, 1) and in (2, 3); tracing a pair of first and
third slots gives minus the Ricci tensor; the scalar curvature of a
sphere is positive.  Each factor carries one power of the overall scale,
so matching at unit scale determines the invariant coefficients for every
maximally symmetric target at once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

Edge = Tuple[int, int]
Branch = Tuple[int, Tuple[Edge, ...]]


# ---------------------------------------------------------------------------
# delta-expansion patterns
# ---------------------------------------------------------------------------


class Pattern(NamedTuple):
    """Delta expansion of one tensor factor.

    ``externals`` slots are visible to the caller and must be contracted
    by the pairing; ``aux`` slots are internal summation indices.  Each
    branch is a sign together with the delta edges it contributes, using
    local slot numbers (externals first, then aux).
    """

    externals: int
    aux: int
    branches: Tuple[Branch, ...]


PATTERNS: Dict[str, Pattern] = {
    # Riemann tensor with written slots (0, 1, 2, 3):
    #   delta(0,2) delta(1,3) - delta(0,3) delta(1,2), times the scale.
    "riem": Pattern(
        externals=4,
        aux=0,
        branches=(
            (+1, ((0, 2), (1, 3))),
            (-1, ((0, 3), (1, 2))),
        ),
    ),
    # Ricci tensor with written slots (0, 1), defined as minus the trace
    # of the four-index pattern over its first and third slots; slots 2
    # and 3 are the auxiliary trace pair.
    "ric": Pattern(
        externals=2,
        aux=2,
        branches=(
            (-1, ((2, 3), (2, 3), (0, 1))),
            (+1, ((2, 3), (2, 1), (0, 3))),
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

    patterns = []
    for name in factors:
        try:
            patterns.append(PATTERNS[name])
        except KeyError:
            raise ValueError(f"unknown tensor pattern {name!r}") from None

    # Global slots: every factor's externals in order, then every aux.
    total_ext = sum(pat.externals for pat in patterns)
    nslots = total_ext + sum(pat.aux for pat in patterns)
    stray = sorted({slot for edge in pairing for slot in edge if not 0 <= slot < nslots})
    if stray:
        raise ValueError(_UNPAIRED.format(stray))
    branches = []
    ext, aux = 0, total_ext
    for pat in patterns:
        place = [*range(ext, ext + pat.externals), *range(aux, aux + pat.aux)]
        branches.append([
            (sign, [(place[a], place[b]) for a, b in edges])
            for sign, edges in pat.branches
        ])
        ext += pat.externals
        aux += pat.aux

    terms = []
    for combo in itertools.product(*branches):
        sign = 1
        edges = list(pairing)
        for branch_sign, branch_edges in combo:
            sign *= branch_sign
            edges += branch_edges
        terms.append((sign, _cycle_count(edges, nslots)))
    return terms


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
    factors: Sequence[str], pairing: Sequence[Edge]
) -> Dict[str, Fraction]:
    """Decompose a full contraction over the curvature invariants.

    Returns the exact coefficients of ``one`` (no factors), ``R`` (one
    factor), or ``Rsq``/``RicciSq``/``RiemannSq`` (two factors), dropping
    zero entries.  Raises ``ValueError`` when the coefficients of the
    contraction polynomial do not lie in the corresponding basis, which
    would mean the pairing is inconsistent with the patterns.
    """

    count = len(factors)
    if count == 0:
        if pairing:
            raise ValueError("a contraction without tensor factors takes no pairing")
        return {"one": Fraction(1)}
    if count > 2:
        raise ValueError(
            "contractions with more than two curvature factors exceed second order"
        )
    powers: Dict[int, int] = {}
    for sign, cycles in _cycle_terms(factors, pairing):
        powers[cycles] = powers.get(cycles, 0) + sign
    # p[k] is the coefficient of n**k; anything left in ``powers`` lies
    # above the basis degree.
    p = [powers.pop(k, 0) for k in range(2 * count + 1)]
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

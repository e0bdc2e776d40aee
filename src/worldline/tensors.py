"""Contractions of curvature tensors on a maximally symmetric target.

Wick pairings of curved-space vertices produce products of Riemann and
Ricci tensors fully contracted with Kronecker deltas.  On a maximally
symmetric target the Riemann tensor is an antisymmetrized product of
metric deltas times a single scale, so every full contraction evaluates
to a signed sum over delta cycles whose value is a polynomial in the
target dimension.  Matching that polynomial against the values of the
curvature invariants on the same target recovers the invariant
decomposition exactly, with no symbolic index algebra.

Conventions baked into the patterns: the four-index tensor is
antisymmetric in slots (0, 1) and in (2, 3); tracing a pair of first and
third slots gives minus the Ricci tensor; the scalar curvature of a
sphere is positive.  Each factor carries one power of the overall scale,
so fitting at unit scale determines the invariant coefficients for every
maximally symmetric target at once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

Edge = Tuple[int, int]
Branch = Tuple[int, Tuple[Edge, ...]]


# ---------------------------------------------------------------------------
# delta-expansion patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
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


def _cycle_count(edges: Sequence[Edge], nslots: int) -> int:
    """Number of closed delta cycles in a 2-regular contraction graph."""

    degree = [0] * nslots
    parent = list(range(nslots))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    bad = [slot for slot, count in enumerate(degree) if count != 2]
    if bad:
        raise ValueError(
            "every tensor slot must appear in exactly two contractions; "
            f"slots {bad} do not"
        )
    return len({find(slot) for slot in range(nslots)})


@functools.cache
def _cycle_terms(
    factors: Tuple[str, ...], pairing: Tuple[Edge, ...]
) -> Tuple[Tuple[int, int], ...]:
    """(sign, cycle count) of every branch combination; the same for all n."""

    patterns = []
    for name in factors:
        try:
            patterns.append(PATTERNS[name])
        except KeyError:
            raise ValueError(f"unknown tensor pattern {name!r}") from None

    ext_offsets = []
    total_ext = 0
    for pat in patterns:
        ext_offsets.append(total_ext)
        total_ext += pat.externals
    aux_offsets = []
    total_aux = 0
    for pat in patterns:
        aux_offsets.append(total_ext + total_aux)
        total_aux += pat.aux
    nslots = total_ext + total_aux

    def shift(which: int, slot: int) -> int:
        pat = patterns[which]
        if slot < pat.externals:
            return ext_offsets[which] + slot
        return aux_offsets[which] + (slot - pat.externals)

    terms = []
    for combo in itertools.product(*(pat.branches for pat in patterns)):
        sign = 1
        edges = list(pairing)
        for which, (branch_sign, branch_edges) in enumerate(combo):
            sign *= branch_sign
            for a, b in branch_edges:
                edges.append((shift(which, a), shift(which, b)))
        terms.append((sign, _cycle_count(edges, nslots)))
    return tuple(terms)


def _key(
    factors: Sequence[str], pairing: Sequence[Edge]
) -> Tuple[Tuple[str, ...], Tuple[Edge, ...]]:
    return tuple(factors), tuple((a, b) for a, b in pairing)


def _evaluate(terms: Tuple[Tuple[int, int], ...], dimension: int) -> int:
    return sum(sign * dimension**cycles for sign, cycles in terms)


def contraction_value(
    factors: Sequence[str], pairing: Sequence[Edge], dimension: int
) -> int:
    """Value of the fully contracted product at unit scale.

    ``factors`` names the tensor patterns in order; their external slots
    are numbered globally and contiguously, factor by factor.  ``pairing``
    lists the delta contractions among those global external slots, one
    edge per Wick pair or internal vertex contraction.
    """

    return _evaluate(_cycle_terms(*_key(factors, pairing)), dimension)


# ---------------------------------------------------------------------------
# invariant decomposition
# ---------------------------------------------------------------------------

# Values of the curvature invariants on a maximally symmetric target of
# dimension n at unit scale, in the order (Rsq, RicciSq, RiemannSq).


def _scalar_value(n: int) -> int:
    return -n * (n - 1)


def _quadratic_row(n: int) -> Tuple[int, int, int]:
    return (
        n * n * (n - 1) * (n - 1),
        n * (n - 1) * (n - 1),
        2 * n * (n - 1),
    )


def _inverse_three(rows: Sequence[Tuple[int, int, int]]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Exact inverse of a 3x3 matrix by Gauss-Jordan elimination."""

    work = [
        [Fraction(entry) for entry in rows[i]] + [Fraction(int(i == k)) for k in range(3)]
        for i in range(3)
    ]
    for col in range(3):
        pivot = next(r for r in range(col, 3) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [entry / scale for entry in work[col]]
        for r in range(3):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[3:]) for row in work)


# The quadratic basis is fitted at n = 2, 3, 4 and verified at n = 5, 6, 7.
_FIT_DIMENSIONS = (2, 3, 4)
_FIT_INVERSE = _inverse_three([_quadratic_row(n) for n in _FIT_DIMENSIONS])


def invariant_coefficients(
    factors: Sequence[str], pairing: Sequence[Edge]
) -> Dict[str, Fraction]:
    """Decompose a full contraction over the curvature invariants.

    Returns the exact coefficients of ``one`` (no factors), ``R`` (one
    factor), or ``Rsq``/``RicciSq``/``RiemannSq`` (two factors), dropping
    zero entries.  Raises ``ValueError`` when the sampled values do not
    lie in the corresponding basis, which would mean the pairing is
    inconsistent with the patterns.  Each decomposition is computed once
    per process; every call returns a fresh dict.
    """

    return dict(_decompose(*_key(factors, pairing)))


@functools.cache
def _decompose(
    factors: Tuple[str, ...], pairing: Tuple[Edge, ...]
) -> Dict[str, Fraction]:
    count = len(factors)
    if count == 0:
        if pairing:
            raise ValueError("a contraction without tensor factors takes no pairing")
        return {"one": Fraction(1)}
    if count > 2:
        raise ValueError(
            "contractions with more than two curvature factors exceed second order"
        )
    terms = _cycle_terms(factors, pairing)
    samples = {n: _evaluate(terms, n) for n in range(2, 8)}
    if count == 1:
        coefficient = Fraction(samples[2], _scalar_value(2))
        if any(Fraction(samples[n], _scalar_value(n)) != coefficient for n in range(3, 8)):
            raise ValueError(
                "single-factor contraction is not proportional to the scalar curvature"
            )
        return {"R": coefficient} if coefficient else {}
    rhs = [samples[n] for n in _FIT_DIMENSIONS]
    r_sq, ricci_sq, riemann_sq = (
        sum(entry * value for entry, value in zip(row, rhs)) for row in _FIT_INVERSE
    )
    for n in (5, 6, 7):
        row = _quadratic_row(n)
        predicted = r_sq * row[0] + ricci_sq * row[1] + riemann_sq * row[2]
        if predicted != samples[n]:
            raise ValueError(
                "two-factor contraction values do not lie in the "
                "quadratic curvature-invariant basis"
            )
    decomposition = {"Rsq": r_sq, "RicciSq": ricci_sq, "RiemannSq": riemann_sq}
    return {label: value for label, value in decomposition.items() if value}

"""Tests for the maximally symmetric tensor contractor."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worldline.tensors import (
    contraction_value,
    invariant_coefficients,
)


# ---------------------------------------------------------------------------
# single-factor contractions
# ---------------------------------------------------------------------------


def test_ricci_trace_is_scalar_curvature():
    assert invariant_coefficients(("ric",), ((0, 1),)) == {"R": Fraction(1)}


def test_riemann_first_third_trace_pair():
    # Tracing slots (0, 2) and (1, 3) sums the diagonal of minus the
    # Ricci tensor, so the coefficient of R is -1.
    assert invariant_coefficients(("riem",), ((0, 2), (1, 3))) == {"R": Fraction(-1)}


def test_riemann_antisymmetric_trace_vanishes():
    assert invariant_coefficients(("riem",), ((0, 1), (2, 3))) == {}


def test_riemann_crossed_trace_pair():
    assert invariant_coefficients(("riem",), ((0, 3), (1, 2))) == {"R": Fraction(1)}


# ---------------------------------------------------------------------------
# two-factor contractions
# ---------------------------------------------------------------------------


def test_full_square_is_riemann_squared():
    pairing = ((0, 4), (1, 5), (2, 6), (3, 7))
    assert invariant_coefficients(("riem", "riem"), pairing) == {
        "RiemannSq": Fraction(1)
    }


def test_traced_pair_is_ricci_squared():
    # Trace each factor over its first and third slot, then square.
    pairing = ((0, 2), (4, 6), (1, 5), (3, 7))
    assert invariant_coefficients(("riem", "riem"), pairing) == {
        "RicciSq": Fraction(1)
    }


def test_double_trace_is_scalar_squared():
    pairing = ((0, 2), (1, 3), (4, 6), (5, 7))
    assert invariant_coefficients(("riem", "riem"), pairing) == {"Rsq": Fraction(1)}


def test_ricci_pair_square():
    assert invariant_coefficients(("ric", "ric"), ((0, 2), (1, 3))) == {
        "RicciSq": Fraction(1)
    }


def test_mixed_ricci_riemann_contraction():
    # Sum over R_ij times the (0, 2)-trace of the four-index factor,
    # which is minus the Ricci tensor.
    pairing = ((2, 4), (0, 3), (1, 5))
    assert invariant_coefficients(("ric", "riem"), pairing) == {
        "RicciSq": Fraction(-1)
    }


# ---------------------------------------------------------------------------
# raw values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
def test_full_square_raw_value(n):
    pairing = ((0, 4), (1, 5), (2, 6), (3, 7))
    assert contraction_value(("riem", "riem"), pairing, n) == 2 * n * (n - 1)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_scalar_trace_raw_value(n):
    assert contraction_value(("riem",), ((0, 2), (1, 3)), n) == n * (n - 1)


def test_one_dimensional_target_is_flat():
    pairing = ((0, 4), (1, 5), (2, 6), (3, 7))
    assert contraction_value(("riem", "riem"), pairing, 1) == 0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unpaired_slot_is_rejected():
    with pytest.raises(ValueError):
        contraction_value(("riem",), ((0, 2),), 3)


def test_no_factors_means_unit():
    assert invariant_coefficients((), ()) == {"one": Fraction(1)}


def test_three_factors_are_rejected():
    pairing = tuple((2 * k, 2 * k + 1) for k in range(6))
    with pytest.raises(ValueError):
        invariant_coefficients(("riem", "riem", "riem"), pairing)


def test_unknown_pattern_is_rejected():
    with pytest.raises(ValueError):
        contraction_value(("weyl",), ((0, 1),), 3)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(st.permutations(range(8)))
def test_any_full_pairing_of_two_factors_decomposes(order):
    pairing = tuple(
        (min(order[2 * k], order[2 * k + 1]), max(order[2 * k], order[2 * k + 1]))
        for k in range(4)
    )
    coefficients = invariant_coefficients(("riem", "riem"), pairing)
    basis = {
        "Rsq": lambda n: n * n * (n - 1) * (n - 1),
        "RicciSq": lambda n: n * (n - 1) * (n - 1),
        "RiemannSq": lambda n: 2 * n * (n - 1),
    }
    for n in (2, 3, 6):
        rebuilt = sum(coefficients.get(k, 0) * basis[k](n) for k in basis)
        assert rebuilt == contraction_value(("riem", "riem"), pairing, n)


@given(st.permutations(range(8)))
def test_factor_swap_leaves_coefficients_unchanged(order):
    pairing = tuple(sorted((order[2 * k], order[2 * k + 1])) for k in range(4))
    swapped = tuple(
        tuple(sorted(((a + 4) % 8, (b + 4) % 8))) for a, b in pairing
    )
    left = invariant_coefficients(("riem", "riem"), pairing)
    right = invariant_coefficients(("riem", "riem"), swapped)
    assert left == right


# ---------------------------------------------------------------------------
# memoized decompositions
# ---------------------------------------------------------------------------


def test_mutating_a_result_leaves_the_next_call_intact():
    pairing = [(0, 4), (1, 5), (2, 6), (3, 7)]
    first = invariant_coefficients(["riem", "riem"], pairing)
    first["RiemannSq"] = Fraction(99)
    first["Rsq"] = Fraction(7)
    assert invariant_coefficients(("riem", "riem"), tuple(pairing)) == {
        "RiemannSq": Fraction(1)
    }
    assert invariant_coefficients(["riem", "riem"], pairing) is not first


def _components(name, n):
    """Explicit components at unit scale on an n-dimensional target."""
    if name == "riem":
        return lambda a, b, c, d: (a == c) * (b == d) - (a == d) * (b == c)
    return lambda a, b: -(n - 1) * (a == b)


def _brute_force_value(factors, pairing, n):
    """Sum the contracted product over every index assignment."""
    arity = {"riem": 4, "ric": 2}
    slot_edge = {}
    for edge, (a, b) in enumerate(pairing):
        slot_edge[a] = slot_edge[b] = edge
    components = [_components(name, n) for name in factors]
    total = 0
    for values in itertools.product(range(n), repeat=len(pairing)):
        term, slot = 1, 0
        for name, component in zip(factors, components):
            indices = [values[slot_edge[s]] for s in range(slot, slot + arity[name])]
            slot += arity[name]
            term *= component(*indices)
            if not term:
                break
        total += term
    return total


def _perfect_matchings(slots):
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    for index, partner in enumerate(rest):
        for tail in _perfect_matchings(rest[:index] + rest[index + 1 :]):
            yield ((first, partner),) + tail


@pytest.mark.parametrize(
    "factors", [("riem",), ("ric",), ("ric", "ric"), ("ric", "riem"), ("riem", "riem")]
)
def test_contraction_value_matches_a_brute_force_recount(factors):
    nslots = sum({"riem": 4, "ric": 2}[name] for name in factors)
    # The cycle list of a pairing is computed once and reused for every n.
    for pairing in _perfect_matchings(tuple(range(nslots))):
        for n in range(2, 8):
            assert contraction_value(factors, pairing, n) == _brute_force_value(
                factors, pairing, n
            ), (factors, pairing, n)

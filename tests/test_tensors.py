"""Tests for the maximally symmetric tensor contractor."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worldline import tensors
from worldline.tensors import Pattern, _cycle_terms, invariant_coefficients


def contraction_value(factors, pairing, n):
    """The full contraction on an n-dimensional target at unit scale."""
    return sum(sign * n**cycles for sign, cycles in _cycle_terms(factors, pairing))


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


@pytest.mark.parametrize("pairing", [((0, 1), (2, -1)), ((0, 1), (2, 9))])
def test_pairing_slot_out_of_range_is_rejected(pairing):
    with pytest.raises(ValueError, match="exactly two contractions"):
        invariant_coefficients(("riem",), pairing)


@pytest.mark.parametrize(
    "factors, pairing, message",
    [
        (
            ("probe",),
            ((0, 1),),
            "single-factor contraction is not proportional to the scalar curvature",
        ),
        (
            ("probe", "probe"),
            ((0, 2), (1, 3)),
            "two-factor contraction values do not lie in the "
            "quadratic curvature-invariant basis",
        ),
    ],
)
def test_values_outside_the_invariant_basis_are_refused(
    factors, pairing, message, monkeypatch
):
    # One branch closing its two slots on each other: every contraction
    # is a single cycle, so its value is n, in neither basis.
    monkeypatch.setitem(tensors.PATTERNS, "probe", Pattern(2, 0, ((1, ((0, 1),)),)))
    assert contraction_value(factors, pairing, 5) == 5
    with pytest.raises(ValueError) as refusal:
        invariant_coefficients(factors, pairing)
    assert str(refusal.value) == message


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


# Curvature invariants on an n-dimensional target at unit scale.
_BASIS = {
    "R": lambda n: -n * (n - 1),
    "Rsq": lambda n: n * n * (n - 1) * (n - 1),
    "RicciSq": lambda n: n * (n - 1) * (n - 1),
    "RiemannSq": lambda n: 2 * n * (n - 1),
}


@given(st.permutations(range(8)))
def test_any_full_pairing_of_two_factors_decomposes(order):
    pairing = tuple(
        (min(order[2 * k], order[2 * k + 1]), max(order[2 * k], order[2 * k + 1]))
        for k in range(4)
    )
    coefficients = invariant_coefficients(("riem", "riem"), pairing)
    for n in (2, 3, 6):
        rebuilt = sum(value * _BASIS[label](n) for label, value in coefficients.items())
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
# every call reads the current patterns
# ---------------------------------------------------------------------------


def test_a_replaced_pattern_answers_for_pairings_seen_before(monkeypatch):
    assert invariant_coefficients(("riem",), ((0, 2), (1, 3))) == {"R": Fraction(-1)}
    riem = tensors.PATTERNS["riem"]
    negated = riem._replace(branches=tuple((-sign, edges) for sign, edges in riem.branches))
    monkeypatch.setitem(tensors.PATTERNS, "riem", negated)
    assert invariant_coefficients(("riem",), ((0, 2), (1, 3))) == {"R": Fraction(1)}
    assert invariant_coefficients(("riem",), ((0, 3), (1, 2))) == {"R": Fraction(-1)}


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


_FACTOR_TUPLES = [("riem",), ("ric",), ("ric", "ric"), ("ric", "riem"), ("riem", "riem")]


def _pairings(factors):
    nslots = sum({"riem": 4, "ric": 2}[name] for name in factors)
    return _perfect_matchings(tuple(range(nslots)))


@pytest.mark.parametrize("factors", _FACTOR_TUPLES)
def test_every_pairing_is_rebuilt_from_its_coefficients(factors):
    for pairing in _pairings(factors):
        coefficients = invariant_coefficients(factors, pairing)
        for n in range(1, 10):
            rebuilt = sum(value * _BASIS[label](n) for label, value in coefficients.items())
            assert rebuilt == contraction_value(factors, pairing, n), (factors, pairing, n)


@pytest.mark.parametrize("factors", _FACTOR_TUPLES)
def test_contraction_value_matches_a_brute_force_recount(factors):
    for pairing in _pairings(factors):
        for n in range(2, 8):
            assert contraction_value(factors, pairing, n) == _brute_force_value(
                factors, pairing, n
            ), (factors, pairing, n)

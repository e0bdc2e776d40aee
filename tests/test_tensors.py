"""Tests for the maximally symmetric tensor contractor."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worldline import tensors
from worldline.tensors import Pattern, _contraction_powers, invariant_coefficients


def contraction_value(factors, pairing, n):
    """The full contraction on an n-dimensional target at unit scale."""
    return sum(c * n**k for k, c in _contraction_powers(factors, [pairing]).items())


_ARITY = {"riem": 4, "ric": 2}


def _traced(factors, pairing):
    """A contraction written with Ricci factors, in traced-Riemann form.

    ric(a, b) = -sum_c riem(c, a, c, b), so each "ric" becomes a Riemann
    factor with slots (0, 2) traced and a, b in slots 1 and 3, as the
    normal-coordinate measure vertex writes it.  The value changes sign
    once per Ricci factor.
    """
    place, traces = [], []
    for position, name in enumerate(factors):
        base = 4 * position
        if name == "ric":
            place += [base + 1, base + 3]
            traces.append((base, base + 2))
        else:
            place += range(base, base + 4)
    pairing = traces + [(place[a], place[b]) for a, b in pairing]
    return ("riem",) * len(factors), pairing


# ---------------------------------------------------------------------------
# single-factor contractions
# ---------------------------------------------------------------------------


def test_ricci_trace_is_scalar_curvature():
    # The traced-Riemann form of the Ricci trace is minus R.
    factors, pairing = _traced(("ric",), ((0, 1),))
    assert (factors, pairing) == (("riem",), [(0, 2), (1, 3)])
    assert invariant_coefficients(factors, pairing) == {"R": Fraction(-1)}


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
    # Two Ricci factors, two sign changes.
    factors, pairing = _traced(("ric", "ric"), ((0, 2), (1, 3)))
    assert pairing == [(0, 2), (4, 6), (1, 5), (3, 7)]
    assert invariant_coefficients(factors, pairing) == {"RicciSq": Fraction(1)}


def test_mixed_ricci_riemann_contraction():
    # Sum over R_ij times the (0, 2)-trace of the four-index factor,
    # which is minus the Ricci tensor; the traced form changes the sign.
    factors, pairing = _traced(("ric", "riem"), ((2, 4), (0, 3), (1, 5)))
    assert invariant_coefficients(factors, pairing) == {"RicciSq": Fraction(1)}


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
    monkeypatch.setitem(tensors.PATTERNS, "probe", Pattern(2, ((1, ((0, 1),)),)))
    assert contraction_value(factors, pairing, 5) == 5
    with pytest.raises(ValueError) as refusal:
        invariant_coefficients(factors, pairing)
    assert str(refusal.value) == message


def test_no_factors_means_unit():
    assert invariant_coefficients((), ()) == {"one": Fraction(1)}
    assert invariant_coefficients((), (), ()) == {"one": Fraction(2)}


@pytest.mark.parametrize("factors", [(), ("riem",), ("riem", "riem")])
def test_no_pairings_sum_to_nothing(factors):
    # An empty sum is zero, and zero entries are dropped.
    assert invariant_coefficients(factors) == {}


def test_a_factorless_contraction_refuses_a_pairing():
    with pytest.raises(ValueError, match="exactly two contractions"):
        invariant_coefficients((), ((0, 1),))


def test_three_factors_are_rejected():
    pairing = tuple((2 * k, 2 * k + 1) for k in range(6))
    with pytest.raises(ValueError):
        invariant_coefficients(("riem", "riem", "riem"), pairing)


@pytest.mark.parametrize("edges", [((0, 1),), ((0, 1), (1, 2)), ((0, 0), (2, 3))])
def test_a_branch_that_leaves_a_slot_unjoined_is_refused(edges, monkeypatch):
    # The walk needs each branch to join every slot of its factor to
    # exactly one other.
    monkeypatch.setitem(tensors.PATTERNS, "probe", Pattern(4, ((1, edges),)))
    with pytest.raises(ValueError, match="must join each slot to one other"):
        invariant_coefficients(("probe",), ((0, 1), (2, 3)))


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
    slot_edge = {}
    for edge, (a, b) in enumerate(pairing):
        slot_edge[a] = slot_edge[b] = edge
    components = [_components(name, n) for name in factors]
    total = 0
    for values in itertools.product(range(n), repeat=len(pairing)):
        term, slot = 1, 0
        for name, component in zip(factors, components):
            indices = [values[slot_edge[s]] for s in range(slot, slot + _ARITY[name])]
            slot += _ARITY[name]
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


_RICCI_TUPLES = [("ric",), ("ric", "ric"), ("ric", "riem")]
_FACTOR_TUPLES = [("riem",), *_RICCI_TUPLES, ("riem", "riem")]


def _pairings(factors):
    nslots = sum(_ARITY[name] for name in factors)
    return _perfect_matchings(tuple(range(nslots)))


def _traced_pairings(factors):
    """Every pairing of the written slots, in traced-Riemann form."""
    return [_traced(factors, pairing) for pairing in _pairings(factors)]


@pytest.mark.parametrize("factors", _FACTOR_TUPLES)
def test_every_pairing_is_rebuilt_from_its_coefficients(factors):
    for riemann, pairing in _traced_pairings(factors):
        coefficients = invariant_coefficients(riemann, pairing)
        for n in range(1, 10):
            rebuilt = sum(value * _BASIS[label](n) for label, value in coefficients.items())
            assert rebuilt == contraction_value(riemann, pairing, n), (factors, pairing, n)


@pytest.mark.parametrize("factors", _FACTOR_TUPLES)
def test_contraction_value_matches_a_brute_force_recount(factors):
    for riemann, pairing in _traced_pairings(factors):
        for n in range(2, 8):
            assert contraction_value(riemann, pairing, n) == _brute_force_value(
                riemann, pairing, n
            ), (factors, pairing, n)


@pytest.mark.parametrize("factors", _RICCI_TUPLES)
def test_traced_riemann_equals_the_ricci_factor_it_replaces(factors):
    # The reference is the Ricci components -(n - 1) delta(a, b).
    sign = (-1) ** factors.count("ric")
    for pairing in _pairings(factors):
        riemann, traced = _traced(factors, pairing)
        for n in range(2, 8):
            assert _brute_force_value(factors, pairing, n) == sign * contraction_value(
                riemann, traced, n
            ), (factors, pairing, n)


_SUMMABLE = {
    factors: list(_pairings(factors)) for factors in [("riem",), ("riem", "riem")]
}


@given(st.data())
def test_summed_pairings_decompose_as_the_sum_of_single_pairings(data):
    factors = data.draw(st.sampled_from(sorted(_SUMMABLE)))
    pairings = data.draw(
        st.lists(st.sampled_from(_SUMMABLE[factors]), min_size=1, max_size=6)
    )
    expected = {}
    for pairing in pairings:
        for label, value in invariant_coefficients(factors, pairing).items():
            expected[label] = expected.get(label, 0) + value
    assert invariant_coefficients(factors, *pairings) == {
        label: value for label, value in expected.items() if value
    }

"""Every small propagator product, reduced and integrated, against pinned hashes.

The products are the multisets of ``(kind, i, j)`` factors with i <= j on
1-2 variables with up to 5 factors and on 3 variables with up to 4 factors,
where every variable occurs and carries 0 or 2 dotted ends.  Each one runs
through ``reduction._reduce_product``; its factors, value or error text, move
log and eps-power notes go into one sha256 per rule set.  A refactor of the
reducer or the integrator that changes any value, refusal, move or note of
these 2,502 products changes the hash.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from worldline import reduction
from worldline.integrands import ParsedProduct, SingularAtom
from worldline.integration import DIMREG, MODEREG, UnreducedSingularStructureError
from worldline.reduction import (
    ReductionError,
    TProp,
    TTerm,
    _integrate_leaf,
    _Reading,
    _reduce_lifted,
    _reduce_product,
    _resolve,
    _signature,
)
from worldline.values import RegValue

# (variable count, most factors) of the enumerated products.
SIZES = ((1, 5), (2, 5), (3, 4))

EXPECTED = {
    "DimReg": "fb0d8d3936db6729d4602bedecbfe5ba0c5204686b7a849e0dd5ed4a37a24423",
    "ModeReg": "1ae5f179d9f314b1995a4368ddab27cde06408fc0509fd8d9696cf6df0b53218",
}


# The ends of each kind that carry a time derivative: (left, right).
_DOTS = {"D": (0, 0), "Dl": (1, 0), "Dr": (0, 1), "DD": (1, 1)}


def enumerated_products(sizes=SIZES):
    """(factors, variable count) of every product of the given sizes."""
    for nvars, most in sizes:
        slots = [
            (kind, i, j)
            for kind in ("D", "Dl", "Dr", "DD")
            for i in range(nvars)
            for j in range(i, nvars)
        ]
        for count in range(1, most + 1):
            for factors in combinations_with_replacement(slots, count):
                if len({v for _, i, j in factors for v in (i, j)}) < nvars:
                    continue
                dots = Counter()
                for kind, i, j in factors:
                    left, right = _DOTS[kind]
                    dots[i] += left
                    dots[j] += right
                if all(dots[v] in (0, 2) for v in range(nvars)):
                    yield factors, nvars


def outcome(rules, factors, nvars) -> tuple[str, list[dict], list[str]]:
    """(value or error text, move log, notes) of one product reduced under ``rules``."""
    log: list[dict] = []
    notes: list[str] = []
    try:
        text = _reduce_product(rules, ParsedProduct(RegValue.one(), factors, nvars), log, notes).text()
    except (ReductionError, UnreducedSingularStructureError) as error:
        text = f"{type(error).__name__}: {error}"
    return text, log, notes


def outcome_digest(rules, sizes=SIZES) -> tuple[int, str]:
    """(product count, sha256 of every product's reduced outcome) under ``rules``."""
    digest = hashlib.sha256()
    count = 0
    for factors, nvars in enumerated_products(sizes):
        described = [(kind, i, j) for kind, i, j in factors]
        digest.update(repr((described, *outcome(rules, factors, nvars))).encode())
        digest.update(b"\n")
        count += 1
    return count, digest.hexdigest()


def clear_memos():
    _reduce_lifted.cache_clear()
    _integrate_leaf.cache_clear()


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_every_small_product_keeps_its_outcome(rules):
    assert outcome_digest(rules) == (2502, EXPECTED[rules.name])


def test_the_enumeration_holds_the_refused_triangle():
    # DD(1,2)*DD(1,3)*DD(2,3): a closed delta triangle that the reducer refuses.
    triangle = (("DD", 0, 1), ("DD", 0, 2), ("DD", 1, 2))
    assert (triangle, 3) in set(enumerated_products())
    with pytest.raises((ReductionError, UnreducedSingularStructureError)):
        _reduce_product(DIMREG, ParsedProduct(RegValue.one(), triangle, 3), None, [])


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_a_memo_hit_replays_the_search(rules):
    # Cold, the memos search every lifted term and integrate every leaf;
    # warm, they answer each from what they recorded, and a search or an
    # integration would add an entry.  Any value, refusal, move or note that
    # a hit replays differently changes the digest.
    memos = (_reduce_lifted, _integrate_leaf)
    clear_memos()
    cold = outcome_digest(rules, ((2, 4),))
    searched = [memo.cache_info()["currsize"] for memo in memos]
    warm = outcome_digest(rules, ((2, 4),))
    assert [memo.cache_info()["currsize"] for memo in memos] == searched
    assert min(searched) > 0
    assert warm == cold


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(enumerated_products(((1, 4), (2, 4), (3, 4))))),
    st.sampled_from([(DIMREG, MODEREG), (MODEREG, DIMREG)]),
)
def test_one_memo_serves_both_rule_sets_as_two_fresh_ones_would(product, schemes):
    # An entry that never looked up an eps power serves the other rule set
    # too.  Whichever scheme runs first, each one's value or refusal, move
    # log and notes are those of a fresh memo.
    fresh = []
    for rules in schemes:
        clear_memos()
        fresh.append(outcome(rules, *product))
    clear_memos()
    assert [outcome(rules, *product) for rules in schemes] == fresh
    clear_memos()


# -- confluence ----------------------------------------------------------------

_REFUSALS = (ReductionError, UnreducedSingularStructureError)


def _candidate_values(rules, term, depth) -> dict[tuple[int, int], RegValue]:
    """The value of ``term`` through each partial-integration candidate that succeeds.

    Each candidate is taken as ``_search`` takes one: its pieces are reduced,
    and the ones that repeat the term solve for it as a fixed point.
    """
    values = {}
    signature = _signature(term)
    for idx, prop in enumerate(term.props):
        for side, labels in ((0, prop.left), (1, prop.right)):
            if len(labels) != 1:
                continue
            try:
                ratio, total = Fraction(0), RegValue.zero()
                for piece in reduction.partial_integration(term, idx, side):
                    terms = dict(piece.coefficient.items())
                    if terms.keys() <= {(0, 0)} and _signature(piece) == signature:
                        ratio += terms.get((0, 0), 0)
                    else:
                        total = total + _resolve(_Reading(rules), piece, depth - 1, [], [])
            except _REFUSALS:
                continue
            if ratio != 1:
                values[idx, side] = total / (1 - ratio)
    return values


def _node_text(term) -> tuple[str, ...]:
    deltas = [f"delta({d.i + 1},{d.j + 1})" for d in term.deltas]
    return tuple(sorted(prop.describe() for prop in term.props)) + tuple(sorted(deltas))


# [mu]D[](1,1) [mu]D[nu](1,2) [nu]D[](2,3) times delta(1,3): before partial
# integrations refused a delta on their variable, its candidates gave
# beta/12 or beta/6.
_SPLIT_NODE = TTerm(
    RegValue.one(), 3,
    (TProp(0, 0, ("mu",), ()), TProp(0, 1, ("mu",), ("nu",)), TProp(1, 2, ("nu",), ())),
    (SingularAtom("delta", 0, 2),),
)
# Under ModeReg two lifted terms still split, at every depth they are
# searched: Dl(1,3)*Dr(1,3)*DD(1,2)*DD(2,3) and Dl(2,3)*Dr(1,3)*DD(1,2)*DD(1,3)
# as lifted.  Their leaves carry eps atoms on two pairs of one delta chain,
# which ``integration._collapse_once`` resolves edge by edge, so the value
# depends on which edge collapses first (ROADMAP direction 3).  Under DimReg
# every such eps power resolves to 0 and the candidates agree.
_KNOWN_SPLITS = {
    "DimReg": set(),
    "ModeReg": {
        ("[]D[rho](1,3)", "[mu]D[](1,3)", "[mu]D[nu](1,2)", "[nu]D[rho](2,3)"),
        ("[]D[rho](1,3)", "[mu]D[nu](1,2)", "[mu]D[rho](1,3)", "[nu]D[](2,3)"),
    },
}


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_every_succeeding_partial_integration_gives_one_value(rules, monkeypatch):
    # Every other three-variable product that holds a DD, plus the one whose
    # search reaches the split node, is reduced with cold memos; each node
    # whose search tries a partial integration is recorded with its depth.
    # At each node every candidate that succeeds must give the same value.
    products = [(f, n) for f, n in enumerated_products(((3, 4),)) if any(k == "DD" for k, _, _ in f)]
    reaching = ((("D", 0, 0), ("DD", 0, 1), ("DD", 0, 2), ("DD", 1, 2)), 3)
    sample = products[::2] + [reaching] * (reaching not in products[::2])
    stack, nodes = [], {}
    search, partial_integration = reduction._search, reduction.partial_integration

    def recording_search(reading, term, depth, log, notes):
        stack.append((term, depth))
        try:
            return search(reading, term, depth, log, notes)
        finally:
            stack.pop()

    def recording_partial_integration(term, idx, side):
        nodes.setdefault(stack[-1])
        return partial_integration(term, idx, side)

    monkeypatch.setattr(reduction, "_search", recording_search)
    monkeypatch.setattr(reduction, "partial_integration", recording_partial_integration)
    clear_memos()
    for factors, nvars in sample:
        try:
            _reduce_product(rules, ParsedProduct(RegValue.one(), factors, nvars), None, [])
        except _REFUSALS:
            pass
    monkeypatch.undo()
    assert any(_signature(term) == _signature(_SPLIT_NODE) for term, _ in nodes)
    split = {
        _node_text(term) for term, depth in nodes if len(set(_candidate_values(rules, term, depth).values())) > 1
    }
    clear_memos()
    assert split == _KNOWN_SPLITS[rules.name]

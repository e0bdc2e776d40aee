"""Every small propagator product, reduced and integrated, against pinned hashes.

The products are the multisets of ``(kind, i, j)`` factors with i <= j on
1-2 variables with up to 5 factors and on 3 variables with up to 4 factors,
where every variable occurs and carries 0 or 2 dotted ends.  Each one runs
through ``reduction._reduce_product``; its factors, value or error text, move
log and eps-power notes go into one sha256 per rule set.  A refactor of the
reducer or the integrator that changes any value, refusal, move or note of
these 2,502 products changes the hash.  The same outcomes, with each
product's direct integral, must not change under a renaming of the
variables, and must satisfy the convolution int dtau DD(a,tau) DD(tau,b) =
DD(a,b).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from worldline import reduction
from worldline.integrands import ParsedProduct, SingularAtom
from worldline.integration import DIMREG, MODEREG, UnreducedSingularStructureError, integrate_product
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
    "DimReg": "cfeefec7eb56aaab2abd51853a3b65fa43cb50363f02d73135e0b43fc5ce1e0a",
    "ModeReg": "3c01bd75749b6d7af91e61698ea8c056b65e05c6b62e96cd3ff55657b9891b7d",
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


def direct(rules, factors, nvars) -> str:
    """The value or refusal text of one product integrated directly under ``rules``."""
    try:
        return integrate_product(list(factors), nvars, rules).text()
    except UnreducedSingularStructureError as error:
        return f"{type(error).__name__}: {error}"


def outcome_digest(outcomes: dict) -> tuple[int, str]:
    """(product count, sha256 of every product's reduced outcome), in enumeration order."""
    digest = hashlib.sha256()
    for (factors, _), reduced in outcomes.items():
        described = [(kind, i, j) for kind, i, j in factors]
        digest.update(repr((described, *reduced)).encode())
        digest.update(b"\n")
    return len(outcomes), digest.hexdigest()


def clear_memos():
    _reduce_lifted.cache_clear()
    _integrate_leaf.cache_clear()


@pytest.fixture(scope="module")
def enumerated():
    """Per rule set, computed once: each product's reducer outcome and its direct value."""
    tables = {}

    def table(rules):
        if rules.name not in tables:
            products = list(enumerated_products())
            tables[rules.name] = (
                {product: outcome(rules, *product) for product in products},
                {product: direct(rules, *product) for product in products},
            )
        return tables[rules.name]

    return table


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_every_small_product_keeps_its_outcome(rules, enumerated):
    reduced, _ = enumerated(rules)
    assert outcome_digest(reduced) == (2502, EXPECTED[rules.name])


# -- relabelling and convolution -------------------------------------------------

_KINDS = ("D", "Dl", "Dr", "DD")
_REVERSED = {"D": "D", "Dl": "Dr", "Dr": "Dl", "DD": "DD"}  # Dl(i,j) = Dr(j,i)


def listed(factors) -> tuple[tuple[str, int, int], ...]:
    """Factors with i <= j in the order the enumeration lists them."""
    ordered = []
    for kind, i, j in factors:
        ordered.append((kind, i, j) if i <= j else (_REVERSED[kind], j, i))
    return tuple(sorted(ordered, key=lambda f: (_KINDS.index(f[0]), f[1], f[2])))


def contractions(factors, nvars):
    """Each product that int dtau DD(a,tau) DD(tau,b) = DD(a,b) turns this one into.

    Exact, since DD = delta - 1/beta.  It applies where a variable tau
    touches exactly two DD factors, with a != b, and nothing else; the
    variables above tau move down by one.
    """
    for tau in range(nvars):
        touching = [f for f in factors if tau in f[1:]]
        if len(touching) != 2 or any(kind != "DD" or i == j for kind, i, j in touching):
            continue
        a, b = sorted(i + j - tau for _, i, j in touching)
        if a == b:
            continue
        rest = list(factors)
        for f in touching:
            rest.remove(f)
        shifted = [(kind, i - (i > tau), j - (j > tau)) for kind, i, j in rest + [("DD", a, b)]]
        yield listed(shifted), nvars - 1


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_renaming_the_variables_keeps_the_value(rules, enumerated):
    # Every renaming of an enumerated product is enumerated too; the reducer
    # and the direct route each give it the same value, or refuse both.
    reduced, directly = enumerated(rules)
    for texts in ({p: reduced[p][0] for p in reduced}, directly):
        values = {p: text.partition(":")[0] for p, text in texts.items()}  # a refusal by its class
        changed = {
            (factors, nvars)
            for (factors, nvars), value in values.items()
            for order in permutations(range(nvars))
            if values[listed((kind, order[i], order[j]) for kind, i, j in factors), nvars] != value
        }
        assert changed == set()


# The closed delta triangle DD(1,2)*DD(1,3)*DD(2,3), which the reducer refuses
# (ROADMAP direction 15), and under ModeReg the I14 chain
# Dl(1,2)*Dr(1,2)*DD(1,3)*DD(2,3) with its renamings: the reducer gives 0,
# where the convolution puts I14's beta/12.
_TRIANGLE = {("DD", 0, 1), ("DD", 0, 2), ("DD", 1, 2)}
_I14_CHAINS = {
    (("Dl", 0, 1), ("Dr", 0, 1), ("DD", 0, 2), ("DD", 1, 2)),
    (("Dl", 0, 2), ("Dr", 0, 2), ("DD", 0, 1), ("DD", 1, 2)),
    (("Dl", 1, 2), ("Dr", 1, 2), ("DD", 0, 1), ("DD", 0, 2)),
}


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_a_variable_between_two_dd_factors_integrates_to_one_dd(rules, enumerated):
    reduced, directly = enumerated(rules)
    # The direct route, with the four-variable products whose contraction is
    # enumerated: the identity holds in every case.
    four = {
        product: direct(rules, *product)
        for product in enumerated_products(((4, 4),))
        if any(contractions(*product))
    }
    values = {**directly, **four}
    cases = [(p, q) for p in values for q in contractions(*p)]
    assert len(cases) == 183
    assert [(p, q) for p, q in cases if ":" in values[p] or values[p] != values[q]] == []
    # The reducer fails only where it refuses the triangle, and on the I14
    # chains under ModeReg.
    failed = [
        p for p in reduced for q in contractions(*p)
        if ":" in reduced[p][0] or reduced[p][0] != reduced[q][0]
    ]
    triangles = [p for p in failed if _TRIANGLE <= set(p[0])]
    assert len(triangles) == 12
    assert all(reduced[p][0].startswith("ReductionError") for p in triangles)
    chains = {factors for factors, _ in failed} - {factors for factors, _ in triangles}
    assert chains == (_I14_CHAINS if rules is MODEREG else set())
    for factors in chains:
        assert reduced[factors, 3][0] == "0"
        assert reduced[listed([("Dl", 0, 1), ("Dr", 0, 1), ("DD", 0, 1)]), 2][0] == "1/12 * beta"


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
    products = list(enumerated_products(((2, 4),)))
    clear_memos()
    cold = outcome_digest({product: outcome(rules, *product) for product in products})
    searched = [memo.cache_info()["currsize"] for memo in memos]
    warm = outcome_digest({product: outcome(rules, *product) for product in products})
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
    assert split == set()

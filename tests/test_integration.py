"""The one-dimensional integrator: frozen oracles and rule dependence."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from worldline.checks import PROFILES
from worldline.integrands import (
    IntegrandTerm,
    SingularAtom,
    _merge_atoms,
    canonicalize,
    product,
    terms_from_text,
)
from worldline.integration import (
    DIMREG,
    MODEREG,
    RuleSet,
    UnreducedSingularStructureError,
    _integrate_regular,
    evaluate_naive_1d,
    integrate,
    integrate_text,
    naive_disagreement,
)
from worldline.polynomials import Poly
from worldline.propagators import Kind
from worldline.values import RegValue


def beta(power, coeff):
    return RegValue.beta(power, Fraction(coeff))


FROZEN_REGULAR = [
    # Integrals with no coincidence ambiguity at all: pure oracle values,
    # computed independently from the closed forms.
    ("D(1,2)", beta(3, "1/12")),
    ("D(1,1)", beta(2, "1/6")),
    ("D(1,1)*D(1,1)", beta(3, "1/30")),
    ("D(1,2)*D(1,2)", beta(4, "1/90")),
    ("Dl(1,1)*Dl(1,1)", beta(1, "1/12")),
    ("D(1,1)*Dl(1,1)*Dl(1,1)", beta(2, "1/120")),
    ("Dl(1,2)*Dl(1,2)*Dr(1,2)*Dr(1,2)", beta(2, "1/90")),
    ("Dl(1,1)*Dl(1,2)*Dr(1,2)*Dr(2,2)", beta(2, "-1/720")),
    ("D(1,1)*Dl(1,2)*Dl(1,2)", beta(3, "1/45")),
]


@pytest.mark.parametrize("text,expected", FROZEN_REGULAR, ids=[t for t, _ in FROZEN_REGULAR])
def test_frozen_regular_integrals(text, expected):
    assert integrate_text(text, DIMREG) == expected
    assert integrate_text(text, MODEREG) == expected


def test_equal_time_double_dot_diagonal():
    # DD(1,1) is delta0 - 1/beta times the empty integrand.
    value = integrate_text("DD(1,1)", DIMREG)
    assert value == RegValue.delta0() * RegValue.beta(1) - RegValue.one()


def test_fixture_sums_with_equal_time_subtractions():
    # These sums subtract the delta0 content explicitly, so their value is
    # finite and rule-independent.
    i11 = "DD(1,1)*D(1,2)*DD(2,2) - 2*d0*DD(1,1)*D(1,2) + d0^2*D(1,2)"
    i12 = "Dl(1,1)*Dl(1,2)*DD(2,2) - d0*Dl(1,1)*Dl(1,2)"
    assert integrate_text(i11, DIMREG) == beta(1, "1/12")
    assert integrate_text(i12, DIMREG) == beta(1, "-1/12")
    assert integrate_text(i11, MODEREG) == beta(1, "1/12")
    assert integrate_text(i12, MODEREG) == beta(1, "-1/12")


def test_eps_odd_vanishes_under_delta():
    # A single eps under a delta on the same pair integrates to zero under
    # both rule sets (the step function is odd).
    terms = terms_from_text("Dl(1,2)*DD(1,2)")
    value = integrate(terms, DIMREG)
    # Only the smooth x delta and smooth x (-1/beta) pieces survive:
    #   int (1/2 - tau/beta) - (1/beta) int int Dl = 0 + 0.
    assert value == integrate(terms, MODEREG)


def test_eps_squared_under_delta_is_rule_dependent():
    text = "Dr(1,2)*Dr(1,2)*DD(1,2)"
    dim = integrate_text(text, DIMREG)
    mode = integrate_text(text, MODEREG)
    # smooth part: int (1/2 - tau/beta)^2 (delta - 1/beta) pieces are shared;
    # the eps^2 delta piece contributes e/4 * beta.
    assert mode - dim == beta(1, "1/12")


def test_delta_squared_collapses_to_delta0():
    value = integrate_text("D(1,1)*DD(1,2)*DD(1,2)*D(2,2)", DIMREG)
    assert value.grade(1) == RegValue.term(Fraction(1, 30), 3, 1)


def test_delta_chain_collapse():
    # delta(1,2) delta(2,3) collapses pairwise and produces no delta0:
    # the four expansion pieces give beta^2 (1/6 - 1/12 - 1/12 + 1/12).
    value = integrate_text("DD(1,2)*DD(2,3)*D(1,3)", DIMREG)
    assert value == beta(2, "1/12")
    assert value.delta0_degree() == 0


def test_unreduced_structure_raises():
    # Three deltas on one pair cannot be integrated.
    terms = terms_from_text("DD(1,2)*DD(1,2)*DD(1,2)")
    with pytest.raises(UnreducedSingularStructureError):
        integrate(terms, DIMREG)


def test_branching_delta_graph_raises():
    # A vertex carrying three delta edges has no pairwise resolution.
    terms = terms_from_text("DD(1,2)*DD(1,2)*DD(1,3)*DD(1,3)*DD(1,4)*DD(1,4)")
    with pytest.raises(UnreducedSingularStructureError):
        integrate(terms, DIMREG)


def test_custom_ruleset_eps_value():
    # A rule set with int eps^2 delta = 1 reproduces the naive answer in
    # which eps^2 = 1 is used even at the coincidence point.
    naive = RuleSet("naive", value_eps2_delta=Fraction(1), value_eps_delta=Fraction(0))
    value = integrate_text("Dr(1,2)*Dr(1,2)*DD(1,2)", naive)
    dim = integrate_text("Dr(1,2)*Dr(1,2)*DD(1,2)", DIMREG)
    assert value - dim == beta(1, "1/4")


# -- the three naive one-dimensional routes ---------------------------------


def test_naive_routes_disagree_under_dimreg():
    routes = naive_disagreement("I14", DIMREG)
    assert routes["partial_integration"] == beta(1, "1/12")
    assert routes["equation_of_motion"] == beta(1, "1/6")
    assert routes["mixed"] == beta(1, "1/24")
    assert len({v for v in routes.values()}) == 3


def test_naive_routes_agree_under_modereg():
    for name, expected in (("I14", beta(1, "1/12")), ("I15R", beta(1, "-1/4"))):
        routes = naive_disagreement(name, MODEREG)
        assert set(routes.values()) == {expected}


def test_naive_i15_full_value_keeps_divergence():
    value = evaluate_naive_1d("I15", "equation_of_motion", DIMREG)
    assert value.grade(1) == RegValue.term(Fraction(1, 6), 2, 1)
    assert value.finite_part() == beta(1, "-1/4")


def test_naive_i15r_routes_dimreg():
    routes = naive_disagreement("I15R", DIMREG)
    assert routes["partial_integration"] == beta(1, "-1/4")
    assert routes["equation_of_motion"] == beta(1, "-1/4")
    assert routes["mixed"] == beta(1, "-1/8")


def test_naive_unknown_name_and_strategy():
    with pytest.raises(ValueError):
        evaluate_naive_1d("I2", "partial_integration")
    with pytest.raises(ValueError):
        evaluate_naive_1d("I14", "guesswork")


# -- one-variable weights applied after delta collapse ----------------------


def integrate_dense(terms, rules, weight):
    """Reference route: multiply w(tau_1)...w(tau_n) into every polynomial."""
    dense = []
    for term in terms:
        n = term.nvars
        full = Poly.const(n, 1)
        for v in range(n):
            embedded = {
                (b, *(e if k == v else 0 for k in range(n))): c
                for (b, e), c in weight.terms().items()
            }
            full = full * Poly(n, embedded)
        dense.append(IntegrandTerm(term.delta0, n, term.poly * full, term.atoms))
    return integrate(dense, rules)


def ring_factors(n):
    if n == 1:
        return [(Kind.DOT_DOT, 0, 0)]
    return [(Kind.DOT_DOT, min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_weighted_rings_match_dense_weight(profile, n):
    terms = product(ring_factors(n), n)
    weight = PROFILES[profile]
    assert integrate(terms, DIMREG, weight=weight) == integrate_dense(terms, DIMREG, weight)


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
@pytest.mark.parametrize("profile", ["tau/beta", "tau*(beta-tau)/beta^2"])
@pytest.mark.parametrize("text", ["Dl(1,2)*Dr(1,2)*DD(1,2)", "D(1,2)*Dl(1,2)*Dr(1,2)"])
def test_weight_on_eps_touched_variables_matches_dense(text, profile, rules):
    terms = terms_from_text(text)
    weight = PROFILES[profile]
    weighted = integrate(terms, rules, weight=weight)
    assert weighted == integrate_dense(terms, rules, weight)
    assert weighted != integrate(terms, rules)


_KIND_LIST = [Kind.D, Kind.DOT_LEFT, Kind.DOT_RIGHT, Kind.DOT_DOT]


@st.composite
def weighted_products(draw):
    nvars = draw(st.integers(2, 3))
    variable = st.integers(0, nvars - 1)
    factors = draw(
        st.lists(st.tuples(st.sampled_from(_KIND_LIST), variable, variable), min_size=1, max_size=4)
    )
    factors = [(kind, min(i, j), max(i, j)) for kind, i, j in factors]
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    weight = Poly(
        1,
        {(draw(st.integers(-2, 0)), e): draw(rational) for e in range(draw(st.integers(0, 2)) + 1)},
    )
    return product(factors, nvars), weight


def _outcome(compute):
    try:
        return compute()
    except UnreducedSingularStructureError:
        return UnreducedSingularStructureError


@settings(max_examples=60, deadline=None)
@given(weighted_products(), st.sampled_from([DIMREG, MODEREG]))
def test_weighted_integral_equals_dense_integral(drawn, rules):
    terms, weight = drawn
    weighted = _outcome(lambda: integrate(terms, rules, weight=weight))
    assert weighted == _outcome(lambda: integrate_dense(terms, rules, weight))
    unweighted = _outcome(lambda: integrate(terms, rules))
    assume(unweighted is not UnreducedSingularStructureError)
    assert integrate(terms, rules, weight=Poly.const(1, 1)) == unweighted


# -- the in-place delta collapse against the renumbering loop ---------------
#
# The reference below renumbers the variables after every collapse, remaps
# the polynomial each time and multiplies the weight into every surviving
# variable; it is the sequential loop that the in-place collapse replaced.


def _reference_renumber(atom, removed, target):
    def rename(v):
        if v == removed:
            v = target
        return v - 1 if v > removed else v

    i, j = rename(atom.i), rename(atom.j)
    if i == j:
        raise AssertionError("same-pair atoms must be resolved before renaming")
    sign = 1
    if i > j:
        i, j = j, i
        if atom.kind == "eps" and atom.power % 2 == 1:
            sign = -1
    return sign, SingularAtom(atom.kind, i, j, atom.power)


def _reference_collapse_once(term, rules):
    deltas = [a for a in term.atoms if a.kind == "delta"]
    degree = {}
    for atom in deltas:
        degree[atom.i] = degree.get(atom.i, 0) + atom.power
        degree[atom.j] = degree.get(atom.j, 0) + atom.power
    target, extra_delta0 = None, RegValue.one()
    for atom in deltas:
        if atom.power == 1 and (degree[atom.i] == 1 or degree[atom.j] == 1):
            target = atom
            break
    if target is None:
        for atom in deltas:
            if atom.power == 2 and degree[atom.i] == 2 and degree[atom.j] == 2:
                target, extra_delta0 = atom, RegValue.delta0()
                break
    if target is None:
        for atom in deltas:
            if atom.power == 1 and degree[atom.i] == 2 and degree[atom.j] == 2:
                target = atom
                break
    if target is None:
        raise UnreducedSingularStructureError("no assigned resolution")

    i, j = target.i, target.j
    factor = Fraction(1)
    kept = []
    for atom in term.atoms:
        if atom is target:
            continue
        if (atom.i, atom.j) == (i, j) and atom.kind == "eps":
            factor *= rules.eps_power_delta_value(atom.power)
        else:
            kept.append(atom)
    if factor == 0:
        return Fraction(0), extra_delta0, (i, j), None
    targets = [i if v == j else v - (v > j) for v in range(term.nvars)]
    poly = term.poly.remap(targets, term.nvars - 1)
    atoms = []
    for atom in kept:
        s, renamed = _reference_renumber(atom, removed=j, target=i)
        factor *= s
        atoms.append(renamed)
    rest = IntegrandTerm(term.delta0, term.nvars - 1, poly, tuple(sorted(atoms)))
    return factor, extra_delta0, (i, j), rest


def reference_integrate_term(term, rules, weight=None):
    multiplicity = [1] * term.nvars
    factor = RegValue.one()
    while any(atom.kind == "delta" for atom in term.atoms):
        rational, delta0, (i, j), term = _reference_collapse_once(term, rules)
        if rational == 0:
            return RegValue.zero()
        multiplicity[i] += multiplicity.pop(j)
        factor = factor * rational * delta0
        if term.poly.is_zero():
            return RegValue.zero()
        term = replace(term, atoms=_merge_atoms(term.atoms))
    poly = term.poly
    if weight is not None:
        n = term.nvars
        for v in range(n):
            power = Poly.const(1, 1)
            for _ in range(multiplicity[v]):
                power = power * weight
            poly = poly * power.remap((v,), n)
    return factor * RegValue.delta0(term.delta0) * _integrate_regular(poly, term.atoms)


PROBE = RuleSet("probe", value_eps2_delta=Fraction(1, 3), value_eps_delta=Fraction(1, 5))


def _pair(a, b):
    return (a, b) if a < b else (b, a)


@st.composite
def delta_terms(draw):
    """Terms over 2..5 variables with a delta graph, eps atoms and a polynomial.

    The delta graph is a chain along a random vertex order, optionally closed
    into a loop, with some edges squared and sometimes one random edge that
    makes the graph branch.
    """
    n = draw(st.integers(2, 5))
    order = draw(st.permutations(range(n)))
    length = draw(st.integers(1, n - 1))
    edges = [_pair(order[k], order[k + 1]) for k in range(length)]
    if length >= 2 and draw(st.booleans()):
        edges.append(_pair(order[length], order[0]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    ).map(lambda p: _pair(*p))
    if draw(st.integers(0, 3)) == 0:
        edges.append(draw(pair))
    atoms = [
        SingularAtom("delta", i, j, draw(st.sampled_from([1, 1, 1, 2]))) for i, j in edges
    ]
    eps_pairs = draw(st.lists(pair, max_size=3))
    i, j = draw(st.sampled_from(edges))
    if j - i > 1 and draw(st.booleans()):
        # eps(tau_a - tau_j) with i < a < j flips its sign when tau_j := tau_i.
        eps_pairs.append((draw(st.integers(i + 1, j - 1)), j))
    for i, j in eps_pairs:
        atoms.append(SingularAtom("eps", i, j, draw(st.integers(1, 3))))

    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    monomials = draw(st.lists(st.tuples(st.integers(-1, 1), exponents), min_size=1, max_size=3))
    poly = Poly(n, {(b, *e): draw(rational) for b, e in monomials})
    if draw(st.integers(0, 3)) == 0:
        # A factor tau_i - tau_j on a delta pair vanishes once i and j merge.
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        difference = Poly.monomial(n, 1, 0, [int(v == i) for v in range(n)])
        poly = poly * (difference - Poly.monomial(n, 1, 0, [int(v == j) for v in range(n)]))
    return IntegrandTerm(0, n, poly, tuple(atoms))


@st.composite
def nonzero_weights(draw):
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    degree = draw(st.integers(0, 2))
    return Poly(1, {(draw(st.integers(-1, 0)), e): draw(rational) for e in range(degree + 1)})


@settings(max_examples=300, deadline=None)
@given(
    delta_terms(),
    st.sampled_from([DIMREG, MODEREG, PROBE]),
    st.one_of(st.none(), nonzero_weights()),
)
def test_in_place_collapse_matches_the_renumbering_loop(term, rules, weight):
    canonical = canonicalize([term])
    if weight is None:
        collapsed = _outcome(lambda: integrate(canonical, rules))
    else:
        collapsed = _outcome(lambda: integrate(canonical, rules, weight=weight))
    expected = _outcome(
        lambda: sum(
            (reference_integrate_term(t, rules, weight) for t in canonical), RegValue.zero()
        )
    )
    assert collapsed == expected


def test_chain_eps_merge_order_under_modereg():
    # delta(1,2) delta(2,3): the loose end (1,2) collapses first.  eps(1,2)
    # meets its delta alone and gives int eps delta = 0; eps(1,3) eps(2,3)
    # merge into eps(1,3)**2 first and give int eps**2 delta = 1/3.
    chain = (SingularAtom("delta", 0, 1), SingularAtom("delta", 1, 2))
    one = Poly.const(3, 1)

    def value(*eps):
        atoms = chain + tuple(SingularAtom("eps", i, j) for i, j in eps)
        return integrate([IntegrandTerm(0, 3, one, atoms)], MODEREG)

    assert value((0, 1), (1, 2)) == RegValue.zero()
    assert value((0, 2), (1, 2)) == beta(1, "1/3")


def test_collapse_flips_an_eps_that_changes_order():
    # delta(1,3) eps(2,3) t1: tau_3 := tau_1 turns eps(t2 - t3) into
    # eps(t2 - t1) = -eps(t1 - t2), and int int t1 eps(t2 - t1) = -beta^3/6.
    atoms = (SingularAtom("delta", 0, 2), SingularAtom("eps", 1, 2))
    t1 = Poly.monomial(3, 1, 0, (1, 0, 0))
    value = integrate([IntegrandTerm(0, 3, t1, atoms)], DIMREG)
    assert value == beta(3, "-1/6")


# -- the term invariant: merged atoms and a non-negative delta0 grade --------


def test_repeated_delta_atoms_merge_into_a_square():
    # delta(1,2) delta(1,2) is delta(1,2)**2: one delta0 and a plain collapse.
    atoms = (SingularAtom("delta", 0, 1), SingularAtom("delta", 0, 1))
    value = integrate([IntegrandTerm(0, 2, Poly.const(2, 1), atoms)], DIMREG)
    assert value == RegValue.term(1, 1, 1)


def test_unsorted_chain_atoms_collapse_in_canonical_order():
    # The ModeReg chain of test_chain_eps_merge_order_under_modereg, given
    # with its atoms out of order: the loose end (1,2) still collapses first.
    atoms = (
        SingularAtom("eps", 1, 2),
        SingularAtom("eps", 0, 2),
        SingularAtom("delta", 1, 2),
        SingularAtom("delta", 0, 1),
    )
    value = integrate([IntegrandTerm(0, 3, Poly.const(3, 1), atoms)], MODEREG)
    assert value == beta(1, "1/3")


def test_integrand_term_rejects_a_negative_delta0_power():
    with pytest.raises(ValueError, match="delta0"):
        IntegrandTerm(-1, 1, Poly.const(1, 1), ())

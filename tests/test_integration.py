"""The one-dimensional integrator: frozen oracles and rule dependence."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import worldline.integration
from expansion import IntegrandTerm, canonicalize, integrate, product
from worldline.integrands import NAMED_INTEGRALS, SingularAtom, _merge_atoms, parse
from worldline.integration import (
    DIMREG,
    MODEREG,
    RuleSet,
    UnreducedSingularStructureError,
    _collapse_once,
    _deltas_resolve,
    _integrate_regular,
    _ring_chain,
    integrate_product,
)
from worldline.polynomials import Poly
from worldline.rings import PROFILES, measure_cancellation
from worldline.values import RegValue


def beta(power, coeff):
    return RegValue.beta(power, Fraction(coeff))


def terms_from_text(text):
    """The canonical terms of every summand of an integrand text."""
    return [t for p in parse(text) for t in product(list(p.factors), p.nvars, p.coefficient)]


def integrate_text(text, rules):
    return integrate(terms_from_text(text), rules)


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


@pytest.mark.parametrize("factor", [("Dx", 0, 1), ("Dx", 1, 1)])
def test_integrate_product_refuses_an_unknown_kind(factor):
    with pytest.raises(ValueError, match=r"^unknown propagator kind 'Dx'$"):
        integrate_product([factor], 2, DIMREG)


def test_custom_ruleset_eps_value():
    # A rule set with int eps^2 delta = 1 reproduces the naive answer in
    # which eps^2 = 1 is used even at the coincidence point.
    naive = RuleSet("naive", value_eps2_delta=Fraction(1), value_eps_delta=Fraction(0))
    value = integrate_text("Dr(1,2)*Dr(1,2)*DD(1,2)", naive)
    dim = integrate_text("Dr(1,2)*Dr(1,2)*DD(1,2)", DIMREG)
    assert value - dim == beta(1, "1/4")


# -- the three naive one-dimensional routes ---------------------------------


def naive_routes(name, rules):
    """I14 or I15 by partial integration, by the equation of motion, and mixed.

    The routes lean on the two manipulations in different measure; they
    agree only when int eps^2 delta = 1/3.  Partial integration leaves the
    endpoint values Dr(t,0) = 1 - t/beta and Dr(t,beta) = -t/beta, cubed;
    the mixed route turns DD into a delta after one partial integration.
    """
    t = Poly.monomial(1, 1, -1, (1,))
    ends = ((1 - t) * (1 - t) * (1 - t) + t * t * t).integrate_cube()
    dotted = integrate(
        product([("Dr", 0, 1)] * 2, 2, extra_atoms=(SingularAtom("delta", 0, 1),)),
        rules,
    )
    i14 = {"partial_integration": ends / 6, "mixed": dotted / 2}
    i14["equation_of_motion"] = integrate_text(NAMED_INTEGRALS["I14"], rules)
    if name == "I14":
        return i14
    # I15: add and subtract the squared delta; the rest is -I14 plus, by
    # partial integration, a boundary term.
    divergent = RegValue.term(Fraction(1, 6), 2, 1)
    return {
        "partial_integration": divergent - i14["partial_integration"] - ends / 3,
        "equation_of_motion": integrate_text(NAMED_INTEGRALS["I15"], rules),
        "mixed": divergent - i14["mixed"] - dotted,
    }


def test_naive_routes_disagree_under_dimreg():
    routes = naive_routes("I14", DIMREG)
    assert routes["partial_integration"] == beta(1, "1/12")
    assert routes["equation_of_motion"] == beta(1, "1/6")
    assert routes["mixed"] == beta(1, "1/24")
    assert len({v for v in routes.values()}) == 3


def test_naive_routes_agree_under_modereg():
    for name, expected in (("I14", beta(1, "1/12")), ("I15", beta(1, "-1/4"))):
        routes = naive_routes(name, MODEREG)
        assert {value.finite_part() for value in routes.values()} == {expected}


def test_naive_i15_full_value_keeps_divergence():
    value = naive_routes("I15", DIMREG)["equation_of_motion"]
    assert value.grade(1) == RegValue.term(Fraction(1, 6), 2, 1)
    assert value.finite_part() == beta(1, "-1/4")


def test_naive_i15r_routes_dimreg():
    routes = {k: v.finite_part() for k, v in naive_routes("I15", DIMREG).items()}
    assert routes["partial_integration"] == beta(1, "-1/4")
    assert routes["equation_of_motion"] == beta(1, "-1/4")
    assert routes["mixed"] == beta(1, "-1/8")


# -- one-variable weights against the dense term-by-term route ---------------


def integrate_dense(terms, rules, weight, notes=None):
    """Reference route: multiply w(tau_1)...w(tau_n) into every polynomial."""
    if weight is None:
        return integrate(terms, rules, notes)
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
    return integrate(dense, rules, notes)


def ring_factors(n):
    if n == 1:
        return [("DD", 0, 0)]
    return [("DD", min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_weighted_rings_match_dense_weight(profile, n):
    weight = PROFILES[profile]
    routed = integrate_product(ring_factors(n), n, DIMREG, weight=weight)
    assert routed == integrate_dense(product(ring_factors(n), n), DIMREG, weight)


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
@pytest.mark.parametrize("profile", ["tau/beta", "tau*(beta-tau)/beta^2"])
@pytest.mark.parametrize("text", ["Dl(1,2)*Dr(1,2)*DD(1,2)", "D(1,2)*Dl(1,2)*Dr(1,2)"])
def test_weight_on_eps_touched_variables_matches_dense(text, profile, rules):
    terms = terms_from_text(text)
    weight = PROFILES[profile]
    weighted = sum(
        (
            integrate_product(list(p.factors), p.nvars, rules, weight=weight) * p.coefficient
            for p in parse(text)
        ),
        RegValue.zero(),
    )
    assert weighted == integrate_dense(terms, rules, weight)
    assert weighted != integrate(terms, rules)


_KIND_LIST = ["D", "Dl", "Dr", "DD"]


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
    return factors, nvars, weight


def _outcome(compute):
    try:
        return compute()
    except UnreducedSingularStructureError:
        return UnreducedSingularStructureError


@settings(max_examples=60, deadline=None)
@given(weighted_products(), st.sampled_from([DIMREG, MODEREG]))
def test_weighted_integral_equals_dense_integral(drawn, rules):
    factors, nvars, weight = drawn
    terms = product(factors, nvars)
    weighted = _outcome(lambda: integrate_product(factors, nvars, rules, weight=weight))
    assert weighted == _outcome(lambda: integrate_dense(terms, rules, weight))
    unweighted = _outcome(lambda: integrate(terms, rules))
    assume(unweighted is not UnreducedSingularStructureError)
    assert integrate_product(factors, nvars, rules, weight=Poly.const(1, 1)) == unweighted


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
        if not term.poly:
            return RegValue.zero()
        term = term._replace(atoms=_merge_atoms(term.atoms))
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
    collapsed = _outcome(lambda: integrate_dense(canonical, rules, weight))
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


# -- the early-finishing guard against the collapse replay ------------------
#
# The reference replays _collapse_once over the merged atoms until none is
# left; it is the loop that the component count in _deltas_resolve replaced.


def _reference_deltas_resolve(atoms):
    if any(atom.kind == "eps" for atom in atoms):
        return False
    atoms = _merge_atoms(atoms)
    while atoms:
        step = _collapse_once(atoms, DIMREG, None)
        if step is None:
            return False
        atoms = step[3]
    return True


def _delta_multigraphs():
    """Every multiset of delta atoms on five variables: powers 1-3 up to four atoms, then power 1."""
    typed = [
        SingularAtom("delta", i, j, power)
        for i, j in itertools.combinations(range(5), 2)
        for power in (1, 2, 3)
    ]
    for count in range(5):
        yield from itertools.combinations_with_replacement(typed, count)
    yield from itertools.combinations_with_replacement([a for a in typed if a.power == 1], 5)


def test_component_count_matches_the_collapse_replay():
    outcomes = {True: 0, False: 0}
    for atoms in _delta_multigraphs():
        resolves = _deltas_resolve(atoms)
        assert resolves == _reference_deltas_resolve(atoms), atoms
        outcomes[resolves] += 1
    assert outcomes == {True: 2_788, False: 45_590}
    # Any eps atom stops early finishing, on the chain's pair or off it.
    chain = (SingularAtom("delta", 0, 1), SingularAtom("delta", 1, 2))
    for eps in (SingularAtom("eps", 0, 1), SingularAtom("eps", 0, 3)):
        assert not _deltas_resolve(chain + (eps,))


def test_integrand_term_rejects_a_negative_delta0_power():
    with pytest.raises(ValueError, match="delta0"):
        IntegrandTerm(-1, 1, Poly.const(1, 1), ())


# -- products one factor at a time against the full expansion ----------------


@st.composite
def propagator_products(draw):
    """1-5 factors on 1-4 variables, half the time DD and diagonals only.

    Only products without eps parts finish variables early, so they are
    drawn as often as the rest.  Some draws add delta atoms or a ring
    coefficient with a delta0 grade, which multiplies both integrals.
    """
    nvars = draw(st.integers(1, 4))
    variable = st.integers(0, nvars - 1)
    factor = st.tuples(st.sampled_from(_KIND_LIST), variable, variable)
    if draw(st.booleans()):
        factor = factor.filter(lambda f: f[0] == "DD" or f[1] == f[2])
    factors = draw(st.lists(factor, min_size=1, max_size=5))
    extra = ()
    if nvars > 1:
        pair = st.tuples(variable, variable).filter(lambda p: p[0] != p[1]).map(lambda p: _pair(*p))
        extra = tuple(SingularAtom("delta", i, j) for i, j in draw(st.lists(pair, max_size=2)))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coefficient = RegValue.one()
    if draw(st.booleans()):
        coefficient = RegValue.beta(draw(st.integers(-1, 1)), draw(rational)) + RegValue.delta0(
            1, draw(rational)
        )
    return factors, nvars, coefficient, extra


# A weight whose integral is 0: a variable it separates still has to pass
# its delta collapse first, as in the full expansion.
_ZERO_MEAN = Poly(1, {(0, 0): 1, (-1, 1): -2})


@settings(max_examples=400, deadline=None)
@given(
    propagator_products(),
    st.sampled_from([DIMREG, MODEREG, PROBE]),
    st.one_of(st.none(), st.just(_ZERO_MEAN), nonzero_weights()),
)
def test_one_factor_at_a_time_matches_the_full_expansion(drawn, rules, weight):
    factors, nvars, coefficient, extra = drawn
    notes = []
    routed = _outcome(
        lambda: integrate_product(factors, nvars, rules, notes, weight, extra) * coefficient
    )
    expected = _outcome(
        lambda: sum(
            (
                reference_integrate_term(term, rules, weight)
                for term in product(factors, nvars, 1, extra)
            ),
            RegValue.zero(),
        )
        * coefficient
    )
    assert routed == expected
    if routed is not UnreducedSingularStructureError:
        reference_notes = []
        # The eps-power notes come in the order of the expanded terms, each
        # once: the routed product is integrated at unit coefficient.
        integrate_dense(product(factors, nvars, 1, extra), rules, weight, reference_notes)
        assert notes == reference_notes


# The full RegValue of every measure ring: u^1..u^8 captured from the full
# expansion, u^9..u^12 from integrate_product while it still carried the
# weight as block sizes rather than as a polynomial factor.
RING_VALUES = {
    "1": ["-1 + 1 * beta * delta0"] * 12,
    "tau/beta": [
        "-1/2 + 1/2 * beta * delta0",
        "-5/12 + 1/3 * beta * delta0",
        "-3/8 + 1/4 * beta * delta0",
        "-251/720 + 1/5 * beta * delta0",
        "-95/288 + 1/6 * beta * delta0",
        "-19087/60480 + 1/7 * beta * delta0",
        "-5257/17280 + 1/8 * beta * delta0",
        "-1070017/3628800 + 1/9 * beta * delta0",
        "-25713/89600 + 1/10 * beta * delta0",
        "-26842253/95800320 + 1/11 * beta * delta0",
        "-4777223/17418240 + 1/12 * beta * delta0",
        "-703604254357/2615348736000 + 1/13 * beta * delta0",
    ],
    "tau*(beta-tau)/beta^2": [
        "-1/6 + 1/6 * beta * delta0",
        "-7/180 + 1/30 * beta * delta0",
        "-71/7560 + 1/140 * beta * delta0",
        "-521/226800 + 1/630 * beta * delta0",
        "-1693/2993760 + 1/2772 * beta * delta0",
        "-5710469/40864824000 + 1/12012 * beta * delta0",
        "-1212457/35026992000 + 1/51480 * beta * delta0",
        "-1074010337/125046361440000 + 1/218790 * beta * delta0",
        "-212920335247/99786996429120000 + 1/923780 * beta * delta0",
        "-79057926439/149003207337600000 + 1/3879876 * beta * delta0",
        "-7791906287923/59016880745222400000 + 1/16224936 * beta * delta0",
        "-407813841938063843/12405938501453200704000000 + 1/67603900 * beta * delta0",
    ],
}


@pytest.mark.parametrize("profile", sorted(RING_VALUES))
def test_every_ring_keeps_its_full_value(profile):
    texts = [ring.text() for ring in _ring_chain(PROFILES[profile], 12)]
    assert texts == RING_VALUES[profile]


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_the_ring_chain_equals_the_product_route(profile):
    weight = PROFILES[profile]
    products = [integrate_product(ring_factors(n), n, DIMREG, weight=weight) for n in range(1, 13)]
    assert _ring_chain(weight, 12) == products


@pytest.fixture
def multiply_sizes(monkeypatch):
    """The number of partial terms after each ``_multiply`` call, in order."""
    sizes = []
    multiply = worldline.integration._multiply

    def counted(*args):
        partials = multiply(*args)
        sizes.append(len(partials))
        return partials

    monkeypatch.setattr(worldline.integration, "_multiply", counted)
    return sizes


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_rings_hold_few_partial_terms(profile, multiply_sizes):
    # Counted, not timed: the full expansion of ring n holds 2**n terms.
    # Order 1 is one factor.  The chain multiplies in DD(0,1), then one step
    # DD(end, next) per order from 3 on, and each order from 2 on closes a
    # copy of it with DD(0, end): 2N - 1 calls for N orders.  After a step
    # the old end is integrated out or collapsed along its power-1 deltas, so
    # the only atom that can remain is the delta chained from 0 to the end.
    # With it or without it: at most 2 partial terms.
    for orders in (1, 2, 3, 12):
        multiply_sizes.clear()
        _ring_chain(PROFILES[profile], orders)
        assert len(multiply_sizes) == 2 * orders - 1 and max(multiply_sizes) <= 2


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_product_route_rings_hold_few_partial_terms(profile, multiply_sizes):
    # The reducer's ReturnTo1D takes this route.  Factor k is DD(k, k+1) =
    # delta - 1/beta, and the last is DD(0, n-1).  After factor k the
    # variables 1..k are done, and each was integrated out or collapsed along
    # its power-1 deltas, so every state has the same open variables: 0 and
    # the ones from k+1 on.  The only atom that can remain is the delta
    # chained from 0 to k+1.  With it or without it: at most 2 states.
    for n in range(8, 13):
        multiply_sizes.clear()
        integrate_product(ring_factors(n), n, DIMREG, weight=PROFILES[profile])
        assert len(multiply_sizes) == n and max(multiply_sizes) <= 2


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_measure_cancellation_integrates_one_chain(profile, multiply_sizes):
    # One ring from scratch per order would make 1 + 2 + ... + 8 = 36 calls.
    measure_cancellation(profile, 8)
    assert len(multiply_sizes) == 15 and max(multiply_sizes) <= 2

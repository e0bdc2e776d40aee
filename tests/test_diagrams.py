"""Tests for the Wick contraction catalogs and their totals."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import worldline
from worldline import tensors
from worldline.checks import run_standard_checks
from worldline.diagrams import (
    Diagram,
    _contract,
    _multigraphs,
    catalog,
    classify,
    evaluate_diagram,
    sum_order,
    wick,
)
from worldline.geometry import FlatTransform, NormalCoords, Vertex
from worldline.integration import DIMREG, MODEREG
from worldline.reduction import ParsedProduct, reduce_terms
from worldline.tensors import PATTERNS, Pattern, _contraction_powers, invariant_coefficients
from worldline.values import RegValue


def _by_shape(diagrams):
    grouped = {}
    for diagram in diagrams:
        grouped.setdefault(classify(diagram), []).append(diagram)
    return grouped


def _family_total(diagrams, shape, rules=DIMREG):
    total = RegValue.zero()
    for diagram in diagrams:
        if classify(diagram) == shape:
            total = total + evaluate_diagram(diagram, rules)
    return total


# ---------------------------------------------------------------------------
# the contraction as it was written before field classes
# ---------------------------------------------------------------------------

# Every matching of single fields is enumerated, its edges are built and
# sorted one by one, and each branch combination's delta graph is rebuilt
# and union-found.  The class-multigraph contraction and the partner walk
# of ``tensors`` must give the same catalog entries and cycle counts.


def perfect_matchings(items):
    """All perfect matchings of an even collection, first-element pivot."""

    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for index, partner in enumerate(rest):
        remaining = rest[:index] + rest[index + 1 :]
        for tail in perfect_matchings(remaining):
            yield ((first, partner),) + tail


def _double_factorial(m):
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def _old_fields(vertices):
    fields = []
    for position, vertex in enumerate(vertices):
        q_slots = vertex.q_slots or (None,) * vertex.q_power
        qdot_slots = vertex.qdot_slots or (None,) * vertex.qdot_power
        fields.extend((position, "q", slot) for slot in q_slots)
        fields.extend((position, "qdot", slot) for slot in qdot_slots)
    return fields


_MIRROR_KIND = {"D": "D", "DD": "DD", "Dl": "Dr", "Dr": "Dl"}


def _old_edge(a, b):
    (pa, ta, _), (pb, tb, _) = a, b
    if pa > pb:
        pa, ta, pb, tb = pb, tb, pa, ta
    if ta == tb:
        kind = "DD" if ta == "qdot" else "D"
    elif pa == pb or ta == "qdot":
        kind = "Dl"
    else:
        kind = "Dr"
    return ((pa, pb), kind)


def _old_mirror_edges(edges):
    mirrored = []
    for (a, b), kind in edges:
        na, nb = 1 - a, 1 - b
        if na > nb:
            na, nb = nb, na
            kind = _MIRROR_KIND[kind]
        mirrored.append(((na, nb), kind))
    return sorted(mirrored)


def _old_canonical_edges(raw, mirror):
    edges = sorted(_old_edge(a, b) for a, b in raw)
    if mirror:
        edges = min(edges, _old_mirror_edges(edges))
    return tuple(edges)


def _old_contract(accumulator, vertices, prefactor, connected_only):
    fields = _old_fields(vertices)
    factors = ()
    offsets = []
    offset = 0
    for vertex in vertices:
        offsets.append(offset)
        factors += vertex.tensors
        offset += vertex.slot_count
    internal = [
        (a + offsets[p], b + offsets[p])
        for p, vertex in enumerate(vertices)
        for a, b in vertex.internal
    ]
    mirror = len(vertices) == 2 and vertices[0] == vertices[1]
    groups = {}
    count = 0
    for matching in perfect_matchings(range(len(fields))):
        count += 1
        pairs = [(fields[i], fields[j]) for i, j in matching]
        if connected_only and all(a[0] == b[0] for a, b in pairs):
            continue
        pairing = list(internal)
        for (pa, _, sa), (pb, _, sb) in pairs:
            if sa is not None and sb is not None:
                pairing.append((sa + offsets[pa], sb + offsets[pb]))
        groups.setdefault(_old_canonical_edges(pairs, mirror), []).append(pairing)
    assert count == _double_factorial(len(fields) - 1)
    for edges, pairings in groups.items():
        for label, total in invariant_coefficients(factors, *pairings).items():
            key = (vertices, edges, label)
            accumulator[key] = accumulator.get(key, RegValue.zero()) + prefactor * total


_UNPAIRED = "every tensor slot must appear in exactly two contractions; slots {} do not"


def _old_cycle_count(edges, nslots):
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


def _old_cycle_terms(factors, pairing):
    combos = [(1, list(pairing))]
    nslots = 0
    for name in factors:
        pattern = PATTERNS[name]
        combos = [
            (sign * branch_sign, edges + [(a + nslots, b + nslots) for a, b in branch_edges])
            for sign, edges in combos
            for branch_sign, branch_edges in pattern.branches
        ]
        nslots += pattern.externals
    stray = sorted({slot for edge in pairing for slot in edge if not 0 <= slot < nslots})
    if stray:
        raise ValueError(_UNPAIRED.format(stray))
    return [(sign, _old_cycle_count(edges, nslots)) for sign, edges in combos]


def _vertex_tuples(model):
    """(tuple, order) of every contraction a catalog of ``model`` makes."""

    table = model.vertices()
    first = [v for v in table if v.order_in_eps == 1]
    singles = [((v,), v.order_in_eps) for v in table]
    return singles + [((a, b), 2) for i, a in enumerate(first) for b in first[i:]]


_MODELS = [FlatTransform(), NormalCoords(), FlatTransform((Fraction(2, 3), Fraction(-5, 4)))]


@pytest.mark.parametrize("model", _MODELS, ids=["flat", "normal", "flat_other"])
@pytest.mark.parametrize("connected_only", [False, True], ids=["all", "connected"])
def test_class_contraction_matches_the_per_matching_one(model, connected_only):
    prefactor = RegValue.delta0(1, Fraction(3, 7)) + RegValue.beta(-1, 2)
    orders = set()
    for vertex_tuple, order in _vertex_tuples(model):
        orders.add(order)
        old = {}
        _old_contract(old, vertex_tuple, prefactor, connected_only)
        new = {}
        _contract(new, vertex_tuple, prefactor, connected_only)
        assert new == {(edges, label): v for (_, edges, label), v in old.items()}
        # A single vertex has no connected matching.
        assert bool(new) != (connected_only and len(vertex_tuple) == 1), vertex_tuple
    assert orders == {1, 2}


@pytest.mark.parametrize("nfields,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_matching_counts_are_double_factorials(nfields, count):
    # Single fields, one class of them all, and every split into two or
    # three classes stand for the same (nfields - 1)!! matchings.
    assert sum(1 for _ in perfect_matchings(range(nfields))) == count
    graphs = _multigraphs([1] * nfields, [])
    assert len(graphs) == count and {d for _, d in graphs} == {1}
    for sizes in [[nfields]] + [[k, nfields - k] for k in range(1, nfields)] + [[1, 1, nfields - 2]]:
        total = math.prod(map(math.factorial, sizes))
        assert sum(total // d for _, d in _multigraphs(sizes, [])) == count, sizes
        assert all(total % d == 0 for _, d in _multigraphs(sizes, [])), sizes


def test_flat_catalog_enumerates_class_multigraphs():
    # The 128 connected field matchings of the order-2 tuples (141 with the
    # disconnected ones) collapse to 20 connected class multigraphs.
    counts = []
    for vertex_tuple, order in _vertex_tuples(FlatTransform()):
        if order == 2:
            classes = [
                (p, n) for p, v in enumerate(vertex_tuple) for n in (v.q_power, v.qdot_power) if n
            ]
            graphs = _multigraphs([n for _, n in classes], [])
            connected = [
                g for g, _ in graphs
                if len(vertex_tuple) == 1 or any(classes[c][0] != classes[d][0] for c, d in g)
            ]
            counts.append(len(connected))
    assert counts == [2, 1, 13, 3, 1]


def test_class_weights_count_the_field_matchings():
    # kinetic_quartic: q^4 qdot^2 has 3 matchings with a qdot loop and 12
    # with two q-qdot edges.
    graphs = dict(_multigraphs([4, 2], []))
    assert {graph: 24 * 2 // d for graph, d in graphs.items()} == {
        ((0, 0), (0, 0), (1, 1)): 3,
        ((0, 0), (0, 1), (0, 1)): 12,
    }


def test_a_large_vertex_keeps_every_matching_and_an_odd_one_is_refused():
    # Sixteen q fields are 15!! = 2027025 matchings, all eight D loops;
    # seven fields have none.
    (large,) = wick([Vertex("large", 1, 16, 0, 0, 1)], 1)
    assert large.edges == (((0, 0), "D"),) * 8
    assert large.weight == RegValue.rational(-math.prod(range(15, 0, -2)))
    with pytest.raises(ValueError, match="odd number of fields"):
        wick([Vertex("odd", 1, 7, 0, 0, 1)], 1)


# Branch signs 1, 2 and 3, 5 make the four combinations of two factors
# carry 3, 5, 6 and 10, whose subset sums all differ, so the summed powers
# pin each combination's cycle count.
_PROBES = {
    "riem": Pattern(4, ((1, ((0, 2), (1, 3))), (2, ((0, 3), (1, 2))))),
    "riem2": Pattern(4, ((3, ((0, 2), (1, 3))), (5, ((0, 3), (1, 2))))),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partner_walk_counts_the_cycles_of_the_rebuilt_graph(data):
    factors = data.draw(
        st.sampled_from([(), ("riem",), ("riem", "riem"), ("riem", "riem2"), ("riem2", "riem")])
    )
    probe = data.draw(st.booleans())
    nslots = 4 * len(factors)
    pairings = []
    for _ in range(data.draw(st.integers(1, 3))):
        order = data.draw(st.permutations(range(nslots)))
        pairings.append([tuple(order[k : k + 2]) for k in range(0, nslots, 2)])
    with mock.patch.dict(tensors.PATTERNS, _PROBES if probe else {"riem2": PATTERNS["riem"]}):
        expected = {}
        for pairing in pairings:
            for sign, cycles in _old_cycle_terms(factors, pairing):
                expected[cycles] = expected.get(cycles, 0) + sign
        assert _contraction_powers(factors, pairings) == expected


# ---------------------------------------------------------------------------
# flat catalog, first order
# ---------------------------------------------------------------------------


def test_flat_first_order_catalog():
    diagrams = wick(FlatTransform().vertices(), order=1)
    assert len(diagrams) == 3
    weights = {diagram.edges: diagram.weight for diagram in diagrams}
    loop = ((0, 0), "D")
    assert weights[(loop, ((0, 0), "DD"))] == RegValue.one()
    assert weights[(((0, 0), "Dl"), ((0, 0), "Dl"))] == RegValue.rational(2)
    assert weights[(loop,)] == RegValue.delta0(coeff=-1)


def test_flat_first_order_sum_vanishes():
    assert sum_order(FlatTransform(), 1) == {"one": RegValue.zero()}


# ---------------------------------------------------------------------------
# flat catalog, second order
# ---------------------------------------------------------------------------


def test_flat_second_order_shape_counts():
    diagrams = wick(FlatTransform().vertices(), order=2)
    counts = Counter(classify(diagram) for diagram in diagrams)
    assert counts == {
        "single_vertex": 3,
        "measure_pair": 4,
        "three_bubble": 7,
        "watermelon": 3,
    }


# Brute-force count written apart from the generator: the matchings of a
# vertex pair's labelled fields are read off all permutations of those
# fields, so every matching is counted on its own, with no merge of mirror
# images or of equal edge multisets.  Only at the end are matchings grouped
# into topologies, up to swapping the two vertices when they are identical.

_KIND_ENDS = {
    "D": ("q", "q"),
    "DD": ("qdot", "qdot"),
    "Dl": ("qdot", "q"),
    "Dr": ("q", "qdot"),
}


def _topology(edges, identical):
    """Sorted edge list of (position, field) ends, least under a vertex swap."""

    key = tuple(sorted(tuple(sorted(edge)) for edge in edges))
    if identical:
        swapped = [tuple((1 - p, f) for p, f in edge) for edge in edges]
        key = min(key, tuple(sorted(tuple(sorted(edge)) for edge in swapped)))
    return key


@pytest.mark.parametrize(
    "names,matchings,connected,topologies",
    [
        (("kinetic_quadratic", "kinetic_quadratic"), 105, 96, 10),
        (("kinetic_quadratic", "logdet_quadratic"), 15, 12, 3),
        (("logdet_quadratic", "logdet_quadratic"), 3, 2, 1),
    ],
)
def test_flat_pairs_match_independent_enumeration(
    names, matchings, connected, topologies
):
    # K x L: both logdet fields must land on the kinetic vertex, which sends
    # it {q,q}, {qdot,qdot} or {q,qdot} with multiplicities 2, 2 and 8; L x L
    # joins its two fields pairwise in 2 ways.  The delta0 pairs therefore
    # give 3 + 1 = 4 measure_pair topologies; K x K gives 10 (the 7
    # three_bubble and 3 watermelon entries).
    by_name = {v.name: v for v in FlatTransform().vertices()}
    pair = tuple(by_name[name] for name in names)
    identical = pair[0] == pair[1]
    fields = [
        (position, kind)
        for position, vertex in enumerate(pair)
        for kind in ["q"] * vertex.q_power + ["qdot"] * vertex.qdot_power
    ]
    labelled = {
        frozenset(frozenset(order[k : k + 2]) for k in range(0, len(order), 2))
        for order in itertools.permutations(range(len(fields)))
    }
    assert len(labelled) == math.prod(range(len(fields) - 1, 0, -2)) == matchings

    prefactor = RegValue.rational(
        pair[0].coefficient * pair[1].coefficient / (2 if identical else 1)
    ) * RegValue.delta0(pair[0].delta0_power + pair[1].delta0_power)
    multiplicity: Counter = Counter()
    for matching in labelled:
        edges = [tuple(fields[i] for i in sorted(link)) for link in matching]
        if any(a[0] != b[0] for a, b in edges):
            multiplicity[_topology(edges, identical)] += 1
    assert sum(multiplicity.values()) == connected
    assert len(multiplicity) == topologies

    generated = {}
    for diagram in wick(FlatTransform().vertices(), order=2):
        if tuple(v.name for v in diagram.vertices) == names:
            edges = [
                ((a, _KIND_ENDS[kind][0]), (b, _KIND_ENDS[kind][1]))
                for (a, b), kind in diagram.edges
            ]
            key = _topology(edges, identical)
            assert key not in generated
            generated[key] = diagram.weight
    assert len(generated) == topologies
    assert sum(generated.values(), RegValue.zero()) == prefactor * connected
    assert generated == {
        key: prefactor * count for key, count in multiplicity.items()
    }


def test_flat_single_vertex_weights():
    diagrams = _by_shape(wick(FlatTransform().vertices(), order=2))
    weights = Counter(d.weight for d in diagrams["single_vertex"])
    assert weights == Counter(
        [
            RegValue.rational(-18),
            RegValue.rational(Fraction(-9, 2)),
            RegValue.delta0(coeff=Fraction(3, 2)),
        ]
    )


def test_flat_measure_pair_weights():
    diagrams = _by_shape(wick(FlatTransform().vertices(), order=2))
    weights = Counter(d.weight for d in diagrams["measure_pair"])
    assert weights == Counter(
        [
            RegValue.delta0(2),
            RegValue.delta0(coeff=-2),
            RegValue.delta0(coeff=-2),
            RegValue.delta0(coeff=-8),
        ]
    )


def test_flat_three_bubble_weights():
    diagrams = _by_shape(wick(FlatTransform().vertices(), order=2))
    weights = Counter(d.weight for d in diagrams["three_bubble"])
    assert weights == Counter(
        RegValue.rational(w) for w in (2, 1, 1, 8, 8, 8, 8)
    )


def test_flat_watermelon_weights():
    diagrams = _by_shape(wick(FlatTransform().vertices(), order=2))
    weights = Counter(d.weight for d in diagrams["watermelon"])
    assert weights == Counter(RegValue.rational(w) for w in (2, 8, 2))


def test_flat_family_totals():
    diagrams = wick(FlatTransform().vertices(), order=2)
    assert _family_total(diagrams, "single_vertex") == RegValue.delta0(
        coeff=Fraction(-1, 10)
    ) * RegValue.beta(3)
    assert _family_total(diagrams, "measure_pair") == (
        RegValue.term(Fraction(-1, 15), 3, 1) + RegValue.term(Fraction(-1, 90), 4, 2)
    )
    assert _family_total(diagrams, "watermelon") == (
        RegValue.term(Fraction(-1, 60), 2, 0) + RegValue.term(Fraction(1, 15), 3, 1)
    )


def test_flat_second_order_sum_vanishes_by_grade():
    total = sum_order(FlatTransform(), 2)["one"]
    for grade in (0, 1, 2):
        assert total.grade(grade) == RegValue.zero()


_COORDINATE_CHANGE = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=50, deadline=None)
@given(_COORDINATE_CHANGE, _COORDINATE_CHANGE)
def test_flat_sums_vanish_for_every_coordinate_change(f1, f2):
    # x = q + f1 q^3 + f2 q^5 keeps the line flat, so under DimReg each
    # order cancels in every delta0 grade, whatever the coefficients.
    model = FlatTransform((f1, f2))
    for order in (1, 2):
        totals = sum_order(model, order, DIMREG)
        assert set(totals) <= {"one"}
        total = totals.get("one", RegValue.zero())
        for grade in (0, 1, 2):
            assert total.grade(grade) == RegValue.zero(), (order, grade)
        assert total == RegValue.zero()


@pytest.mark.parametrize("order", [1, 2])
def test_identity_transform_has_no_diagrams(order):
    # x = q: the metric is exactly flat, so every vertex coefficient is 0.
    assert sum_order(FlatTransform(()), order) == {}
    assert catalog(FlatTransform(()), order) == []


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
@pytest.mark.parametrize("model", [FlatTransform(), NormalCoords()], ids=lambda m: type(m).__name__)
def test_order_two_takes_the_order_one_totals_unchanged(model, rules):
    first = sum_order(model, 1, rules)
    kept = dict(first)
    assert sum_order(model, 1, rules, first) is first
    assert sum_order(model, 2, rules, first) == sum_order(model, 2, rules)
    assert first == kept


def test_flat_second_order_mode_regularization_residual():
    total = sum_order(FlatTransform(), 2, MODEREG)["one"]
    assert total == RegValue.beta(2, Fraction(-1, 36))


# ---------------------------------------------------------------------------
# curved catalog
# ---------------------------------------------------------------------------


def test_curved_first_order_class_weights():
    diagrams = wick(NormalCoords().vertices(), order=1)
    assert len(diagrams) == 3
    assert {d.tensor_label for d in diagrams} == {"R"}
    weights = {diagram.edges: diagram.weight for diagram in diagrams}
    loop = ((0, 0), "D")
    assert weights[(loop, ((0, 0), "DD"))] == RegValue.rational(Fraction(-1, 6))
    assert weights[(((0, 0), "Dl"), ((0, 0), "Dl"))] == RegValue.rational(Fraction(1, 6))
    assert weights[(loop,)] == RegValue.delta0(coeff=Fraction(1, 6))


def test_curved_first_order_sum():
    # The amplitude is R beta/12: beta/24 from the diagrams plus beta/24
    # from the measure term.
    model = NormalCoords()
    diagrams = sum((evaluate_diagram(d) for d in wick(model.vertices(), order=1)), RegValue.zero())
    assert diagrams == RegValue.beta(1, Fraction(1, 24))
    assert model.measure_terms() == {"R": RegValue.beta(1, Fraction(1, 24))}
    assert sum_order(model, 1) == {"R": RegValue.beta(1, Fraction(1, 12))}


def test_curved_second_order_sum_is_heat_kernel():
    totals = sum_order(NormalCoords(), 2)
    assert totals == {
        "RicciSq": RegValue.beta(2, Fraction(-1, 720)),
        "RiemannSq": RegValue.beta(2, Fraction(1, 720)),
        "Rsq": RegValue.beta(2, Fraction(1, 288)),
    }


def test_curved_second_order_divergences_cancel_per_label():
    totals = sum_order(NormalCoords(), 2)
    for value in totals.values():
        assert value.grade(1) == RegValue.zero()
        assert value.grade(2) == RegValue.zero()


def test_curved_watermelon_total_is_pure_divergence():
    diagrams = wick(NormalCoords().vertices(), order=2)
    total = _family_total(diagrams, "watermelon")
    assert total == RegValue.term(Fraction(1, 720), 3, 1)


def test_curved_quartic_kinetic_vertex_alone():
    # The six-field vertex carries weight built from both delta-expansion
    # branches of each factor, so its local values depend on the slot
    # layout; the full second-order totals above pin them, this guards
    # the label split.
    diagrams = [
        d
        for d in wick(NormalCoords().vertices(), order=2)
        if classify(d) == "single_vertex"
    ]
    labels = Counter(d.tensor_label for d in diagrams)
    assert set(labels) == {"RicciSq", "RiemannSq"}


# ---------------------------------------------------------------------------
# evaluation plumbing
# ---------------------------------------------------------------------------


def _old_edge_multisets(vertex_tuple, connected_only):
    """Canonical edge multisets of a tuple's matchings, one matching at a time."""

    fields = _old_fields(vertex_tuple)
    mirror = len(vertex_tuple) == 2 and vertex_tuple[0] == vertex_tuple[1]
    found = set()
    for matching in perfect_matchings(range(len(fields))):
        pairs = [(fields[i], fields[j]) for i, j in matching]
        if not connected_only or any(a[0] != b[0] for a, b in pairs):
            found.add(_old_canonical_edges(pairs, mirror))
    return found


def test_wick_multiplies_values_once_per_catalog_entry(monkeypatch):
    # Counted, not timed.  The matchings of each vertex tuple are grouped
    # by edge multiset and each group is decomposed in one call.  Each
    # label's sum is scaled by its vertex prefactor once, so every catalog
    # entry costs one product.
    products = []
    multiply = RegValue.__mul__

    def counted(left, right):
        products.append(right)
        return multiply(left, right)

    # Per contraction of a vertex tuple: the tuple, whether only connected
    # matchings count, and the number of pairings of each decomposition.
    contractions = []
    contract = worldline.diagrams._contract
    decompose = worldline.diagrams.invariant_coefficients

    def counted_contract(entries, vertex_tuple, prefactor, connected_only):
        contractions.append((vertex_tuple, connected_only, []))
        contract(entries, vertex_tuple, prefactor, connected_only)

    def counted_decompose(factors, *pairings):
        contractions[-1][2].append(len(pairings))
        return decompose(factors, *pairings)

    monkeypatch.setattr(worldline.diagrams, "_contract", counted_contract)
    monkeypatch.setattr(worldline.diagrams, "invariant_coefficients", counted_decompose)
    monkeypatch.setattr(RegValue, "__mul__", counted)
    # Each order-2 catalog decomposes its 128 connected matchings in 17
    # calls, into 20 normal and 17 flat entries.
    for model in (NormalCoords(), FlatTransform()):
        products.clear()
        contractions.clear()
        diagrams = wick(model.vertices(), 2)
        assert len(products) == len(diagrams)
        assert sum(len(made) for *_, made in contractions) == 17
        assert sum(sum(made) for *_, made in contractions) == 128

    # The battery builds four catalogs, each model's order 1 and order 2
    # once, and decomposes once per (vertex tuple, edge multiset): 4 + 128
    # matchings in 3 + 17 calls per model, 264 in 40.
    contractions.clear()
    catalogs = []
    monkeypatch.setattr(worldline.diagrams, "wick", lambda *args, **kw: catalogs.append(args) or wick(*args, **kw))
    run_standard_checks()
    assert len(catalogs) == 4
    assert len(contractions) == 14
    for vertex_tuple, connected_only, made in contractions:
        assert len(made) == len(_old_edge_multisets(vertex_tuple, connected_only))
        assert all(made)
    assert sum(sum(made) for *_, made in contractions) == 264
    assert sum(len(made) for *_, made in contractions) == 40


def test_evaluate_diagram_applies_weight():
    diagram = Diagram(
        vertices=tuple(FlatTransform().vertices()[:1]),
        edges=(((0, 0), "D"), ((0, 0), "DD")),
        weight=RegValue.rational(6),
        tensor_label="one",
    )
    expected = (RegValue.delta0() - RegValue.beta(-1)) * RegValue.beta(2, Fraction(1, 6)) * 6
    assert evaluate_diagram(diagram) == expected


def _random_weight(rng: random.Random) -> RegValue:
    weight = RegValue.zero()
    while not weight:
        for _ in range(rng.randint(1, 3)):
            coefficient = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            weight = weight + RegValue.term(coefficient, rng.randint(-2, 2), rng.randint(0, 2))
    return weight


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
@pytest.mark.parametrize(
    "model", [FlatTransform(), NormalCoords()], ids=lambda m: type(m).__name__
)
def test_evaluate_diagram_equals_direct_weighted_reduction(model, rules):
    rng = random.Random(f"{type(model).__name__}/{rules.name}")
    for diagram in wick(model.vertices(), order=2):
        for weight in (diagram.weight, _random_weight(rng), _random_weight(rng)):
            weighted = diagram._replace(weight=weight)
            direct = reduce_terms(
                [
                    ParsedProduct(
                        coefficient=weight,
                        factors=tuple((kind, a, b) for (a, b), kind in diagram.edges),
                        nvars=len(diagram.vertices),
                    )
                ],
                rules,
            )
            assert evaluate_diagram(weighted, rules) == direct, (diagram.edges, weight)


def _report_json(reports) -> str:
    return json.dumps([r._asdict() for r in reports], sort_keys=True, default=str)


def test_battery_reports_do_not_leak_across_rulesets():
    fresh = {}
    for rules in ("DIMREG", "MODEREG"):
        script = (
            "import json\n"
            "from worldline.checks import run_standard_checks\n"
            f"from worldline.integration import {rules}\n"
            f"print(json.dumps([r._asdict() for r in run_standard_checks({rules})],"
            " sort_keys=True, default=str))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(worldline.__file__).parents[1])},
        )
        fresh[rules] = run.stdout.strip()
    for rules, name in ((DIMREG, "DIMREG"), (MODEREG, "MODEREG"), (DIMREG, "DIMREG")):
        assert _report_json(run_standard_checks(rules)) == fresh[name], name
    assert fresh["DIMREG"] != fresh["MODEREG"]


def test_sum_order_rejects_higher_orders():
    with pytest.raises(ValueError):
        sum_order(FlatTransform(), 3)


@pytest.mark.parametrize("order", [0, 3])
def test_catalogs_refuse_orders_other_than_one_and_two(order):
    # An empty catalog would read as "no diagrams at this order".
    refusal = "diagram catalogs are implemented through second order"
    for model in (FlatTransform(), NormalCoords()):
        with pytest.raises(ValueError, match=refusal):
            catalog(model, order)
        with pytest.raises(ValueError, match=refusal):
            wick(model.vertices(), order)


def test_catalog_is_deterministic_and_serializable():
    import json

    first = catalog(FlatTransform(), 2)
    second = catalog(FlatTransform(), 2)
    assert first == second
    text = json.dumps(first, sort_keys=True)
    assert json.loads(text) == first
    assert all(entry["order_in_eps"] == 2 for entry in first)


def test_vertex_validation():
    with pytest.raises(ValueError):
        Vertex(
            name="bad",
            order_in_eps=3,
            q_power=2,
            qdot_power=0,
            delta0_power=0,
            coefficient=Fraction(1),
        )
    with pytest.raises(ValueError):
        Vertex(
            name="bad",
            order_in_eps=1,
            q_power=2,
            qdot_power=0,
            delta0_power=0,
            coefficient=Fraction(1),
            tensors=("riem",),
            q_slots=(0,),
        )

"""Tests for the Wick contraction catalogs and their totals."""

from __future__ import annotations

import dataclasses
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

import pytest

import worldline
from worldline.checks import run_standard_checks
from worldline.diagrams import (
    Diagram,
    Vertex,
    catalog,
    classify,
    evaluate_diagram,
    perfect_matchings,
    sum_order,
    wick,
)
from worldline.geometry import FlatTransform, NormalCoords, vertices
from worldline.integrands import ParsedProduct
from worldline.integration import DIMREG, MODEREG
from worldline.propagators import Kind
from worldline.reduction import reduce_terms
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
            value, _ = evaluate_diagram(diagram, rules)
            total = total + value
    return total


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nfields,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_matching_counts_are_double_factorials(nfields, count):
    assert sum(1 for _ in perfect_matchings(range(nfields))) == count


# ---------------------------------------------------------------------------
# flat catalog, first order
# ---------------------------------------------------------------------------


def test_flat_first_order_catalog():
    diagrams = wick(vertices(FlatTransform()), order=1)
    assert len(diagrams) == 3
    weights = {diagram.edges: diagram.weight for diagram in diagrams}
    loop = ((0, 0), Kind.D)
    assert weights[(loop, ((0, 0), Kind.DOT_DOT))] == RegValue.one()
    assert weights[(((0, 0), Kind.DOT_LEFT), ((0, 0), Kind.DOT_LEFT))] == (
        RegValue.rational(2)
    )
    assert weights[(loop,)] == RegValue.delta0(coeff=-1)


def test_flat_first_order_sum_vanishes():
    assert sum_order(FlatTransform(), 1) == {"one": RegValue.zero()}


# ---------------------------------------------------------------------------
# flat catalog, second order
# ---------------------------------------------------------------------------


def test_flat_second_order_shape_counts():
    diagrams = wick(vertices(FlatTransform()), order=2)
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
    Kind.D: ("q", "q"),
    Kind.DOT_DOT: ("qdot", "qdot"),
    Kind.DOT_LEFT: ("qdot", "q"),
    Kind.DOT_RIGHT: ("q", "qdot"),
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
    by_name = {v.name: v for v in vertices(FlatTransform())}
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
    for diagram in wick(vertices(FlatTransform()), order=2):
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
    diagrams = _by_shape(wick(vertices(FlatTransform()), order=2))
    weights = Counter(d.weight for d in diagrams["single_vertex"])
    assert weights == Counter(
        [
            RegValue.rational(-18),
            RegValue.rational(Fraction(-9, 2)),
            RegValue.delta0(coeff=Fraction(3, 2)),
        ]
    )


def test_flat_measure_pair_weights():
    diagrams = _by_shape(wick(vertices(FlatTransform()), order=2))
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
    diagrams = _by_shape(wick(vertices(FlatTransform()), order=2))
    weights = Counter(d.weight for d in diagrams["three_bubble"])
    assert weights == Counter(
        RegValue.rational(w) for w in (2, 1, 1, 8, 8, 8, 8)
    )


def test_flat_watermelon_weights():
    diagrams = _by_shape(wick(vertices(FlatTransform()), order=2))
    weights = Counter(d.weight for d in diagrams["watermelon"])
    assert weights == Counter(RegValue.rational(w) for w in (2, 8, 2))


def test_flat_family_totals():
    diagrams = wick(vertices(FlatTransform()), order=2)
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


def test_flat_second_order_mode_regularization_residual():
    total = sum_order(FlatTransform(), 2, MODEREG)["one"]
    assert total == RegValue.beta(2, Fraction(-1, 36))


# ---------------------------------------------------------------------------
# curved catalog
# ---------------------------------------------------------------------------


def test_curved_first_order_class_weights():
    diagrams = wick(vertices(NormalCoords()), order=1)
    assert len(diagrams) == 3
    assert {d.tensor_label for d in diagrams} == {"R"}
    weights = {diagram.edges: diagram.weight for diagram in diagrams}
    loop = ((0, 0), Kind.D)
    assert weights[(loop, ((0, 0), Kind.DOT_DOT))] == RegValue.rational(
        Fraction(-1, 6)
    )
    assert weights[(((0, 0), Kind.DOT_LEFT), ((0, 0), Kind.DOT_LEFT))] == (
        RegValue.rational(Fraction(1, 6))
    )
    assert weights[(loop,)] == RegValue.delta0(coeff=Fraction(1, 6))


def test_curved_first_order_sum():
    assert sum_order(NormalCoords(), 1) == {"R": RegValue.beta(1, Fraction(1, 24))}


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
    diagrams = wick(vertices(NormalCoords()), order=2)
    total = _family_total(diagrams, "watermelon")
    assert total == RegValue.term(Fraction(1, 720), 3, 1)


def test_curved_quartic_kinetic_vertex_alone():
    # The six-field vertex carries weight built from both delta-expansion
    # branches of each factor, so its local values depend on the slot
    # layout; the full second-order totals above pin them, this guards
    # the label split.
    diagrams = [
        d
        for d in wick(vertices(NormalCoords()), order=2)
        if classify(d) == "single_vertex"
    ]
    labels = Counter(d.tensor_label for d in diagrams)
    assert set(labels) == {"RicciSq", "RiemannSq"}


# ---------------------------------------------------------------------------
# evaluation plumbing
# ---------------------------------------------------------------------------


def test_evaluate_diagram_applies_weight():
    diagram = Diagram(
        vertices=tuple(vertices(FlatTransform())[:1]),
        edges=(((0, 0), Kind.D), ((0, 0), Kind.DOT_DOT)),
        weight=RegValue.rational(6),
        tensor_label="one",
        local=True,
    )
    value, label = evaluate_diagram(diagram)
    assert label == "one"
    assert value == (RegValue.delta0() - RegValue.beta(-1)) * RegValue.beta(
        2, Fraction(1, 6)
    ) * 6


def _random_weight(rng: random.Random) -> RegValue:
    weight = RegValue.zero()
    while weight.is_zero():
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
    for diagram in wick(vertices(model), order=2):
        for weight in (diagram.weight, _random_weight(rng), _random_weight(rng)):
            weighted = dataclasses.replace(diagram, weight=weight)
            direct_log: list = []
            direct = reduce_terms(
                [
                    ParsedProduct(
                        coefficient=weight,
                        factors=tuple((kind, a, b) for (a, b), kind in diagram.edges),
                        nvars=len(diagram.vertices),
                    )
                ],
                rules,
                log=direct_log,
            )
            log: list = []
            value, label = evaluate_diagram(weighted, rules, log=log)
            assert value == direct, (diagram.edges, weight)
            assert label == diagram.tensor_label
            assert log == direct_log
            # The caller owns its copy of the move log.
            for entry in log:
                entry["move"] = "edited"
                for item in entry.values():
                    if isinstance(item, list):
                        item.append("edited")
            again: list = []
            evaluate_diagram(weighted, rules, log=again)
            assert again == direct_log


def _report_json(reports) -> str:
    return json.dumps([dataclasses.asdict(r) for r in reports], sort_keys=True, default=str)


def test_battery_reports_do_not_leak_across_rulesets():
    fresh = {}
    for rules in ("DIMREG", "MODEREG"):
        script = (
            "import dataclasses, json\n"
            "from worldline.checks import run_standard_checks\n"
            f"from worldline.integration import {rules}\n"
            f"print(json.dumps([dataclasses.asdict(r) for r in run_standard_checks({rules})],"
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

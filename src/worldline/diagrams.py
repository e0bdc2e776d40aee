"""Vacuum diagram catalogs built by exact Wick contraction.

A vertex records one interaction monomial of the expanded action: powers
of the fluctuation field and its time derivative, a rational coefficient,
an optional factor of the equal-time distributional constant, and the
curvature factors its fields are attached to.  Wick contraction of one
vertex (or of a connected pair of first-order vertices) produces vacuum
diagrams whose edges are the two-time propagator kinds; equal tensor
structures and mirror-equivalent edge multisets are merged into a single
catalog entry with an accumulated weight.

Diagram values are obtained through the reduction engine, never by
direct naive integration, so products whose distributional content is
ambiguous in one dimension are handled by the legal rewriting moves.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .geometry import Vertex, measure_terms, vertices as model_vertices
from .integrands import ParsedProduct
from .integration import DIMREG, RuleSet
from .reduction import reduce_terms
from .tensors import invariant_coefficients
from .values import RegValue

Edge = tuple[tuple[int, int], str]  # ((a, b), kind), a <= b


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


class Diagram(namedtuple("Diagram", "vertices edges weight tensor_label")):
    """One catalog entry: a vertex tuple with a canonical edge multiset."""

    __slots__ = ()


def classify(diagram: Diagram) -> str:
    """Structural family of a diagram, used by the catalog listing."""

    if len(diagram.vertices) == 1:
        return "single_vertex"
    if any(v.delta0_power for v in diagram.vertices):
        return "measure_pair"
    cross = sum(1 for (a, b), _ in diagram.edges if a != b)
    return "three_bubble" if cross == 2 else "watermelon"


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def perfect_matchings(items: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
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


def _double_factorial(m: int) -> int:
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


_Field = tuple[int, str, int | None]  # (vertex position, "q"|"qdot", tensor slot)


def _fields(vertices: Sequence[Vertex]) -> list[_Field]:
    fields: list[_Field] = []
    for position, vertex in enumerate(vertices):
        q_slots: Sequence[int | None] = vertex.q_slots or (None,) * vertex.q_power
        qdot_slots: Sequence[int | None] = (
            vertex.qdot_slots or (None,) * vertex.qdot_power
        )
        fields.extend((position, "q", slot) for slot in q_slots)
        fields.extend((position, "qdot", slot) for slot in qdot_slots)
    return fields


_MIRROR_KIND = {"D": "D", "DD": "DD", "Dl": "Dr", "Dr": "Dl"}


def _edge(a: _Field, b: _Field) -> Edge:
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


def _mirror_edges(edges: list[Edge]) -> list[Edge]:
    mirrored = []
    for (a, b), kind in edges:
        na, nb = 1 - a, 1 - b
        if na > nb:
            na, nb = nb, na
            kind = _MIRROR_KIND[kind]
        mirrored.append(((na, nb), kind))
    return sorted(mirrored)


def _canonical_edges(
    raw: Iterable[tuple[_Field, _Field]], mirror: bool
) -> tuple[Edge, ...]:
    edges = sorted(_edge(a, b) for a, b in raw)
    if mirror:
        edges = min(edges, _mirror_edges(edges))
    return tuple(edges)


# ---------------------------------------------------------------------------
# contraction of a vertex tuple
# ---------------------------------------------------------------------------


def _contract(
    accumulator: dict[tuple[tuple[Vertex, ...], tuple[Edge, ...], str], RegValue],
    vertices: tuple[Vertex, ...],
    prefactor: RegValue,
    connected_only: bool,
) -> None:
    fields = _fields(vertices)
    factors: tuple[str, ...] = ()
    offsets: list[int] = []
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

    # The decomposition is linear, so the pairings of each edge multiset
    # are decomposed together and each sum is scaled by prefactor once.
    groups: dict[tuple[Edge, ...], list[list[tuple[int, int]]]] = {}
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
        groups.setdefault(_canonical_edges(pairs, mirror), []).append(pairing)
    assert count == _double_factorial(len(fields) - 1)
    for edges, pairings in groups.items():
        for label, total in invariant_coefficients(factors, *pairings).items():
            key = (vertices, edges, label)
            accumulator[key] = accumulator.get(key, RegValue.zero()) + prefactor * total


def _diagram_sort_key(diagram: Diagram):
    return (len(diagram.vertices), diagram.edges, diagram.tensor_label)


def wick(vertex_set: Sequence[Vertex], order: int) -> list[Diagram]:
    """Catalog of connected vacuum diagrams from a vertex set.

    Every vertex is contracted with itself, and every unordered pair of
    first-order vertices (repetition allowed) is contracted with the
    matchings restricted to connected ones.  Single-vertex diagrams carry
    minus the vertex coefficient; pairs carry the product of coefficients,
    halved for identical vertices.  ``order`` keeps only diagrams of that
    total order, 1 or 2; any other order raises ``ValueError``.
    """

    if order not in (1, 2):
        raise ValueError("diagram catalogs are implemented through second order")
    accumulator: dict[tuple[tuple[Vertex, ...], tuple[Edge, ...], str], RegValue] = {}
    for vertex in vertex_set:
        if vertex.order_in_eps != order:
            continue
        prefactor = RegValue.delta0(vertex.delta0_power, -vertex.coefficient)
        _contract(accumulator, (vertex,), prefactor, connected_only=False)
    if order == 2:
        first_order = [v for v in vertex_set if v.order_in_eps == 1]
        for i, left in enumerate(first_order):
            for right in first_order[i:]:
                coefficient = left.coefficient * right.coefficient
                if left == right:
                    coefficient /= 2
                prefactor = RegValue.delta0(
                    left.delta0_power + right.delta0_power, coefficient
                )
                _contract(accumulator, (left, right), prefactor, connected_only=True)

    diagrams = []
    for (vertices, edges, label), weight in accumulator.items():
        if weight == RegValue.zero():
            continue
        diagrams.append(Diagram(vertices, edges, weight, label))
    return sorted(diagrams, key=_diagram_sort_key)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_diagram(diagram: Diagram, rules: RuleSet = DIMREG) -> RegValue:
    """Value of a diagram under a regularization scheme."""

    factors = tuple((kind, a, b) for (a, b), kind in diagram.edges)
    parsed = ParsedProduct(diagram.weight, factors, len(diagram.vertices))
    return reduce_terms([parsed], rules)


def _label_product(left: str, right: str) -> str:
    if left == "one":
        return right
    if right == "one":
        return left
    if left == right == "R":
        return "Rsq"
    raise ValueError(f"no label for the product of {left!r} and {right!r}")


def sum_order(
    model, order: int, rules: RuleSet = DIMREG, first: dict[str, RegValue] | None = None
) -> dict[str, RegValue]:
    """Total of all order-``order`` diagrams of a model, by tensor label.

    At second order this includes the disconnected square of the complete
    first-order total (vertex diagrams plus the model's measure terms),
    which belongs to the amplitude at that order.  The first-order total
    itself excludes the measure terms; they are reported separately by
    the geometry layer.  ``first`` is ``sum_order(model, 1, rules)`` when
    the caller has it already; it is not recomputed.
    """

    if order == 1 and first is not None:
        return first
    totals: dict[str, RegValue] = {}
    for diagram in wick(model_vertices(model), order=order):
        label = diagram.tensor_label
        totals[label] = totals.get(label, RegValue.zero()) + evaluate_diagram(diagram, rules)
    if order == 2:
        first = dict(sum_order(model, 1, rules) if first is None else first)
        for label, value in measure_terms(model).items():
            first[label] = first.get(label, RegValue.zero()) + value
        items = list(first.items())
        for label_a, value_a in items:
            for label_b, value_b in items:
                label = _label_product(label_a, label_b)
                totals[label] = totals.get(label, RegValue.zero()) + (
                    value_a * value_b * Fraction(1, 2)
                )
    return dict(sorted(totals.items()))


def catalog(model, order: int, rules: RuleSet = DIMREG) -> list[dict]:
    """JSON-ready listing of the order-``order`` diagram catalog."""

    entries = []
    for diagram in wick(model_vertices(model), order=order):
        entries.append({
            "shape": classify(diagram),
            "vertices": [v.name for v in diagram.vertices],
            "edges": [[kind, a + 1, b + 1] for (a, b), kind in diagram.edges],
            "weight": diagram.weight.text(),
            "tensor_label": diagram.tensor_label,
            "local": all(a == b for (a, b), _ in diagram.edges),
            "order_in_eps": order,
            "value": evaluate_diagram(diagram, rules).text(),
        })
    return entries

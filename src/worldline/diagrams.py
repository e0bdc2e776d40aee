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

import copy
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .integrands import ParsedProduct
from .integration import DIMREG, RuleSet
from .propagators import Kind
from .reduction import reduce_terms
from .tensors import invariant_coefficients
from .values import RegValue

Edge = Tuple[Tuple[int, int], Kind]

_MIRROR_KIND = {
    Kind.D: Kind.D,
    Kind.DOT_DOT: Kind.DOT_DOT,
    Kind.DOT_LEFT: Kind.DOT_RIGHT,
    Kind.DOT_RIGHT: Kind.DOT_LEFT,
}


# ---------------------------------------------------------------------------
# vertices and diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    """One interaction monomial of the expanded action.

    ``coefficient`` multiplies the integrated monomial
    ``q^q_power qdot^qdot_power`` at a single time, together with
    ``delta0_power`` factors of the equal-time distributional constant.
    When the vertex carries curvature factors, ``tensors`` names their
    delta-expansion patterns, the slot tuples say which tensor slot each
    field index lives in, and ``internal`` lists slot pairs contracted
    inside the vertex itself.
    """

    name: str
    order_in_eps: int
    q_power: int
    qdot_power: int
    delta0_power: int
    coefficient: Fraction
    tensors: Tuple[str, ...] = ()
    q_slots: Tuple[int, ...] = ()
    qdot_slots: Tuple[int, ...] = ()
    internal: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.order_in_eps not in (1, 2):
            raise ValueError("vertex order must be 1 or 2")
        if self.qdot_power not in (0, 2):
            raise ValueError("vertices carry zero or two derivative fields")
        if self.delta0_power not in (0, 1):
            raise ValueError("vertices carry at most one equal-time constant")
        if self.tensors:
            if len(self.q_slots) != self.q_power:
                raise ValueError("each field needs a tensor slot")
            if len(self.qdot_slots) != self.qdot_power:
                raise ValueError("each derivative field needs a tensor slot")
            used = list(self.q_slots) + list(self.qdot_slots)
            for a, b in self.internal:
                used.extend((a, b))
            if sorted(used) != list(range(self.slot_count)):
                raise ValueError("tensor slots must cover 0..slot_count-1 exactly once")
        elif self.q_slots or self.qdot_slots or self.internal:
            raise ValueError("slot data requires tensor factors")

    @property
    def slot_count(self) -> int:
        """Number of tensor slots the vertex exposes."""
        if not self.tensors:
            return 0
        highest = -1
        for group in (self.q_slots, self.qdot_slots):
            for slot in group:
                highest = max(highest, slot)
        for a, b in self.internal:
            highest = max(highest, a, b)
        return highest + 1


@dataclass(frozen=True)
class Diagram:
    """One catalog entry: a vertex tuple with a canonical edge multiset."""

    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]
    weight: RegValue
    tensor_label: str
    local: bool

    @property
    def order_in_eps(self) -> int:
        return sum(v.order_in_eps for v in self.vertices)


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


def perfect_matchings(items: Sequence[int]) -> Iterator[Tuple[Tuple[int, int], ...]]:
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


_Field = Tuple[int, str, Optional[int]]  # (vertex position, "q"|"qdot", tensor slot)


def _fields(vertices: Sequence[Vertex]) -> List[_Field]:
    fields: List[_Field] = []
    for position, vertex in enumerate(vertices):
        q_slots: Sequence[Optional[int]] = vertex.q_slots or (None,) * vertex.q_power
        qdot_slots: Sequence[Optional[int]] = (
            vertex.qdot_slots or (None,) * vertex.qdot_power
        )
        fields.extend((position, "q", slot) for slot in q_slots)
        fields.extend((position, "qdot", slot) for slot in qdot_slots)
    return fields


def _edge(a: _Field, b: _Field) -> Edge:
    (pa, ta, _), (pb, tb, _) = a, b
    if pa == pb:
        if ta == tb == "qdot":
            return ((pa, pa), Kind.DOT_DOT)
        if ta == tb == "q":
            return ((pa, pa), Kind.D)
        return ((pa, pa), Kind.DOT_LEFT)
    if pa > pb:
        pa, ta, pb, tb = pb, tb, pa, ta
    if ta == tb == "qdot":
        kind = Kind.DOT_DOT
    elif ta == "qdot":
        kind = Kind.DOT_LEFT
    elif tb == "qdot":
        kind = Kind.DOT_RIGHT
    else:
        kind = Kind.D
    return ((pa, pb), kind)


def _edge_key(edge: Edge) -> Tuple[Tuple[int, int], str]:
    (a, b), kind = edge
    return ((a, b), kind.value)


def _mirror_edges(edges: Tuple[Edge, ...]) -> Tuple[Edge, ...]:
    mirrored = []
    for (a, b), kind in edges:
        na, nb = 1 - a, 1 - b
        if na > nb:
            na, nb = nb, na
            kind = _MIRROR_KIND[kind]
        mirrored.append(((na, nb), kind))
    return tuple(sorted(mirrored, key=_edge_key))


def _canonical_edges(
    raw: Iterable[Tuple[_Field, _Field]], mirror: bool
) -> Tuple[Edge, ...]:
    edges = tuple(sorted((_edge(a, b) for a, b in raw), key=_edge_key))
    if mirror:
        flipped = _mirror_edges(edges)
        if tuple(map(_edge_key, flipped)) < tuple(map(_edge_key, edges)):
            return flipped
    return edges


# ---------------------------------------------------------------------------
# contraction of a vertex tuple
# ---------------------------------------------------------------------------


def _contract(
    accumulator: Dict[Tuple[Tuple[Vertex, ...], Tuple[Edge, ...], str], RegValue],
    vertices: Tuple[Vertex, ...],
    prefactor: RegValue,
    connected_only: bool,
) -> None:
    fields = _fields(vertices)
    factors: Tuple[str, ...] = ()
    offsets: List[int] = []
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
        coefficients = invariant_coefficients(factors, tuple(pairing))
        edges = _canonical_edges(pairs, mirror)
        for label, coefficient in coefficients.items():
            key = (vertices, edges, label)
            accumulator[key] = (
                accumulator.get(key, RegValue.zero()) + prefactor * coefficient
            )
    assert count == _double_factorial(len(fields) - 1)


def _diagram_sort_key(diagram: Diagram):
    return (
        diagram.order_in_eps,
        len(diagram.vertices),
        tuple(map(_edge_key, diagram.edges)),
        diagram.tensor_label,
    )


def wick(vertex_set: Sequence[Vertex], order: int) -> List[Diagram]:
    """Catalog of connected vacuum diagrams from a vertex set.

    Every vertex is contracted with itself, and every unordered pair of
    first-order vertices (repetition allowed) is contracted with the
    matchings restricted to connected ones.  Single-vertex diagrams carry
    minus the vertex coefficient; pairs carry the product of coefficients,
    halved for identical vertices.  ``order`` keeps only diagrams of that
    total order.
    """

    accumulator: Dict[Tuple[Tuple[Vertex, ...], Tuple[Edge, ...], str], RegValue] = {}
    for vertex in vertex_set:
        if vertex.order_in_eps != order:
            continue
        prefactor = RegValue.rational(-vertex.coefficient) * RegValue.delta0(
            vertex.delta0_power
        )
        _contract(accumulator, (vertex,), prefactor, connected_only=False)
    if order == 2:
        first_order = [v for v in vertex_set if v.order_in_eps == 1]
        for i, left in enumerate(first_order):
            for right in first_order[i:]:
                coefficient = left.coefficient * right.coefficient
                if left == right:
                    coefficient /= 2
                prefactor = RegValue.rational(coefficient) * RegValue.delta0(
                    left.delta0_power + right.delta0_power
                )
                _contract(accumulator, (left, right), prefactor, connected_only=True)

    diagrams = []
    for (vertices, edges, label), weight in accumulator.items():
        if weight == RegValue.zero():
            continue
        local = all(a == b for (a, b), _ in edges)
        diagrams.append(
            Diagram(
                vertices=vertices,
                edges=edges,
                weight=weight,
                tensor_label=label,
                local=local,
            )
        )
    return sorted(diagrams, key=_diagram_sort_key)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@functools.cache
def _reduce_topology(
    edges: Tuple[Edge, ...], nvars: int, rules: RuleSet
) -> Tuple[RegValue, Tuple[dict, ...]]:
    """Unit-weight value and move log of one edge topology, once per process.

    Reduction is linear in the coefficient: the only coefficient-dependent
    decision, the fixed-point ratio test, compares two coefficients scaled
    by the same nonzero weight, which does not change their ratio in
    Q[beta, 1/beta, delta0].
    """

    parsed = ParsedProduct(
        coefficient=RegValue.one(),
        factors=tuple((kind, a, b) for (a, b), kind in edges),
        nvars=nvars,
    )
    log: list = []
    value = reduce_terms([parsed], rules, log=log)
    return value, tuple(log)


def evaluate_diagram(
    diagram: Diagram, rules: RuleSet = DIMREG, log: Optional[list] = None
) -> Tuple[RegValue, str]:
    """Value and tensor label of a diagram under a regularization scheme."""

    value, entries = _reduce_topology(diagram.edges, len(diagram.vertices), rules)
    if log is not None:
        log.extend(copy.deepcopy(entries))
    return value * diagram.weight, diagram.tensor_label


def _label_product(left: str, right: str) -> str:
    if left == "one":
        return right
    if right == "one":
        return left
    if left == right == "R":
        return "Rsq"
    raise ValueError(f"no label for the product of {left!r} and {right!r}")


def sum_order(model, order: int, rules: RuleSet = DIMREG) -> Dict[str, RegValue]:
    """Total of all order-``order`` diagrams of a model, by tensor label.

    At second order this includes the disconnected square of the complete
    first-order total (vertex diagrams plus the model's measure terms),
    which belongs to the amplitude at that order.  The first-order total
    itself excludes the measure terms; they are reported separately by
    the geometry layer.
    """

    from .geometry import measure_terms, vertices as model_vertices

    if order not in (1, 2):
        raise ValueError("diagram totals are implemented through second order")
    totals: Dict[str, RegValue] = {}
    for diagram in wick(model_vertices(model), order=order):
        value, label = evaluate_diagram(diagram, rules)
        totals[label] = totals.get(label, RegValue.zero()) + value
    if order == 2:
        first = sum_order(model, 1, rules)
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


def catalog(model, order: int, rules: RuleSet = DIMREG) -> List[dict]:
    """JSON-ready listing of the order-``order`` diagram catalog."""

    from .geometry import vertices as model_vertices

    entries = []
    for diagram in wick(model_vertices(model), order=order):
        entries.append({
            "shape": classify(diagram),
            "vertices": [v.name for v in diagram.vertices],
            "edges": [
                [kind.value, a + 1, b + 1] for (a, b), kind in diagram.edges
            ],
            "weight": diagram.weight.text(),
            "tensor_label": diagram.tensor_label,
            "local": diagram.local,
            "order_in_eps": diagram.order_in_eps,
            "value": evaluate_diagram(diagram, rules)[0].text(),
        })
    return entries

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

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .geometry import Vertex
from .integration import DIMREG, RuleSet
from .reduction import ParsedProduct, reduce_terms
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
# class multigraphs
# ---------------------------------------------------------------------------


_Graph = tuple[tuple[int, int], ...]


def _multigraphs(
    free: list[int], out: list[tuple[_Graph, int]], graph: _Graph = (), denominator: int = 1, repeat: int = 0
) -> list[tuple[_Graph, int]]:
    """Every multigraph, loops allowed, with ``free[c]`` edge ends at node c.

    Appends each to ``out`` once, as its sorted edges (c, d) with c <= d,
    together with prod(2**l * l!) over its loop counts l times prod(m!)
    over its other edge multiplicities m, and returns ``out``.  ``free``
    is used up and restored in place.
    """

    last = graph[-1] if graph else None
    c = last[0] if last else 0
    while c < len(free) and not free[c]:
        c += 1
    if c == len(free):
        out.append((graph, denominator))
        return out
    for d in range(last[1] if last and last[0] == c else c, len(free)):
        if free[d] > (d == c):
            edge = (c, d)
            run = repeat + 1 if edge == last else 1
            free[c] -= 1
            free[d] -= 1
            _multigraphs(free, out, graph + (edge,), denominator * run * (2 if c == d else 1), run)
            free[c] += 1
            free[d] += 1
    return out


def _edge(pa: int, ta: str, pb: int, tb: str) -> Edge:
    """The propagator joining field type ``ta`` at ``pa`` to ``tb`` at ``pb``."""

    if pa > pb:
        pa, ta, pb, tb = pb, tb, pa, ta
    if ta == tb:
        kind = "DD" if ta == "qdot" else "D"
    elif pa == pb or ta == "qdot":
        kind = "Dl"
    else:
        kind = "Dr"
    return ((pa, pb), kind)


# ---------------------------------------------------------------------------
# contraction of a vertex tuple
# ---------------------------------------------------------------------------


def _contract(
    accumulator: dict[tuple[tuple[Edge, ...], str], RegValue],
    vertices: tuple[Vertex, ...],
    prefactor: RegValue,
    connected_only: bool,
) -> None:
    # Fields of one type at one vertex with no tensor slot are
    # interchangeable and form one class; a slotted field is a class of
    # its own.  Matchings are enumerated as multigraphs on the classes,
    # each standing for prod(n!) / (prod(2**l * l!) * prod(m!)) matchings
    # of the fields, n the class sizes.
    factors: tuple[str, ...] = ()
    internal: list[tuple[int, int]] = []
    classes: list[tuple[int, str, int | None]] = []  # (position, type, slot)
    sizes: list[int] = []
    offset = 0
    for position, vertex in enumerate(vertices):
        factors += vertex.tensors
        internal += [(a + offset, b + offset) for a, b in vertex.internal]
        for kind, power, slots in (
            ("q", vertex.q_power, vertex.q_slots),
            ("qdot", vertex.qdot_power, vertex.qdot_slots),
        ):
            if slots:
                classes += [(position, kind, slot + offset) for slot in slots]
                sizes += [1] * power
            elif power:
                classes.append((position, kind, None))
                sizes.append(power)
        offset += vertex.slot_count
    if sum(sizes) % 2:
        raise ValueError("a vertex tuple with an odd number of fields has no Wick matchings")
    # Per class pair: its edge, the edge's image under the vertex swap,
    # and its tensor-slot pair.
    edge, mirrored, slot_pairs = {}, {}, {}
    for c, (pa, ta, sa) in enumerate(classes):
        for d, (pb, tb, sb) in enumerate(classes[c:], c):
            edge[c, d] = _edge(pa, ta, pb, tb)
            mirrored[c, d] = _edge(1 - pa, ta, 1 - pb, tb)
            if sa is not None and sb is not None:
                slot_pairs[c, d] = (sa, sb)
    mirror = len(vertices) == 2 and vertices[0] == vertices[1]
    matchings = math.prod(map(math.factorial, sizes))

    # The decomposition is linear, so the pairings of each edge multiset
    # are decomposed together and each sum is scaled by prefactor once.
    groups: dict[tuple[Edge, ...], list[list[tuple[int, int]]]] = {}
    count = 0
    for graph, denominator in _multigraphs(sizes, []):
        matched = matchings // denominator
        count += matched
        edges = sorted(map(edge.__getitem__, graph))
        if connected_only and all(a == b for (a, b), _ in edges):
            continue
        if mirror:
            edges = min(edges, sorted(map(mirrored.__getitem__, graph)))
        pairing = internal + [slot_pairs[pair] for pair in graph if pair in slot_pairs]
        groups.setdefault(tuple(edges), []).extend([pairing] * matched)
    assert count == math.prod(range(sum(sizes) - 1, 0, -2))
    for edges, pairings in groups.items():
        for label, total in invariant_coefficients(factors, *pairings).items():
            entry = (edges, label)
            weight = prefactor * total
            accumulator[entry] = accumulator[entry] + weight if entry in accumulator else weight


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
    # Catalog weights by vertex tuple, then by (edges, tensor label).
    accumulator: dict[tuple[Vertex, ...], dict[tuple[tuple[Edge, ...], str], RegValue]] = {}
    for vertex in vertex_set:
        if vertex.order_in_eps != order:
            continue
        prefactor = RegValue.delta0(vertex.delta0_power, -vertex.coefficient)
        entries = accumulator.setdefault((vertex,), {})
        _contract(entries, (vertex,), prefactor, connected_only=False)
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
                entries = accumulator.setdefault((left, right), {})
                _contract(entries, (left, right), prefactor, connected_only=True)

    diagrams = [
        Diagram(vertices, edges, weight, label)
        for vertices, entries in accumulator.items()
        for (edges, label), weight in entries.items()
        if weight
    ]
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
    """The complete order-``order`` amplitude of a model, by tensor label.

    First order adds the model's ``measure_terms()`` to its diagrams.
    Second order adds the disconnected square of the first-order amplitude
    to its own diagrams.  ``first`` is ``sum_order(model, 1, rules)`` when
    the caller has it already; it is not recomputed.
    """

    if order == 1 and first is not None:
        return first
    totals = model.measure_terms() if order == 1 else {}
    for diagram in wick(model.vertices(), order=order):
        label = diagram.tensor_label
        totals[label] = totals.get(label, RegValue.zero()) + evaluate_diagram(diagram, rules)
    if order == 2:
        items = list(sum_order(model, 1, rules, first).items())
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
    for diagram in wick(model.vertices(), order=order):
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

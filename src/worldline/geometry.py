"""Target-space models and their expansion data.

Each model fixes a metric in the neighborhood of the expansion point and
yields the interaction vertices of the transformed action, the measure
terms that accompany them, and reference values to compare totals
against: the flat models must sum to zero, the curved ones to the
heat-kernel coefficients.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .values import RegValue


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class FlatTransform(
    namedtuple("FlatTransform", "f_coefficients", defaults=((Fraction(-1, 3), Fraction(1, 5)),))
):
    """Flat line reparametrized by an odd coordinate change.

    The new coordinate q is related to the Cartesian one by
    ``x = q + f_coefficients[0] q^3 + f_coefficients[1] q^5 + ...`` with
    unit slope at the origin, so the metric is the square of the series
    derivative and every curvature invariant vanishes identically.
    """

    __slots__ = ()


class NormalCoords(namedtuple("NormalCoords", ())):
    """Curved target in normal coordinates around the expansion point.

    The metric expansion is organized through quartic order in the
    fluctuation; results are polynomial in the curvature labels.
    """

    __slots__ = ()


MetricModel = FlatTransform | NormalCoords


# ---------------------------------------------------------------------------
# metric series of the flat transform
# ---------------------------------------------------------------------------


def metric_series(model: FlatTransform) -> dict[int, Fraction]:
    """Coefficients of the metric as an even power series in q, through q^4."""

    slope: dict[int, Fraction] = {0: Fraction(1)}
    for index, coefficient in enumerate(model.f_coefficients):
        slope[2 * (index + 1)] = (2 * index + 3) * Fraction(coefficient)
    series = dict.fromkeys((0, 2, 4), Fraction(0))
    for pa, ca in slope.items():
        for pb, cb in slope.items():
            if pa + pb <= 4:
                series[pa + pb] += ca * cb
    return series


def _log_series(series: dict[int, Fraction]) -> dict[int, Fraction]:
    """Logarithm of an even series with unit constant term, through q^4."""

    u2, u4 = series[2], series[4]
    return {2: u2, 4: u4 - u2 * u2 / 2}


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


class Vertex(
    namedtuple(
        "Vertex",
        "name order_in_eps q_power qdot_power delta0_power coefficient"
        " tensors q_slots qdot_slots internal",
        defaults=((), (), (), ()),
    )
):
    """One interaction monomial of the expanded action.

    ``coefficient`` multiplies the integrated monomial
    ``q^q_power qdot^qdot_power`` at a single time, together with
    ``delta0_power`` factors of the equal-time distributional constant.
    When the vertex carries curvature factors, ``tensors`` names their
    delta-expansion patterns, the slot tuples say which tensor slot each
    field index lives in, and ``internal`` lists slot pairs contracted
    inside the vertex itself.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Vertex:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @property
    def slot_count(self) -> int:
        """Number of tensor slots the vertex exposes."""
        return len(self.q_slots) + len(self.qdot_slots) + 2 * len(self.internal)


def _flat_vertices(model: FlatTransform) -> list[Vertex]:
    g = metric_series(model)
    log_g = _log_series(g)
    return [
        Vertex(
            name="kinetic_quadratic",
            order_in_eps=1,
            q_power=2,
            qdot_power=2,
            delta0_power=0,
            coefficient=g[2] / 2,
        ),
        Vertex(
            name="logdet_quadratic",
            order_in_eps=1,
            q_power=2,
            qdot_power=0,
            delta0_power=1,
            coefficient=-log_g[2] / 2,
        ),
        Vertex(
            name="kinetic_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=2,
            delta0_power=0,
            coefficient=g[4] / 2,
        ),
        Vertex(
            name="logdet_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=0,
            delta0_power=1,
            coefficient=-log_g[4] / 2,
        ),
    ]


def _normal_vertices() -> list[Vertex]:
    # The quadratic coefficients are stored with the sign that combines
    # with the curvature measure term into the heat-kernel value; the
    # quartic vertices enter results squared or alone, with the written
    # sign.  The measure vertex's Ricci factor is the Riemann pattern
    # traced over its first and third slots, which is minus the Ricci
    # tensor, so -1/6 ric(q, q) is written +1/6 with that trace.
    return [
        Vertex(
            name="curvature_kinetic",
            order_in_eps=1,
            q_power=2,
            qdot_power=2,
            delta0_power=0,
            coefficient=Fraction(-1, 6),
            tensors=("riem",),
            q_slots=(1, 3),
            qdot_slots=(0, 2),
        ),
        Vertex(
            name="curvature_measure",
            order_in_eps=1,
            q_power=2,
            qdot_power=0,
            delta0_power=1,
            coefficient=Fraction(1, 6),
            tensors=("riem",),
            q_slots=(1, 3),
            internal=((0, 2),),
        ),
        Vertex(
            name="curvature_kinetic_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=2,
            delta0_power=0,
            coefficient=Fraction(1, 45),
            tensors=("riem", "riem"),
            q_slots=(0, 2, 4, 6),
            qdot_slots=(1, 5),
            internal=((3, 7),),
        ),
        Vertex(
            name="curvature_measure_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=0,
            delta0_power=1,
            coefficient=Fraction(1, 180),
            tensors=("riem", "riem"),
            q_slots=(0, 2, 4, 6),
            internal=((3, 5), (1, 7)),
        ),
    ]


def vertices(model: MetricModel) -> list[Vertex]:
    """Interaction vertices of a model through second order, first order first."""

    if isinstance(model, FlatTransform):
        return _flat_vertices(model)
    if isinstance(model, NormalCoords):
        return _normal_vertices()
    raise TypeError(f"unknown model {model!r}")


def measure_terms(model: MetricModel) -> dict[str, RegValue]:
    """Finite first-order measure contributions, by tensor label.

    The flat models keep their measure inside the log-det vertices, so
    only the normal-coordinate model has a nonvanishing entry; no model
    has one at second order.
    """

    if isinstance(model, NormalCoords):
        return {"R": RegValue.beta(1, Fraction(1, 24))}
    if isinstance(model, FlatTransform):
        return {}
    raise TypeError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# heat-kernel reference
# ---------------------------------------------------------------------------


# Heat-kernel expansion coefficients in the curvature-label basis, by order.
SEELEY: dict[int, dict[str, Fraction]] = {
    1: {"R": Fraction(1, 12)},
    2: {
        "Rsq": Fraction(1, 288),
        "RiemannSq": Fraction(1, 720),
        "RicciSq": Fraction(-1, 720),
    },
}


def seeley_reference(model: MetricModel, order: int) -> dict[str, RegValue]:
    """Expected heat-kernel term of a model at a given order."""

    if order not in SEELEY:
        raise ValueError("the heat-kernel reference is tabulated through second order")
    if isinstance(model, NormalCoords):
        return {
            label: RegValue.beta(order, coefficient)
            for label, coefficient in sorted(SEELEY[order].items())
        }
    if isinstance(model, FlatTransform):
        return {}
    raise TypeError(f"no heat-kernel reference for {model!r}")


# ---------------------------------------------------------------------------
# metric-derivative contraction patterns (general coordinates)
# ---------------------------------------------------------------------------

# Quadratic patterns in the symmetrized metric slope
# G[ij,k] = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 at the expansion point:
#
#   trace_trace       sum_l ( sum_i G[li,i] )^2
#   trace_gtrace      sum_l ( sum_i G[li,i] ) ( sum_i G[ii,l] )
#   gtrace_gtrace     sum_l ( sum_i G[ii,l] )^2
#   cross             sum_{iln} G[il,n] G[ni,l]
#   full_square       sum_{iln} G[il,n]^2
#
# and second-derivative patterns at the expansion point:
#
#   laplace_trace     sum_{ik} d_k d_k g_ii
#   double_divergence sum_{ik} d_i d_k g_ik

GAMMA_PATTERNS: tuple[str, ...] = (
    "trace_trace",
    "trace_gtrace",
    "gtrace_gtrace",
    "cross",
    "full_square",
    "laplace_trace",
    "double_divergence",
)

# Each first-order two-vertex contraction line: an overall prefactor, the
# pattern multiplicities it multiplies, and the named two-time integral
# carrying its propagator content.
GammaLine = tuple[Fraction, dict[str, int], str]

GAMMA_SQUARED_LINES: tuple[GammaLine, ...] = (
    (Fraction(1, 2), {"trace_trace": 1}, "I11"),
    (Fraction(1), {"trace_trace": 1, "trace_gtrace": 1}, "I12"),
    (Fraction(1, 2), {"gtrace_gtrace": 1, "trace_trace": 1, "trace_gtrace": 2}, "I13"),
    (Fraction(1, 2), {"full_square": 1, "cross": 3}, "I14"),
    (Fraction(1, 2), {"cross": 1, "full_square": 1}, "I15R"),
)

# Single-vertex (equal-time) contribution of the second-derivative
# vertices, already integrated.
SECOND_DERIVATIVE_TERMS: dict[str, RegValue] = {
    "laplace_trace": RegValue.beta(1, Fraction(1, 24)),
    "double_divergence": RegValue.beta(1, Fraction(-1, 24)),
}

# The scalar curvature at the expansion point in terms of the patterns.
CURVATURE_DICTIONARY: dict[str, Fraction] = {
    "double_divergence": Fraction(1),
    "laplace_trace": Fraction(-1),
    "full_square": Fraction(1),
    "gtrace_gtrace": Fraction(-1),
}

"""The package's value types: constructor refusals, normalisation and hashing."""

from __future__ import annotations

from fractions import Fraction

import pytest

from worldline.diagrams import Diagram
from worldline.geometry import FlatTransform, NormalCoords, Vertex
from expansion import IntegrandTerm
from worldline.integration import RuleSet, SingularAtom
from worldline.reduction import ParsedProduct, TProp, TTerm
from worldline.reports import CheckReport
from worldline.tensors import Pattern
from worldline.values import Poly, RegValue


def _refusal(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def _vertex(**changes) -> Vertex:
    fields = dict(
        name="v", order_in_eps=1, q_power=2, qdot_power=0, delta0_power=0,
        coefficient=Fraction(1),
    )
    fields.update(changes)
    return Vertex(**fields)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        # SingularAtom: kind, then 0 <= i < j, then power.
        (lambda: SingularAtom("theta", 0, 1), "unknown atom kind 'theta'"),
        (lambda: SingularAtom("theta", 1, 1, 0), "unknown atom kind 'theta'"),
        (lambda: SingularAtom("eps", 1, 1), "atom arguments must satisfy 0 <= i < j"),
        (lambda: SingularAtom("eps", 2, 1), "atom arguments must satisfy 0 <= i < j"),
        (lambda: SingularAtom("delta", -1, 1), "atom arguments must satisfy 0 <= i < j"),
        (lambda: SingularAtom("delta", 0, 1, 0), "atom power must be positive"),
        # IntegrandTerm: delta0, then nvars against the polynomial, then atoms.
        (
            lambda: IntegrandTerm(-1, 2, Poly.const(3, 1), ()),
            "delta0 power must be non-negative",
        ),
        (
            lambda: IntegrandTerm(0, 3, Poly.const(2, 1), ()),
            "polynomial variable count does not match nvars",
        ),
        (
            lambda: IntegrandTerm(0, 2, Poly.const(2, 1), (SingularAtom("eps", 0, 2),)),
            "atom refers to a variable outside the term",
        ),
        # Vertex: order, qdot power, delta0 power, then the slots.
        (lambda: _vertex(order_in_eps=3, qdot_power=1), "vertex order must be 1 or 2"),
        (
            lambda: _vertex(qdot_power=1, delta0_power=2),
            "vertices carry zero or two derivative fields",
        ),
        (lambda: _vertex(delta0_power=2), "vertices carry at most one equal-time constant"),
        (
            lambda: _vertex(tensors=("riem",), q_slots=(0,)),
            "each field needs a tensor slot",
        ),
        (
            lambda: _vertex(tensors=("riem",), q_slots=(0, 1), qdot_power=2, qdot_slots=(2,)),
            "each derivative field needs a tensor slot",
        ),
        (
            lambda: _vertex(tensors=("riem",), q_slots=(0, 2)),
            "tensor slots must cover 0..slot_count-1 exactly once",
        ),
        (
            lambda: _vertex(tensors=("riem",), q_slots=(0, 1), internal=((1, 2),)),
            "tensor slots must cover 0..slot_count-1 exactly once",
        ),
        (lambda: _vertex(q_slots=(0, 1)), "slot data requires tensor factors"),
        (lambda: _vertex(internal=((0, 1),)), "slot data requires tensor factors"),
    ],
)
def test_constructors_refuse_with_their_message(build, message: str) -> None:
    assert _refusal(build) == message


def test_integrand_term_merges_and_sorts_its_atoms() -> None:
    term = IntegrandTerm(
        0,
        3,
        Poly.const(3, 1),
        (
            SingularAtom("eps", 1, 2),
            SingularAtom("delta", 1, 2),
            SingularAtom("eps", 0, 2),
            SingularAtom("eps", 0, 1),
            SingularAtom("delta", 1, 2),
            SingularAtom("eps", 0, 2),
        ),
    )
    # eps**2 away from a delta on its pair is 1; the delta powers add.
    assert term.atoms == (
        SingularAtom("delta", 1, 2, 2),
        SingularAtom("eps", 0, 1),
        SingularAtom("eps", 1, 2),
    )


_VERTEX = _vertex(tensors=("riem",), q_slots=(0, 1))
_ATOM = SingularAtom("delta", 0, 1, 2)

# One instance of each value type, built from all of its fields in order.
_VALUES = {
    "Diagram": (Diagram, dict(
        vertices=(_VERTEX,), edges=(((0, 0), "D"),), weight=RegValue.rational(Fraction(1, 2)),
        tensor_label="R",
    )),
    "FlatTransform": (FlatTransform, dict(f_coefficients=(Fraction(-1, 3), Fraction(1, 5)))),
    "NormalCoords": (NormalCoords, dict()),
    "Vertex": (Vertex, dict(
        name="riem", order_in_eps=2, q_power=2, qdot_power=2, delta0_power=0,
        coefficient=Fraction(-1, 3), tensors=("riem",), q_slots=(0, 2), qdot_slots=(1, 3),
        internal=(),
    )),
    "SingularAtom": (SingularAtom, dict(kind="delta", i=0, j=1, power=2)),
    "IntegrandTerm": (IntegrandTerm, dict(
        delta0=1, nvars=2, poly=Poly.const(2, 3), atoms=(_ATOM,),
    )),
    "ParsedProduct": (ParsedProduct, dict(
        coefficient=RegValue.one(), factors=(("DD", 0, 1),), nvars=2,
    )),
    "RuleSet": (RuleSet, dict(name="Probe", value_eps2_delta=Fraction(1, 5))),
    "TProp": (TProp, dict(i=0, j=1, left=("mu",), right=())),
    "TTerm": (TTerm, dict(
        coefficient=RegValue.one(), nvars=2, props=(TProp(0, 1, (), ()),),
        deltas=(SingularAtom("delta", 0, 1),),
    )),
    "CheckReport": (CheckReport, dict(
        check_name="c", status="pass", expected={"a": "1"}, actual={"a": "1"},
        tolerance="exact", details=("d",), move_logs=None,
    )),
    "Pattern": (Pattern, dict(externals=2, branches=((1, ((0, 1),)),))),
}


def _hash(value) -> object:
    try:
        return hash(value)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_types_hash_as_the_tuple_of_their_fields(name: str) -> None:
    cls, fields = _VALUES[name]
    value = cls(**fields)
    assert tuple(getattr(value, field) for field in fields) == tuple(fields.values())
    # CheckReport holds dicts, so both sides refuse with the same message.
    assert _hash(value) == _hash(tuple(fields.values()))
    assert value == cls(*fields.values())


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_types_keep_no_instance_dict_and_print_their_fields(name: str) -> None:
    # A subclass that forgets ``__slots__ = ()`` gives every instance a dict.
    cls, fields = _VALUES[name]
    value = cls(**fields)
    assert not hasattr(value, "__dict__")
    assert repr(value) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


def test_make_and_replace_skip_the_constructor_checks() -> None:
    # The package calls them only with fields that are already valid.
    assert SingularAtom._make(("theta", 1, 1, 0)) == ("theta", 1, 1, 0)
    assert _ATOM._replace(power=0).power == 0
    fields = dict(_VALUES["Vertex"][1], order_in_eps=3, qdot_power=1)
    assert Vertex._make(fields.values()).order_in_eps == 3
    assert _VERTEX._replace(q_slots=(0,)).q_slots == (0,)

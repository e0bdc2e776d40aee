"""Dimensional lift and reduction of ambiguous propagator integrals.

A product whose one-dimensional value depends on the order of partial
integrations is lifted to d dimensions: the time coordinate becomes a
d-vector, every dotted propagator end becomes a contracted vector index,
and the equal-time double-dotted factor becomes the self-contraction that
may be substituted by DD's formal equal-time value.  Four moves then reduce
the lifted term:

* ``EqualTimeSubstitute``  -- the self-contracted equal-time factor becomes
  the number ``integration.EQUAL_TIME_DD``.
* ``FieldEquation``        -- a twice-same-side-differentiated factor (the
  Laplacian tag) becomes -delta(tau_i - tau_j), or -delta0 at equal times.
* ``PartialIntegration``   -- moves one derivative end off a factor onto
  the rest of the product, with 1D boundary bookkeeping; never off a
  variable that a lifted delta touches.
* ``ReturnTo1D``           -- maps the label-free remainder back to plain
  one-dimensional propagator factors and integrates them.

The crucial constraint is that a mixed-derivative factor with distinct time
arguments (the MuNu tag) has no one-dimensional meaning: ReturnTo1D refuses
while one remains, and no move ever substitutes a delta for it.  Squared
MuNu pairs are handled by one licensed composite: add and subtract the
squared delta, then integrate the difference by parts (it is finite, so
partial integration is safe there).

The text grammar accepted by :func:`parse` writes products the way they are
tabled, e.g. ``Dl(1,2)*Dr(1,2)*DD(1,2)`` with 1-based variable indices,
rational prefactors, and ``d0`` for an explicit delta(0).  A text is a sum
``['-'] product (('+'|'-') product)*`` with ``product := factor ('*'
factor)*``: only the first product takes a sign, and no two factors stand
side by side without a ``*``.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import namedtuple
from fractions import Fraction

from .integration import DIMREG, EQUAL_TIME_DD, RuleSet, SingularAtom, _reads_rules, integrate_product
from .values import RegValue


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<prop>DD|Dl|Dr|D)\((?P<i>\d+),(?P<j>\d+)\)"
    r"|(?P<d0>d0)(?:\^(?P<d0pow>\d+))?"
    r"|(?P<rat>\d+(?:/\d*[1-9]\d*)?)"
    r"|(?P<op>[+*-]))"
)


class ParsedProduct(namedtuple("ParsedProduct", "coefficient factors nvars")):
    """One summand of a parsed integrand: a RegValue, its (kind, i, j) factors, nvars."""

    __slots__ = ()


def parse(text: str) -> list[ParsedProduct]:
    """Parse a sum of propagator products, e.g. ``Dl(1,2)*Dr(1,2)*DD(1,2)``.

    Each summand integrates over its own variables, so a sum may mix
    products with different variable counts.  Indices are 1-based in the
    text and remapped to a dense 0-based range per summand.
    """
    tokens: list[re.Match] = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse integrand text at: {text[pos:]!r}")
        tokens.append(match)
        pos = match.end()
    if not tokens:
        raise ValueError("empty integrand text")

    # Past an optional leading '-', factors and operators alternate, and
    # '+' or '-' opens the next summand: [coefficient, raw factors].
    leading_minus = tokens[0]["op"] == "-"
    body = tokens[leading_minus:]
    summands = [[RegValue.rational(-1 if leading_minus else 1), []]]
    for position, token in enumerate(body):
        op, summand = token["op"], summands[-1]
        if op and position % 2 == 0:
            raise ValueError(f"misplaced operator {op!r} in integrand text")
        if not op and position % 2:
            raise ValueError(f"missing operator before {token[0].lstrip()!r} in integrand text")
        if op in ("+", "-"):
            summands.append([RegValue.rational(-1 if op == "-" else 1), []])
        elif token["prop"]:
            summand[1].append((token["prop"], int(token["i"]), int(token["j"])))
        elif token["d0"]:
            summand[0] = summand[0] * RegValue.delta0(int(token["d0pow"] or 1))
        elif token["rat"]:
            summand[0] = summand[0] * Fraction(token["rat"])
    if len(body) % 2 == 0:
        raise ValueError("integrand text ends with a dangling operator")

    products: list[ParsedProduct] = []
    for coefficient, raw_factors in summands:
        indices = sorted({idx for (_, i, j) in raw_factors for idx in (i, j)})
        remap = {orig: new for new, orig in enumerate(indices)}
        factors = tuple((k, remap[i], remap[j]) for (k, i, j) in raw_factors)
        products.append(ParsedProduct(coefficient, factors, len(indices)))
    return products


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

# The recurring two-vertex integrals, written exactly as tabled.  Names with
# an R suffix denote the finite (delta0-free) grade of the base integral.
NAMED_INTEGRALS: dict[str, str] = {
    "I2": "D(1,1)*DD(1,2)*DD(1,2)*D(2,2)",
    "I4": "D(1,1)*Dl(1,2)*DD(1,2)*Dr(2,2)",
    "I6": "Dl(1,1)*D(1,2)*DD(1,2)*Dr(2,2)",
    "I7": "Dl(1,1)*Dl(1,2)*Dr(1,2)*Dr(2,2)",
    "I8": "D(1,2)*D(1,2)*DD(1,2)*DD(1,2)",
    "I9": "D(1,2)*Dl(1,2)*Dr(1,2)*DD(1,2)",
    "I10": "Dl(1,2)*Dl(1,2)*Dr(1,2)*Dr(1,2)",
    "I11": "DD(1,1)*D(1,2)*DD(2,2) - 2*d0*DD(1,1)*D(1,2) + d0^2*D(1,2)",
    "I12": "Dl(1,1)*Dl(1,2)*DD(2,2) - d0*Dl(1,1)*Dl(1,2)",
    "I13": "Dl(1,1)*Dr(2,2)*DD(1,2)",
    "I14": "Dl(1,2)*Dr(1,2)*DD(1,2)",
    "I15": "D(1,2)*DD(1,2)*DD(1,2)",
}

FINITE_ALIASES: dict[str, str] = {
    "I2R": "I2",
    "I8R": "I8",
    "I15R": "I15",
}


class ReductionError(ValueError):
    """Raised when no legal sequence of moves reduces a term."""


_LABELS = ("mu", "nu", "rho", "sigma", "lam", "kap")

# ---------------------------------------------------------------------------
# tagged factors
# ---------------------------------------------------------------------------


class TProp(namedtuple("TProp", "i j left right")):
    """A lifted propagator factor with derivative labels on each argument."""

    __slots__ = ()

    def describe(self) -> str:
        l = ",".join(self.left)
        r = ",".join(self.right)
        return f"[{l}]D[{r}]({self.i + 1},{self.j + 1})"


class TTerm(namedtuple("TTerm", "coefficient nvars props deltas")):
    """A ``RegValue`` times lifted factors and delta atoms of power 1 each."""

    __slots__ = ()


def tag(prop: TProp) -> str:
    """Derivative tag of a lifted factor."""
    nl, nr = len(prop.left), len(prop.right)
    if nl == 2 and nr == 0 or nl == 0 and nr == 2:
        side = prop.left if nl == 2 else prop.right
        if side[0] == side[1]:
            return "Laplacian"
        return "Unknown"
    if nl == 1 and nr == 1:
        if prop.i == prop.j and prop.left[0] == prop.right[0]:
            return "MuMuEqualTime"
        if prop.left[0] == prop.right[0]:
            return "Unknown"  # self-contracted at distinct times: not in the table
        return "MuNu"
    if nl == 1 and nr == 0:
        return "SingleLeft"
    if nl == 0 and nr == 1:
        return "SingleRight"
    if nl == 0 and nr == 0:
        return "None"
    return "Unknown"


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def lift(parsed: ParsedProduct) -> TTerm:
    """Lift a product of propagator factors to d dimensions.

    Each time variable is a vertex of the underlying diagram; the two dotted
    ends meeting at a vertex are contracted with each other, so they receive
    one shared fresh label.  A vertex with an odd number of dotted ends does
    not come from a (dq)**2-type vertex and cannot be lifted.
    """
    ends: dict[int, list[tuple[int, int]]] = {v: [] for v in range(parsed.nvars)}
    bare: list[list[list[str]]] = []
    for idx, (kind, i, j) in enumerate(parsed.factors):
        if kind not in ("D", "Dl", "Dr", "DD"):
            raise ReductionError(f"no legal reduction: unknown propagator kind {kind!r}")
        bare.append([[], []])
        if kind in ("Dl", "DD"):
            ends[i].append((idx, 0))
        if kind in ("Dr", "DD"):
            ends[j].append((idx, 1))
    labels = iter(_fresh_labels())
    for v in range(parsed.nvars):
        if not ends[v]:
            continue
        if len(ends[v]) != 2:
            raise ReductionError(
                "no legal reduction: a lifted vertex needs exactly zero or two "
                f"derivative ends, but variable {v + 1} has {len(ends[v])}"
            )
        label = next(labels)
        for idx, side in ends[v]:
            bare[idx][side].append(label)
    props = tuple(
        TProp(i, j, tuple(bare[idx][0]), tuple(bare[idx][1]))
        for idx, (kind, i, j) in enumerate(parsed.factors)
    )
    return TTerm(parsed.coefficient, parsed.nvars, props, ())


def _fresh_labels():
    yield from _LABELS
    for n in itertools.count(1):
        yield f"k{n}"


def _used_labels(term: TTerm) -> set[str]:
    used: set[str] = set()
    for prop in term.props:
        used.update(prop.left)
        used.update(prop.right)
    return used


def _next_label(term: TTerm) -> str:
    used = _used_labels(term)
    return next(label for label in _fresh_labels() if label not in used)


# ---------------------------------------------------------------------------
# individual moves
# ---------------------------------------------------------------------------


def equal_time_substitute(term: TTerm, index: int) -> TTerm:
    prop = term.props[index]
    if tag(prop) != "MuMuEqualTime":
        raise ReductionError(
            "no legal reduction: EqualTimeSubstitute applies only to the "
            f"self-contracted equal-time factor, not {prop.describe()}"
        )
    props = term.props[:index] + term.props[index + 1 :]
    return term._replace(coefficient=term.coefficient * EQUAL_TIME_DD, props=props)


def field_equation(term: TTerm, index: int) -> TTerm:
    prop = term.props[index]
    if tag(prop) != "Laplacian":
        raise ReductionError(
            "no legal reduction: FieldEquation applies only to a Laplacian "
            f"factor, not {prop.describe()} (tag {tag(prop)})"
        )
    props = term.props[:index] + term.props[index + 1 :]
    if prop.i == prop.j:
        return term._replace(coefficient=term.coefficient * (-RegValue.delta0()), props=props)
    return term._replace(
        coefficient=term.coefficient * Fraction(-1),
        props=props,
        deltas=term.deltas + (SingularAtom("delta", *sorted((prop.i, prop.j))),),
    )


def _with_label(prop: TProp, side: int, label: str) -> TProp | None:
    """Add a derivative label to one side; None when that side cannot take it."""
    labels = prop.left if side == 0 else prop.right
    if len(labels) >= 2:
        return None
    if labels and labels[0] != label:
        return None  # two different labels on one side: not in the move table
    other = prop.right if side == 0 else prop.left
    new = tuple(sorted(labels + (label,)))
    out = TProp(prop.i, prop.j, new if side == 0 else prop.left, prop.right if side == 0 else new)
    if label in other and len(new) == 1 and prop.i != prop.j:
        raise ReductionError(
            f"no legal reduction: the product rule would turn {prop.describe()} into "
            f"{out.describe()}, a self-contracted mixed derivative at distinct times"
        )
    return out


def _product_rule(
    props: tuple[TProp, ...], var: int, label: str, refusal: str, skip: tuple[int, int] | None = None
) -> list[tuple[TProp, ...]]:
    """Every props tuple with ``label`` added to one end at ``var``.

    The end ``skip``, a (factor index, side) pair, is left alone; the other
    end of an equal-time factor is not.  An end that cannot take the label
    makes the whole rule illegal; ``refusal`` names that factor via ``{}``.
    """
    out: list[tuple[TProp, ...]] = []
    for idx, prop in enumerate(props):
        for side, arg in ((0, prop.i), (1, prop.j)):
            if arg != var or (idx, side) == skip:
                continue
            grown = _with_label(prop, side, label)
            if grown is None:
                raise ReductionError("no legal reduction: " + refusal.format(prop.describe()))
            out.append(props[:idx] + (grown,) + props[idx + 1 :])
    return out


def _boundary_is_zero(term: TTerm, var: int) -> bool:
    """True when every endpoint evaluation of the product vanishes.

    A plain factor vanishes whenever either argument is pinned to an
    endpoint; a single-differentiated factor vanishes when the undotted
    argument is pinned.  One vanishing factor kills the endpoint term.
    """
    for prop in term.props:
        if var not in (prop.i, prop.j):
            continue
        nl, nr = len(prop.left), len(prop.right)
        if nl == 0 and nr == 0:
            return True  # D pinned at an endpoint is zero
        if prop.i != prop.j:
            if nl == 1 and nr == 0 and prop.j == var:
                return True
            if nl == 0 and nr == 1 and prop.i == var:
                return True
    return False


def partial_integration(term: TTerm, index: int, side: int) -> list[TTerm]:
    """Move the single derivative on one side of a factor off by parts.

    Returns the product-rule terms.  The endpoint terms must vanish: chains
    whose boundary contributions survive are outside the move table and are
    rejected.  So is a variable that a delta touches, whose derivative the
    product rule would drop.  With nothing left to differentiate the
    integrand was a total derivative with zero boundary terms, so the list
    is empty: the whole term vanishes.
    """
    source = term.props[index]
    labels = source.left if side == 0 else source.right
    if len(labels) != 1:
        raise ReductionError(
            "no legal reduction: PartialIntegration needs a single derivative "
            f"on the chosen side of {source.describe()}"
        )
    label = labels[0]
    var = source.i if side == 0 else source.j
    if any(var in (delta.i, delta.j) for delta in term.deltas):
        raise ReductionError(
            f"no legal reduction: a delta on variable {var + 1} blocks partial integration there"
        )
    stub = TProp(
        source.i,
        source.j,
        () if side == 0 else source.left,
        source.right if side == 0 else (),
    )
    reduced = term._replace(props=term.props[:index] + (stub,) + term.props[index + 1 :])
    if not _boundary_is_zero(reduced, var):
        raise ReductionError(
            "no legal reduction: a partial integration in variable "
            f"{var + 1} leaves a nonzero endpoint term"
        )
    refusal = "partial integration would pile a third derivative onto {}"
    grown = _product_rule(reduced.props, var, label, refusal, skip=(index, side))
    negated = term.coefficient * Fraction(-1)
    return [reduced._replace(coefficient=negated, props=props) for props in grown]


def divergence_split(term: TTerm, first: int, second: int) -> list[TTerm]:
    """Add and subtract the squared delta hiding in an identical MuNu pair.

    The squared-delta piece keeps the divergence; the finite difference is
    integrated by parts once on each member, which is legal because the
    difference is finite.  The result is the three-way split: a squared
    delta term, product-rule terms with one surviving MuNu member, and
    product-rule terms with a Laplacian member.
    """
    a, b = term.props[first], term.props[second]
    if not (tag(a) == tag(b) == "MuNu" and a == b and a.i != a.j):
        raise ReductionError(
            "no legal reduction: the add-and-subtract split needs an "
            "identical pair of mixed-derivative factors"
        )
    i, j = a.i, a.j
    mu = a.left[0]
    nu = a.right[0]
    rest = tuple(p for idx, p in enumerate(term.props) if idx not in (first, second))
    refusal = "the split cannot differentiate {} again"
    mu_side = _product_rule(rest, i, mu, refusal)
    nu_side = _product_rule(rest, j, nu, refusal)

    plain_nu = TProp(i, j, (), (nu,))
    lap_label = _next_label(term)
    laplacian = TProp(i, j, (), (lap_label, lap_label))
    negated = term.coefficient * Fraction(-1)
    delta = SingularAtom("delta", *sorted((i, j)))
    return (
        [term._replace(props=rest, deltas=term.deltas + (delta, delta))]
        + [term._replace(coefficient=negated, props=props + (plain_nu, a)) for props in mu_side]
        + [term._replace(props=props + (plain_nu, laplacian)) for props in nu_side]
    )


_ONE_D_KINDS = {"None": "D", "SingleLeft": "Dl", "SingleRight": "Dr"}


def return_to_1d(term: TTerm) -> tuple[list[tuple[str, int, int]], tuple[SingularAtom, ...]]:
    """Map a label-consistent lifted term back to plain 1D factors and deltas."""
    factors: list[tuple[str, int, int]] = []
    for prop in term.props:
        t = tag(prop)
        if t == "MuNu":
            raise ReductionError(
                "no legal reduction: ReturnTo1D is blocked while the "
                f"mixed-derivative factor {prop.describe()} (tag MuNu) "
                "remains; it has no one-dimensional value"
            )
        if t not in _ONE_D_KINDS:
            raise ReductionError(
                f"no legal reduction: ReturnTo1D cannot map {prop.describe()} "
                f"(tag {t})"
            )
        factors.append((_ONE_D_KINDS[t], prop.i, prop.j))
    return factors, term.deltas


# ---------------------------------------------------------------------------
# structural matching for fixed points
# ---------------------------------------------------------------------------


def _signature(term: TTerm) -> tuple:
    """Canonical structure key, invariant under label renaming."""
    labels = sorted(_used_labels(term))
    deltas = tuple(sorted(term.deltas))

    def key(perm: tuple[int, ...]) -> tuple:
        mapping = {lab: f"c{perm[pos]}" for pos, lab in enumerate(labels)}
        props = tuple(
            sorted(
                (p.i, p.j, tuple(mapping[l] for l in p.left), tuple(mapping[l] for l in p.right))
                for p in term.props
            )
        )
        return (term.nvars, props, deltas)

    # permutations(range(0)) yields one empty permutation, so min has input.
    return min(map(key, itertools.permutations(range(len(labels)))))


# ---------------------------------------------------------------------------
# the move search
# ---------------------------------------------------------------------------

_MAX_DEPTH = 6
# The refusal of a node whose candidate moves all failed (``_search``).
_ALL_FAILED = "no legal reduction: every candidate move failed; tried "
_FIRST = "; the first failed with: "

# A ``ReturnTo1D`` leaf: (factors, nvars, deltas, whether it reads the rule
# set), integrated at unit coefficient.
_Leaf = tuple[tuple[tuple[str, int, int], ...], int, tuple[SingularAtom, ...], bool]


def _record(log: list[dict], move: str, **info) -> None:
    log.append({"move": move, **info})


def _resolve(term: TTerm, depth: int, log: list[dict], leaves: list[tuple[RegValue, _Leaf]]) -> None:
    """Search ``term`` through the memo; its moves go onto ``log``, its scaled leaves onto ``leaves``."""
    if not term.coefficient:
        return
    found, moves, refusal = _reduce_lifted(term.nvars, term.props, term.deltas, depth)
    log.extend(moves)
    if refusal is not None:
        raise ReductionError(refusal)
    leaves.extend((coefficient * term.coefficient, leaf) for coefficient, leaf in found)


def _search(term: TTerm, depth: int, log: list[dict], leaves: list[tuple[RegValue, _Leaf]]) -> None:
    """Reduce one lifted term by the first legal sequence of moves, down to its leaves."""
    tags = [tag(prop) for prop in term.props]
    # Moves that apply whenever their tag is present, in this order.  The
    # table reads the module's names on every search, so a wrapper installed
    # on a move (or on ``_search``) is seen by every term searched after it;
    # clear ``_reduce_lifted`` first, since a memo hit searches nothing.
    for forced, move, name in (
        ("MuMuEqualTime", equal_time_substitute, "EqualTimeSubstitute"),
        ("Laplacian", field_equation, "FieldEquation"),
    ):
        if forced in tags:
            idx = tags.index(forced)
            _record(log, name, factor=term.props[idx].describe(), tag=forced)
            return _resolve(move(term, idx), depth, log, leaves)

    if "Unknown" in tags:
        prop = term.props[tags.index("Unknown")]
        raise ReductionError(
            f"no legal reduction: factor {prop.describe()} is outside "
            "the move table"
        )

    munu = [idx for idx, t in enumerate(tags) if t == "MuNu"]
    if not munu:
        _record(
            log,
            "ReturnTo1D",
            factors=[p.describe() for p in term.props]
            + [f"delta({d.i + 1},{d.j + 1})" for d in term.deltas],
        )
        factors, extra = return_to_1d(term)
        # The search runs at unit coefficient (``_reduce_lifted``).
        leaves.append((RegValue.one(), (tuple(factors), term.nvars, extra, _reads_rules(factors, extra))))
        return

    for first, second in itertools.combinations(munu, 2):
        if term.props[first] == term.props[second]:
            _record(
                log,
                "PartialIntegration",
                composite="add-and-subtract squared delta",
                factor=term.props[first].describe(),
                tag="MuNu",
            )
            for piece in divergence_split(term, first, second):
                _resolve(piece, depth - 1, log, leaves)
            return

    if depth <= 0:
        raise ReductionError(
            "no legal reduction: move search exceeded its depth budget"
        )

    # Prefer moving the derivative of a mixed factor itself: that is the
    # move that shortens every tabled chain.
    candidates = sorted(
        (var, t != "MuNu", idx, side)
        for idx, (prop, t) in enumerate(zip(term.props, tags))
        for side, labels, var in ((0, prop.left, prop.i), (1, prop.right, prop.j))
        if len(labels) == 1
    )
    base_sig = _signature(term)
    failures: list[str] = []
    for var, _, idx, side in candidates:
        prop = term.props[idx]
        try:
            pieces = partial_integration(term, idx, side)
        except ReductionError as err:
            failures.append(str(err))
            continue
        # A failed candidate takes its moves and leaves back off.
        checkpoint, first_leaf = len(log), len(leaves)
        _record(
            log,
            "PartialIntegration",
            factor=prop.describe(),
            side="left" if side == 0 else "right",
            variable=var + 1,
        )
        try:
            ratio_sum = Fraction(0)
            others: list[TTerm] = []
            for piece in pieces:
                # The term has unit coefficient, so a piece that repeats
                # it with a rational coefficient r is r times the term.
                terms = dict(piece.coefficient.items())
                if terms.keys() <= {(0, 0)} and _signature(piece) == base_sig:
                    ratio_sum += terms.get((0, 0), 0)
                    continue
                others.append(piece)
            if ratio_sum == 1:
                raise ReductionError(
                    "no legal reduction: the partial integration only "
                    "restates the term"
                )
            for piece in others:
                _resolve(piece, depth - 1, log, leaves)
            if ratio_sum:
                _record(
                    log, "FixedPoint", ratio=str(ratio_sum), note="term reproduced itself under the move"
                )
                scale = 1 / (1 - ratio_sum)
                leaves[first_leaf:] = [(coefficient * scale, leaf) for coefficient, leaf in leaves[first_leaf:]]
            return
        except ReductionError as err:
            del log[checkpoint:], leaves[first_leaf:]
            failures.append(str(err))
            continue
    # Where every candidate was refused outright, the line lists up to three
    # of the distinct reasons.  Failures deeper in the search are counted, not
    # quoted: the line names the first candidate's deepest reason, the one its
    # own line names or lists first, so its length does not grow with depth.
    nested = sum(failure.startswith(_ALL_FAILED) for failure in failures)
    if not nested:
        raise ReductionError(_ALL_FAILED + f"{len(failures)}: " + "; ".join(sorted(set(failures))[:3]))
    first = failures[0]
    if first.startswith(_ALL_FAILED):
        first = first.partition(_FIRST)[2] or first.split(": ", 2)[2].split("; ")[0]
    raise ReductionError(_ALL_FAILED + f"{len(failures)}, {nested} after a deeper search" + _FIRST + first)


@functools.cache
def _reduce_lifted(
    nvars: int, props: tuple[TProp, ...], deltas: tuple[SingularAtom, ...], depth: int
) -> tuple[tuple[tuple[RegValue, _Leaf], ...], tuple[dict, ...], str | None]:
    """One lifted term at unit coefficient, searched: (leaves, moves, refusal text or None).

    ``depth`` is in the key because a success or a refusal can depend on the
    budget left.  The coefficient is not: reduction is linear in it, and at
    unit coefficient the fixed-point test reads the ratio of a piece that
    repeats the term straight off the piece's coefficient.
    """
    moves: list[dict] = []
    leaves: list[tuple[RegValue, _Leaf]] = []
    try:
        _search(TTerm(RegValue.one(), nvars, props, deltas), depth, moves, leaves)
    except ReductionError as err:
        return (), tuple(moves), str(err)
    return tuple(leaves), tuple(moves), None


@functools.cache
def _integrate_leaf(
    rules: RuleSet, factors: tuple[tuple[str, int, int], ...], nvars: int, deltas: tuple[SingularAtom, ...]
) -> tuple[RegValue, tuple[str, ...]]:
    """One ``ReturnTo1D`` leaf at unit coefficient, integrated: (value, eps notes)."""
    notes: list[str] = []
    value = integrate_product(list(factors), nvars, rules, notes, extra_atoms=deltas)
    return value, tuple(notes)


def _integrate_leaves(rules: RuleSet, leaves: list[tuple[RegValue, _Leaf]], notes: list[str]) -> RegValue:
    """Sum of coefficient times value over ``leaves``; their notes go onto ``notes`` in order.

    A leaf that cannot look the rule set up has one value under every rule
    set, so it is integrated once, under ``DIMREG``.
    """
    total = RegValue.zero()
    for coefficient, (factors, nvars, deltas, reads) in leaves:
        key = rules if reads else DIMREG
        value, found = _integrate_leaf(key, factors, nvars, deltas)
        notes.extend(found)
        total = total + coefficient * value
    return total


def _reduce_product(
    rules: RuleSet, parsed: ParsedProduct, log: list[dict] | None, notes: list[str]
) -> RegValue:
    """Value of one product, lifted and reduced; its moves go onto ``log`` if one is given."""
    if not parsed.factors:
        # A bare coefficient: every variable integrates to a factor of
        # beta, and with no factors there are no variables.
        return parsed.coefficient
    term = lift(parsed)
    moves: list[dict] = []
    leaves: list[tuple[RegValue, _Leaf]] = []
    try:
        _resolve(term, _MAX_DEPTH, moves, leaves)
    finally:
        if log is not None:
            _record(log, "Lift", factors=[p.describe() for p in term.props], variables=term.nvars)
            # The memo's own entries (text, numbers, lists) were appended: copy them.
            log.extend(
                {key: value.copy() if isinstance(value, list) else value for key, value in entry.items()}
                for entry in moves
            )
    return _integrate_leaves(rules, leaves, notes)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def reduce_terms(
    text_or_parsed: str | list[ParsedProduct],
    rules: RuleSet = DIMREG,
    log: list[dict] | None = None,
) -> RegValue:
    """Reduce a sum of lifted products to its exact value."""
    parsed = parse(text_or_parsed) if isinstance(text_or_parsed, str) else text_or_parsed
    notes: list[str] = []
    total = RegValue.zero()
    for item in parsed:
        total = total + _reduce_product(rules, item, log, notes)
    return total


def evaluate_named(
    name: str, rules: RuleSet = DIMREG, log: list[dict] | None = None
) -> RegValue:
    """Value of a named fixture integral; an alias gives its base's finite grade."""
    base = FINITE_ALIASES.get(name, name)
    if base not in NAMED_INTEGRALS:
        known = sorted(NAMED_INTEGRALS) + sorted(FINITE_ALIASES)
        raise ValueError(f"unknown integral name {name!r}; known names: {', '.join(known)}")
    value = reduce_terms(NAMED_INTEGRALS[base], rules, log)
    return value.finite_part() if name in FINITE_ALIASES else value

"""The exact rings as plain dicts from exponent tuples to Fractions.

``RegValue`` and ``Poly`` store int numerators over one shared denominator
and reduce only where a value leaves the kernel.  The functions here do the
same operations one Fraction coefficient at a time, the way the kernel did
before it kept a shared denominator, and drop every coefficient that
cancels.  They are the reference the kernel must match.
"""

from __future__ import annotations

from fractions import Fraction

Terms = dict[tuple[int, ...], Fraction]


def _merge(pairs) -> Terms:
    out: Terms = {}
    for key, coeff in pairs:
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def add(a: Terms, b: Terms) -> Terms:
    return _merge([*a.items(), *b.items()])


def neg(a: Terms) -> Terms:
    return {key: -coeff for key, coeff in a.items()}


def mul(a: Terms, b: Terms) -> Terms:
    return _merge(
        (tuple(x + y for x, y in zip(ka, kb)), ca * cb)
        for ka, ca in a.items()
        for kb, cb in b.items()
    )


def div(a: Terms, r: Fraction) -> Terms:
    return {key: coeff / r for key, coeff in a.items()}


def grade(a: Terms, delta0_power: int) -> Terms:
    """The (beta, delta0) terms of ``a`` with the given delta0 power."""
    return {key: coeff for key, coeff in a.items() if key[1] == delta0_power}


def remap(a: Terms, targets: list[int | None], nvars: int) -> Terms:
    """Variable v's exponent added to slot targets[v]; a None target drops it."""

    def move(key):
        new = [key[0]] + [0] * nvars
        for v, target in enumerate(targets):
            if target is not None:
                new[target + 1] += key[v + 1]
        return tuple(new)

    return _merge((move(key), coeff) for key, coeff in a.items())


def _integrate(a: Terms, slot: int, upper: int) -> Terms:
    """Key slot ``slot`` integrated from 0 to the variable in slot ``upper`` (0: beta)."""
    out = []
    for key, coeff in a.items():
        e = key[slot] + 1
        new = list(key)
        new[slot] = 0
        new[upper] += e
        out.append((tuple(new), coeff / e))
    return _merge(out)


def integrate_out(a: Terms, index: int) -> Terms:
    return _integrate(a, index + 1, 0)


def integrate_sector(a: Terms, order: list[int]) -> Terms:
    """The integral over 0 < tau_order[0] < ... < beta, keyed (beta, delta0)."""
    for pos, var in enumerate(order):
        upper = order[pos + 1] + 1 if pos + 1 < len(order) else 0
        a = _integrate(a, var + 1, upper)
    return {(key[0], 0): coeff for key, coeff in a.items()}


def integrate_cube(a: Terms, nvars: int) -> Terms:
    for index in range(nvars):
        a = integrate_out(a, index)
    return {(key[0], 0): coeff for key, coeff in a.items()}

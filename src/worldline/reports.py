"""Check reports: the outcome of one check, with rendered values on both routes.

Each check returns a :class:`CheckReport` with rendered expected and
actual values, so failures show the residual rather than a bare flag.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable


class CheckReport(
    namedtuple(
        "CheckReport",
        "check_name status expected actual tolerance details move_logs",
        defaults=((), None),
    )
):
    """Outcome of one check, with rendered values on both routes.

    ``status`` is "pass", "fail" or "error"; ``tolerance`` is "exact" or a float.
    """

    __slots__ = ()

    def mismatches(self) -> list[str]:
        """Keys whose expected and actual renderings differ."""
        return sorted(
            key
            for key in set(self.expected) | set(self.actual)
            if self.expected.get(key) != self.actual.get(key)
        )


def finish_report(
    name: str,
    expected: dict[str, str],
    actual: dict[str, str],
    tolerance: str | float = "exact",
    details: Iterable[str] = (),
    move_logs: dict[str, list[dict]] | None = None,
    ok: bool | None = None,
) -> CheckReport:
    """A passing or failing report; by default it passes when both routes agree."""
    if ok is None:
        ok = expected == actual
    return CheckReport(
        check_name=name,
        status="pass" if ok else "fail",
        expected=expected,
        actual=actual,
        tolerance=tolerance,
        details=tuple(details),
        move_logs=move_logs,
    )


def error_report(name: str, tolerance: str | float, detail: str) -> CheckReport:
    """A check that could not run, with the one-line reason."""
    return CheckReport(name, "error", {}, {}, tolerance, (detail,))

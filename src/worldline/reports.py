"""Check reports: the outcome of one check, with rendered values on both routes.

Each check returns a :class:`CheckReport` with rendered expected and
actual values, so failures show the residual rather than a bare flag.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union


class CheckReport(NamedTuple):
    """Outcome of one check, with rendered values on both routes."""

    check_name: str
    status: str  # "pass" | "fail" | "error"
    expected: Dict[str, str]
    actual: Dict[str, str]
    tolerance: Union[str, float]
    details: Tuple[str, ...] = ()
    move_logs: Optional[Dict[str, List[dict]]] = None

    def mismatches(self) -> List[str]:
        """Keys whose expected and actual renderings differ."""
        return sorted(
            key
            for key in set(self.expected) | set(self.actual)
            if self.expected.get(key) != self.actual.get(key)
        )


def finish_report(
    name: str,
    expected: Dict[str, str],
    actual: Dict[str, str],
    tolerance: Union[str, float] = "exact",
    details: Iterable[str] = (),
    move_logs: Optional[Dict[str, List[dict]]] = None,
    ok: Optional[bool] = None,
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


def error_report(name: str, tolerance: Union[str, float], detail: str) -> CheckReport:
    """A check that could not run, with the one-line reason."""
    return CheckReport(name, "error", {}, {}, tolerance, (detail,))

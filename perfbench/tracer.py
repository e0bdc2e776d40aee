"""Run one ``worldline`` CLI invocation with spans around its layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py verify --json

The tracer wraps the public functions listed in ``LAYERS``, then calls
``worldline.cli.main(argv)``. The program's stdout and exit code are
those of a plain invocation. When the program returns, one line starting
with ``TRACE_PREFIX`` and holding the per-layer aggregates as JSON is
written to stderr.

Spans are kept in memory as (layer, start, end, parent). A span's self
time is its duration minus the durations of its direct children, which
run one after another on the one thread and so never overlap. Total time
counts only spans with no enclosing span of the same layer, so recursion
is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

TRACE_PREFIX = "perfbench-trace "

_REGVALUE_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__",
)
_PROPAGATOR_FUNCTIONS = (
    "smooth_part", "eps_coefficient", "has_delta", "symbolic_rep", "diagonal",
    "boundary_value", "eval_numeric",
)
_MOVES = (
    "equal_time_substitute", "field_equation", "partial_integration",
    "divergence_split", "return_to_1d",
)

# (layer name, module, attribute path). Several attributes may share one
# layer name; their calls add up.
LAYERS: List[Tuple[str, str, str]] = (
    [("cli.main", "worldline.cli", "main")]
    + [
        (f"checks.{name}", "worldline.checks", name)
        for name in (
            "run_standard_checks", "check_flat", "check_seeley",
            "check_constraints", "measure_cancellation",
            "sphere_spectral_check", "sphere_scaling_check",
        )
    ]
    + [
        (f"diagrams.{name}", "worldline.diagrams", name)
        for name in ("wick", "sum_order", "evaluate_diagram", "catalog")
    ]
    + [("tensors.invariant_coefficients", "worldline.tensors", "invariant_coefficients")]
    + [("reduction.reduce_terms", "worldline.reduction", "reduce_terms")]
    + [(f"reduction.{name}", "worldline.reduction", name) for name in _MOVES]
    + [
        ("integrands.product", "worldline.integrands", "product"),
        ("integrands.canonicalize", "worldline.integrands", "canonicalize"),
        ("integration.integrate", "worldline.integration", "integrate"),
        ("integration.integrate_term", "worldline.integration", "integrate_term"),
        ("polynomials.Poly.mul", "worldline.polynomials", "Poly.__mul__"),
        ("polynomials.Poly.integrate_sector", "worldline.polynomials", "Poly.integrate_sector"),
    ]
    + [("values.RegValue.ops", "worldline.values", f"RegValue.{op}") for op in _REGVALUE_OPS]
    + [
        ("geometry.vertices", "worldline.geometry", "vertices"),
        ("geometry.seeley_reference", "worldline.geometry", "seeley_reference"),
    ]
    + [("propagators", "worldline.propagators", name) for name in _PROPAGATOR_FUNCTIONS]
)


def _freeze(value: Any) -> Any:
    if type(value).__name__ == "ParsedProduct":
        # Reduction is linear in the coefficient, so a per-topology cache
        # keys on the factors and the variable count alone.
        return ("ParsedProduct", value.factors, value.nvars)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    return value


# Layers whose distinct inputs are counted, with the parameters that are
# not inputs (out-parameters for logs and notes).
DISTINCT: Dict[str, Tuple[str, ...]] = {
    "reduction.reduce_terms": ("log",),
    "tensors.invariant_coefficients": (),
    "integration.integrate": ("notes",),
    "diagrams.sum_order": (),
}


def _terms_in(layer: str, args: tuple) -> Optional[int]:
    if layer == "integrands.canonicalize":
        return len(args[0])
    return None


def _terms_out(layer: str, result: Any) -> Optional[int]:
    if layer in ("integrands.product", "integrands.canonicalize"):
        return len(result)
    if layer == "polynomials.Poly.mul":
        return len(result.terms())
    return None


class Tracer:
    """Spans and per-layer input sets of one process."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._open: List[int] = []
        self.inputs: Dict[str, set] = {layer: set() for layer in DISTINCT}
        self.terms_in: Dict[str, int] = {}
        self.terms_out: Dict[str, int] = {}

    def wrap(self, layer: str, func: Callable) -> Callable:
        ignored = DISTINCT.get(layer)
        signature = inspect.signature(func) if ignored is not None else None
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.inputs[layer].add(
                    tuple(
                        (name, _freeze(value))
                        for name, value in bound.arguments.items()
                        if name not in ignored
                    )
                )
            count_in = _terms_in(layer, args)
            if count_in is not None:
                self.terms_in[layer] = self.terms_in.get(layer, 0) + count_in
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (layer, start, end, parent)
            count_out = _terms_out(layer, result)
            if count_out is not None:
                self.terms_out[layer] = self.terms_out.get(layer, 0) + count_out
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer and rebind each attribute that holds the original.

        Modules copy functions with ``from .x import y`` and classes alias
        methods (``__rmul__ = __mul__``), so the defining attribute is not
        the only reference the program calls through.
        """

        for module_name in {module_name for _, module_name, _ in LAYERS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # a module that is gone reports no calls
        namespaces = []
        for name, module in list(sys.modules.items()):
            if name == "worldline" or name.startswith("worldline."):
                namespaces.append(module)
                namespaces.extend(
                    value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module.__name__
                )
        for layer, module_name, path in LAYERS:
            owner: Any = sys.modules.get(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                continue  # the layer no longer has this function
            wrapper = self.wrap(layer, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, self and total seconds, distinct inputs, term counts."""

        spans = self.spans  # every span is closed once the program returns
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: Dict[str, Dict[str, float]] = {}
        for index, (layer, start, end, parent) in enumerate(spans):
            entry = stats.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
        for layer, keys in self.inputs.items():
            stats.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            stats[layer]["distinct"] = len(keys)
        for layer, count in self.terms_in.items():
            stats[layer]["terms_in"] = count
        for layer, count in self.terms_out.items():
            stats[layer]["terms_out"] = count
        return stats


def main(argv: List[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["worldline.cli"]
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

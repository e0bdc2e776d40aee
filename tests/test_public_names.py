"""README's "public names, by module" list against what each module defines."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import typing

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "worldline"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_"))


def _readme_names() -> dict[str, set[str]]:
    """Module -> backticked names of its README bullet, parentheticals dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("public names, by module:", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    listed = {}
    for bullet in re.split(r"\n- ", "\n" + block)[1:]:
        # Parentheses hold methods, fields and remarks, not module-level names.
        module, *names = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", bullet))
        listed[module] = set(names)
    return listed


def _defined_names(module: str) -> set[str]:
    """Public names bound at the top level of a module's source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_readme_lists_every_module() -> None:
    assert sorted(_readme_names()) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_readme_lists_exactly_the_public_names(module: str) -> None:
    namespace = vars(importlib.import_module(f"worldline.{module}"))

    def without_aliases(names: set[str]) -> set[str]:
        # Type aliases such as geometry's GammaLine are exempt either way.
        return {n for n in names if typing.get_origin(namespace.get(n)) is None}

    assert without_aliases(_readme_names()[module]) == without_aliases(_defined_names(module))


# The private names one package module imports from another, as
# (importer, "module.name"); every other private name stays in its module.
_PRIVATE_IMPORTS_ON_PURPOSE = {
    ("reduction", "integration._reads_rules"),
    ("rings", "integration._ring_chain"),
}


def test_no_private_name_crosses_between_modules() -> None:
    crossing = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                crossing.update(
                    (path.stem, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert crossing == _PRIVATE_IMPORTS_ON_PURPOSE


def _readme_memos() -> set[str]:
    """The `module._name` that opens each bullet of README's memo list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("one per bullet", 1)[1].split(":\n\n", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"^- `(\w+\.\w+)`", block, re.M))


def _cached_functions() -> set[str]:
    """`module.name` of every module-level function or method with `cache_info`."""
    found = set()
    for module in MODULES:
        namespace = importlib.import_module(f"worldline.{module}")
        values = list(vars(namespace).values())
        values += [
            member
            for value in values
            if isinstance(value, type) and value.__module__ == namespace.__name__
            for member in vars(value).values()
        ]
        for value in values:
            value = getattr(value, "__func__", value)
            if hasattr(value, "cache_info") and value.__module__ == namespace.__name__:
                found.add(f"{module}.{value.__qualname__}")
    return found


def test_readme_lists_exactly_the_memos() -> None:
    assert _cached_functions() == _readme_memos()


# One run of each verb, the failing text-mode report, and one refusal per verb.
_INVOCATIONS = (
    (["verify", "--json"], 0),
    (["verify", "--ruleset", "modereg", "--case", "flat"], 1),
    (["integral", "I2", "--dump-moves"], 0),
    (["catalog", "--model", "normal", "--order", "2"], 0),
    (["sphere", "--json", "--beta", "1/50", "--lmax", "3000", "--tolerance", "1e-7"], 0),
    (["measure-cancel", "--json", "--max-order", "3"], 0),
    (["integral", "I99"], 2),
    (["verify", "--case", "bogus"], 2),
    (["catalog", "--order", "3"], 2),
    (["sphere", "--dimension", "400"], 2),
    (["sphere", "--beta", "1e-1000"], 2),
    (["measure-cancel", "--max-order", "9"], 2),
)

# Read by the benchmark tracer (perfbench/tracer.py), which no verb runs.
_UNREACHED_ON_PURPOSE = ["values.Poly.terms"]

_REACH_SCRIPT = r"""
import contextlib, io, json, pathlib, sys, types

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

# Installed before the import, so code that runs at import time counts.
sys.setprofile(profile)
import worldline.cli
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(worldline.cli.main(argv))
sys.setprofile(None)


def codes(owner, value):
    # Decorated functions (functools.cache, classmethod, property) hold the
    # function itself one attribute down.
    for attr in ("__func__", "__wrapped__", "fget"):
        value = getattr(value, attr, value)
    if isinstance(value, types.FunctionType):
        yield owner + value.__name__, value.__code__


def nested(name, code):
    yield name, code
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and const.co_name.isidentifier():
            yield from nested(f"{name}.{const.co_name}", const)


defined = {}
for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "worldline"]:
    path = pathlib.Path(module.__file__)
    for value in vars(module).values():
        found = list(codes("", value))
        if isinstance(value, type) and value.__module__ == module.__name__:
            found = [c for v in vars(value).values() for c in codes(value.__name__ + ".", v)]
        for name, code in found:
            for full, inner in nested(name, code):
                if inner.co_filename == str(path) and not inner.co_name.startswith("__"):
                    defined[f"{path.stem}.{full}"] = inner
missed = sorted(name for name, code in defined.items() if code not in entered)
print(json.dumps({"exits": exits, "missed": missed}))
"""


def test_every_function_is_reached_by_a_verb() -> None:
    """Every function and non-dunder method in the package runs under some verb."""
    argvs = [argv for argv, _ in _INVOCATIONS]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _REACH_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["exits"] == [code for _, code in _INVOCATIONS]
    assert result["missed"] == _UNREACHED_ON_PURPOSE

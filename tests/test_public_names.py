"""README's "public names, by module" list against what each module defines."""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
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
        # Type aliases such as MetricModel are exempt either way.
        return {n for n in names if typing.get_origin(namespace.get(n)) is None}

    assert without_aliases(_readme_names()[module]) == without_aliases(_defined_names(module))

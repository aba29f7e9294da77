"""Every name imported into a ``curvegluing`` module is used there, no
module but ``__init__`` and ``toric`` imports from ``basis`` (the
``Polynomial`` engines), only ``tangentcone`` completes a curve's ideal,
and no module lists every factorization of a semigroup element.

A name counts as used when the module reads it (annotations included) or
exports it in ``__all__``.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "curvegluing"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .polyalg import Polynomial, degrevlex as dr\n"
              "from .toric import curve\n"
              "__all__ = ['curve']\n"
              "def f(x: Polynomial):\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["dr (line 3)"]


def basis_imports(source: str) -> list[int]:
    """Lines that import ``basis`` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        if any(m.rsplit(".", 1)[-1] == "basis" for m in modules):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.stem not in ("__init__", "toric")),
    ids=lambda p: p.stem)
def test_curve_path_imports_nothing_from_basis(path):
    # every command runs on curves, whose ideals reach a standard basis
    # through toric alone; __init__ exports the general engine
    assert basis_imports(path.read_text()) == []


def test_an_import_from_basis_is_found():
    source = ("from .basis import buchberger\n"
              "from . import basis\n"
              "import curvegluing.basis\n"
              "from curvegluing.basis import standard_basis as sb\n"
              "from .polyalg import spoly\n"
              "import curvegluing.toric\n")
    assert basis_imports(source) == [1, 2, 3, 4]


def calls_of(name: str, source: str) -> list[int]:
    """Lines that call ``name``, as a function or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None),
                         getattr(node.func, "id", None))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_factorization_is_listed(path):
    # their number grows like n^(k-1); max_length_representation is bounded;
    # all_representations stays as the tests' reference
    assert calls_of("all_representations", path.read_text()) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "tangentcone.py"),
                         ids=lambda p: p.name)
def test_only_the_cone_completes_a_curve_ideal(path):
    # one standard basis per curve, in one order rule: tangent_cone's
    assert calls_of("curve_standard_basis", path.read_text()) == []


def test_the_cone_completes_and_a_second_completion_is_found():
    assert calls_of("curve_standard_basis",
                    (SRC / "tangentcone.py").read_text()) != []
    source = ("from .toric import curve_standard_basis\n"
              "from . import toric\n"
              "def f(rosales, order):\n"
              "    a = curve_standard_basis(rosales, order)\n"
              "    return a, toric.curve_standard_basis(rosales, order)\n")
    assert calls_of("curve_standard_basis", source) == [4, 5]


def test_a_listing_is_found():
    source = ("def f(S, n):\n"
              "    reps = S.all_representations(n)\n"
              "    return all_representations(S, n)\n")
    assert calls_of("all_representations", source) == [2, 3]

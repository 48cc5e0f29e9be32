"""Documentation conformance: every public item carries a doc comment,
and every name the documents cite exists.

This enforces the documentation deliverable mechanically: every module
under ``repro``, every public class, function and method (not
underscore-prefixed, not inherited) must have a docstring, and every
dotted ``repro.…`` name in README.md, DESIGN.md and docs/ must import.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        yield name, member


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_public_members_have_docstrings(module):
    undocumented = []
    for name, member in _public_members(module):
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(member):
            for attr_name, attr in vars(member).items():
                if attr_name.startswith("_"):
                    continue
                if attr_name in ("parts", "with_parts"):
                    continue  # documented once, on the Expr base class
                if not inspect.isfunction(attr):
                    continue
                if not (attr.__doc__ and attr.__doc__.strip()):
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}"
    )


#: the prose that cites code by dotted name
DOCS = sorted([ROOT / "README.md", ROOT / "DESIGN.md",
               *(ROOT / "docs").glob("*.md")])


def _cited_names():
    """Every distinct ``repro.…`` dotted name the documents cite."""
    return sorted({match for path in DOCS for match in
                   re.findall(r"\brepro(?:\.\w+)+", path.read_text("utf-8"))})


def _resolves(name):
    """Import the longest importable prefix of ``name``; ``getattr`` the
    rest."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_every_cited_repro_name_exists():
    cited = _cited_names()
    assert cited
    assert [name for name in cited if not _resolves(name)] == []

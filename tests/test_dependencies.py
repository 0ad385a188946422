"""Every third-party import is declared in ``setup.py``.

A clean checkout installs only what ``setup.py`` declares: the runtime
``install_requires`` and the ``test`` extra.  This test parses every
``import`` in ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` with
:mod:`ast` (nothing is imported or installed) and fails on any top-level
module that is neither standard library, nor part of this repository, nor
declared.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import sys
import sysconfig
from pathlib import Path
from typing import Dict, Iterator, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")


def declared_requirements(setup_py: Path = REPO_ROOT / "setup.py") -> Set[str]:
    """Import names of ``install_requires`` plus the ``test`` extra."""
    tree = ast.parse(setup_py.read_text())
    requirements: List[str] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setup"):
            continue
        for keyword in node.keywords:
            if keyword.arg == "install_requires":
                requirements.extend(ast.literal_eval(keyword.value))
            elif keyword.arg == "extras_require":
                extras = ast.literal_eval(keyword.value)
                requirements.extend(extras.get("test", []))
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
            .lower().replace("-", "_") for requirement in requirements}


def local_modules() -> Set[str]:
    """Top-level names that resolve inside this repository."""
    names = {path.name for path in REPO_ROOT.iterdir() if path.is_dir()}
    names.update(path.name for path in (REPO_ROOT / "src").iterdir())
    for directory in SCANNED:
        names.update(path.stem
                     for path in (REPO_ROOT / directory).rglob("*.py"))
    return names


def is_stdlib(name: str) -> bool:
    stdlib_names = getattr(sys, "stdlib_module_names", None)
    if stdlib_names is not None:  # Python 3.10+
        return name in stdlib_names
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    origin = os.path.abspath(spec.origin)
    stdlib = os.path.abspath(sysconfig.get_paths()["stdlib"])
    return origin.startswith(stdlib + os.sep) and "site-packages" not in origin


def imported_modules(source: str) -> Iterator[str]:
    """Top-level module of every absolute import in *source*."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def third_party_imports() -> Dict[str, List[str]]:
    """Third-party module -> the repository files that import it."""
    local = local_modules()
    found: Dict[str, List[str]] = {}
    for directory in SCANNED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for module in set(imported_modules(path.read_text())):
                if module in local or is_stdlib(module):
                    continue
                found.setdefault(module, []).append(
                    str(path.relative_to(REPO_ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = declared_requirements()
    found = third_party_imports()
    # The scan sees the dependencies the project is known to use.
    assert {"numpy", "pytest", "hypothesis", "scipy"} <= set(found)
    undeclared = {module: files for module, files in found.items()
                  if module not in declared}
    assert not undeclared, f"imports missing from setup.py: {undeclared}"


def test_scanner_flags_an_undeclared_import():
    source = "import os\nimport numpy.linalg\nfrom requests import get\n" \
             "from . import sibling\n"
    modules = [module for module in imported_modules(source)
               if not is_stdlib(module)]
    assert modules == ["numpy", "requests"]
    assert "requests" not in declared_requirements()

"""The package imports only numpy, scipy and the standard library.

Every ``import`` in ``src/ctbn_sentry/*.py`` is read with :mod:`ast` (so
imports inside functions and behind guards count too); its top-level module
must be a standard-library module, numpy, scipy or the package itself.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctbn_sentry"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "ctbn_sentry"}


def _top_level_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative: the package
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_scipy_and_the_standard_library(path):
    assert _top_level_imports(path) - ALLOWED == set()


def test_the_guard_sees_every_kind_of_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os.path, numba\nfrom pandas.api import types\n"
                      "from . import model\n\ndef f():\n    import requests\n")
    assert _top_level_imports(source) - ALLOWED == {"numba", "pandas", "requests"}

"""The package imports only numpy, scipy and the standard library, and
scipy only where a solve needs it.

Every ``import`` in ``src/ctbn_sentry/*.py`` is read with :mod:`ast` (so
imports inside functions and behind guards count too); its top-level module
must be a standard-library module, numpy, scipy or the package itself.
Whether a command loads scipy is seen in a fresh interpreter, because pytest
and the other tests load it themselves.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctbn_sentry"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "ctbn_sentry"}
CHAIN3 = str(PACKAGE / "data" / "chain3.json")
# imports the package, then runs each command line in order; prints whether
# scipy was loaded after the import and after each command
PROBE = """
import json, sys
import ctbn_sentry
from ctbn_sentry.cli import main
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


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


def _scipy_loaded(commands: list[list[str]], cwd: Path) -> list[bool]:
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_sampling_and_cascades_run_without_scipy(tmp_path):
    log = str(tmp_path / "log.csv")
    commands = [
        ["simulate", CHAIN3, "--t-end", "20", "--trajectories", "5", "--single-file",
         "--out", log],
        ["cascades", log, "--auto-threshold", "--out-cascades", str(tmp_path / "c.csv"),
         "--out-scores", str(tmp_path / "s.csv")],
        ["sentry", CHAIN3, "--epsilon", "0.2", "--alpha", "0.5", "--t-end", "20",
         "--trajectories", "400", "--out", str(tmp_path / "mc.csv")],
    ]
    assert _scipy_loaded(commands, tmp_path) == [False] * 4


def test_the_exact_solve_loads_scipy(tmp_path):
    command = ["sentry", CHAIN3, "--exact", "--out", str(tmp_path / "exact.csv")]
    assert _scipy_loaded([command], tmp_path) == [False, True]

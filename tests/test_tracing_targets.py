"""The benchmark's tracer names package functions; each name must still resolve.

`bench/tracing.py` wraps every `(module, function)` in its `TARGETS` for a
traced run, so deleting or renaming one of them would break `--trace 1`.  The
file is loaded read-only by path, without importing the rest of `bench/`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module, function", _targets())
def test_tracing_target_resolves(module, function):
    package_module = importlib.import_module(f"ctbn_sentry.{module}")
    assert callable(getattr(package_module, function, None))

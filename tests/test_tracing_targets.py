"""The benchmark's tracer names package functions; each name must still resolve,
and its event counters must read the package's results.

`bench/tracing.py` wraps every `(module, function)` in its `TARGETS` for a
traced run, so deleting or renaming one of them would break `--trace 1`, and a
counter that no longer understands a result would report 0 events per second.
The file is loaded read-only by path, without importing the rest of `bench/`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ctbn_sentry import NaiveParams, SimulationConfig
from ctbn_sentry import cascade as cascade_module
from ctbn_sentry import simulate as simulate_module

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", sorted(_tracing().TARGETS))
def test_tracing_target_resolves(module, function):
    package_module = importlib.import_module(f"ctbn_sentry.{module}")
    assert callable(getattr(package_module, function, None))


def test_tracer_counts_the_events_of_real_calls(chain3, tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer()
    path = tmp_path / "ensemble.csv"
    tracer.install()
    try:
        ensemble = simulate_module.sample_ensemble(chain3, None, SimulationConfig(20.0, 30, 4))
        cascade_module.naive_scores(ensemble, NaiveParams(0.1, 2))
        simulate_module.write_ensemble_csv(ensemble, path, chain3.names)
        simulate_module.read_ensemble_csv(path)
    finally:
        tracer.uninstall()
    events = ensemble.event_count
    assert events > 0
    counts = {name: n for name, _, _, _, n in tracer.spans}
    assert counts == {
        "simulate.sample_ensemble": events,
        "cascade.naive_scores": events,
        "simulate.write_ensemble_csv": 0,
        "simulate.read_ensemble_csv": events + len(ensemble) * chain3.process_count,
    }
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["simulate.events_per_s"] > 0
    assert layers["cascade.naive_events_per_s"] > 0
    assert layers["simulate.read_csv_rows_per_s"] > 0

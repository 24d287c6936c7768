"""Built-in synthetic experiments: six replicator networks and a report bundle.

Each experiment is a binary replicator model (slow drivers, fast followers)
whose sentry states are known by construction, plus analysis defaults.  The
three-process chain uses the canonical rate set (slow 1.0/5.0, fast 15.0,
base 0.1); the other shapes have no canonical parameterization and reuse the
same rate family.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .cascade import (
    NaiveParams,
    compare_rednt_vs_naive,
    write_cascade_report,
    write_comparison_report,
    write_naive_scores_report,
)
from .graphs import DiGraph
from .model import CtbnModel, build_replicator_ctbn, save_model
from .sentry import write_sentry_report
from .simulate import (SimulationConfig, _write_files, derive_seed, sample_ensemble,
                       write_ensemble_csv)

DEFAULT_SEED = 20210611
DEFAULT_ALPHA = 0.1

# the seed stream of the analysis ensemble inside one experiment run
_ANALYSIS_STREAM = 2


@dataclass(frozen=True)
class ExperimentSpec:
    """A named network shape plus rates and analysis defaults.

    ``max_active`` None (every built-in shape) takes the comparison's rule:
    the size of the model's largest parent set.
    """

    name: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    slow: frozenset[str]
    slow_rate: tuple[float, float] = (1.0, 5.0)
    fast_rate: float = 15.0
    base_rate: float = 0.1
    alpha: float = DEFAULT_ALPHA
    t_end: float = 10.0 / DEFAULT_ALPHA
    trajectory_count: int = 10_000
    seed: int = DEFAULT_SEED
    max_active: int | None = None  # None: the model's largest parent set
    min_cascade_length: int = 2
    fast_threshold: float | None = None  # None selects the pooled-median default
    display_trajectories: int = 10

    def graph(self) -> DiGraph:
        return DiGraph(self.nodes, self.edges)

    def build_model(self) -> CtbnModel:
        return build_replicator_ctbn(
            self.graph(), self.slow, self.slow_rate, self.fast_rate, self.base_rate)


def _chain(names: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple(zip(names[:-1], names[1:]))


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="chain3",
            nodes=("A", "B", "C"),
            edges=_chain(("A", "B", "C")),
            slow=frozenset({"A"}),
        ),
        ExperimentSpec(
            name="chain5",
            nodes=("A", "B", "C", "D", "E"),
            edges=_chain(("A", "B", "C", "D", "E")),
            slow=frozenset({"A"}),
        ),
        ExperimentSpec(
            name="cycle5",
            nodes=("A", "B", "C", "D", "E"),
            edges=(("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("D", "E")),
            slow=frozenset({"A", "B", "C"}),
        ),
        ExperimentSpec(
            name="fork5",
            nodes=("A", "B", "C", "D", "E"),
            edges=(("A", "B"), ("A", "C"), ("B", "D"), ("C", "E")),
            slow=frozenset({"A"}),
        ),
        ExperimentSpec(
            name="cycle-chain6",
            nodes=("A", "B", "C", "D", "E", "F"),
            edges=(("A", "B"), ("B", "C"), ("C", "A"),
                   ("C", "D"), ("D", "E"), ("E", "F")),
            slow=frozenset({"A", "B", "C"}),
        ),
        # three independent slow drivers feed an AND gate that launches a deep
        # fast chain; the interesting launch state has three active alarms.
        # Symmetric slow toggling keeps the three-way conjunction alive long
        # enough for full cascades (the 1.0/5.0 pair makes it too short-lived).
        ExperimentSpec(
            name="complex9",
            nodes=("A", "B", "C", "D", "E", "F", "G", "H", "I"),
            edges=(("A", "D"), ("B", "D"), ("C", "D"),
                   ("D", "E"), ("E", "F"), ("F", "G"),
                   ("G", "H"), ("H", "I")),
            slow=frozenset({"A", "B", "C"}),
            slow_rate=(1.0, 1.0),
        ),
    )
}


def experiment_spec(name: str, **overrides) -> ExperimentSpec:
    """Look up a named experiment, optionally overriding analysis fields."""
    try:
        spec = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}") from None
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(spec, **overrides) if overrides else spec


def run_experiment(spec: ExperimentSpec, out_dir) -> dict[str, Path]:
    """Produce the full report bundle for one experiment.

    Samples one analysis ensemble and writes model.json, its first
    ``spec.display_trajectories`` members (trajectories.csv) with their
    cascade windows (cascades.csv), the EDNT/REDNT report (sentry.csv), the
    naive baseline over the whole ensemble (naive_scores.csv), the
    REDNT-vs-naive comparison (comparison.csv), and a manifest of resolved
    parameters.  Both rankings in the comparison are restricted to states
    with at most ``spec.max_active`` active alarms (None: the model's largest
    parent set); the manifest records the value used.  The fast threshold
    follows :func:`default_fast_threshold` unless the spec fixes one; an
    infinite one is written to the manifest as null.  Everything is computed
    before ``out_dir`` is created, and a write that fails removes the files
    and directories the run made before it; files already in ``out_dir``
    stay.
    Deterministic for a fixed spec: identical runs produce byte-identical files.
    """
    model = spec.build_model()
    analysis = sample_ensemble(
        model, None,
        SimulationConfig(spec.t_end, spec.trajectory_count,
                         derive_seed(spec.seed, _ANALYSIS_STREAM)))
    display = analysis[:spec.display_trajectories]
    comparison = compare_rednt_vs_naive(
        model, analysis, spec.fast_threshold,
        k_range=None,  # every k up to the full filtered ranking
        alpha=spec.alpha,
        min_cascade_length=spec.min_cascade_length,
        max_active=spec.max_active,
    )
    params = NaiveParams(comparison.fast_threshold, spec.min_cascade_length)
    manifest = {
        "experiment": spec.name,
        "nodes": spec.nodes,
        "edges": spec.edges,
        "slow_processes": sorted(spec.slow),
        "rates": {"slow": spec.slow_rate, "fast": spec.fast_rate, "base": spec.base_rate},
        "alpha": spec.alpha,
        "t_end": spec.t_end,
        "trajectory_count": spec.trajectory_count,
        "seed": spec.seed,
        "max_active": comparison.max_active,
        # strict JSON has no infinity: null when the ensemble has no gap
        "fast_threshold": (comparison.fast_threshold
                           if math.isfinite(comparison.fast_threshold) else None),
        "min_cascade_length": spec.min_cascade_length,
    }

    out = Path(out_dir)
    writers = {
        "model.json": lambda p: save_model(model, p),
        "trajectories.csv": lambda p: write_ensemble_csv(display, p, model.names),
        "cascades.csv": lambda p: write_cascade_report(p, display, params),
        "sentry.csv": lambda p: write_sentry_report(p, comparison.ranking),
        "naive_scores.csv": lambda p: write_naive_scores_report(p, comparison.scores),
        "comparison.csv": lambda p: write_comparison_report(p, comparison),
        "manifest.json": lambda p: p.write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"),
    }
    _write_files([(out / file, write) for file, write in writers.items()], out)
    return {Path(file).stem: out / file for file in writers}

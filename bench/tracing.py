"""Spans around the program's public functions, for the traced run only.

`Tracer.install()` replaces each traced function by a wrapper in every
`ctbn_sentry` module that holds it, because the modules import functions by
name (`ctbn_sentry.cascade.ednt_exact` and `ctbn_sentry.experiments.ednt_exact`
are both the sentry solver).  A wrapper records one span per call: name,
start, end, parent span and an optional count taken from the call's
arguments or result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
from statistics import median
from time import perf_counter


def _events(trajectories) -> int:
    return sum(t.event_count for t in trajectories)


# (module, function) -> count recorded on its span, from (args, result)
TARGETS = {
    ("cli", "main"): None,
    ("experiments", "run_experiment"): None,
    ("simulate", "sample_ensemble"): lambda args, result: _events(result),
    ("simulate", "write_ensemble_csv"): None,
    ("simulate", "read_ensemble_csv"):
        lambda args, result: sum(len(result[1]) + t.event_count for t in result[0]),
    ("cascade", "default_fast_threshold"): None,
    ("cascade", "compare_rednt_vs_naive"): None,
    ("cascade", "naive_scores"): lambda args, result: _events(args[0]),
    ("cascade", "write_cascade_report"): None,
    ("cascade", "write_naive_scores_report"): None,
    ("cascade", "write_comparison_report"): None,
    ("model", "amalgamate"): lambda args, result: result.nbytes,
    ("model", "build_state_space_graph"): None,
    ("sentry", "ednt_exact"): None,
    ("sentry", "rednt"): None,
    ("sentry", "stopping_rule_ednt"): lambda args, result: result.trajectories_used,
    ("sentry", "write_sentry_report"): None,
}


class Tracer:
    """Installs and removes the span wrappers and keeps the spans.

    A span is [name, start, end, parent index or -1, count].
    """

    package = "ctbn_sentry"

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == self.package or name.startswith(self.package + ".")]
        for (module, func), counter in TARGETS.items():
            original = getattr(importlib.import_module(f"{self.package}.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one round's spans (parent indices local to the list)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, n in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, count, largest = {}, {}, {}, {}
    for i, (name, start, end, parent, n) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child[i]
        count[name] = count.get(name, 0) + n
        largest[name] = max(largest.get(name, 0), n)

    def secs(name):
        return total.get(name, 0.0)

    def rate(name):
        return count[name] / total[name] if total.get(name) else 0.0

    return {
        "simulate.sample_s": secs("simulate.sample_ensemble"),
        "simulate.events_per_s": rate("simulate.sample_ensemble"),
        "simulate.read_csv_s": secs("simulate.read_ensemble_csv"),
        "simulate.read_csv_rows_per_s": rate("simulate.read_ensemble_csv"),
        "simulate.write_csv_s": secs("simulate.write_ensemble_csv"),
        "cascade.threshold_s": secs("cascade.default_fast_threshold"),
        "cascade.compare_self_s": own.get("cascade.compare_rednt_vs_naive", 0.0),
        "cascade.naive_scores_s": secs("cascade.naive_scores"),
        "cascade.naive_events_per_s": rate("cascade.naive_scores"),
        "cascade.report_s": (secs("cascade.write_cascade_report")
                             + secs("cascade.write_naive_scores_report")
                             + secs("cascade.write_comparison_report")),
        "model.amalgamate_s": secs("model.amalgamate"),
        "model.state_graph_s": secs("model.build_state_space_graph"),
        "model.intensity_bytes": largest.get("model.amalgamate", 0),
        "sentry.solve_self_s": own.get("sentry.ednt_exact", 0.0),
        "sentry.mc_s": secs("sentry.stopping_rule_ednt"),
        "sentry.mc_trajectories_per_s": rate("sentry.stopping_rule_ednt"),
        "sentry.mc_trajectories": count.get("sentry.stopping_rule_ednt", 0),
        "sentry.rednt_s": secs("sentry.rednt"),
        "sentry.report_s": secs("sentry.write_sentry_report"),
        "experiments.bundle_self_s": own.get("experiments.run_experiment", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(r[key] for r in rounds) for key in rounds[0]}

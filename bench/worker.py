"""The timed phase: runs rounds of `ctbn-sentry` command lines in this process.

Started by run.py as `python3 bench/worker.py PLAN`, where PLAN is a JSON file
holding the round (a list of argument lists), the output files to digest, the
measuring time and whether to trace.  The worker imports the program (part of
set-up), then runs whole rounds until the time is used, and writes the round
times, the failed operations, a digest of each round's outputs and, when
tracing, the per-layer figures and spans to the plan's `result` path.

With tracing on, rounds alternate between untraced and traced, so that the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import tracing
from ctbn_sentry import cli


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        for f in sorted(Path(p).rglob("*")) if Path(p).is_dir() else [Path(p)]:
            if f.is_file():
                h.update(f.name.encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def run_round(ops: list[list[str]]) -> tuple[float, list[int]]:
    """Wall time of one round and the indices of the operations that failed."""
    failed = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for i, argv in enumerate(ops):
            try:
                code = cli.main(argv)
            except Exception:  # a crashing command is a failed operation
                traceback.print_exc()
                code = -1
            if code != 0:
                failed.append(i)
        elapsed = time.perf_counter() - start
    return elapsed, failed


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    tracer = tracing.Tracer() if trace else None
    result = {"start": time.clock_gettime(time.CLOCK_MONOTONIC),
              "walls": [], "traced_walls": [], "failed": [], "digests": [], "layers": []}
    deadline = time.perf_counter() + seconds
    rounds = 0
    wall = 0.0
    # start a round only while it is expected to end within the time
    while rounds < plan["min_rounds"] or time.perf_counter() + wall < deadline:
        gc.collect()
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            wall, failed = run_round(ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = [[n, s, e, p - first_span if p >= 0 else -1, c]
                     for n, s, e, p, c in tracer.spans[first_span:]]
            result["layers"].append(tracing.layer_metrics(spans))
        (result["traced_walls"] if traced else result["walls"]).append(wall)
        result["failed"].append(failed)
        result["digests"].append(_digest(plan["outputs"]))
        rounds += 1
    if tracer is not None:
        result["layers"] = tracing.median_metrics(result["layers"])
        result["overhead_pct"] = 100.0 * (median(result["traced_walls"])
                                          / median(result["walls"]) - 1.0)
        Path(plan["trace_file"]).write_text(json.dumps(tracer.spans))
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

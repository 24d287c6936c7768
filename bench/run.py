"""Benchmark of the ctbn-sentry command line; see bench/README.md.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs for the seed, then starts the worker
process (bench/worker.py), which imports the program and runs whole rounds of
`ctbn-sentry` commands for about S seconds.  The outputs of the last round
are checked against the benchmark's own oracles.  The last line printed is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import time

START = time.clock_gettime(time.CLOCK_MONOTONIC)  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = BENCH.parent / "BENCHMARK.json"  # metric names and units
OUT = BENCH / "out"
WORKER_TIMEOUT = 170.0  # seconds past the measuring time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(plan: dict, work: Path) -> tuple[dict, float]:
    """Run the timed phase in a child process; its result and peak RSS in MiB."""
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
        env=env, stdout=subprocess.DEVNULL, timeout=plan["seconds"] + WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    # the worker is the only child this process waits for
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return json.loads(Path(plan["result"]).read_text()), peak_mib


def check_outputs(ops, failed_ops: set[int], result: dict) -> tuple[bool, float]:
    """Run every operation's check; the verdict and the largest solver residual."""
    import workloads

    correct = len(set(result["digests"])) == 1
    if not correct:
        print("check failed: outputs differ between rounds", file=sys.stderr)
    residual = 0.0
    for i, op in enumerate(ops):
        if i in failed_ops:
            continue
        try:
            seen = op.check()
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            print(f"check failed: {' '.join(op.argv[:2])}: {exc}", file=sys.stderr)
            correct = False
            continue
        residual = max(residual, seen.get("residual", 0.0))
    return correct, residual


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctbn_sentry" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work)
        plan = {
            "ops": [op.argv for op in ops],
            "outputs": [str(work / "out")],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_rounds": 4 if args.trace else 3,
            "result": str(work / "result.json"),
            "trace_file": str(OUT / f"spans-{args.workload}-seed{args.seed}.json"),
        }
        result, peak_mib = run_worker(plan, work)
        failed_per_round = result["failed"]
        failed_ops = {i for failed in failed_per_round for i in failed}
        correct, residual = check_outputs(ops, failed_ops, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{tag}: round walls {[round(w, 3) for w in result['walls']]}, traced "
          f"{[round(w, 3) for w in result['traced_walls']]}", file=sys.stderr)
    if args.trace:
        values = dict(result["layers"], **{"sentry.solve_residual": residual,
                                           "trace.overhead_pct": result["overhead_pct"]})
    else:
        values = {"setup_s": result["start"] - START,
                  "wall_s": median(result["walls"]),
                  "peak_rss_mib": peak_mib}
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops) * len(failed_per_round),
        "failed": sum(len(f) for f in failed_per_round),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads: their inputs, their CLI calls and their checks.

`build(name, seed, work)` is the set-up: it writes every input a workload
needs under `work` and returns the operations of one round.  An operation is
one `ctbn-sentry` command line plus a check of what it wrote.  Checks compare
the outputs with `oracles` or with properties the method must have; they
raise `CheckFailed` and return observations (the solver residual) that the
benchmark reports.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np
import oracles

from ctbn_sentry import DiGraph, build_replicator_ctbn, save_model

WORKLOADS = ("shapes-bundle", "mc-sentry", "exact-sweep", "alarm-log")

# shapes-bundle: the six built-in experiments at the default alpha and
# horizon, on a smaller analysis ensemble than the default 10 000.
SHAPES = ("chain3", "chain5", "cycle5", "fork5", "cycle-chain6", "complex9")
BUNDLE_TRAJECTORIES = 300
BUNDLE_ALPHA = 0.1
BUNDLE_T_END = 100.0
# top state with at most one active alarm, known by construction
BUNDLE_TOP_STATE = {"chain3": "100", "cycle-chain6": "001000"}
# The analysis ensemble's event total is a sum of N independent counts, so
# it lies within Z_EVENTS standard deviations of N E[N(T)] except with
# probability about 2e-9 per shape.
Z_EVENTS = 6.0

# mc-sentry: 8 192 states, past the 4 096-state exact cap.  A short horizon
# keeps a trajectory near 0.15 ms, so the 92 states take a few seconds.
MC_PROCESSES = 13
MC_ALPHA = 2.0
MC_T_END = 2.5
MC_EPSILON = 0.06
# chance that a correct estimator fails the z test somewhere in one run
MC_FAMILY_ERROR = 1e-6

# exact-sweep: 2^8 to 2^12 states; the seed draws rates and alpha.
EXACT_SHAPES = ("chain8", "tree10", "cycle-chain11", "chain12")

# alarm-log: planted cascades in a synthetic alarm log.
ALARMS = 8
ALARM_TRAJECTORIES = 1000
ALARM_EVENTS = 500  # per trajectory, at least
ALARM_THRESHOLD = 1.0
ALARM_MIN_LENGTH = 2

REL_TOL = 1e-9  # exact EDNT and REDNT against the sparse oracle
BACKWARD_ERROR = 1e-12  # ||r|| / (||A|| ||V|| + ||q||) of the dense solve


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    argv: list[str]
    check: Callable[[], dict]


def build(name: str, seed: int, work: Path) -> list[Op]:
    """Write the inputs of `name` for `seed` under `work`; return one round."""
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    if name == "shapes-bundle":
        return [_bundle_op(shape, seed, out / shape) for shape in SHAPES]
    if name == "mc-sentry":
        return [_mc_op(seed, work, out)]
    if name == "exact-sweep":
        rng = random.Random(seed)
        return [_exact_op(shape, rng, work, out) for shape in EXACT_SHAPES]
    return [_alarm_op(seed, work, out)]


# -- model inputs ---------------------------------------------------------------


def replicator_graph(shape: str) -> tuple[DiGraph, set[str]]:
    """A named shape with its slow processes: chainN, treeN or cycle-chainN."""
    kind, digits = re.fullmatch(r"([a-z-]+)(\d+)", shape).groups()
    n = int(digits)
    names = tuple(f"P{i:02d}" for i in range(n))
    if kind == "chain":
        edges, slow = list(zip(names[:-1], names[1:])), {names[0]}
    elif kind == "tree":
        edges, slow = [(names[(i - 1) // 2], names[i]) for i in range(1, n)], {names[0]}
    elif kind == "cycle-chain":
        edges = [(names[0], names[1]), (names[1], names[2]), (names[2], names[0])]
        edges += list(zip(names[2:-1], names[3:]))
        slow = set(names[:3])
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return DiGraph(names, tuple(edges)), slow


def _write_replicator(path: Path, shape: str, slow_rate, fast: float, base: float) -> dict:
    graph, slow = replicator_graph(shape)
    save_model(build_replicator_ctbn(graph, slow, slow_rate, fast, base), path)
    return json.loads(path.read_text())


# -- readers ----------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * abs(b)


# -- shared checks ----------------------------------------------------------------


def check_exact_report(path: Path, doc: dict, alpha: float) -> float:
    """Every state once; EDNT and REDNT equal the oracle's; REDNT >= 1 and
    sorted descending; the dense solve's residual is small.  Returns the
    residual ||(alpha I - Q) V - q||_inf."""
    rows = _rows(path)
    cards = [p["cardinality"] for p in doc["processes"]]
    want = oracles.ednt(doc, alpha)
    ratio = oracles.rednt(want, cards)
    mult = oracles.place_values(cards)
    got = [0.0] * len(want)
    seen = set()
    for row in rows:
        i = int(sum(int(ch) * m for ch, m in zip(row["state_bits"], mult)))
        seen.add(i)
        got[i] = float(row["ednt"])
        _require(_close(got[i], want[i]),
                 f"{path.name}: EDNT of {row['state_bits']} is {got[i]}, oracle {want[i]}")
        value = float(row["rednt"])
        _require(value >= 1.0, f"{path.name}: REDNT {value} < 1 at {row['state_bits']}")
        _require(_close(value, ratio[i]),
                 f"{path.name}: REDNT of {row['state_bits']} is {value}, oracle {ratio[i]}")
        _require(int(row["active_alarms"]) == row["state_bits"].count("1"),
                 f"{path.name}: active_alarms wrong at {row['state_bits']}")
    _require(len(rows) == len(want) == len(seen),
             f"{path.name}: {len(rows)} rows for {len(want)} states")
    values = [float(r["rednt"]) for r in rows]
    _require(all(a >= b for a, b in zip(values, values[1:])),
             f"{path.name}: rows not sorted by REDNT")
    Q, q = oracles.generator(doc)
    v = np.array(got)
    res = float(np.abs(alpha * v - Q @ v - q).max())
    scale = (alpha + 2.0 * q.max()) * np.abs(v).max() + q.max()
    _require(res <= BACKWARD_ERROR * scale,
             f"{path.name}: residual {res:.3g} above {BACKWARD_ERROR * scale:.3g}")
    return res


def check_top_state(path: Path, expected: str) -> None:
    """The first row with at most one active alarm is `expected`."""
    top = next((r["state_bits"] for r in _rows(path) if int(r["active_alarms"]) <= 1), None)
    _require(top == expected, f"{path.name}: top low-activity state {top}, expected {expected}")


# -- shapes-bundle ------------------------------------------------------------------


def _bundle_op(shape: str, seed: int, out: Path) -> Op:
    argv = ["experiment", shape, "--seed", str(seed),
            "--trajectories", str(BUNDLE_TRAJECTORIES),
            "--alpha", repr(BUNDLE_ALPHA), "--t-end", repr(BUNDLE_T_END),
            "--out", str(out)]
    return Op(argv, lambda: check_bundle(out, shape))


def check_bundle(out: Path, shape: str) -> dict:
    doc = json.loads((out / "model.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    res = check_exact_report(out / "sentry.csv", doc, BUNDLE_ALPHA)
    if shape in BUNDLE_TOP_STATE:
        check_top_state(out / "sentry.csv", BUNDLE_TOP_STATE[shape])
    check_naive_events(out / "naive_scores.csv", doc)
    check_display_cascades(out / "cascades.csv", out / "trajectories.csv",
                           manifest["fast_threshold"], manifest["min_cascade_length"])
    check_comparison(out / "comparison.csv", out / "sentry.csv",
                     out / "naive_scores.csv", manifest["max_active"])
    return {"residual": res}


def check_naive_events(path: Path, doc: dict) -> None:
    """Counts never exceed visits, and visits minus one entry per trajectory
    (the events) match N E[N(T)] within Z_EVENTS standard deviations."""
    rows = _rows(path)
    for r in rows:
        _require(int(r["naive_count"]) <= int(r["visits"]),
                 f"{path.name}: count above visits at {r['state_bits']}")
    mean, square = oracles.event_moments(doc, BUNDLE_T_END)
    start = oracles.initial_index(doc)
    n = BUNDLE_TRAJECTORIES
    events = sum(int(r["visits"]) for r in rows) - n
    spread = Z_EVENTS * (n * (square[start] - mean[start] ** 2)) ** 0.5
    _require(abs(events - n * mean[start]) <= spread,
             f"{path.name}: {events} events, expected {n * mean[start]:.1f} +- {spread:.1f}")


def expected_cascades(trajectories: Path, threshold: float, min_length: int) -> list[tuple]:
    """Cascade windows of an ensemble CSV by the benchmark's own detection."""
    by_id: dict[int, list[tuple[float, str, int]]] = {}
    for r in _rows(trajectories):
        by_id.setdefault(int(r["trajectory_id"]), []).append(
            (float(r["time"]), r["process"], int(r["state"])))
    out = []
    for tid in sorted(by_id):
        rows = by_id[tid]
        names = [name for t, name, _ in rows if t == 0.0]
        state = {name: s for t, name, s in rows if t == 0.0}
        events = [(t, name, s) for t, name, s in rows if t != 0.0]
        runs = oracles.fast_runs([t for t, _, _ in events], threshold, min_length)
        done = 0
        for first, last in runs:
            for _, name, s in events[done:first]:
                state[name] = s
            done = first
            bits = "".join(str(state[n]) for n in names)
            out.append((tid, events[first][0], events[last][0], last - first + 1, bits))
    return out


def _cascade_rows(path: Path) -> list[tuple]:
    return [(int(r["trajectory_id"]), float(r["start_time"]), float(r["end_time"]),
             int(r["length"]), r["sentry_state_bits"]) for r in _rows(path)]


def check_display_cascades(path: Path, trajectories: Path, threshold: float,
                           min_length: int) -> None:
    want = expected_cascades(trajectories, threshold, min_length)
    _require(_cascade_rows(path) == want,
             f"{path.name}: windows differ from detection on {trajectories.name}")


def check_comparison(path: Path, sentry: Path, naive: Path, max_active: int) -> None:
    """Jaccard@k of the REDNT and naive rankings of the low-activity states."""
    ranked = [(float(r["rednt"]), int(r["state_bits"], 2), r["state_bits"])
              for r in _rows(sentry) if int(r["active_alarms"]) <= max_active]
    rednt_list = [bits for _, _, bits in sorted(ranked, key=lambda e: (-e[0], e[1]))]
    scores = {r["state_bits"]: (float(r["naive_score"]), int(r["naive_count"]))
              for r in _rows(naive)}
    naive_list = sorted(rednt_list, key=lambda b: (-scores.get(b, (0.0, 0))[0],
                                                   -scores.get(b, (0.0, 0))[1], int(b, 2)))
    want = [(k, oracles.jaccard(rednt_list, naive_list, k))
            for k in range(1, len(rednt_list) + 1)]
    got = [(int(r["k"]), float(r["jaccard"])) for r in _rows(path)]
    _require(len(got) == len(want) and all(
        a[0] == b[0] and abs(a[1] - b[1]) <= 1e-12 for a, b in zip(got, want)),
        f"{path.name}: {got} differs from recomputed {want}")


# -- mc-sentry ----------------------------------------------------------------------


def _mc_op(seed: int, work: Path, out: Path) -> Op:
    model = work / "chain13.json"
    doc = _write_replicator(model, f"chain{MC_PROCESSES}", (1.0, 5.0), 15.0, 0.1)
    report = out / "sentry.csv"
    argv = ["sentry", str(model), "--alpha", repr(MC_ALPHA), "--t-end", repr(MC_T_END),
            "--epsilon", repr(MC_EPSILON), "--max-active", "1", "--seed", str(seed),
            "--out", str(report)]
    return Op(argv, lambda: check_mc(report, doc))


def mc_z(states: int) -> float:
    """Two-sided normal quantile that keeps the family error at MC_FAMILY_ERROR."""
    return NormalDist().inv_cdf(1.0 - MC_FAMILY_ERROR / (2 * states))


def check_mc(path: Path, doc: dict) -> dict:
    """The ranked states are exactly those with at most one active alarm, and
    every EDNT lies within z stderr of the finite-horizon oracle V_T."""
    rows = _rows(path)
    n = len(doc["processes"])
    low = ["0" * n] + [format(1 << j, f"0{n}b") for j in range(n)]
    _require(sorted(r["state_bits"] for r in rows) == sorted(low),
             f"{path.name}: ranked states are not the {n + 1} low-activity states")
    want = oracles.ednt_horizon(doc, MC_ALPHA, MC_T_END)
    z = mc_z(len(rows))
    for r in rows:
        est, se = float(r["ednt"]), float(r["ednt_stderr"])
        exact = want[int(r["state_bits"], 2)]
        _require(se > 0 and abs(est - exact) <= z * se,
                 f"{path.name}: EDNT {est} +- {se} at {r['state_bits']}, V_T {exact}")
    return {}


# -- exact-sweep ----------------------------------------------------------------------


def _exact_op(shape: str, rng: random.Random, work: Path, out: Path) -> Op:
    slow = (rng.uniform(0.5, 1.5), rng.uniform(3.0, 7.0))
    fast, base, alpha = rng.uniform(10.0, 20.0), rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.3)
    model = work / f"{shape}.json"
    doc = _write_replicator(model, shape, slow, fast, base)
    report = out / f"{shape}.csv"
    argv = ["sentry", str(model), "--exact", "--alpha", repr(alpha), "--out", str(report)]
    return Op(argv, lambda: check_exact(report, doc, alpha, shape))


def check_exact(path: Path, doc: dict, alpha: float, shape: str) -> dict:
    res = check_exact_report(path, doc, alpha)
    if shape.startswith("chain"):
        check_top_state(path, "1" + "0" * (len(doc["processes"]) - 1))
    return {"residual": res}


# -- alarm-log ------------------------------------------------------------------------


@dataclass
class PlantedLog:
    windows: list[tuple]  # (trajectory, start, end, length, launch bits)
    counts: Counter
    visits: Counter


def plant_alarm_log(path: Path, seed: int, trajectories: int = ALARM_TRAJECTORIES,
                    events: int = ALARM_EVENTS) -> PlantedLog:
    """Write an ensemble CSV of alarm toggles with cascades at known places.

    Each episode is a slow trigger (gap 2 to 12 thresholds) followed by no
    fast event (half the episodes), one fast event, which is too short to
    count (15%), or a cascade of 2 to 6 fast events (gap 0.05 to 0.6
    thresholds) rippling along the alarms after the trigger.  Gaps keep a
    margin of 0.4 thresholds from the cut, far above rounding error.
    """
    rng = random.Random(seed)
    names = [f"TAG{j:02d}" for j in range(ALARMS)]
    truth = PlantedLog([], Counter(), Counter())

    def toggle(j):
        state[j] ^= 1
        truth.visits["".join(map(str, state))] += 1
        lines.append(f"{tid},{t!r},{names[j]},{state[j]}\n")

    with open(path, "w") as fh:
        fh.write("trajectory_id,time,process,state\n")
        for tid in range(trajectories):
            state = [rng.randrange(2) for _ in names]
            lines = [f"{tid},0.0,{name},{v}\n" for name, v in zip(names, state)]
            truth.visits["".join(map(str, state))] += 1
            t = 0.0
            count = 0
            while count < events:
                t += rng.uniform(2.0, 12.0) * ALARM_THRESHOLD
                trigger = rng.randrange(ALARMS)
                toggle(trigger)
                u = rng.random()
                length = 0 if u < 0.5 else 1 if u < 0.65 else rng.randint(2, 6)
                launch = "".join(map(str, state))
                for i in range(length):
                    t += rng.uniform(0.05, 0.6) * ALARM_THRESHOLD
                    if i == 0:
                        first = t
                    toggle((trigger + i + 1) % ALARMS)
                if length >= ALARM_MIN_LENGTH:
                    truth.windows.append((tid, first, t, length, launch))
                    truth.counts[launch] += 1
                count += 1 + length
            fh.writelines(lines)
    return truth


def _alarm_op(seed: int, work: Path, out: Path) -> Op:
    log = work / "alarm_log.csv"
    truth = plant_alarm_log(log, seed)
    cascades, scores = out / "cascades.csv", out / "naive_scores.csv"
    argv = ["cascades", str(log), "--fast-threshold", repr(ALARM_THRESHOLD),
            "--min-length", str(ALARM_MIN_LENGTH),
            "--out-cascades", str(cascades), "--out-scores", str(scores)]
    return Op(argv, lambda: check_alarm_log(cascades, scores, truth))


def check_alarm_log(cascades: Path, scores: Path, truth: PlantedLog) -> dict:
    _require(_cascade_rows(cascades) == truth.windows,
             f"{cascades.name}: windows differ from the planted cascades")
    got = {r["state_bits"]: (int(r["naive_count"]), int(r["visits"]), float(r["naive_score"]))
           for r in _rows(scores)}
    want = {bits: (truth.counts[bits], v, truth.counts[bits] / v)
            for bits, v in truth.visits.items()}
    _require(got == want, f"{scores.name}: counts or visits differ from the planted log")
    return {}

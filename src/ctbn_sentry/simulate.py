"""Trajectory sampling by competing exponential clocks.

Each process holds a pending transition time drawn from its current exit
rate; the earliest clock fires, the transitioning process draws its next
local state, and the clocks of the transitioned process and its children are
regenerated (their rates may have changed; untouched clocks stay valid by
memorylessness).  The first event past ``t_end`` is discarded.

Reproducibility contract: a trajectory is fully determined by
(model, initial state, t_end, seed).  Ensemble member k uses
``derive_seed(master_seed, k)``, so results are independent of evaluation
order.
"""

from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass
from math import inf, log
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import CtbnModel, require_valid, state_index

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One splitmix64 avalanche step (the standard 64-bit mixing constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _check_horizon(t_end: float) -> None:
    """The one horizon rule: finite and non-negative (NaN would never stop a run)."""
    if not (t_end >= 0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic 64-bit stream seed for (master_seed, index path).

    Folds each index into the avalanched master with an odd-constant offset
    (so index 0 is distinct from no index at all).  This single mixing rule
    is the bit-reproducibility contract for every randomized routine in the
    package: trajectory k of an ensemble uses ``derive_seed(master, k)``, and
    trajectory k of every Monte Carlo estimate from a state x (``ednt_mc``,
    ``stopping_rule_ednt``, ``discounted_reward_mc``) uses
    ``derive_seed(master, state_index(x), k)``.
    """
    s = _splitmix64(master_seed & _MASK64)
    for i in indices:
        s = _splitmix64((s + ((i & _MASK64) + 1) * 0x9E3779B97F4A7C15) & _MASK64)
    return s


class Event(NamedTuple):
    """A single-component transition: at `time`, `process` moved to `new_local_state`."""

    time: float
    process: int
    new_local_state: int


@dataclass(frozen=True)
class Trajectory:
    """A right-continuous piecewise-constant realization on [0, t_end].

    Events are stored as parallel arrays (times strictly increasing, one
    process change per event) to keep large ensembles cheap.
    """

    initial_state: tuple[int, ...]
    times: np.ndarray
    processes: np.ndarray
    new_states: np.ndarray
    t_end: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "processes", np.asarray(self.processes, dtype=np.int16))
        object.__setattr__(self, "new_states", np.asarray(self.new_states, dtype=np.int16))
        if times.size:
            if not np.isfinite(times).all() or times[0] <= 0.0 or (np.diff(times) <= 0).any():
                raise ValueError("event times must be finite, positive and strictly increasing")
            if times[-1] > self.t_end:
                raise ValueError("event beyond t_end")

    @property
    def event_count(self) -> int:
        return int(self.times.size)

    def iter_events(self) -> Iterator[Event]:
        for t, p, s in zip(self.times.tolist(), self.processes.tolist(),
                           self.new_states.tolist()):
            yield Event(t, p, s)


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble parameters: horizon, size, and the master seed."""

    t_end: float
    trajectory_count: int = 1
    master_seed: int = 0

    def __post_init__(self):
        _check_horizon(self.t_end)
        if self.trajectory_count < 1:
            raise ValueError("trajectory_count must be >= 1")


# -- compiled sampling tables --------------------------------------------------


class _Tables(NamedTuple):
    n: int
    parents: tuple[tuple[int, ...], ...]
    pmults: tuple[tuple[int, ...], ...]
    # rows[j][config][local] = (exit_rate, targets, cumulative_rates)
    rows: tuple
    affected: tuple[tuple[int, ...], ...]
    initial_state: tuple[int, ...] | None
    initial_cum: tuple | None  # (cumulative probs, state tuples) for a distribution


def _compile(model: CtbnModel) -> _Tables:
    require_valid(model)
    rows = []
    for j, cim in enumerate(model.cims):
        per_config = []
        for cfg in range(cim.parent_config_count):
            per_local = []
            for local in range(model.cardinalities[j]):
                raw = cim.matrices[cfg][local]
                targets = tuple(s for s in range(model.cardinalities[j])
                                if s != local and raw[s] > 0.0)
                rates = [float(raw[s]) for s in targets]
                exit_rate = float(sum(rates))
                cum = []
                acc = 0.0
                for r in rates:
                    acc += r
                    cum.append(acc)
                per_local.append((exit_rate, targets, tuple(cum)))
            per_config.append(tuple(per_local))
        rows.append(tuple(per_config))
    affected = tuple(
        tuple(sorted({j, *model.children_indices[j]})) for j in range(model.process_count)
    )
    initial_cum = None
    if model.initial_distribution is not None:
        cums = np.cumsum(model.initial_distribution).tolist()
        states = itertools.product(*(range(c) for c in model.cardinalities))
        initial_cum = tuple(zip(cums, states))
    return _Tables(
        n=model.process_count,
        parents=model.parent_indices,
        pmults=model.parent_multipliers,
        rows=tuple(rows),
        affected=affected,
        initial_state=model.initial_state,
        initial_cum=initial_cum,
    )


def _exponential(rng: random.Random, rate: float) -> float:
    if rate <= 0.0:
        return inf
    u = rng.random()
    while u <= 0.0:  # keep waiting times strictly positive
        u = rng.random()
    return -log(u) / rate


def _draw_initial(tables: _Tables, rng: random.Random) -> list[int]:
    if tables.initial_state is not None:
        return list(tables.initial_state)
    u = rng.random()
    for cum, state in tables.initial_cum:
        if u < cum:
            return list(state)
    return list(tables.initial_cum[-1][1])


def _run_events(tables: _Tables, values: list[int], t_end: float,
                rng: random.Random) -> list[tuple[float, int, int]]:
    """Core competing-clocks loop; mutates `values` to the final state."""
    n = tables.n
    if n == 0:
        return []
    rows = tables.rows
    parents = tables.parents
    pmults = tables.pmults
    affected = tables.affected

    current = [None] * n
    clocks = [0.0] * n
    for j in range(n):
        cfg = 0
        for p, m in zip(parents[j], pmults[j]):
            cfg += values[p] * m
        row = rows[j][cfg][values[j]]
        current[j] = row
        clocks[j] = _exponential(rng, row[0])

    out: list[tuple[float, int, int]] = []
    append = out.append
    rand = rng.random
    while True:
        j = 0
        best = clocks[0]
        for i in range(1, n):  # ties resolve to the lowest process index
            c = clocks[i]
            if c < best:
                best = c
                j = i
        if best > t_end:
            return out
        exit_rate, targets, cum = current[j]
        if len(targets) == 1:
            s = targets[0]
        else:
            u = rand() * exit_rate
            s = targets[-1]
            for k, threshold in enumerate(cum):
                if u < threshold:
                    s = targets[k]
                    break
        values[j] = s
        append((best, j, s))
        for i in affected[j]:
            cfg = 0
            for p, m in zip(parents[i], pmults[i]):
                cfg += values[p] * m
            row = rows[i][cfg][values[i]]
            current[i] = row
            clocks[i] = best + _exponential(rng, row[0])


def _to_trajectory(initial: Sequence[int], raw: list[tuple[float, int, int]],
                   t_end: float) -> Trajectory:
    if raw:
        times = np.fromiter((e[0] for e in raw), dtype=float, count=len(raw))
        procs = np.fromiter((e[1] for e in raw), dtype=np.int16, count=len(raw))
        states = np.fromiter((e[2] for e in raw), dtype=np.int16, count=len(raw))
    else:
        times = np.empty(0, dtype=float)
        procs = np.empty(0, dtype=np.int16)
        states = np.empty(0, dtype=np.int16)
    return Trajectory(tuple(initial), times, procs, states, float(t_end))


def sample_trajectory(model: CtbnModel, initial: Sequence[int] | None,
                      t_end: float, seed: int) -> Trajectory:
    """One trajectory from `initial` (default: the model's initial condition)."""
    _check_horizon(t_end)
    tables = _compile(model)
    return _sample_one(model, tables, initial, t_end, seed)


def _sample_one(model: CtbnModel, tables: _Tables, initial, t_end, seed) -> Trajectory:
    rng = random.Random(seed)
    if initial is None:
        values = _draw_initial(tables, rng)
    else:
        state_index(initial, model)  # range check
        values = [int(v) for v in initial]
    start = tuple(values)
    raw = _run_events(tables, values, float(t_end), rng)
    return _to_trajectory(start, raw, t_end)


def sample_ensemble(model: CtbnModel, initial: Sequence[int] | None,
                    config: SimulationConfig) -> list[Trajectory]:
    """Independent trajectories; member k is seeded with derive_seed(master, k)."""
    tables = _compile(model)
    return [
        _sample_one(model, tables, initial, config.t_end,
                    derive_seed(config.master_seed, k))
        for k in range(config.trajectory_count)
    ]


def state_at(trajectory: Trajectory, t: float) -> tuple[int, ...]:
    """Right-continuous evaluation: the state after the last event at time <= t."""
    if not 0.0 <= t <= trajectory.t_end:
        raise ValueError(f"t={t} outside [0, {trajectory.t_end}]")
    k = int(np.searchsorted(trajectory.times, t, side="right"))
    values = list(trajectory.initial_state)
    for i in range(k):
        values[trajectory.processes[i]] = int(trajectory.new_states[i])
    return tuple(values)


# -- trajectory CSV ------------------------------------------------------------

format_float = "{:.17g}".format  # 17 significant digits round-trip float64 exactly


def write_trajectory_csv(trajectory: Trajectory, path, process_names: Sequence[str]) -> None:
    """Single-trajectory CSV: initial-state rows at time 0.0, then events."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "process", "state"])
        _write_rows(w, trajectory, process_names, prefix=())


def write_ensemble_csv(trajectories: Iterable[Trajectory], path,
                       process_names: Sequence[str]) -> None:
    """Concatenated CSV with a trajectory_id column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trajectory_id", "time", "process", "state"])
        for k, traj in enumerate(trajectories):
            _write_rows(w, traj, process_names, prefix=(k,))


def _write_rows(w, trajectory: Trajectory, names: Sequence[str], prefix: tuple) -> None:
    for j, v in enumerate(trajectory.initial_state):
        w.writerow([*prefix, "0.0", names[j], v])
    for t, p, s in zip(trajectory.times.tolist(), trajectory.processes.tolist(),
                       trajectory.new_states.tolist()):
        w.writerow([*prefix, format_float(t), names[p], s])


def _rows_to_trajectory(rows: list[tuple[float, str, int]], name_order: list[str],
                        t_end: float | None, where: str) -> Trajectory:
    name_to_idx = {n: i for i, n in enumerate(name_order)}
    initial = [0] * len(name_order)
    events: list[tuple[float, int, int]] = []
    try:
        for t, name, s in rows:
            if t == 0.0:
                initial[name_to_idx[name]] = s
            else:
                events.append((t, name_to_idx[name], s))
    except KeyError as exc:
        raise ValueError(
            f"process {exc.args[0]!r} in {where} is not declared by a time-0 row "
            f"(declared: {', '.join(name_order)})") from None
    end = t_end if t_end is not None else (events[-1][0] if events else 0.0)
    return _to_trajectory(initial, events, end)


def read_trajectory_csv(path, t_end: float | None = None) -> tuple[Trajectory, list[str]]:
    """Load a single-trajectory CSV; returns (trajectory, process name order).

    Process order is taken from the time-0.0 initial rows.  ``t_end``
    defaults to the last event time (the CSV does not carry the horizon).
    """
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header[:3] != ["time", "process", "state"]:
            raise ValueError(f"unexpected trajectory CSV header: {header}")
        rows = [(float(t), name, int(s)) for t, name, s in r]
    names = [name for t, name, _ in rows if t == 0.0]
    return _rows_to_trajectory(rows, names, t_end, str(path)), names


def read_ensemble_csv(path, t_end: float | None = None) -> tuple[list[Trajectory], list[str]]:
    """Load a concatenated ensemble CSV; returns (trajectories, process names)."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header[:4] != ["trajectory_id", "time", "process", "state"]:
            raise ValueError(f"unexpected ensemble CSV header: {header}")
        groups: dict[int, list[tuple[float, str, int]]] = {}
        for tid, t, name, s in r:
            groups.setdefault(int(tid), []).append((float(t), name, int(s)))
    if not groups:
        return [], []
    first = groups[min(groups)]
    names = [name for t, name, _ in first if t == 0.0]
    return [
        _rows_to_trajectory(groups[tid], names, t_end, f"trajectory {tid}")
        for tid in sorted(groups)
    ], names

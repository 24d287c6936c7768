"""Trajectory sampling by the direct method, one numpy step per event.

Every live trajectory of an ensemble advances together: each step gathers the
rates of all candidate transitions (process j to local state s) from the
model's :class:`~ctbn_sentry.model.RateTable` by mixed-radix index
arithmetic, draws the holding time from the total exit rate and picks the
transition in proportion to its rate (Gillespie 1977, the direct method).
The first event past ``t_end`` is discarded, and a trajectory with exit rate
0 stops.  An :class:`Ensemble` holds the result as flat arrays; a
:class:`Trajectory` is a view of one member.

When the joint space is small, a step skips the gather: it reads the
model's :class:`~ctbn_sentry.model.FlatTable`, the one move table that
:func:`~ctbn_sentry.model.intensity_matrix` also reads, summed along each
row (in a step's order, so bit-equal).  It holds real moves only, no
diagonal or padding.  It is built once per model, on the first sampling
step, and only when it fits ``FLAT_TABLE_BYTES``; a larger model takes the
general path.  Both paths make the same draws and picks, so every
trajectory is the same on either.  A wide step on either path picks its
moves by a binary search of the cumulative rates where they lie
(:func:`_pick`), so it copies no row of the table.

A run may be narrower than its trajectories: at most `width` run at once,
and each step admits pending trajectories, in key order, into the slots of
those that finished.  A Monte Carlo round is one such run, ``MC_CALL_BYTES``
wide, counted per trajectory on the path taken (:func:`_step_bytes`), so it
stays at full width until its queue drains; a sample runs every trajectory
at once.

Randomness comes from a counter-based stream: draw c of a trajectory with
key s is output c of the SplitMix64 generator seeded with s, computed for
all trajectories at once in uint64 arithmetic (Salmon et al. 2011).  Draw 0
picks the initial state when it is drawn from the model's distribution;
event i uses draws 1 + 2i (holding time) and 2 + 2i (transition).  A
running trajectory carries its stream, advanced past the draws it used, so
its events do not depend on when it was admitted or on what runs beside it.

Reproducibility contract: a trajectory is fully determined by
(model, initial state, t_end, key).  Ensemble member k has key
``derive_seed(master_seed, k)``, so an ensemble equals its single draws
(``sample_trajectory`` with that seed) and does not depend on its size.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import itertools
import numbers
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (CtbnModel, RateTable, _check_states, _place_values, state_bits,
                    states_from_indices)

_MASK64 = (1 << 64) - 1
# Largest FlatTable the engine builds, in bytes: 16 MiB holds a binary model
# of up to 16 processes.  A larger model samples by the general path.
FLAT_TABLE_BYTES = 1 << 24
# Candidates (rows x moves) below which a step copies the survivors' rows to
# pick a move, 36 KiB with the comparison: fewer numpy calls than a binary
# search, which wins from about 10 000 candidates on.
_COPY_ENTRIES = 1 << 12


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


def _gaps(times: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The gap before every event; NaN before a member's first event (event
    ``offsets[k]``), which has no predecessor."""
    gaps = np.diff(times, prepend=np.nan)
    heads = offsets[:-1]
    gaps[heads[heads < gaps.size]] = np.nan
    return gaps


def _check_times(times: np.ndarray, offsets: np.ndarray, t_end: float) -> None:
    """The one rule for event times: the events of each member (those from
    ``offsets[k]`` on) are finite, positive, strictly increasing and at most
    ``t_end``."""
    # every gap and every time positive; the NaN gap before a first event compares false
    if not np.isfinite(times).all() or (_gaps(times, offsets) <= 0).any() or (times <= 0).any():
        raise ValueError("event times must be finite, positive and strictly increasing")
    if times.max(initial=-np.inf) > t_end:
        raise ValueError("event beyond t_end")


@dataclass(frozen=True)
class Trajectory:
    """A right-continuous piecewise-constant realization on [0, t_end].

    Events are stored as parallel arrays (times strictly increasing, one
    process change per event); a member of an :class:`Ensemble` is a view of
    the ensemble's arrays.
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
        _check_times(times, np.array([0, times.size]), self.t_end)

    @property
    def event_count(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble parameters: horizon, size, and the master seed."""

    t_end: float
    trajectory_count: int = 1
    master_seed: int = 0

    def __post_init__(self):
        _check_horizon(self.t_end)
        for name in ("trajectory_count", "master_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trajectory_count < 1:
            raise ValueError("trajectory_count must be >= 1")


# -- the ensemble --------------------------------------------------------------


@dataclass(frozen=True)
class Ensemble:
    """Trajectories as flat arrays: the events of member k are entries
    ``offsets[k]:offsets[k + 1]`` of `times`, `processes` and `new_states`.

    ``ids`` names the members in reports: the trajectory ids of the file an
    ensemble was read from, else the member ordinals.  Indexing and iteration
    give :class:`Trajectory` views of the members.
    """

    times: np.ndarray
    processes: np.ndarray
    new_states: np.ndarray
    offsets: np.ndarray
    initial_states: np.ndarray  # (members, processes)
    t_end: float
    ids: np.ndarray | None = None

    def __post_init__(self):
        if self.ids is None:
            object.__setattr__(self, "ids", np.arange(len(self.offsets) - 1))
        for name, dtype in (("times", float), ("processes", np.int16),
                            ("new_states", np.int16), ("offsets", np.int64),
                            ("initial_states", np.int16), ("ids", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        _check_times(self.times, self.offsets, self.t_end)
        if (self.new_states < 0).any() or (self.initial_states < 0).any():
            raise ValueError("local states must be non-negative")
        if self.ids.shape != (len(self),):
            raise ValueError(f"{self.ids.size} ids for {len(self)} members")

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, k: int | slice) -> Trajectory | Ensemble:
        """Member k as a trajectory, or a slice of members as an ensemble."""
        if isinstance(k, slice):
            lo, hi, step = k.indices(len(self))
            if step != 1:
                raise ValueError("an ensemble slice takes consecutive members")
            hi = max(lo, hi)
            a, b = self.offsets[lo], self.offsets[hi]
            return _checked(Ensemble, times=self.times[a:b], processes=self.processes[a:b],
                            new_states=self.new_states[a:b],
                            offsets=self.offsets[lo:hi + 1] - a,
                            initial_states=self.initial_states[lo:hi], t_end=self.t_end,
                            ids=self.ids[lo:hi])
        k = range(len(self))[k]
        a, b = self.offsets[k], self.offsets[k + 1]
        return _checked(Trajectory, initial_state=tuple(self.initial_states[k].tolist()),
                        times=self.times[a:b], processes=self.processes[a:b],
                        new_states=self.new_states[a:b], t_end=self.t_end)

    def __iter__(self) -> Iterator[Trajectory]:
        return map(self.__getitem__, range(len(self)))

    @property
    def event_count(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory]) -> Ensemble:
        """Pack trajectories (of one model) into one ensemble; an ensemble
        passes through unchanged."""
        if isinstance(trajectories, Ensemble):
            return trajectories
        trajs = list(trajectories)
        empty = np.empty(0)
        return cls(
            np.concatenate([t.times for t in trajs] or [empty]),
            np.concatenate([t.processes for t in trajs] or [empty]),
            np.concatenate([t.new_states for t in trajs] or [empty]),
            np.cumsum([0] + [t.event_count for t in trajs]),
            np.array([t.initial_state for t in trajs]).reshape(len(trajs), -1 if trajs else 0),
            max((t.t_end for t in trajs), default=0.0),
        )


def _checked(cls, **fields):
    """A :class:`Trajectory` or :class:`Ensemble` of parts of a checked
    ensemble, as they are: its arrays were converted and its times checked
    where they entered (a constructor call, :meth:`Ensemble.from_trajectories`,
    the sampler or the CSV reader), so a slice or member view is not
    checked again."""
    view = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(view, name, value)
    return view


# -- the counter-based stream ----------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_DRAWS = np.uint64(2 * 0x9E3779B97F4A7C15 & _MASK64)  # a stream advanced past two draws


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 avalanche of :func:`_splitmix64` after its increment, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _stream(keys: np.ndarray, draws: Sequence[int]) -> np.ndarray:
    """Outputs `draws` (counted from 0) of the SplitMix64 generator seeded with
    each key, one row per key: ``_splitmix64(key + draw * GAMMA)`` in wrapping
    uint64 arithmetic.  The rows are a view of one row per draw, so numpy's
    loops run the length of `keys`."""
    return _mix((np.asarray(draws, dtype=np.uint64) + np.uint64(1))[:, None] * _GAMMA + keys).T


def _uniforms(keys: np.ndarray, draws: Sequence[int]) -> np.ndarray:
    """The `draws` of every key's stream as float64 in [0, 1): their top 53 bits."""
    return (_stream(keys, draws) >> np.uint64(11)) * 2.0 ** -53


def _member_keys(base, ks) -> np.ndarray:
    """``derive_seed(*path, k)`` for every k in `ks`, where ``base = derive_seed(*path)``
    (one base, or one per k): output k + 1 of the SplitMix64 generator seeded with `base`."""
    return _mix((np.asarray(ks, dtype=np.uint64) + np.uint64(2)) * _GAMMA
                + np.asarray(base, dtype=np.uint64))


# -- the engine -------------------------------------------------------------------


def _initial_states(model: CtbnModel, keys: np.ndarray,
                    initial: Sequence[int] | None) -> np.ndarray:
    """One start state per key: `initial`, else the model's initial state, else
    a draw from its initial distribution by draw 0."""
    if initial is None and model.initial_state is None:
        cum = np.cumsum(model.initial_distribution)
        index = np.minimum(np.searchsorted(cum, _uniforms(keys, [0])[:, 0], side="right"),
                           model.state_count - 1)
        return states_from_indices(index, model.cardinalities)
    state = _check_states(model.initial_state if initial is None else initial,
                          model.cardinalities)
    if state.ndim != 1:
        raise ValueError(f"expected one initial state, got an array of shape {state.shape}")
    return np.tile(state.astype(np.int64), (keys.size, 1))


def _flat(table: RateTable) -> bool:
    """Whether :func:`_steps` takes the flat path: the model's
    :class:`~ctbn_sentry.model.FlatTable` fits ``FLAT_TABLE_BYTES``."""
    return table.flat_bytes <= FLAT_TABLE_BYTES


def _step_bytes(table: RateTable) -> int:
    """Bytes :func:`_steps` holds per live trajectory at its peak on the path
    it takes, measured in the tests; a Monte Carlo engine run is
    ``MC_CALL_BYTES`` over this many trajectories wide.  A flat step holds
    about 24 vectors: it searches the table's rows where they are, or copies
    fewer than ``_COPY_ENTRIES`` of their entries (:func:`_pick`), a fixed
    36 KiB at most, which matters only to a narrow run.  A general step
    holds two copies of the gathered rates (processes x CIM width), of the
    state and of the row indices, and about 20 vectors.  A pending
    trajectory costs the engine nothing beyond its key and start row, which
    the caller holds."""
    if _flat(table):
        return 8 * 24
    n, width = table.weights.shape[0], table.rates.shape[1]
    return 8 * (2 * n * width + 4 * n + 20)


def _pick(cum: np.ndarray, rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """For each r, the count of entries of row ``rows[r]`` of `cum` that are
    at most ``target[r]``: the index of the first entry above it.  Rows are
    nondecreasing (sums of non-negative rates) and end above their target,
    so a binary search finds it, one vectorised probe per bit of the row
    length, without copying a row.  Below ``_COPY_ENTRIES`` entries in all,
    copying the rows and comparing them whole costs fewer numpy calls."""
    length, values = cum.shape[1], cum.ravel()
    if rows.size * length < _COPY_ENTRIES:
        return (cum.take(rows, axis=0) > target[:, None]).argmax(axis=1)
    first = rows * length
    last = first + (length - 1)
    at = first.copy()  # the entries before `at` are at most the target
    step = 1 << (length.bit_length() - 1)
    while step:
        probe = np.minimum(at + (step - 1), last)  # past the row's end: its last entry
        at += (values.take(probe) <= target) * at.dtype.type(step)  # no cast of the sum
        step >>= 1
    return at - first


def _steps(table: RateTable, keys: np.ndarray, start: np.ndarray, t_end: float,
           width: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """Advance trajectories one event per step until all have passed ``t_end``.

    Trajectory k has key ``keys[k]`` and starts from row k of `start` (local
    states of any integer dtype, read when k is admitted).  At most `width`
    run at once (None: all): each step first admits pending trajectories in
    key order, after the survivors, so a run stays at full width until its
    queue drains.  Each member carries its own stream, its key advanced past
    the draws it used, so its events do not depend on when it was admitted.

    Yields, per step, the members running (ascending) and the time, process
    and new local state of their next event; when all are admitted at once,
    step i yields event i of each.  The two paths differ only in the rows
    read and the state advance.  On the flat path the state is the joint
    index x: a step reads x's `total`, draws, drops the finished members,
    then picks from the survivors' `cum` rows (:func:`_pick`); pick c
    moves process ``process[c]`` to ``local[x, c]``, and x becomes
    ``next[x, c]``.  On the general path the state is the local states and
    CIM rows, and a step first gathers every member's rates, as the total
    needs them.
    """
    n = start.shape[1]
    flat = table.flat if _flat(table) else None
    if flat is None:  # local states and the CIM row of every process
        cols = table.rates.shape[1]

        def admit(rows):
            x = rows.astype(np.int64)
            return x, x @ table.weights + table.offsets
    else:  # the joint index
        place = np.array(_place_values(table.cardinalities), dtype=np.int32)

        def admit(rows):
            return ((rows @ place).astype(np.int32),)  # callers check start
    width = keys.size if width is None else width
    live = np.empty(0, dtype=np.int32)
    streams = np.empty(0, dtype=np.uint64)
    t = np.empty(0)
    state = admit(start[:0])
    admitted = 0
    while n:
        room = min(width - live.size, keys.size - admitted)
        if room > 0:
            new = slice(admitted, admitted + room)
            admitted += room
            live = np.concatenate((live, np.arange(new.start, new.stop, dtype=np.int32)))
            streams = np.concatenate((streams, keys[new] + _GAMMA))  # past draw 0
            t = np.concatenate((t, np.zeros(room)))
            state = tuple(map(np.concatenate, zip(state, admit(start[new]))))
        if not live.size:
            return
        if flat is None:  # every member's rates: the total needs them
            cum = table.rates.take(state[1], axis=0).reshape(live.size, -1).cumsum(axis=1)
            total = cum[:, -1]
        else:
            cum, total = flat.cum, flat.total.take(state[0])
        u = _uniforms(streams, (0, 1))  # holding time, transition
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t - np.log1p(-u[:, 0]) / total
        # the pick is the first candidate whose cumulative rate exceeds u * total;
        # where that rounds up to total, the float below it keeps the last positive rate
        target = u[:, 1] * total
        over = np.flatnonzero(target >= total)
        target[over] = np.nextafter(total[over], 0.0)
        del u, total
        ok = t <= t_end  # false past the horizon and where no process can move
        if not ok.all():
            live, streams, t, target, *state = (a[ok] for a in (live, streams, t, target, *state))
        # the survivors' rows: of every member's rates, or of the flat table
        pick = _pick(cum, np.flatnonzero(ok) if flat is None else state[0], target)
        del cum  # a general step's rates go before the next gather
        if flat is None:
            j, s = np.divmod(pick.astype(np.int32), np.int32(cols))
            x, rows = state
            at = np.arange(live.size)
            rows += (s - x[at, j])[:, None] * table.weights[j]
            x[at, j] = s
        else:
            at = state[0] * flat.process.size + pick  # (x, pick) in the flattened tables
            state = (flat.next.take(at),)
            j, s = flat.process.take(pick), flat.local.take(at).astype(np.int32)
        yield live, t, j, s
        streams += _TWO_DRAWS


def _sample(model: CtbnModel, keys: np.ndarray, initial: Sequence[int] | None,
            t_end: float) -> Ensemble:
    """One trajectory per key, packed into an ensemble."""
    table = model.rate_table
    start = _initial_states(model, keys, initial)
    counts = np.zeros(keys.size, dtype=np.int64)
    steps = []
    for i, (live, t, j, s) in enumerate(_steps(table, keys, start, t_end)):
        counts[live] = i + 1
        steps.append((t, j.astype(np.int16), s.astype(np.int16)))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.empty(offsets[-1])
    processes = np.empty(offsets[-1], dtype=np.int16)
    new_states = np.empty(offsets[-1], dtype=np.int16)
    for i, (t, j, s) in enumerate(steps):
        # event i of every member still running at step i
        at = offsets[:-1][counts > i] + i
        times[at], processes[at], new_states[at] = t, j, s
        steps[i] = None
    return Ensemble(times, processes, new_states, offsets, start, float(t_end))


def sample_trajectory(model: CtbnModel, initial: Sequence[int] | None,
                      t_end: float, seed: int) -> Trajectory:
    """One trajectory from `initial` (default: the model's initial condition)."""
    _check_horizon(t_end)
    return _sample(model, np.array([seed & _MASK64], dtype=np.uint64), initial, t_end)[0]


def sample_ensemble(model: CtbnModel, initial: Sequence[int] | None,
                    config: SimulationConfig) -> Ensemble:
    """Independent trajectories; member k is keyed by derive_seed(master, k)."""
    keys = _member_keys(derive_seed(config.master_seed), range(config.trajectory_count))
    return _sample(model, keys, initial, config.t_end)


def state_at(trajectory: Trajectory, t: float) -> tuple[int, ...]:
    """Right-continuous evaluation: the state after the last event at time <= t."""
    if not 0.0 <= t <= trajectory.t_end:
        raise ValueError(f"t={t} outside [0, {trajectory.t_end}]")
    k = int(np.searchsorted(trajectory.times, t, side="right"))
    values = list(trajectory.initial_state)
    for i in range(k):
        values[trajectory.processes[i]] = int(trajectory.new_states[i])
    return tuple(values)


# -- CSV tables ------------------------------------------------------------------

format_float = "{:.17g}".format  # 17 significant digits round-trip float64 exactly
_PART_EVENTS = 1 << 16  # events (or rows) per part: bounds scans' and writers' temporaries


def _parts(ensemble: Ensemble) -> Iterator[Ensemble]:
    """Consecutive member slices of at most ``_PART_EVENTS`` events (or one member)."""
    lo = 0
    while lo < len(ensemble):
        limit = ensemble.offsets[lo] + _PART_EVENTS
        hi = max(lo + 1, int(np.searchsorted(ensemble.offsets, limit, side="right")) - 1)
        yield ensemble[lo:hi]
        lo = hi


def _cells(column) -> tuple[str, list]:
    """A column's field in the row template and its cells: floats by
    ``%.17g``, the text of :data:`format_float`; integers by ``%d``; rows of
    local states as the text of :func:`~ctbn_sentry.model.state_bits`;
    anything else (strings, bools) as its ``str``."""
    column = np.asarray(column)
    if column.ndim == 2:
        return "%s", state_bits(column)
    return {"f": "%.17g", "i": "%d", "u": "%d"}.get(column.dtype.kind, "%s"), column.tolist()


def _write_table(path, header: Sequence[str], chunks: Iterable[Sequence]) -> None:
    """Write a CSV file: the header by ``csv.writer``, then the rows of each
    chunk of equal-length columns, ``_PART_EVENTS`` rows at a time, by one
    row template (see :func:`_cells`).  Rows end in ``\\r\\n``, as
    ``csv.writer``'s do.  String cells are written as they are, so a caller
    quotes a string that needs it (see :func:`_csv_field`).  ``writelines``
    takes the rows as they are formatted: no text of a whole chunk is held."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for columns in chunks:
            for lo in range(0, len(columns[0]), _PART_EVENTS):
                fields, cells = zip(*(_cells(c[lo:lo + _PART_EVENTS]) for c in columns))
                fh.writelines(map((",".join(fields) + "\r\n").__mod__, zip(*cells)))


def _csv_field(text: str) -> str:
    """`text` as ``csv.writer`` writes it in a row of several fields: quoted
    when it holds a comma, a quote or a line break."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[:-len(",\r\n")]


def _write_files(writes: Iterable[tuple[str | Path, Callable[[str | Path], object]]],
                 directory: Path | None = None) -> None:
    """Make `directory` if given, then call ``write(path)`` for each pair in
    order, all or nothing: if a step fails, the files and directories this
    call made are removed, and it raises.  A path that was there before
    (a file, a link, a device) is left in place, as the write left it."""
    made = [d for d in (directory, *directory.parents) if not d.exists()] if directory else []
    new = []  # the paths that were not there before their write
    try:
        if directory:
            directory.mkdir(parents=True, exist_ok=True)
        for path, write in writes:
            if not os.path.lexists(path):
                new.append(path)
            write(path)
    except BaseException:
        for path in [*new, *made]:  # files, then directories deepest first
            with contextlib.suppress(OSError):
                (os.rmdir if os.path.isdir(path) else os.remove)(path)
        raise


def _trajectory_rows(ensemble: Ensemble, names: Sequence[str]) -> Iterator[list]:
    """The id, time, process and state columns of an ensemble CSV, one chunk
    per part: each member's time-0 rows (time written 0.0), then its events.
    Times and process names are CSV text, the names quoted once each."""
    names = np.array([_csv_field(name) for name in names], dtype=object)
    for part in _parts(ensemble):
        members, n = part.initial_states.shape
        at = np.repeat(part.offsets[:-1], n)  # a member's time-0 rows go before its events
        times = np.insert(part.times, at, 0.0)
        time = np.array(list(map(format_float, times.tolist())), dtype=object)
        time[times == 0.0] = "0.0"  # event times are positive
        yield [np.repeat(part.ids, n + np.diff(part.offsets)), time,
               names[np.insert(part.processes, at, np.tile(np.arange(n), members))],
               np.insert(part.new_states, at, part.initial_states.ravel())]


def write_trajectory_csv(trajectory: Trajectory, path, process_names: Sequence[str]) -> None:
    """Single-trajectory CSV: initial-state rows at time 0.0, then events."""
    rows = _trajectory_rows(Ensemble.from_trajectories([trajectory]), process_names)
    _write_table(path, ["time", "process", "state"], (columns[1:] for columns in rows))


def write_ensemble_csv(trajectories: Iterable[Trajectory], path,
                       process_names: Sequence[str]) -> None:
    """Concatenated CSV with a trajectory_id column: the ensemble's ids."""
    _write_table(path, ["trajectory_id", "time", "process", "state"],
                 _trajectory_rows(Ensemble.from_trajectories(trajectories), process_names))


def _read_columns(path) -> tuple[np.ndarray, list[str]]:
    """Parse a trajectory CSV column by column: the header by ``csv.reader``,
    the rows by ``np.loadtxt``.  The header is ``time,process,state``, with
    or without a leading ``trajectory_id`` column.

    Returns a structured array with one field per column, the process column
    holding codes into the returned list of process names (in order of first
    appearance).
    """
    names = collections.defaultdict(itertools.count().__next__)  # code by first appearance
    with open(path) as fh:
        found = next(csv.reader(fh), [])
    # a header that starts with "trajectory_id" is checked against the id layout
    ids = bool(found) and found[0].lstrip().startswith("trajectory_id")
    header = ["trajectory_id", "time", "process", "state"][0 if ids else 1:]
    if found[:len(header)] != header:
        raise ValueError(f"unexpected CSV header {found}, expected {header}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header alone holds no rows
        rows = np.loadtxt(path, skiprows=1, delimiter=",", quotechar='"', comments=None,
                          ndmin=1, dtype=[(h, "f8" if h == "time" else "i8") for h in header],
                          converters={header.index("process"): names.__getitem__})
    return rows, list(names)


def _to_ensemble(ids: np.ndarray, member: np.ndarray, rows: np.ndarray, names: list[str],
                 t_end: float | None, where) -> tuple[Ensemble, list[str]]:
    """Build an ensemble from parsed CSV rows (see :func:`_read_columns`):
    members `ids`, row r belonging to member ``member[r]``.

    Rows at time 0.0 declare initial states, the others are events.  Rows
    within a member keep their file order, and the process order is that of
    the first member's time-0 rows.  ``where(id)`` names a member in error
    messages.
    """
    order = np.argsort(member, kind="stable")
    member, times, code, local = (a[order] for a in (member, rows["time"], rows["process"],
                                                     rows["state"]))
    zero = times == 0.0
    first = list(dict.fromkeys(code[zero & (member == 0)].tolist()))
    declared = [names[c] for c in first]
    process = np.full(len(names), -1, dtype=np.int64)
    process[first] = np.arange(len(first))
    process = process[code]
    undeclared = np.flatnonzero(process < 0)
    if undeclared.size:
        row = undeclared[0]
        raise ValueError(
            f"process {names[code[row]]!r} in {where(ids[member[row]])} is not declared "
            f"by a time-0 row (declared: {', '.join(declared)})")
    if ((local < 0) | (local > np.iinfo(np.int16).max)).any():
        raise ValueError(f"local states must be in [0, {np.iinfo(np.int16).max}]")
    initial = np.zeros((ids.size, len(declared)), dtype=np.int64)
    seen = np.zeros(initial.shape, dtype=bool)
    initial[member[zero], process[zero]] = local[zero]  # a later row wins
    seen[member[zero], process[zero]] = True
    if not seen.all():
        k, j = np.argwhere(~seen)[0]
        raise ValueError(f"process {declared[j]!r} has no time-0 row in {where(ids[k])}")
    events = ~zero
    offsets = np.searchsorted(member[events], np.arange(ids.size + 1))
    end = t_end if t_end is not None else float(times[events].max(initial=0.0))
    return Ensemble(times[events], process[events], local[events], offsets, initial,
                    end, ids), declared


def read_ensemble_csv(path, t_end: float | None = None) -> tuple[Ensemble, list[str]]:
    """Load a trajectory CSV; returns (ensemble, process names).

    With a ``trajectory_id`` column, members are ordered by trajectory id and
    keep it as their id.  Without it the file is one member with id 0 (a
    header alone: one member with no process).  ``t_end`` defaults to the
    last event time in the file (the CSV does not carry the horizon).
    """
    rows, names = _read_columns(path)
    if "trajectory_id" in rows.dtype.names:
        ids, member = np.unique(rows["trajectory_id"], return_inverse=True)
        return _to_ensemble(ids, member, rows, names, t_end, lambda k: f"trajectory {k}")
    return _to_ensemble(np.zeros(1, dtype=np.int64), np.zeros(rows.size, dtype=np.int64),
                        rows, names, t_end, lambda k: str(path))


def read_trajectory_csv(path, t_end: float | None = None) -> tuple[Trajectory, list[str]]:
    """Load a CSV of one trajectory, in either layout of
    :func:`read_ensemble_csv`; returns (trajectory, process name order)."""
    ensemble, names = read_ensemble_csv(path, t_end)
    if len(ensemble) != 1:
        raise ValueError(f"{path} holds {len(ensemble)} trajectories, expected one")
    return ensemble[0], names

"""Threshold-based cascade detection and the naive sentry baseline.

An event is *fast* when it follows its predecessor within the fast
threshold.  A cascade is a maximal run of consecutive fast events of at
least the minimum length; the state occupied immediately before the run's
first event launched the cascade and is credited as its sentry state.  The
naive baseline counts, per state, how many cascades it launched (Naive
Count) and the fraction of its visits that did so (Naive Score).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .model import CtbnModel, StateSpaceGraph, states_from_indices
from .sentry import RedntRanking, ednt_exact, rank_sentry_states, rednt
from .simulate import Ensemble, Trajectory, _gaps, _parts, _write_table


@dataclass(frozen=True)
class NaiveParams:
    """Fast-gap threshold (time units) and minimum cascade length (events)."""

    fast_threshold: float
    min_cascade_length: int = 2

    def __post_init__(self):
        if not self.fast_threshold > 0:
            raise ValueError(f"fast_threshold must be positive, got {self.fast_threshold}")
        if self.min_cascade_length < 2:
            raise ValueError(
                f"min_cascade_length must be >= 2, got {self.min_cascade_length}")


@dataclass(frozen=True)
class CascadeWindow:
    """Event-index span [first, last] of one cascade and its launching state."""

    first_event_index: int
    last_event_index: int
    sentry_state: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.last_event_index - self.first_event_index + 1


def _fast_runs(ensemble: Ensemble, params: NaiveParams) -> tuple[np.ndarray, np.ndarray]:
    """First and last event (ensemble event indices) of every cascade: the
    maximal runs of consecutive fast events meeting the length minimum."""
    gaps = _gaps(ensemble.times, ensemble.offsets)
    fast = np.concatenate(([False], gaps < params.fast_threshold, [False]))
    edges = np.diff(fast.view(np.int8))
    first, end = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    keep = end - first >= params.min_cascade_length
    return first[keep], end[keep] - 1


_CODE_LIMIT = 1 << 62  # largest product of radices one int64 code column holds


class _Scan(NamedTuple):
    """The cascades and visited states of one part of an ensemble.

    Visit k (k < members) is member k's initial state, visit members + i the
    state after event i; every visited state has an integer code, and
    ``decode`` turns codes (below ``bound``) back into rows of local states.
    """

    first: np.ndarray  # first and last event of every cascade
    last: np.ndarray
    codes: np.ndarray  # code of every visit
    launches: np.ndarray  # code of the state just before each cascade
    bound: int
    decode: Callable[[np.ndarray], np.ndarray]


def _tuples(states: np.ndarray) -> list[tuple[int, ...]]:
    return list(map(tuple, states.tolist()))


def _scan(part: Ensemble, params: NaiveParams) -> _Scan:
    """Cascades and visit codes of an ensemble part.

    A code is the mixed-radix index of the state, the radix of a process
    being its largest local state seen plus one: the member's initial index
    plus the cumulative sum of (new - old) * place value over its events.
    When the radices' product exceeds ``_CODE_LIMIT`` the processes are split
    into groups of one code column each, and codes rank the distinct rows.
    """
    members, n = part.initial_states.shape
    counts = np.diff(part.offsets)
    process = part.processes.astype(np.intp)
    new = part.new_states.astype(np.int64)
    radix = part.initial_states.max(axis=0, initial=0).astype(np.int64) + 1
    np.maximum.at(radix, process, new + 1)

    # each event's old local state: the previous event of its process in
    # its member, else the member's initial state
    slot = np.repeat(np.arange(members, dtype=np.int64) * n, counts) + process
    order = np.argsort(slot, kind="stable")
    slot, before = slot[order], np.empty_like(new)
    before[1:] = new[order[:-1]]
    opens = np.diff(slot, prepend=-1) != 0  # first event of its (member, process)
    before[opens] = part.initial_states.ravel()[slot[opens]]
    old = np.empty_like(new)
    old[order] = before
    del slot, order, before, opens

    group, place = np.zeros(n, dtype=np.intp), np.ones(n, dtype=np.int64)
    g, span = 0, 1
    for j in reversed(range(n)):  # last process least significant
        if span * int(radix[j]) > _CODE_LIMIT:
            g, span = g + 1, 1
        group[j], place[j] = g, span
        span *= int(radix[j])
    columns = []
    for g in range(group.max(initial=0) + 1):
        weight = np.where(group == g, place, 0)
        initial = part.initial_states @ weight
        # int64 sums may wrap across members; the wrap cancels within each
        steps = np.cumsum((new - old) * weight[process])
        before_first = np.concatenate(([0], steps))[part.offsets[:-1]]
        columns.append(np.concatenate((initial, steps + np.repeat(initial - before_first,
                                                                  counts))))
    if len(columns) == 1:
        codes, rows, bound = columns[0], None, span
    else:
        rows, codes = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
        bound = len(rows)

    def decode(selected: np.ndarray) -> np.ndarray:
        if rows is None:
            return states_from_indices(selected, radix)
        return np.hstack([states_from_indices(rows[selected, g], radix[group == g])
                          for g in reversed(range(rows.shape[1]))])

    first, last = _fast_runs(part, params)
    # a cascade never opens a member, so the state before event a is the
    # visit after event a - 1
    return _Scan(first, last, codes, codes[members + first - 1], bound, decode)


def _tally(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes (ascending) and their counts: by bincount when the code
    range is no larger than the data, else by sorting."""
    if bound <= codes.size:
        counts = np.bincount(codes, minlength=bound)
        seen = np.flatnonzero(counts)
        return seen, counts[seen]
    return np.unique(codes, return_counts=True)


def identify_cascades(trajectory: Trajectory, params: NaiveParams) -> list[CascadeWindow]:
    """All cascades of a trajectory, in time order (windows are disjoint)."""
    scan = _scan(Ensemble.from_trajectories([trajectory]), params)
    return [CascadeWindow(a, b, x) for a, b, x in zip(
        scan.first.tolist(), scan.last.tolist(), _tuples(scan.decode(scan.launches)))]


@dataclass
class NaiveScores:
    """Cascade-start counts and visit counts accumulated over trajectories."""

    counts: dict[tuple, int] = field(default_factory=dict)
    visits: dict[tuple, int] = field(default_factory=dict)
    total_cascades: int = 0

    def count(self, state: Sequence[int]) -> int:
        return self.counts.get(tuple(state), 0)

    def score(self, state: Sequence[int]) -> float:
        """Fraction of visits to the state that launched a cascade (0 if never seen)."""
        v = self.visits.get(tuple(state), 0)
        if not v:
            return 0.0
        return self.counts.get(tuple(state), 0) / v


def _naive_order(scores: NaiveScores, states: Iterable[tuple]) -> list[tuple]:
    """The naive ranking of `states`: score descending, then count
    descending, then state ascending."""
    return sorted(states, key=lambda s: (-scores.score(s), -scores.count(s), s))


def naive_scores(trajectories: Ensemble | Iterable[Trajectory],
                 params: NaiveParams) -> NaiveScores:
    """Aggregate cascade starts and visits over a trajectory collection.

    Every state a trajectory occupies counts as a visit, the initial one
    included, so visits do not depend on the threshold.
    """
    result = NaiveScores()
    for part in _parts(Ensemble.from_trajectories(trajectories)):
        scan = _scan(part, params)
        for tally, codes in ((result.counts, scan.launches), (result.visits, scan.codes)):
            distinct, counts = _tally(codes, scan.bound)
            for state, count in zip(_tuples(scan.decode(distinct)), counts.tolist()):
                tally[state] = tally.get(state, 0) + count
        result.total_cascades += int(scan.first.size)
    return result


def default_fast_threshold(trajectories: Ensemble | Iterable[Trajectory]) -> float:
    """Median inter-event gap, pooled across trajectories and event types.

    When no trajectory has two events there is no gap, so no event of the
    data can be fast at any threshold: the result is then ``math.inf``.
    """
    ensemble = Ensemble.from_trajectories(trajectories)
    gaps = _gaps(ensemble.times, ensemble.offsets)
    gaps = gaps[~np.isnan(gaps)]
    return float(np.median(gaps)) if gaps.size else math.inf


def jaccard_at_k(ranking_a: Sequence, ranking_b: Sequence, k: int) -> float:
    """Jaccard similarity of the two top-k prefixes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(ranking_a) < k or len(ranking_b) < k:
        raise ValueError(f"rankings must have at least k={k} entries")
    top_a = set(ranking_a[:k])
    top_b = set(ranking_b[:k])
    return len(top_a & top_b) / len(top_a | top_b)


@dataclass(frozen=True)
class ComparisonResult:
    """The analysis of one model: the REDNT ranking of its exact EDNT (the
    ranking keeps the EDNT), and the Jaccard@k between the REDNT and
    naive-score rankings of the low-activity states."""

    jaccard: tuple[tuple[int, float], ...]
    rednt_ranking: tuple[tuple[int, ...], ...]
    naive_ranking: tuple[tuple[int, ...], ...]
    fast_threshold: float
    max_active: int
    scores: NaiveScores
    ranking: RedntRanking


def compare_rednt_vs_naive(
    model: CtbnModel,
    trajectories: Ensemble | Iterable[Trajectory],
    fast_threshold: float | None = None,
    k_range: Iterable[int] | None = None,
    alpha: float = 0.1,
    min_cascade_length: int = 2,
    max_active: int | None = None,
) -> ComparisonResult:
    """Solve EDNT exactly, rank by REDNT and by the naive score over the
    given trajectories, then compare.

    Both rankings are restricted to states with at most ``max_active``
    active alarms; ``None`` takes the size of the model's largest parent
    set.  ``fast_threshold=None`` selects :func:`default_fast_threshold` of
    the trajectories; cascades need ``min_cascade_length`` fast events
    either way.  ``k_range=None`` evaluates every k up to the full ranking
    length.  The naive list orders the REDNT list's states as
    :func:`write_naive_scores_report` does.
    """
    if max_active is None:
        max_active = max((len(p.parents) for p in model.processes), default=0)
    gs = StateSpaceGraph(model.cardinalities)
    ranking = rednt(ednt_exact(model, alpha), gs)
    rednt_list = rank_sentry_states(ranking, max_active)

    trajectories = Ensemble.from_trajectories(trajectories)
    if fast_threshold is None:
        fast_threshold = default_fast_threshold(trajectories)
    scores = naive_scores(trajectories, NaiveParams(fast_threshold, min_cascade_length))
    naive_list = _naive_order(scores, rednt_list)

    if k_range is None:
        k_range = range(1, len(rednt_list) + 1)
    jac = tuple((k, jaccard_at_k(rednt_list, naive_list, k)) for k in k_range)
    return ComparisonResult(
        jaccard=jac,
        rednt_ranking=tuple(rednt_list),
        naive_ranking=tuple(naive_list),
        fast_threshold=fast_threshold,
        max_active=max_active,
        scores=scores,
        ranking=ranking,
    )


# -- reports -------------------------------------------------------------------


def write_cascade_report(path, trajectories: Ensemble | Iterable[Trajectory],
                         params: NaiveParams) -> None:
    """CSV of every cascade window: trajectory id, time span, length, sentry state."""
    def windows():
        for part in _parts(Ensemble.from_trajectories(trajectories)):
            scan = _scan(part, params)
            member = np.searchsorted(part.offsets, scan.first, side="right") - 1
            yield [part.ids[member], part.times[scan.first], part.times[scan.last],
                   scan.last - scan.first + 1, scan.decode(scan.launches)]

    _write_table(path, ["trajectory_id", "start_time", "end_time", "length",
                        "sentry_state_bits"], windows())


def write_naive_scores_report(path, scores: NaiveScores) -> None:
    """CSV of per-state naive counts and scores, best score first."""
    states = _naive_order(scores, set(scores.visits) | set(scores.counts))
    rows = np.array(states, dtype=np.int64).reshape(len(states), len(states[0]) if states else 0)
    columns = [rows, [scores.count(s) for s in states],
               np.array([scores.score(s) for s in states], dtype=float),
               [scores.visits.get(s, 0) for s in states], np.count_nonzero(rows, axis=1)]
    _write_table(path, ["state_bits", "naive_count", "naive_score", "visits", "active_alarms"],
                 [columns])


def write_comparison_report(path, result: ComparisonResult) -> None:
    columns = [[k for k, _ in result.jaccard],
               np.array([j for _, j in result.jaccard], dtype=float)]
    _write_table(path, ["k", "jaccard"], [columns])

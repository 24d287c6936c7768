"""Threshold-based cascade detection and the naive sentry baseline.

An event is *fast* when it follows its predecessor within the fast
threshold.  A cascade is a maximal run of consecutive fast events of at
least the minimum length; the state occupied immediately before the run's
first event launched the cascade and is credited as its sentry state.  The
naive baseline counts, per state, how many cascades it launched (Naive
Count) and the fraction of its visits that did so (Naive Score).
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .graphs import condensation, induced_subgraph
from .model import (
    CtbnModel,
    active_alarm_count,
    build_state_space_graph,
    low_activity_states,
    state_from_index,
    state_index,
)
from .sentry import RedntRanking, ednt_exact, rank_sentry_states, rednt
from .simulate import SimulationConfig, Trajectory, format_float, sample_ensemble


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


def _fast_runs(times: np.ndarray, params: NaiveParams) -> list[tuple[int, int]]:
    """Maximal runs of consecutive fast events meeting the length minimum.

    The first event of a trajectory has no predecessor and is never fast.
    """
    n = times.size
    if n < 2:
        return []
    fast = np.empty(n, dtype=bool)
    fast[0] = False
    np.less(np.diff(times), params.fast_threshold, out=fast[1:])
    if not fast.any():
        return []
    prev = np.concatenate(([False], fast[:-1]))
    nxt = np.concatenate((fast[1:], [False]))
    starts = np.flatnonzero(fast & ~prev)
    ends = np.flatnonzero(fast & ~nxt)
    return [(int(a), int(b)) for a, b in zip(starts, ends)
            if b - a + 1 >= params.min_cascade_length]


def _states(trajectory: Trajectory) -> list[tuple[int, ...]]:
    """The states a trajectory occupies, in order: entry i is the state just
    before event i, and the last entry is the final state."""
    values = list(trajectory.initial_state)
    states = [tuple(values)]
    for proc, new in zip(trajectory.processes.tolist(), trajectory.new_states.tolist()):
        values[proc] = new
        states.append(tuple(values))
    return states


def identify_cascades(trajectory: Trajectory, params: NaiveParams) -> list[CascadeWindow]:
    """All cascades of a trajectory, in time order (windows are disjoint)."""
    runs = _fast_runs(trajectory.times, params)
    if not runs:
        return []
    states = _states(trajectory)
    return [CascadeWindow(a, b, states[a]) for a, b in runs]


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


def naive_scores(trajectories: Iterable[Trajectory], params: NaiveParams) -> NaiveScores:
    """Aggregate cascade starts and visits over a trajectory collection.

    Every state a trajectory occupies counts as a visit, the initial one
    included, so visits do not depend on the threshold.
    """
    counts = Counter()
    visits = Counter()
    total = 0
    for traj in trajectories:
        states = _states(traj)
        visits.update(states)
        launched = [states[a] for a, _ in _fast_runs(traj.times, params)]
        counts.update(launched)
        total += len(launched)
    return NaiveScores(dict(counts), dict(visits), total)


def default_fast_threshold(trajectories: Iterable[Trajectory]) -> float:
    """Median inter-event gap, pooled across trajectories and event types."""
    gaps = [np.diff(t.times) for t in trajectories if t.event_count >= 2]
    if not gaps:
        raise ValueError("need at least two events in some trajectory to pool gaps")
    return float(np.median(np.concatenate(gaps)))


def suggested_min_cascade_length(graph, slow_processes: Iterable[str]) -> int:
    """Heuristic minimum cascade length: the longest chain of fast followers.

    A freshly triggered cascade is expected to ripple down the longest
    directed path of fast (non-slow) processes, so that path length is a
    natural lower bound on interesting cascade sizes.  Cycles among fast
    processes count with their full size.  Never below 2.
    """
    slow = set(slow_processes)
    fast_nodes = [n for n in graph.nodes if n not in slow]
    if not fast_nodes:
        return 2
    cond = condensation(induced_subgraph(graph, fast_nodes))
    bg = cond.graph
    order: list[str] = []
    seen: set[str] = set()

    def visit(node):  # blocks form a DAG, so plain DFS post-order works
        seen.add(node)
        for child in sorted(bg.children_of(node)):
            if child not in seen:
                visit(child)
        order.append(node)

    for node in bg.nodes:
        if node not in seen:
            visit(node)
    longest: dict[str, int] = {}
    for node in order:  # children before parents
        below = max((longest[c] for c in bg.children_of(node)), default=0)
        longest[node] = len(cond.blocks[node]) + below
    return max(2, max(longest.values()))


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
    """The analysis of one model: exact EDNT, its REDNT ranking, and the
    Jaccard@k between the REDNT and naive-score rankings of the low-activity
    states."""

    jaccard: tuple[tuple[int, float], ...]
    rednt_ranking: tuple[tuple[int, ...], ...]
    naive_ranking: tuple[tuple[int, ...], ...]
    fast_threshold: float
    max_active: int
    scores: NaiveScores
    ednt: np.ndarray
    ranking: RedntRanking


def compare_rednt_vs_naive(
    model: CtbnModel,
    config: SimulationConfig,
    fast_threshold: float | None,
    k_range: Iterable[int] | None = None,
    alpha: float = 0.1,
    min_cascade_length: int = 2,
    trajectories: Sequence[Trajectory] | None = None,
    max_active: int | None = None,
) -> ComparisonResult:
    """Solve EDNT exactly, rank by REDNT and by the naive score, then compare.

    Both rankings are restricted to states with at most ``max_active``
    active alarms; ``None`` takes the size of the model's largest parent
    set.  ``fast_threshold=None`` selects the pooled median gap of the
    ensemble; cascades need ``min_cascade_length`` fast events either way.
    ``k_range=None`` evaluates every k up to the full ranking length.  The
    naive list orders by score descending with count and then state index
    as tiebreaks.  A pre-sampled ensemble can be passed to avoid
    re-simulation; by default one is drawn from `config`.
    """
    if max_active is None:
        max_active = max((len(p.parents) for p in model.processes), default=0)
    gs = build_state_space_graph(model)
    filtered = [state_from_index(i, model) for i in low_activity_states(model, max_active)]
    ednt = ednt_exact(model, alpha)
    ranking = rednt(ednt, gs)
    rednt_list = rank_sentry_states(ranking, max_active)

    if trajectories is None:
        trajectories = sample_ensemble(model, None, config)
    if fast_threshold is None:
        fast_threshold = default_fast_threshold(trajectories)
    scores = naive_scores(trajectories, NaiveParams(fast_threshold, min_cascade_length))
    naive_list = sorted(
        filtered,
        key=lambda s: (-scores.score(s), -scores.count(s), state_index(s, model)),
    )

    if k_range is None:
        k_range = range(1, len(filtered) + 1)
    jac = tuple((k, jaccard_at_k(rednt_list, naive_list, k)) for k in k_range)
    return ComparisonResult(
        jaccard=jac,
        rednt_ranking=tuple(rednt_list),
        naive_ranking=tuple(naive_list),
        fast_threshold=fast_threshold,
        max_active=max_active,
        scores=scores,
        ednt=ednt,
        ranking=ranking,
    )


# -- reports -------------------------------------------------------------------


def write_cascade_report(path, trajectories: Iterable[Trajectory],
                         params: NaiveParams) -> None:
    """CSV of every cascade window: trajectory, time span, length, sentry state."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trajectory_id", "start_time", "end_time", "length",
                    "sentry_state_bits"])
        for tid, traj in enumerate(trajectories):
            for win in identify_cascades(traj, params):
                bits = "".join(str(v) for v in win.sentry_state)
                w.writerow([
                    tid,
                    format_float(float(traj.times[win.first_event_index])),
                    format_float(float(traj.times[win.last_event_index])),
                    win.length,
                    bits,
                ])


def write_naive_scores_report(path, scores: NaiveScores) -> None:
    """CSV of per-state naive counts and scores, best score first."""
    states = sorted(
        set(scores.visits) | set(scores.counts),
        key=lambda s: (-scores.score(s), -scores.count(s), s),
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state_bits", "naive_count", "naive_score", "visits",
                    "active_alarms"])
        for state in states:
            bits = "".join(str(v) for v in state)
            w.writerow([bits, scores.count(state), format_float(scores.score(state)),
                        scores.visits.get(state, 0), active_alarm_count(state)])


def write_comparison_report(path, result: ComparisonResult) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "jaccard"])
        for k, j in result.jaccard:
            w.writerow([k, format_float(j)])

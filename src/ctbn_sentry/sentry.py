"""Discounted transition-count analysis and sentry-state ranking.

The central quantity is the expected discounted number of transitions
(EDNT) out of each joint state: every future transition at time t
contributes e^(-alpha * t).  The exact value solves a sparse linear system
over the flattened chain; Monte Carlo over sampled trajectories estimates it
up to a finite horizon.  The relative EDNT (REDNT) of a state is the largest
ratio of its EDNT to that of any neighbor in the state-space graph (the
state itself included, which floors the ratio at 1); states with high REDNT
and few active alarms are the sentry candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import (
    CtbnModel,
    DEFAULT_STATE_CAP,
    RateTable,
    StateSpaceGraph,
    intensity_matrix,
    low_activity_states,
    state_index,
    states_from_indices,
)
from .simulate import (SimulationConfig, _check_horizon, _member_keys, _step_bytes, _steps,
                       _write_table, derive_seed)

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
BACKWARD_ERROR_TOL = 1e-14  # componentwise backward error the exact solve must reach
MAX_REFINEMENTS = 8
MC_BATCH = 200  # trajectories a state adds per round of the stopping rule
# Live bytes of one Monte Carlo engine run, which sets its width (see
# simulate._step_bytes): 5 461 trajectories on the flat path, 1 337 of a
# 13-process binary model on the general path, whose state is the CIM rows.
MC_CALL_BYTES = 1 << 20


def _check_rate(name: str, value: float) -> None:
    """The one rule for a discount rate: finite and positive."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class RewardSpec:
    """Reward structure: lump sums on transitions, a rate while occupying
    states, and an exponential discount per unit time.

    The default counts transitions: lump_sum == 1 for every transition and
    no instantaneous reward.
    """

    discount: float
    lump_sum: Callable[[tuple, tuple], float] | None = None
    instantaneous: Callable[[tuple], float] | None = None

    def __post_init__(self):
        _check_rate("discount", self.discount)

    @property
    def counts_transitions(self) -> bool:
        return self.lump_sum is None and self.instantaneous is None


@dataclass(frozen=True)
class EdntTable:
    """Per-state Monte Carlo estimates with standard errors.

    May cover a subset of the joint space (``state_indices`` says which).
    ``stopped_by`` says why each state's sampling stopped, 'halfwidth' or
    'cap' as in :class:`StoppingResult`; it is '' for a table built without
    the stopping rule.
    """

    state_indices: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    trajectory_counts: np.ndarray
    stopped_by: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "state_indices", np.asarray(self.state_indices, dtype=int))
        object.__setattr__(self, "estimates", np.asarray(self.estimates, dtype=float))
        object.__setattr__(self, "stderrs", np.asarray(self.stderrs, dtype=float))
        object.__setattr__(self, "trajectory_counts",
                           np.asarray(self.trajectory_counts, dtype=int))
        stopped_by = [""] * len(self.state_indices) if self.stopped_by is None else self.stopped_by
        object.__setattr__(self, "stopped_by", np.asarray(stopped_by, dtype=str))

    def __len__(self) -> int:
        return len(self.state_indices)


@dataclass(frozen=True)
class RedntRanking:
    """REDNT values over (a subset of) joint states, sorted best-first.

    ``ednt`` and ``stderrs`` are the EDNT and its standard error at each
    ranked state (stderr 0 for exact values).  ``flags`` marks degenerate
    entries: 'zero-ednt' when the state itself has EDNT 0 (value pinned to
    1), 'infinite' when a neighbor has EDNT 0 while the state does not.
    """

    graph: StateSpaceGraph
    state_indices: np.ndarray
    values: np.ndarray
    ednt: np.ndarray
    stderrs: np.ndarray
    flags: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "state_indices", np.asarray(self.state_indices, dtype=int))
        for name in ("values", "ednt", "stderrs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def positions(self) -> np.ndarray:
        """Positions of the entries by REDNT descending, ties by index ascending."""
        return np.lexsort((self.state_indices, -self.values))

    @property
    def order(self) -> list[int]:
        """State indices sorted by REDNT descending, ties by index ascending."""
        return self.state_indices[self.positions].tolist()

    def value_of(self, index: int) -> float:
        pos = np.flatnonzero(self.state_indices == index)
        if not pos.size:
            raise KeyError(index)
        return float(self.values[pos[0]])


# -- Monte Carlo discounted rewards ---------------------------------------------


def _scores(table: RateTable, keys: np.ndarray, start: np.ndarray, t_end: float,
            alpha: float, reward: RewardSpec | None, width: int | None = None) -> np.ndarray:
    """Discounted reward of the trajectory with each key from its row of `start`,
    in one engine run at most `width` wide: sum_i e^(-alpha t_i) for `reward`
    None, else event i adds inst(before) / alpha * (w - e^(-alpha t_i)), w the
    discount at the event before (1 at t = 0), then e^(-alpha t_i) *
    lump(before, after), and the last state held adds its discounted occupancy
    up to ``t_end``.  Each trajectory's terms are added in event order, so its
    score does not depend on `width`; a general reward holds every
    trajectory's state tuple for the whole run."""
    scores = np.zeros(keys.size)
    if reward is None:
        for live, t, _, _ in _steps(table, keys, start, t_end, width):
            scores[live] += np.exp(-alpha * t)
        return scores
    lump = reward.lump_sum or (lambda x, y: 1.0)
    inst = reward.instantaneous  # None: no holding-rate terms at all
    states = list(map(tuple, start.tolist()))  # each trajectory's current state
    weight = np.ones(keys.size)  # e^(-alpha t) at each trajectory's last event
    for live, t, j, s in _steps(table, keys, start, t_end, width):
        now = np.exp(-alpha * t)
        members = live.tolist()
        before = [states[k] for k in members]
        after = [x[:p] + (v,) + x[p + 1:] for x, p, v in zip(before, j.tolist(), s.tolist())]
        for k, x in zip(members, after):
            states[k] = x
        if inst is not None:
            scores[live] += np.fromiter(map(inst, before), float) / alpha * (weight[live] - now)
        scores[live] += now * np.fromiter(map(lump, before, after), float)
        weight[live] = now
    if inst is not None:  # close each final segment at t_end
        last = np.fromiter(map(inst, states), float)
        scores += last / alpha * (weight - math.exp(-alpha * t_end))
    return scores


def discounted_reward_mc(model: CtbnModel, initial: Sequence[int], reward: RewardSpec,
                         config: SimulationConfig) -> tuple[float, float]:
    """Sample mean and standard error of the discounted reward from one state.

    Each trajectory scores sum_i e^(-alpha t_i) * lump(x_before, x_after)
    plus the discounted time integral of the instantaneous reward, truncated
    at the horizon.  Every reward runs in the bounded rounds of
    :func:`ednt_mc`, with a fixed count of ``config.trajectory_count``.
    Trajectory k is keyed by derive_seed(seed, state_index(initial), k), the
    one Monte Carlo stream contract.
    """
    result = _stopping_rule(model, [state_index(initial, model)], reward.discount,
                            config.t_end, None, MC_BATCH, config.trajectory_count,
                            config.master_seed, reward)[0]
    return result.estimate, result.stderr


def ednt_mc(model: CtbnModel, alpha: float, config: SimulationConfig,
            states: Iterable[Sequence[int] | int] | None = None,
            epsilon: float | None = None) -> EdntTable:
    """Monte Carlo EDNT per requested state (default: every joint state).

    A state is a tuple of local states or an integer joint index.  The
    stopping rule of :func:`stopping_rule_ednt` runs for all states at once,
    in rounds: every state still running adds its next batch of
    ``MC_BATCH`` trajectories, the round's trajectories run in one engine
    run of at most ``MC_CALL_BYTES`` live bytes, refilled as trajectories
    finish, then each state checks its half-width and its cap of
    ``config.trajectory_count``.  ``epsilon`` is the relative half-width
    (None spends the cap in one batch).  Trajectory k from state
    x is keyed by derive_seed(config.master_seed, state_index(x), k), so the
    table equals per-state :func:`stopping_rule_ednt` calls bit for bit and
    does not depend on the order of `states`.
    """
    if states is None:
        if model.state_count > DEFAULT_STATE_CAP:
            raise ValueError(
                "model too large to enumerate all states; pass an explicit subset")
        indices = list(range(model.state_count))
    else:
        states = list(states)
        given = [s for s in states if not np.ndim(s)]  # joint indices, checked by the decode
        states_from_indices(np.array(given, dtype=object), model.cardinalities)
        indices = sorted({*map(int, given),
                          *(state_index(s, model) for s in states if np.ndim(s))})
    results = _stopping_rule(model, indices, alpha, config.t_end, epsilon, MC_BATCH,
                             config.trajectory_count, config.master_seed)
    return EdntTable(indices, [r.estimate for r in results], [r.stderr for r in results],
                     [r.trajectories_used for r in results], [r.stopped_by for r in results])


# -- exact values ----------------------------------------------------------------


def ednt_exact(model: CtbnModel, alpha: float) -> np.ndarray:
    """Exact EDNT for every joint state by first-step analysis.

    With Q the sparse intensity matrix (:func:`intensity_matrix`) and q the
    exit-rate vector, the values solve (alpha I - Q) V = q; this is the
    infinite-horizon limit of the Monte Carlo estimator.  The system is a
    nonsingular M-matrix, solved by Jacobi-preconditioned BiCGSTAB inside
    iterative refinement until the componentwise backward error
    max_i |q - A V|_i / (|A| |V| + q)_i is at most ``BACKWARD_ERROR_TOL``;
    ``ValueError`` reports the error reached if ``MAX_REFINEMENTS`` steps do
    not get there.  States with exit rate 0 get V = 0 exactly.
    """
    import scipy.sparse as sp  # loaded on first use
    from scipy.sparse.linalg import bicgstab

    _check_rate("alpha", alpha)
    Q = intensity_matrix(model)
    q = -Q.diagonal()
    n = q.size
    A = (alpha * sp.identity(n, format="csr") - Q).tocsr()
    # row i of A is alpha * e_i where q_i = 0, so V_i = 0 there; the mask
    # below keeps it exactly 0 whatever the Krylov solver leaves in it
    live = q > 0
    V = np.zeros(n)
    if not live.any():
        return V
    jacobi = sp.diags(1.0 / A.diagonal())
    abs_A = abs(A)
    residual = q
    for _ in range(MAX_REFINEMENTS):
        step, _info = bicgstab(A, residual, rtol=1e-12, atol=0.0, M=jacobi)
        V += np.where(live, step, 0.0)
        residual = q - A @ V
        error = np.max(np.abs(residual[live]) / (abs_A @ np.abs(V) + q)[live])
        if error <= BACKWARD_ERROR_TOL:
            return V
    raise ValueError(
        f"EDNT solve reached componentwise backward error {error:.3g} after "
        f"{MAX_REFINEMENTS} refinement steps, above {BACKWARD_ERROR_TOL:g}")


# -- REDNT and ranking -------------------------------------------------------------


def rednt(ednt: EdntTable | np.ndarray | Sequence[float],
          gs: StateSpaceGraph) -> RedntRanking:
    """Relative EDNT: max ratio of a state's EDNT to its neighborhood's.

    The neighborhood includes the state itself, so values never drop below
    1.  A zero-EDNT neighbor of a positive-EDNT state yields +inf (flagged
    'infinite'); a zero-EDNT state itself is pinned to 1 (flagged
    'zero-ednt').  With a partial table, only states whose entire
    neighborhood is covered are ranked.  The ranking keeps each ranked
    state's EDNT and stderr (0 for an array of exact values).
    """
    if isinstance(ednt, EdntTable):
        by_index = np.argsort(ednt.state_indices, kind="stable")
        indices = ednt.state_indices[by_index]
        values, errors = ednt.estimates[by_index], ednt.stderrs[by_index]
    else:
        values = np.asarray(ednt, dtype=float)
        if values.shape != (gs.node_count,):
            raise ValueError(f"expected {gs.node_count} EDNT values, got {values.shape}")
        indices, errors = np.arange(gs.node_count), np.zeros(gs.node_count)

    # position of every neighbor in `indices`; a partial table may miss some
    neighbors = gs.neighbor_table(indices)
    pos = np.searchsorted(indices, neighbors)
    covered = (np.append(indices, -1)[pos] == neighbors).all(axis=1)
    indices, own, other = indices[covered], values[covered], values[pos[covered]]

    negative = np.flatnonzero(own < 0)
    if negative.size:
        raise ValueError(f"negative EDNT at state {indices[negative[0]]}")
    zero = own == 0.0
    infinite = (other == 0.0).any(axis=1)  # flagged only where `zero` is not
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.max(own[:, None] / other, axis=1, initial=1.0)  # self-inclusion floors at 1
    flagged = zero | infinite
    labels = np.where(zero, "zero-ednt", "infinite")
    flags = dict(zip(indices[flagged].tolist(), labels[flagged].tolist()))
    return RedntRanking(gs, indices, np.where(zero, 1.0, ratio), own, errors[covered], flags)


def rank_sentry_states(ranking: RedntRanking, max_active: int) -> list[tuple[int, ...]]:
    """States with at most `max_active` active alarms, best REDNT first.

    Requires binary processes (the active-alarm count is the number of
    components in state 1).  Ties break toward the smaller state index.
    """
    gs = ranking.graph
    order = ranking.state_indices[ranking.positions]
    chosen = order[np.isin(order, low_activity_states(gs, max_active))]
    return list(map(tuple, states_from_indices(chosen, gs.cardinalities).tolist()))


# -- sequential stopping rule --------------------------------------------------------


@dataclass(frozen=True)
class StoppingResult:
    estimate: float
    stderr: float
    trajectories_used: int
    stopped_by: str  # 'halfwidth' or 'cap'


def stopping_rule_ednt(model: CtbnModel, initial: Sequence[int], alpha: float,
                       t_end: float, relative_halfwidth: float | None,
                       batch: int = MC_BATCH, cap: int = 100_000,
                       seed: int = 0) -> StoppingResult:
    """Monte Carlo EDNT from one state, in batches until the 95% half-width is small.

    Stops once half-width / |estimate| < relative_halfwidth (absolute
    half-width when the estimate is 0), or when `cap` trajectories have been
    spent, whichever comes first; with ``relative_halfwidth`` None it spends
    exactly `cap` in one batch.  Trajectory k is seeded with
    derive_seed(seed, state_index(initial), k).  This is the round loop of
    :func:`ednt_mc` for one state: a batch wider than ``MC_CALL_BYTES``
    allows waits for free slots in its run, with the same scores.
    """
    return _stopping_rule(model, [state_index(initial, model)], alpha, t_end,
                          relative_halfwidth, batch, cap, seed)[0]


def _stopping_rule(model: CtbnModel, indices: Sequence[int], alpha: float, t_end: float,
                   relative_halfwidth: float | None, batch: int, cap: int,
                   seed: int, reward: RewardSpec | None = None) -> list[StoppingResult]:
    """The stopping rule for every state in `indices` at once, in rounds.

    A round takes the next batch of every running state, ``range(done,
    min(done + batch, cap))`` of its stream, and scores the batches'
    trajectories in one :func:`_scores` run, ``MC_CALL_BYTES`` of live bytes
    (and at least one trajectory) wide: a trajectory that finishes gives its
    slot to the next, and a score does not depend on when its trajectory
    ran.  The scores go back to their states, which then apply the
    half-width and cap tests.  Every reward runs here (None, the default,
    counts transitions).  Arguments are checked before anything is sampled,
    even for no state.  The start states are one :func:`states_from_indices`
    call; the stream bases, and each round's keys, one :func:`_member_keys`
    call.
    """
    _check_rate("alpha", alpha)
    _check_horizon(t_end)
    if relative_halfwidth is None:
        batch = cap
    elif not relative_halfwidth > 0:
        raise ValueError("relative_halfwidth must be positive")
    if batch < 1 or cap < 1:
        raise ValueError("batch and cap must be >= 1")
    # range check; int16 rows, as an ensemble holds local states, keep a pending
    # trajectory's start small
    starts = states_from_indices(indices, model.cardinalities).astype(np.int16)
    table = model.rate_table
    reward = None if reward is None or reward.counts_transitions else reward  # None: counts
    # live bytes per trajectory: the engine's, and for a general reward the state
    # before and after its event (two tuples) and about 20 more words
    step = _step_bytes(table) + (0 if reward is None else 8 * (2 * model.process_count + 20))
    limit = max(1, MC_CALL_BYTES // step)  # the engine run's width
    bases = _member_keys(derive_seed(seed), indices)  # derive_seed(seed, i) per state
    scores = [np.empty(0) for _ in indices]
    results: list[StoppingResult | None] = [None] * len(indices)
    running = list(range(len(indices)))
    while running:
        # the round's trajectories: state and stream position of each
        sizes = [min(batch, cap - scores[i].size) for i in running]
        owner = np.repeat(running, sizes)
        ks = np.concatenate([np.arange(scores[i].size, scores[i].size + size)
                             for i, size in zip(running, sizes)])
        got = _scores(table, _member_keys(bases[owner], ks), starts[owner], t_end, alpha,
                      reward, limit)
        for i, part in zip(running, np.split(got, np.cumsum(sizes)[:-1])):
            scores[i] = np.concatenate((scores[i], part))
        for i in running:
            done = scores[i].size
            est = float(scores[i].mean())
            se = float(scores[i].std(ddof=1) / math.sqrt(done)) if done > 1 else 0.0
            half = Z_95 * se
            criterion = half / abs(est) if est != 0.0 else half
            if relative_halfwidth is not None and criterion < relative_halfwidth:
                results[i] = StoppingResult(est, se, done, "halfwidth")
            elif done >= cap:
                results[i] = StoppingResult(est, se, done, "cap")
        running = [i for i in running if results[i] is None]
    return results


# -- report ------------------------------------------------------------------------


def write_sentry_report(path, ranking: RedntRanking) -> None:
    """CSV report sorted by REDNT descending.

    Columns: state_bits, ednt, ednt_stderr, rednt, active_alarms; state_bits
    renders local states in process order.
    """
    positions = ranking.positions
    states = states_from_indices(ranking.state_indices[positions], ranking.graph.cardinalities)
    _write_table(path, ["state_bits", "ednt", "ednt_stderr", "rednt", "active_alarms"],
                 [[states, ranking.ednt[positions], ranking.stderrs[positions],
                   ranking.values[positions], np.count_nonzero(states, axis=1)]])

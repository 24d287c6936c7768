import csv
import math
import random

import numpy as np
import pytest

from ctbn_sentry import (
    EXPERIMENTS,
    Cim,
    CtbnModel,
    EdntTable,
    ProcessSpec,
    RewardSpec,
    SimulationConfig,
    amalgamate,
    ancestors,
    ancestral_subprocess,
    build_state_space_graph,
    ctbn_graph,
    discounted_reward_mc,
    ednt_exact,
    ednt_mc,
    experiment_spec,
    intensity_matrix,
    rank_sentry_states,
    rednt,
    state_from_index,
    state_index,
    stopping_rule_ednt,
    write_sentry_report,
)
from ctbn_sentry import model as model_module
from ctbn_sentry import sentry as sentry_module
from ctbn_sentry import simulate as simulate_module
from ctbn_sentry.model import active_alarm_count, low_activity_states
from ctbn_sentry.simulate import _step_bytes, format_float
from conftest import (chain13_model, independent_togglers, make_random_model, toggler_model,
                      zero_rate_model)

# Reference table for the chain3 rates: per-state discounted transition
# counts and the relative values they must induce, frozen as a regression
# anchor (keys are the joint states 000..111).
REFERENCE_EDNT = {
    (0, 0, 0): 3.976,
    (0, 0, 1): 4.740,
    (0, 1, 0): 5.394,
    (0, 1, 1): 5.511,
    (1, 0, 0): 6.316,
    (1, 0, 1): 6.444,
    (1, 1, 0): 6.173,
    (1, 1, 1): 5.455,
}
REFERENCE_REDNT = {
    (0, 0, 0): 1.0,
    (0, 0, 1): 1.192,
    (0, 1, 0): 1.357,
    (0, 1, 1): 1.163,
    (1, 0, 0): 1.589,
    (1, 0, 1): 1.359,
    (1, 1, 0): 1.145,
    (1, 1, 1): 1.0,
}


# -- discounted rewards -----------------------------------------------------------


def test_reward_spec_requires_positive_discount():
    with pytest.raises(ValueError):
        RewardSpec(discount=0.0)
    for discount in (math.inf, math.nan):
        with pytest.raises(ValueError, match="discount must be positive and finite"):
            RewardSpec(discount)


def test_zero_rate_model_scores_zero():
    est, se = discounted_reward_mc(
        zero_rate_model(), (0,), RewardSpec(discount=0.5),
        SimulationConfig(10.0, 50, 1))
    assert est == 0.0 and se == 0.0


def test_instantaneous_reward_integrates_discount_curve():
    # lump sum 0, rate-1 occupancy reward: the score is the deterministic
    # integral of e^(-alpha t) over [0, t_end], regardless of the trajectory
    alpha, t_end = 0.5, 40.0
    reward = RewardSpec(discount=alpha, lump_sum=lambda x, y: 0.0,
                        instantaneous=lambda x: 1.0)
    est, se = discounted_reward_mc(toggler_model(2.0), (0,), reward,
                                   SimulationConfig(t_end, 30, 3))
    assert se < 1e-12
    assert est == pytest.approx((1 - math.exp(-alpha * t_end)) / alpha, abs=1e-9)
    assert est == pytest.approx(1 / alpha, abs=1e-8)


def test_toggler_transition_count_closed_form():
    # symmetric toggle rate q: discounted transition count is q / alpha
    q, alpha = 2.0, 0.5
    est, se = discounted_reward_mc(toggler_model(q), (0,), RewardSpec(discount=alpha),
                                   SimulationConfig(40.0, 4000, 9))
    assert abs(est - q / alpha) < 3 * se


def test_lump_sum_filtering():
    # counting only on->off transitions: from the off state those are the
    # even-numbered jumps, so the value is beta^2 / (1 - beta^2) with
    # beta = q / (q + alpha) the per-jump discount factor
    q, alpha = 2.0, 0.5
    reward = RewardSpec(discount=alpha,
                        lump_sum=lambda x, y: 1.0 if x == (1,) and y == (0,) else 0.0,
                        instantaneous=lambda x: 0.0)
    est, se = discounted_reward_mc(toggler_model(q), (0,), reward,
                                   SimulationConfig(40.0, 4000, 9))
    beta = q / (q + alpha)
    expected = beta ** 2 / (1 - beta ** 2)
    assert abs(est - expected) < 3 * se


# -- exact EDNT ----------------------------------------------------------------------


def test_ednt_exact_closed_form():
    values = ednt_exact(toggler_model(2.0), 0.5)
    assert values == pytest.approx([4.0, 4.0], abs=1e-9)


def test_ednt_exact_zero_model():
    assert ednt_exact(zero_rate_model(2), 0.7).tolist() == [0.0] * 4


def test_ednt_exact_requires_positive_alpha(chain3):
    with pytest.raises(ValueError):
        ednt_exact(chain3, 0.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ednt_exact(chain3, alpha)


def test_ednt_exact_monotone_in_alpha(chain3):
    grid = [0.05, 0.1, 0.5, 1.0, 2.0]
    tables = [ednt_exact(chain3, a) for a in grid]
    for lo, hi in zip(tables, tables[1:]):
        assert (hi <= lo + 1e-12).all()


def test_ednt_exact_scale_invariance():
    rng = random.Random(5)
    model = make_random_model(rng)
    c = 3.7
    scaled = CtbnModel(
        model.processes,
        tuple(Cim(cim.matrices * c) for cim in model.cims),
        initial_state=model.initial_state,
    )
    v1 = ednt_exact(model, 0.3)
    v2 = ednt_exact(scaled, 0.3 * c)
    assert np.allclose(v1, v2, atol=1e-10)


def _dense_ednt(model, alpha):
    Q = amalgamate(model)
    return np.linalg.solve(alpha * np.eye(len(Q)) - Q, -np.diag(Q))


@pytest.mark.parametrize("stiff", [False, True])
def test_ednt_exact_matches_dense_solve_on_random_models(stiff):
    rng = random.Random(41)
    for _ in range(30):
        if stiff:
            model = make_random_model(rng, max_states=64, rate_lo=1e-3, rate_hi=1e3,
                                      log_rates=True)
            alpha = 10 ** rng.uniform(-3, 1)
        else:
            model = make_random_model(rng, max_states=64)
            alpha = rng.uniform(0.05, 2.0)
        want = _dense_ednt(model, alpha)
        got = ednt_exact(model, alpha)
        assert (np.abs(got - want) <= 1e-9 * np.abs(want)).all()


def test_ednt_exact_independent_togglers_closed_form():
    # 2^16 states, no dense oracle: transition counts of independent
    # processes add, so V(x) = sum_j v_j(x_j) with the two-state values
    # v(0) = u (alpha + 2d) / (alpha (alpha + u + d)) and v(1) likewise
    up = np.linspace(0.2, 3.0, 16)
    down = np.linspace(4.0, 0.5, 16)
    alpha = 0.3
    model = independent_togglers(up.tolist(), down.tolist())
    got = ednt_exact(model, alpha)
    total = alpha * (alpha + up + down)
    v0 = up * (alpha + 2 * down) / total
    v1 = down * (alpha + 2 * up) / total
    bits = (np.arange(2 ** 16)[:, None] >> np.arange(15, -1, -1)[None, :]) & 1
    want = np.where(bits == 1, v1, v0).sum(axis=1)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_ednt_exact_absorbing_state_is_exactly_zero():
    # state 00 is absorbing.  A dense LU solve leaves rounding noise in
    # V[00] whose sign depends on the BLAS: -1.4e-18 made REDNT reject it as
    # a negative EDNT, +1.1e-16 gave its neighbors ratios near 1e16 in place
    # of the 'infinite' flag.
    model = CtbnModel(
        (ProcessSpec("A", 2), ProcessSpec("B", 2)),
        (Cim([[[-0.0, 0.0], [0.3201900409138983, -0.3201900409138983]]]),
         Cim([[[-0.0, 0.0], [538.6076586395066, -538.6076586395066]]])),
        initial_state=(0, 0),
    )
    alpha = 0.2658
    values = ednt_exact(model, alpha)
    assert values[0] == 0.0
    assert values[1] == pytest.approx(538.6076586395066 / (alpha + 538.6076586395066), rel=1e-14)
    assert values[2] == pytest.approx(0.3201900409138983 / (alpha + 0.3201900409138983),
                                      rel=1e-14)
    ranking = rednt(values, build_state_space_graph(model))
    assert ranking.flags == {0: "zero-ednt", 1: "infinite", 2: "infinite"}


def _ednt_by_ancestral_additivity(model, alpha):
    """Oracle: the transitions of process j depend only on its ancestral
    closure cl(j), so EDNT(x) = sum_j V_j(x on cl(j)), where V_j solves
    (alpha I - Q_cl(j)) V_j = q_j on the closure alone and q_j is the exit
    rate of j alone.  Each closure system is solved by sparse LU."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    g = ctbn_graph(model)
    full = np.unravel_index(np.arange(model.state_count), model.cardinalities)
    total = np.zeros(model.state_count)
    for j, proc in enumerate(model.processes):
        sub = ancestral_subprocess(model, ancestors(g, {proc.name}))
        states = np.unravel_index(np.arange(sub.state_count), sub.cardinalities)
        own = states[sub.names.index(proc.name)]
        parents = [sub.names.index(name) for name in proc.parents]
        config = (np.ravel_multi_index([states[i] for i in parents],
                                       [sub.cardinalities[i] for i in parents])
                  if parents else 0)
        q_j = -model.cims[j].matrices[config, own, own]
        Q = intensity_matrix(sub)
        V = spsolve((alpha * identity(sub.state_count) - Q).tocsc(), q_j)
        # a closure state without any exit has the row alpha e_i and V_j = 0
        V[Q.diagonal() == 0] = 0.0
        kept = [model.names.index(name) for name in sub.names]
        total += V[np.ravel_multi_index([full[i] for i in kept], sub.cardinalities)]
    return total


def _frozen_child_model():
    # B moves only while A is on, and A never leaves 0: states 00 and 01
    # have no exit at all
    return CtbnModel(
        (ProcessSpec("A", 2), ProcessSpec("B", 2, ("A",))),
        (Cim([[[-0.0, 0.0], [0.32, -0.32]]]),
         Cim([[[0.0, 0.0], [0.0, 0.0]], [[-2.0, 2.0], [1.5, -1.5]]])),
        initial_state=(0, 0),
    )


@pytest.mark.parametrize("model, alpha", [
    *[(experiment_spec(name).build_model(), 0.1) for name in sorted(EXPERIMENTS)],
    *[(make_random_model(random.Random(seed), max_states=64), 0.3) for seed in range(20)],
    (_frozen_child_model(), 0.2658),
])
def test_ednt_exact_matches_ancestral_additivity(model, alpha):
    want = _ednt_by_ancestral_additivity(model, alpha)
    got = ednt_exact(model, alpha)
    positive = want > 0
    assert np.array_equal(got > 0, positive)
    assert (got[~positive] == 0).all() and (want[~positive] == 0).all()
    assert (np.abs(got - want)[positive] <= 1e-10 * want[positive]).all()


def test_ednt_exact_reports_unconverged_solve(monkeypatch):
    import ctbn_sentry.sentry as sentry_mod

    monkeypatch.setattr(sentry_mod, "BACKWARD_ERROR_TOL", -1.0)  # unreachable
    with pytest.raises(ValueError, match="backward error .* after 8 refinement steps"):
        ednt_exact(toggler_model(2.0), 0.5)


def test_mc_agrees_with_exact_on_random_model():
    rng = random.Random(13)
    model = make_random_model(rng, max_states=8)
    alpha = 0.3
    t_end = 50.0  # e^(-15) truncation, far below the standard errors
    exact = ednt_exact(model, alpha)
    table = ednt_mc(model, alpha, SimulationConfig(t_end, 400, 21))
    for idx, est, se in zip(table.state_indices, table.estimates, table.stderrs):
        assert abs(est - exact[idx]) <= 3 * max(se, 1e-12)


def test_ednt_mc_state_order_independent(chain3):
    config = SimulationConfig(30.0, 60, 77)
    full = ednt_mc(chain3, 0.2, config)
    subset = ednt_mc(chain3, 0.2, config, states=[(1, 0, 0), (0, 0, 0)])
    for idx, est in zip(subset.state_indices, subset.estimates):
        pos = list(full.state_indices).index(idx)
        assert est == full.estimates[pos]


# -- REDNT -------------------------------------------------------------------------


def test_rednt_uniform_is_one(chain3):
    gs = build_state_space_graph(chain3)
    ranking = rednt(np.full(8, 3.3), gs)
    assert np.allclose(ranking.values, 1.0)


def test_rednt_reference_table(chain3):
    gs = build_state_space_graph(chain3)
    ednt = np.empty(8)
    for state, value in REFERENCE_EDNT.items():
        ednt[state_index(state, chain3)] = value
    ranking = rednt(ednt, gs)
    for state, expected in REFERENCE_REDNT.items():
        got = ranking.value_of(state_index(state, chain3))
        assert got == pytest.approx(expected, abs=1e-3)
    # the max ratio for the top state comes from its all-off neighbor
    assert ranking.value_of(4) == pytest.approx(6.316 / 3.976, abs=1e-12)


def test_rednt_floor_at_one():
    rng = random.Random(23)
    model = make_random_model(rng)
    gs = build_state_space_graph(model)
    ranking = rednt(ednt_exact(model, 0.4), gs)
    assert (ranking.values >= 1.0 - 1e-12).all()


def test_rednt_zero_neighbor_flags_infinity():
    gs = build_state_space_graph(toggler_model())
    ranking = rednt(np.array([0.0, 2.0]), gs)
    assert ranking.value_of(0) == 1.0 and ranking.flags[0] == "zero-ednt"
    assert ranking.value_of(1) == math.inf and ranking.flags[1] == "infinite"
    assert ranking.order == [1, 0]  # infinity sorts first


def test_rednt_all_zero_is_degenerate_ones():
    gs = build_state_space_graph(zero_rate_model(2))
    ranking = rednt(np.zeros(4), gs)
    assert np.allclose(ranking.values, 1.0)
    assert set(ranking.flags.values()) == {"zero-ednt"}


def test_rednt_partial_table_covers_filtered_states(chain3):
    gs = build_state_space_graph(chain3)
    exact = ednt_exact(chain3, 0.1)
    # estimate only the low-activity states plus their neighborhoods
    wanted = {0}
    for idx in (0, 1, 2, 4):
        wanted.add(idx)
        wanted.update(gs.neighbors(idx))
    table = EdntTable(
        np.array(sorted(wanted)),
        exact[sorted(wanted)],
        np.zeros(len(wanted)),
        np.zeros(len(wanted)),
    )
    ranking = rednt(table, gs)
    covered = set(ranking.state_indices.tolist())
    assert {0, 1, 2, 4} <= covered
    full = rednt(exact, gs)
    for idx in (0, 1, 2, 4):
        assert ranking.value_of(idx) == pytest.approx(full.value_of(idx), abs=1e-12)


def _rednt_loop(ednt, gs):
    """Reference REDNT: one Python pass over states and their neighbors."""
    if isinstance(ednt, EdntTable):
        values = dict(zip(ednt.state_indices.tolist(), ednt.estimates.tolist()))
    else:
        values = dict(enumerate(np.asarray(ednt, dtype=float).tolist()))
    out, flags = {}, {}
    for idx in sorted(values):
        own = values[idx]
        neighborhood = gs.neighbors(idx)
        if any(nb not in values for nb in neighborhood):
            continue
        if own < 0:
            raise ValueError(f"negative EDNT at state {idx}")
        best = 1.0
        if own == 0.0:
            flags[idx] = "zero-ednt"
        else:
            for nb in neighborhood:
                if values[nb] == 0.0:
                    best = math.inf
                    flags[idx] = "infinite"
                    break
                best = max(best, own / values[nb])
        out[idx] = best
    return out, flags


def test_rednt_matches_loop_reference():
    rng = random.Random(19)
    for trial in range(40):
        model = make_random_model(rng, max_states=48)
        gs = build_state_space_graph(model)
        n = model.state_count
        values = np.array([rng.choice((0.0, rng.uniform(0.1, 5.0))) if trial % 3 == 0
                           else rng.uniform(0.1, 5.0) for _ in range(n)])
        if trial % 2:
            keep = sorted(rng.sample(range(n), rng.randint(0, n)))
            rng.shuffle(keep)
            ednt = EdntTable(np.array(keep, dtype=int), values[keep],
                             np.zeros(len(keep)), np.zeros(len(keep)))
        else:
            ednt = values
        want, want_flags = _rednt_loop(ednt, gs)
        ranking = rednt(ednt, gs)
        assert ranking.state_indices.tolist() == sorted(want)
        assert ranking.values.tolist() == [want[i] for i in sorted(want)]
        assert ranking.flags == want_flags
        assert ranking.order == sorted(want, key=lambda i: (-want[i], i))


def test_rednt_rejects_negative_covered_state():
    gs = build_state_space_graph(toggler_model())
    with pytest.raises(ValueError, match="negative EDNT at state 1"):
        rednt(np.array([1.0, -1e-18]), gs)
    # a state whose neighborhood is not covered is skipped, not checked
    table = EdntTable(np.array([1]), np.array([-1.0]), np.zeros(1), np.zeros(1))
    assert len(rednt(table, gs).state_indices) == 0


# -- ranking -----------------------------------------------------------------------


def test_rank_sentry_states_chain3(chain3):
    gs = build_state_space_graph(chain3)
    ranking = rednt(ednt_exact(chain3, 0.1), gs)
    ranked = rank_sentry_states(ranking, 1)
    assert ranked[0] == (1, 0, 0)
    assert set(ranked) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_rank_sentry_states_k0(chain3):
    gs = build_state_space_graph(chain3)
    ranking = rednt(ednt_exact(chain3, 0.1), gs)
    assert rank_sentry_states(ranking, 0) == [(0, 0, 0)]


def test_rank_invariant_under_scaling(chain3):
    gs = build_state_space_graph(chain3)
    values = ednt_exact(chain3, 0.1)
    a = rank_sentry_states(rednt(values, gs), 2)
    b = rank_sentry_states(rednt(values * 17.0, gs), 2)
    assert a == b


def test_rank_requires_binary():
    rng = random.Random(4)
    model = make_random_model(rng)
    while all(c == 2 for c in model.cardinalities):
        model = make_random_model(rng)
    gs = build_state_space_graph(model)
    ranking = rednt(ednt_exact(model, 0.5), gs)
    with pytest.raises(ValueError):
        rank_sentry_states(ranking, 1)


def test_rank_tie_break_by_state_index(chain3):
    gs = build_state_space_graph(chain3)
    ranking = rednt(np.full(8, 2.0), gs)  # all REDNT exactly 1.0
    ranked = rank_sentry_states(ranking, 3)
    assert ranked == [state_from_index(i, chain3) for i in range(8)]


# -- stopping rule -----------------------------------------------------------------


def test_stopping_rule_zero_model():
    res = stopping_rule_ednt(zero_rate_model(), (0,), 0.5, 10.0, 0.01,
                             batch=32, cap=10_000, seed=3)
    assert res.estimate == 0.0
    assert res.trajectories_used == 32
    assert res.stopped_by == "halfwidth"


def test_stopping_rule_convergence():
    res = stopping_rule_ednt(toggler_model(2.0), (0,), 0.5, 40.0, 0.01,
                             batch=500, cap=500_000, seed=5)
    assert res.stopped_by == "halfwidth"
    assert abs(res.estimate - 4.0) / 4.0 < 0.01 + 3 * res.stderr / 4.0


def test_stopping_rule_cap_binding():
    res = stopping_rule_ednt(toggler_model(2.0), (0,), 0.5, 40.0, 1e-9,
                             batch=64, cap=64, seed=5)
    assert res.trajectories_used == 64
    assert res.stopped_by == "cap"


def test_stopping_rule_validates_epsilon():
    with pytest.raises(ValueError):
        stopping_rule_ednt(toggler_model(), (0,), 0.5, 10.0, 0.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
def test_stopping_rule_validates_alpha(alpha, no_sampling):
    with pytest.raises(ValueError, match="alpha must be positive"):
        stopping_rule_ednt(toggler_model(), (0,), alpha, 5.0, 0.5, batch=10, cap=10, seed=1)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
def test_stopping_rule_validates_horizon(t_end, no_sampling):
    with pytest.raises(ValueError, match="t_end must be finite and non-negative"):
        stopping_rule_ednt(toggler_model(), (0,), 0.5, t_end, 0.1, batch=5, cap=5)


@pytest.mark.parametrize("alpha", [0.0, math.inf, math.nan])
def test_ednt_mc_validates_alpha(alpha, no_sampling):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        ednt_mc(toggler_model(), alpha, SimulationConfig(5.0, 10, 1))


def test_ednt_mc_validates_the_model_once(chain3, monkeypatch):
    model = CtbnModel(chain3.processes, chain3.cims, initial_state=(0, 0, 0))  # nothing cached
    calls = []
    real = model_module.validate_model
    monkeypatch.setattr(model_module, "validate_model",
                        lambda m, *args: calls.append(m) or real(m, *args))
    table = ednt_mc(model, 0.3, SimulationConfig(2.0, 20, 1),
                    states=[(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert len(table) == 3
    assert calls == [model]


BAD_INITIAL = pytest.mark.parametrize("initial, message", [
    ((1, 1), "state has 2 entries, model has 1 processes"),
    ((5,), "local state 5 out of range for cardinality 2"),
], ids=["length", "range"])


@BAD_INITIAL
def test_stopping_rule_validates_initial(initial, message, no_sampling):
    with pytest.raises(ValueError, match=message):
        stopping_rule_ednt(toggler_model(), initial, 0.5, 5.0, 0.5, batch=10, cap=10, seed=1)


@BAD_INITIAL
def test_discounted_reward_mc_validates_initial(initial, message, no_sampling):
    with pytest.raises(ValueError, match=message):
        discounted_reward_mc(toggler_model(), initial, RewardSpec(0.5),
                             SimulationConfig(5.0, 10, 1))


# -- pinned Monte Carlo streams ------------------------------------------------------
# One stream contract: trajectory k of every Monte Carlo estimate from state x is
# keyed by derive_seed(seed, state_index(x), k).  The pins were recorded when the
# batched engine, with its counter-based SplitMix64 draws, replaced the
# per-trajectory competing-clocks sampler.


def test_ednt_mc_stream_pinned():
    table = ednt_mc(toggler_model(2.0, 3.0), 0.5, SimulationConfig(4.0, 50, 7))
    assert table.state_indices.tolist() == [0, 1]
    assert table.estimates.tolist() == pytest.approx(
        [3.644508134108857, 4.146203148991033], rel=1e-12)
    assert table.stderrs.tolist() == pytest.approx(
        [0.2179850389519945, 0.2306235924858461], rel=1e-12)
    assert table.trajectory_counts.tolist() == [50, 50]


@pytest.mark.parametrize("epsilon, batch, cap, expected", [
    (0.05, 20, 2000, (4.349813564289043, 0.10630687464715578, 220, "halfwidth")),
    (0.001, 30, 90, (4.623616395413057, 0.17182075374175854, 90, "cap")),
])
def test_stopping_rule_stream_pinned(epsilon, batch, cap, expected):
    res = stopping_rule_ednt(toggler_model(2.0, 3.0), (1,), 0.5, 4.0, epsilon,
                             batch=batch, cap=cap, seed=11)
    estimate, stderr, used, stopped_by = expected
    assert res.estimate == pytest.approx(estimate, rel=1e-12)
    assert res.stderr == pytest.approx(stderr, rel=1e-12)
    assert (res.trajectories_used, res.stopped_by) == (used, stopped_by)


@pytest.mark.parametrize("reward, expected", [
    (RewardSpec(0.3), (13.579604624151179, 0.6500983147625164)),
    (RewardSpec(0.3, lump_sum=lambda x, y: 1.0 + sum(y),
                instantaneous=lambda x: 0.5 * x[2]),
     (32.47447381496496, 1.7813539281792192)),
], ids=["counting", "general"])
def test_discounted_reward_mc_stream_pinned(chain3, reward, expected):
    mean, se = discounted_reward_mc(chain3, (1, 0, 0), reward, SimulationConfig(6.0, 40, 3))
    assert (mean, se) == pytest.approx(expected, rel=1e-12)


def test_three_estimators_share_one_stream(chain3):
    config = SimulationConfig(20.0, 300, 5)
    table = ednt_mc(chain3, 0.3, config, states=[(1, 0, 0)])
    res = stopping_rule_ednt(chain3, (1, 0, 0), 0.3, 20.0, None, cap=300, seed=5)
    reward = discounted_reward_mc(chain3, (1, 0, 0), RewardSpec(0.3), config)
    assert (table.estimates[0], table.stderrs[0]) == (res.estimate, res.stderr) == reward
    # a general reward that counts transitions runs the same rounds, bit for bit
    general = RewardSpec(0.3, lump_sum=lambda x, y: 1.0, instantaneous=lambda x: 0.0)
    assert discounted_reward_mc(chain3, (1, 0, 0), general, config) == reward
    assert reward == pytest.approx((16.72446926179005, 0.24198924306259864), rel=1e-12)
    assert table.trajectory_counts.tolist() == [300]
    assert (res.trajectories_used, res.stopped_by) == (300, "cap")


def test_ednt_mc_epsilon_reports_trajectories_spent(chain3):
    config = SimulationConfig(20.0, 4000, 5)
    states = [(0, 0, 0), (1, 0, 0)]
    table = ednt_mc(chain3, 0.3, config, states=states, epsilon=0.05)
    for state, est, se, used in zip(states, table.estimates, table.stderrs,
                                    table.trajectory_counts):
        res = stopping_rule_ednt(chain3, state, 0.3, 20.0, 0.05, cap=4000, seed=5)
        assert (est, se, used) == (res.estimate, res.stderr, res.trajectories_used)
        assert used < 4000


# -- the round loop ------------------------------------------------------------------


def _record_runs(monkeypatch) -> list[dict]:
    """Record every Monte Carlo engine run: its trajectories, its width and
    the most members it yielded in one step."""
    runs = []
    real = sentry_module._steps

    def steps(table, keys, start, t_end, width=None):
        run = {"size": keys.size, "width": width, "live": 0}
        runs.append(run)
        for step in real(table, keys, start, t_end, width):
            run["live"] = max(run["live"], step[0].size)
            yield step
    monkeypatch.setattr(sentry_module, "_steps", steps)
    return runs


@pytest.mark.parametrize("epsilon, cap, batches_per_call", [
    (0.02, 1100, None),  # states stop in different rounds, one on a short last batch
    (None, 300, None),  # fixed count: one batch of the cap per state
    (0.02, 1100, 3),  # a round refills a run three batches wide
    (0.02, 1100, 0.75),  # a budget below one batch: a batch runs in refilled slots
], ids=["epsilon", "fixed-count", "small-budget", "below-one-batch"])
def test_ednt_mc_rounds_match_per_state_rule(chain3, monkeypatch, epsilon, cap,
                                              batches_per_call):
    states = list(range(8))
    want = [stopping_rule_ednt(chain3, state_from_index(i, chain3), 0.3, 20.0, epsilon,
                               cap=cap, seed=5) for i in states]
    if batches_per_call is not None:
        monkeypatch.setattr(sentry_module, "MC_CALL_BYTES",
                            int(batches_per_call * sentry_module.MC_BATCH)
                            * _step_bytes(chain3.rate_table))
    runs = _record_runs(monkeypatch)
    table = ednt_mc(chain3, 0.3, SimulationConfig(20.0, cap, 5), states=states,
                    epsilon=epsilon)
    got = list(zip(table.estimates.tolist(), table.stderrs.tolist(),
                   table.trajectory_counts.tolist(), table.stopped_by.tolist()))
    assert got == [(r.estimate, r.stderr, r.trajectories_used, r.stopped_by) for r in want]

    counts = table.trajectory_counts
    batch = cap if epsilon is None else sentry_module.MC_BATCH
    rounds = -(-counts.max() // batch)
    if epsilon is not None:
        assert len(set(counts.tolist())) >= 3
        assert set(table.stopped_by.tolist()) == {"halfwidth", "cap"}
    # one engine run per round, of every running state's batch, at most the
    # budget's width live at once
    limit = sentry_module.MC_CALL_BYTES // _step_bytes(chain3.rate_table)
    assert [run["size"] for run in runs] == [
        np.clip(counts - r * batch, 0, batch).sum() for r in range(rounds)]
    assert {run["width"] for run in runs} == {limit}
    assert all(0 < run["live"] <= min(run["size"], limit) for run in runs)
    if batches_per_call is not None:  # runs past their width, refilled near full
        assert any(run["size"] > 2 * limit and run["live"] > 0.9 * limit for run in runs)


def test_engine_calls_stay_within_the_budget(chain3, monkeypatch):
    # fixed counts past the budget: one engine run, refilled, never wider
    # than MC_CALL_BYTES // step
    limit = sentry_module.MC_CALL_BYTES // _step_bytes(chain3.rate_table)
    config = SimulationConfig(5.0, 2 * limit + 300, 4)
    count, states = config.trajectory_count, [0, 5]
    runs = _record_runs(monkeypatch)
    table = ednt_mc(chain3, 0.5, config, states=states)
    total = len(states) * count
    assert [(run["size"], run["width"]) for run in runs] == [(total, limit)]
    assert 0.9 * limit < runs[0]["live"] <= limit
    mean, stderr = discounted_reward_mc(chain3, (1, 0, 1), RewardSpec(0.5), config)
    assert [(run["size"], run["width"]) for run in runs[1:]] == [(count, limit)]
    assert (mean, stderr) == (table.estimates[1], table.stderrs[1])
    # a general reward holds its states too: a narrower run, the same scores
    general = RewardSpec(0.5, lump_sum=lambda x, y: 1.0, instantaneous=lambda x: 0.0)
    # two state tuples and about 20 words more per trajectory (3 processes)
    small = sentry_module.MC_CALL_BYTES // (_step_bytes(chain3.rate_table) + 8 * (2 * 3 + 20))
    assert small < limit
    assert discounted_reward_mc(chain3, (1, 0, 1), general, config) == (mean, stderr)
    assert [(run["size"], run["width"]) for run in runs[2:]] == [(count, small)]
    assert 0.9 * small < runs[2]["live"] <= small
    # the same scores with every trajectory of the round live at once
    monkeypatch.setattr(sentry_module, "MC_CALL_BYTES", 1 << 40)
    whole = ednt_mc(chain3, 0.5, config, states=states)
    assert runs[3]["live"] > limit
    assert whole.estimates.tolist() == table.estimates.tolist()
    assert whole.stderrs.tolist() == table.stderrs.tolist()


@pytest.mark.parametrize("alpha, epsilon, message", [
    (math.nan, None, "alpha must be positive and finite"),
    (0.0, 0.1, "alpha must be positive and finite"),
    (0.1, -1.0, "relative_halfwidth must be positive"),
    (0.1, 0.0, "relative_halfwidth must be positive"),
])
def test_ednt_mc_validates_without_states(alpha, epsilon, message, no_sampling):
    with pytest.raises(ValueError, match=message):
        ednt_mc(toggler_model(), alpha, SimulationConfig(5.0, 10, 1), states=[],
                epsilon=epsilon)


def test_ednt_mc_accepts_any_integer_index(chain3):
    config = SimulationConfig(5.0, 30, 2)
    by_state = ednt_mc(chain3, 0.3, config, states=[(0, 1, 1)])
    for index in (3, np.int64(3), np.int32(3), np.uint8(3)):
        table = ednt_mc(chain3, 0.3, config, states=[index, (0, 1, 1)])
        assert table.state_indices.tolist() == [3]
        assert table.estimates.tolist() == by_state.estimates.tolist()


@pytest.mark.parametrize("index", [8, -1, np.int64(8), 1 << 70])
def test_ednt_mc_rejects_out_of_range_index(chain3, index, no_sampling):
    with pytest.raises(ValueError, match="out of range"):
        ednt_mc(chain3, 0.3, SimulationConfig(5.0, 10, 1), states=[index])


@pytest.mark.parametrize("states, message", [
    ([(0, 1.5, 0)], "local state 1.5 is not an integer"),  # estimated state 2
    ([2.0], "state index 2.0 is not an integer"),  # a TypeError from len()
    ([3, 2.0], "state index 2.0 is not an integer"),
    ([(0, 1, 0), 2.7], "state index 2.7 is not an integer"),
], ids=["local-float", "index-float", "mixed-indices", "mixed-kinds"])
def test_ednt_mc_rejects_non_integer_states(chain3, states, message, no_sampling):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ednt_mc(chain3, 0.3, SimulationConfig(5.0, 10, 1), states=states)


def test_flat_calls_hold_more_trajectories(monkeypatch, no_flat_table):
    # on chain13 (the benchmark's Monte Carlo model) a flat step holds the
    # survivors' rows of 13 real moves, not 13 x 2 candidate columns: an
    # engine call runs at least twice the 1 057 trajectories it ran when
    # both paths were counted by the general path's bytes
    table = chain13_model().rate_table
    flat = sentry_module.MC_CALL_BYTES // _step_bytes(table)
    assert flat >= 2 * 1057
    monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", 0)
    assert sentry_module.MC_CALL_BYTES // _step_bytes(table) == 1057


def test_ednt_table_stop_reasons_default_to_empty():
    table = EdntTable([0, 1], [1.0, 2.0], [0.1, 0.2], [10, 10])
    assert table.stopped_by.tolist() == ["", ""]


# -- report ------------------------------------------------------------------------


def test_sentry_report_csv(chain3, tmp_path):
    gs = build_state_space_graph(chain3)
    values = ednt_exact(chain3, 0.1)
    ranking = rednt(values, gs)
    path = tmp_path / "report.csv"
    write_sentry_report(path, ranking)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "state_bits,ednt,ednt_stderr,rednt,active_alarms"
    assert len(lines) == 9
    assert lines[1].startswith("100,")  # best REDNT first
    # REDNT column is non-increasing
    rednt_col = [float(line.split(",")[3]) for line in lines[1:]]
    assert rednt_col == sorted(rednt_col, reverse=True)


def _reference_sentry_report(path, ednt, ranking):
    """The row-by-row writer that the columnar one replaced."""
    if isinstance(ednt, EdntTable):
        indices = ednt.state_indices.tolist()
        values = dict(zip(indices, ednt.estimates.tolist()))
        errors = dict(zip(indices, ednt.stderrs.tolist()))
    else:
        values = dict(enumerate(np.asarray(ednt, dtype=float).tolist()))
        errors = {i: 0.0 for i in values}
    gs = ranking.graph
    relative = dict(zip(ranking.state_indices.tolist(), ranking.values.tolist()))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state_bits", "ednt", "ednt_stderr", "rednt", "active_alarms"])
        for idx in ranking.order:
            state = state_from_index(idx, gs)
            w.writerow(["".join(str(v) for v in state), format_float(values[idx]),
                        format_float(errors[idx]), format_float(relative[idx]),
                        active_alarm_count(state)])


def _wide_model():
    """A 12-state process (two-digit local states) driving a binary one."""
    rng = np.random.default_rng(4)
    a = rng.uniform(0.1, 2.0, (1, 12, 12))
    b = rng.uniform(0.1, 2.0, (12, 2, 2))
    for m in (a, b):
        for mat in m:
            np.fill_diagonal(mat, 0.0)
            np.fill_diagonal(mat, -mat.sum(axis=1))
    return CtbnModel((ProcessSpec("A", 12), ProcessSpec("B", 2, ("A",))), (Cim(a), Cim(b)),
                     initial_state=(0, 0))


def test_sentry_report_matches_row_writer(chain3, tmp_path):
    low = low_activity_states(chain3, 1, neighbors=True)
    table = ednt_mc(chain3, 0.3, SimulationConfig(5.0, 40, 3), states=low[::-1])
    shuffled = np.random.default_rng(2).permutation(len(table))
    cases = [
        (chain3, ednt_exact(chain3, 0.1)),
        (chain3, table),
        (chain3, EdntTable(table.state_indices[shuffled], table.estimates[shuffled],
                           table.stderrs[shuffled], table.trajectory_counts[shuffled])),
        (zero_rate_model(2), ednt_exact(zero_rate_model(2), 0.5)),  # flagged, all ties
        (make_random_model(random.Random(7), max_states=36), None),
        (_wide_model(), None),
    ]
    for k, (model, ednt) in enumerate(cases):
        if ednt is None:
            ednt = ednt_exact(model, 0.4)
        ranking = rednt(ednt, build_state_space_graph(model))
        write_sentry_report(tmp_path / f"new{k}.csv", ranking)
        _reference_sentry_report(tmp_path / f"old{k}.csv", ednt, ranking)
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"old{k}.csv").read_bytes()
    rows = (tmp_path / "new5.csv").read_text().splitlines()[1:]
    assert any(len(row.split(",")[0]) == 3 for row in rows)  # a two-digit local state

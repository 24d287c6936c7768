import math
import random

import numpy as np
import pytest

from ctbn_sentry import (
    SimulationConfig,
    Trajectory,
    amalgamate,
    derive_seed,
    read_ensemble_csv,
    read_trajectory_csv,
    sample_ensemble,
    sample_trajectory,
    state_at,
    state_index,
    transient_distribution,
    write_ensemble_csv,
    write_trajectory_csv,
)
from conftest import make_random_model, toggler_model, zero_rate_model


def test_seed_derivation_is_pinned():
    # frozen values: the mixing function is a compatibility contract
    assert derive_seed(0) == 16294208416658607535
    assert derive_seed(0, 0) == 12935080325729570654
    assert derive_seed(42, 3) == 12486891393509037881
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(5, 5) != derive_seed(7, 7)
    assert derive_seed(-1, 0) == derive_seed((1 << 64) - 1, 0)


def test_empty_horizon_gives_no_events(chain3):
    traj = sample_trajectory(chain3, (0, 0, 0), 0.0, 1)
    assert traj.event_count == 0
    assert traj.initial_state == (0, 0, 0)


def test_zero_rates_give_no_events():
    traj = sample_trajectory(zero_rate_model(2), (0, 0), 500.0, 4)
    assert traj.event_count == 0


def test_determinism(chain3):
    a = sample_trajectory(chain3, (0, 0, 0), 25.0, 99)
    b = sample_trajectory(chain3, (0, 0, 0), 25.0, 99)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.processes, b.processes)
    assert np.array_equal(a.new_states, b.new_states)
    c = sample_trajectory(chain3, (0, 0, 0), 25.0, 100)
    assert not np.array_equal(a.times, c.times)


def test_ensemble_matches_single_draws(chain3):
    config = SimulationConfig(10.0, 5, master_seed=123)
    ensemble = sample_ensemble(chain3, (0, 0, 0), config)
    assert len(ensemble) == 5
    for k, traj in enumerate(ensemble):
        solo = sample_trajectory(chain3, (0, 0, 0), 10.0, derive_seed(123, k))
        assert np.array_equal(traj.times, solo.times)
        assert np.array_equal(traj.processes, solo.processes)


def test_trajectory_invariants(chain3):
    traj = sample_trajectory(chain3, (0, 0, 0), 50.0, 5)
    assert traj.event_count > 10
    assert traj.times[0] > 0
    assert (np.diff(traj.times) > 0).all()
    assert traj.times[-1] <= 50.0
    # exactly one component changes, and to a genuinely new value
    values = list(traj.initial_state)
    for ev in traj.iter_events():
        assert values[ev.process] != ev.new_local_state
        values[ev.process] = ev.new_local_state


@pytest.mark.parametrize("times", [[math.nan], [1.0, math.nan], [1.0, math.inf]])
def test_trajectory_rejects_non_finite_times(times):
    with pytest.raises(ValueError, match="finite"):
        Trajectory((0,), times, [0] * len(times), [1] * len(times), math.inf)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
def test_sample_trajectory_validates_horizon(t_end, no_sampling):
    with pytest.raises(ValueError, match="t_end must be finite and non-negative"):
        sample_trajectory(toggler_model(), None, t_end, 1)


def test_mean_holding_time_matches_rate():
    # symmetric toggler: inter-event gaps are exponential with rate q
    q = 2.0
    traj = sample_trajectory(toggler_model(q), (0,), 5000.0, 7)
    gaps = np.diff(np.concatenate(([0.0], traj.times)))
    n = len(gaps)
    assert n > 9000
    se = gaps.std(ddof=1) / math.sqrt(n)
    assert abs(gaps.mean() - 1 / q) < 3 * se


def test_first_event_distribution(chain3):
    # from rest, the competing clocks fire the root first with odds 1.0 : 0.2
    n = 10_000
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(5.0, n, 2024))
    first = [traj.processes[0] for traj in ensemble if traj.event_count]
    frac_root = sum(1 for p in first if p == 0) / len(first)
    expected = 1.0 / 1.2
    se = math.sqrt(expected * (1 - expected) / len(first))
    assert abs(frac_root - expected) < 3 * se


def test_initial_distribution_sampling(chain3):
    from ctbn_sentry import CtbnModel

    dist = np.zeros(8)
    dist[state_index((1, 1, 1), chain3)] = 0.25
    dist[state_index((0, 0, 0), chain3)] = 0.75
    m = CtbnModel(chain3.processes, chain3.cims, initial_distribution=dist)
    ensemble = sample_ensemble(m, None, SimulationConfig(0.0, 4000, 11))
    frac = sum(1 for t in ensemble if t.initial_state == (1, 1, 1)) / len(ensemble)
    assert abs(frac - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 4000)
    again = sample_ensemble(m, None, SimulationConfig(0.0, 4000, 11))
    assert [t.initial_state for t in ensemble] == [t.initial_state for t in again]


def test_transient_distribution_agreement():
    # two-process chain: empirical state law at t versus the matrix exponential
    rng = random.Random(2)
    model = make_random_model(rng, max_states=6)
    n = 20_000
    t = 0.8
    ensemble = sample_ensemble(model, model.initial_state, SimulationConfig(t, n, 31))
    counts = np.zeros(model.state_count)
    for traj in ensemble:
        counts[state_index(state_at(traj, t), model)] += 1
    empirical = counts / n
    Q = amalgamate(model)
    p0 = np.zeros(model.state_count)
    p0[state_index(model.initial_state, model)] = 1.0
    expected = transient_distribution(Q, p0, t)
    for p_hat, p in zip(empirical, expected):
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(p_hat - p) <= 4 * se


def test_holding_times_match_amalgamated_exit_rates(chain3):
    # occupying joint state x, the holding time is exponential with the
    # amalgamated exit rate; only holds starting well before the horizon are
    # recorded, otherwise truncation biases the completed-hold mean downward
    Q = amalgamate(chain3)
    cutoff = 12.0
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(20.0, 1500, 17))
    holds = {i: [] for i in range(8)}
    for traj in ensemble:
        values = list(traj.initial_state)
        prev_t = 0.0
        for ev in traj.iter_events():
            if prev_t < cutoff:
                holds[state_index(tuple(values), chain3)].append(ev.time - prev_t)
            values[ev.process] = ev.new_local_state
            prev_t = ev.time
    checked = 0
    for i, samples in holds.items():
        if len(samples) < 200:
            continue
        arr = np.asarray(samples)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - 1 / -Q[i, i]) < 3 * se
        checked += 1
    assert checked >= 6


def test_state_at(chain3):
    traj = sample_trajectory(chain3, (0, 0, 0), 30.0, 21)
    assert state_at(traj, 0.0) == (0, 0, 0)
    t1 = float(traj.times[0])
    j = int(traj.processes[0])
    post = list((0, 0, 0))
    post[j] = int(traj.new_states[0])
    assert state_at(traj, t1) == tuple(post)  # right-continuity at the jump
    if traj.event_count >= 2:
        mid = (traj.times[0] + traj.times[1]) / 2
        assert state_at(traj, float(mid)) == tuple(post)
    with pytest.raises(ValueError):
        state_at(traj, -0.1)
    with pytest.raises(ValueError):
        state_at(traj, 30.1)


def test_trajectory_csv_round_trip(chain3, tmp_path):
    traj = sample_trajectory(chain3, (0, 1, 0), 12.0, 77)
    path = tmp_path / "one.csv"
    write_trajectory_csv(traj, path, chain3.names)
    loaded, names = read_trajectory_csv(path, t_end=12.0)
    assert names == list(chain3.names)
    assert loaded.initial_state == traj.initial_state
    assert np.array_equal(loaded.times, traj.times)  # 17 digits: bit-exact
    assert np.array_equal(loaded.processes, traj.processes)
    assert np.array_equal(loaded.new_states, traj.new_states)


def test_ensemble_csv_round_trip(chain3, tmp_path):
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(6.0, 3, 5))
    path = tmp_path / "all.csv"
    write_ensemble_csv(ensemble, path, chain3.names)
    loaded, names = read_ensemble_csv(path, t_end=6.0)
    assert names == list(chain3.names)
    assert len(loaded) == 3
    for a, b in zip(loaded, ensemble):
        assert np.array_equal(a.times, b.times)
        assert a.initial_state == b.initial_state

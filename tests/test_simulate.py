import csv
import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from ctbn_sentry import (
    Cim,
    CtbnModel,
    Ensemble,
    ProcessSpec,
    SimulationConfig,
    StateSpaceGraph,
    Trajectory,
    amalgamate,
    compare_rednt_vs_naive,
    derive_seed,
    ednt_exact,
    ednt_mc,
    enumerate_states,
    experiment_spec,
    intensity_matrix,
    read_ensemble_csv,
    read_trajectory_csv,
    sample_ensemble,
    sample_trajectory,
    state_at,
    state_from_index,
    state_index,
    stopping_rule_ednt,
    transient_distribution,
    write_ensemble_csv,
    write_trajectory_csv,
)
from ctbn_sentry import model as model_module
from ctbn_sentry import simulate as simulate_module
from ctbn_sentry.model import states_from_indices
from ctbn_sentry.simulate import (_MASK64, _member_keys, _splitmix64, _step_bytes, _stream,
                                  format_float)
from conftest import (chain13_model, chain_model, independent_togglers, make_random_model,
                      random_trajectories, toggler_model, zero_rate_model)


@pytest.mark.parametrize("n", [64, 100])
def test_sampling_past_int64_joint_indices(n, tmp_path):
    # the joint space has 2^n states, more than int64 indices reach; the
    # sampler works on local states and never needs a joint index
    model = chain_model(n)
    with pytest.raises(ValueError, match=f"{2 ** n} states"):
        state_index(model.initial_state, model)
    config = SimulationConfig(3.0, 4, 11)
    ensemble = sample_ensemble(model, None, config)
    assert ensemble.event_count > 0 and ensemble.initial_states.shape == (4, n)
    assert sample_ensemble(model, (1,) + (0,) * (n - 1), config).initial_states[:, 0].all()
    for bad in [(0,) * (n - 1), (2,) + (0,) * (n - 1), (0.5,) + (0,) * (n - 1)]:
        with pytest.raises(ValueError):
            sample_ensemble(model, bad, config)
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(ensemble, path, model.names)
    again, names = read_ensemble_csv(path, config.t_end)
    assert names == list(model.names)
    assert np.array_equal(again.times, ensemble.times)
    assert np.array_equal(again.initial_states, ensemble.initial_states)


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
        assert np.array_equal(traj.new_states, solo.new_states)


def test_ensemble_member_is_its_own_draw(chain3):
    # member k depends on (master, k) alone: not on the ensemble's size, and
    # an initial state drawn from the model's distribution is drawn the same way
    dist = np.full(8, 1 / 8)
    spread = CtbnModel(chain3.processes, chain3.cims, initial_distribution=dist)
    for model, initial in ((chain3, (0, 1, 0)), (spread, None)):
        big = sample_ensemble(model, initial, SimulationConfig(15.0, 40, 77))
        small = sample_ensemble(model, initial, SimulationConfig(15.0, 3, 77))
        for k in (0, 2, 39):
            solo = sample_trajectory(model, initial, 15.0, derive_seed(77, k))
            for member in (big[k], small[k]) if k < 3 else (big[k],):
                assert member.initial_state == solo.initial_state
                assert np.array_equal(member.times, solo.times)
                assert np.array_equal(member.processes, solo.processes)
                assert np.array_equal(member.new_states, solo.new_states)
    assert len({t.initial_state for t in big}) > 1


def test_stream_matches_scalar_splitmix64():
    rng = random.Random(5)
    keys = [0, 1, _MASK64, derive_seed(3, 4)] + [rng.getrandbits(64) for _ in range(60)]
    for counter in (0, 1, 2, 7, 1000, 2**40 + 3):
        got = _stream(np.array(keys, dtype=np.uint64), [counter])[:, 0].tolist()
        assert got == [_splitmix64((k + counter * 0x9E3779B97F4A7C15) & _MASK64) for k in keys]
    # ensemble keys continue the stream of derive_seed(master) itself
    assert _member_keys(derive_seed(9), range(2, 6)).tolist() == [
        derive_seed(9, k) for k in range(2, 6)]


def test_trajectory_invariants(chain3):
    traj = sample_trajectory(chain3, (0, 0, 0), 50.0, 5)
    assert traj.event_count > 10
    assert traj.times[0] > 0
    assert (np.diff(traj.times) > 0).all()
    assert traj.times[-1] <= 50.0
    # exactly one component changes, and to a genuinely new value
    values = list(traj.initial_state)
    for j, s in zip(traj.processes.tolist(), traj.new_states.tolist()):
        assert values[j] != s
        values[j] = s


@pytest.mark.parametrize("times", [[math.nan], [1.0, math.nan], [1.0, math.inf]])
def test_trajectory_rejects_non_finite_times(times):
    with pytest.raises(ValueError, match="finite"):
        Trajectory((0,), times, [0] * len(times), [1] * len(times), math.inf)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
def test_sample_trajectory_validates_horizon(t_end, no_sampling):
    with pytest.raises(ValueError, match="t_end must be finite and non-negative"):
        sample_trajectory(toggler_model(), None, t_end, 1)


@pytest.mark.parametrize("count, seed, field", [
    (2.5, 1, "trajectory_count"),
    (3.0, 1, "trajectory_count"),
    (3, 1.5, "master_seed"),
    (3, "7", "master_seed"),
])
def test_simulation_config_requires_integers(count, seed, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimulationConfig(10.0, count, seed)
    config = SimulationConfig(10.0, np.int64(3), np.uint64(7))  # numpy integers are integers
    assert (config.trajectory_count, config.master_seed) == (3, 7)


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
        for t, j, s in zip(traj.times.tolist(), traj.processes.tolist(),
                           traj.new_states.tolist()):
            if prev_t < cutoff:
                holds[state_index(tuple(values), chain3)].append(t - prev_t)
            values[j] = s
            prev_t = t
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


UNUSUAL_NAMES = ["a,b", 'q"x', " lead", "naïve"]  # quoted, quoted, a leading space, not ASCII


def test_csv_round_trip_with_unusual_names(tmp_path):
    ensemble = sample_ensemble(chain_model(4), None, SimulationConfig(8.0, 5, 18))
    path, lf = tmp_path / "all.csv", tmp_path / "lf.csv"
    write_ensemble_csv(ensemble, path, UNUSUAL_NAMES)
    assert b'"a,b"' in path.read_bytes() and b'"q""x"' in path.read_bytes()
    lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    for source in (path, lf):
        loaded, names = read_ensemble_csv(source, t_end=8.0)
        assert names == UNUSUAL_NAMES
        assert np.array_equal(loaded.offsets, ensemble.offsets)
        assert np.array_equal(loaded.times, ensemble.times)  # bit-equal
        assert np.array_equal(loaded.processes, ensemble.processes)
        assert np.array_equal(loaded.new_states, ensemble.new_states)
        assert np.array_equal(loaded.initial_states, ensemble.initial_states)
    write_trajectory_csv(ensemble[2], path, UNUSUAL_NAMES)
    lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    for source in (path, lf):
        loaded, names = read_trajectory_csv(source, t_end=8.0)
        assert names == UNUSUAL_NAMES
        assert loaded.initial_state == ensemble[2].initial_state
        assert np.array_equal(loaded.times, ensemble[2].times)
        assert np.array_equal(loaded.processes, ensemble[2].processes)


def test_header_only_csv_reads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("trajectory_id,time,process,state\r\n")
    ensemble, names = read_ensemble_csv(path)
    assert (len(ensemble), ensemble.event_count, names) == (0, 0, [])
    path.write_text("time,process,state\n")
    trajectory, names = read_trajectory_csv(path)
    assert (trajectory.initial_state, trajectory.event_count, names) == ((), 0, [])


def test_read_trajectory_csv_takes_one_member_of_either_layout(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("time,process,state\n0.0,A,1\n0.0,B,0\n2.5,B,1\n")
    ensemble, names = read_ensemble_csv(path)  # no id column: one member, id 0
    assert (ensemble.ids.tolist(), names, ensemble.t_end) == ([0], ["A", "B"], 2.5)
    assert ensemble.initial_states.tolist() == [[1, 0]]
    path.write_text("trajectory_id,time,process,state\n4,0.0,A,0\n4,1.5,A,1\n")
    trajectory, names = read_trajectory_csv(path)
    assert (trajectory.initial_state, trajectory.times.tolist(), names) == ((0,), [1.5], ["A"])
    for text, count in (("trajectory_id,time,process,state\n0,0.0,A,0\n1,0.0,A,1\n", 2),
                        ("trajectory_id,time,process,state\n", 0)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"holds {count} trajectories, expected one"):
            read_trajectory_csv(path)


def test_read_ensemble_csv_requires_every_initial_row(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("trajectory_id,time,process,state\n0,0.0,A,0\n0,0.0,B,0\n"
                    "1,0.0,A,1\n1,1.0,B,1\n")
    with pytest.raises(ValueError, match="process 'B' has no time-0 row in trajectory 1"):
        read_ensemble_csv(path)


@pytest.mark.parametrize("state", [40000, -1])
def test_read_ensemble_csv_rejects_local_states_past_int16(state, tmp_path):
    # checked on the parsed integers, before they are narrowed to int16
    path = tmp_path / "wide.csv"
    for header, id_cell in (("time,process,state", ""), ("trajectory_id,time,process,state", "3,")):
        path.write_text(f"{header}\n{id_cell}0.0,A,0\n{id_cell}1.5,A,{state}\n")
        with pytest.raises(ValueError, match=r"^local states must be in \[0, 32767\]$"):
            read_ensemble_csv(path)


def _interleaved(path, out) -> None:
    """Rewrite an id-sorted trajectory CSV with its members' rows dealt in
    turn: row i of every member before row i + 1 of any."""
    header, *lines = path.read_text().splitlines()
    ids = [int(line.split(",", 1)[0]) for line in lines]
    head = {k: len(ids) - 1 - i for i, k in enumerate(reversed(ids))}  # a member's first row
    rank = [i - head[k] for i, k in enumerate(ids)]  # position within the member
    order = sorted(range(len(lines)), key=lambda r: (rank[r], ids[r]))
    out.write_text("\n".join([header] + [lines[r] for r in order]) + "\n")


def test_read_ensemble_csv_peak_bytes_a_row(tmp_path):
    rng = np.random.default_rng(4)
    members, events, n = 512, 128, 4
    times = np.cumsum(rng.uniform(0.05, 1.5, (members, events)), axis=1).ravel()
    ensemble = Ensemble(times, rng.integers(0, n, times.size), rng.integers(0, 2, times.size),
                        np.arange(members + 1) * events, rng.integers(0, 2, (members, n)),
                        float(times.max()))
    sorted_path, mixed_path = tmp_path / "sorted.csv", tmp_path / "mixed.csv"
    write_ensemble_csv(ensemble, sorted_path, ["A", "B", "C", "D"])
    _interleaved(sorted_path, mixed_path)
    rows = members * (events + n)
    assert rows >= 1 << 16
    for path in (sorted_path, mixed_path):
        read_ensemble_csv(path)  # first-use allocations outside the measure
        tracemalloc.start()
        try:
            loaded, _ = read_ensemble_csv(path, ensemble.t_end)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.times, ensemble.times)
        assert np.array_equal(loaded.initial_states, ensemble.initial_states)
        assert peak <= 80 * rows, f"{path.name}: {peak / rows:.1f} bytes a row"


def test_read_ensemble_csv_orders_members_by_id(tmp_path):
    # rows of one member need not be adjacent; members come back sorted by id
    path = tmp_path / "mixed.csv"
    path.write_text("trajectory_id,time,process,state\n7,0.0,A,0\n7,0.0,B,1\n"
                    "3,0.0,A,1\n7,0.5,A,1\n3,0.0,B,0\n3,2.0,B,1\n7,0.9,B,0\n")
    ensemble, names = read_ensemble_csv(path)
    assert names == ["A", "B"]
    assert [t.initial_state for t in ensemble] == [(1, 0), (0, 1)]
    assert [t.times.tolist() for t in ensemble] == [[2.0], [0.5, 0.9]]
    assert [t.processes.tolist() for t in ensemble] == [[1], [0, 1]]
    assert ensemble.t_end == 2.0  # the last event time in the file


def test_ensemble_ids_survive_a_round_trip(tmp_path):
    # ids neither consecutive nor sorted in the file: members come back by id
    path = tmp_path / "ids.csv"
    path.write_text("trajectory_id,time,process,state\n9,0.0,A,0\n9,0.0,B,1\n"
                    "5,0.0,A,1\n9,0.5,A,1\n5,0.0,B,0\n5,2.0,B,1\n9,0.9,B,0\n")
    ensemble, names = read_ensemble_csv(path)
    assert ensemble.ids.tolist() == [5, 9]
    assert ensemble[1:].ids.tolist() == [9]
    out = tmp_path / "out.csv"
    write_ensemble_csv(ensemble, out, names)
    assert out.read_text().splitlines() == [
        "trajectory_id,time,process,state", "5,0.0,A,1", "5,0.0,B,0", "5,2,B,1",
        "9,0.0,A,0", "9,0.0,B,1", "9,0.5,A,1", "9,0.90000000000000002,B,0"]
    again, _ = read_ensemble_csv(out)
    assert again.ids.tolist() == [5, 9]
    for a, b in zip(again, ensemble):
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.processes, b.processes)


def test_ensemble_ids_default_to_ordinals(chain3):
    ensemble = sample_ensemble(chain3, None, SimulationConfig(5.0, 4, 1))
    assert ensemble.ids.tolist() == [0, 1, 2, 3]
    assert Ensemble.from_trajectories(list(ensemble)[1:]).ids.tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="2 ids for 4 members"):
        Ensemble(ensemble.times, ensemble.processes, ensemble.new_states, ensemble.offsets,
                 ensemble.initial_states, ensemble.t_end, [3, 4])


def _reference_rows(w, trajectory, names, prefix):
    for j, v in enumerate(trajectory.initial_state):
        w.writerow([*prefix, "0.0", names[j], v])
    for t, p, s in zip(trajectory.times.tolist(), trajectory.processes.tolist(),
                       trajectory.new_states.tolist()):
        w.writerow([*prefix, format_float(t), names[p], s])


def reference_write_trajectory_csv(trajectory, path, names):
    """The row-by-row writer the columnar one replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "process", "state"])
        _reference_rows(w, trajectory, names, ())


def reference_write_ensemble_csv(trajectories, path, names, ids=None):
    """The row-by-row writer the columnar one replaced; ids default to ordinals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trajectory_id", "time", "process", "state"])
        for k, traj in zip(itertools.count() if ids is None else ids, trajectories):
            _reference_rows(w, traj, names, (k,))


@pytest.mark.parametrize("part_events", [1, 7, 1 << 16])
def test_trajectory_writers_match_row_writers(part_events, monkeypatch, tmp_path):
    # tiny parts cut the ensemble between members and the rows of one member
    monkeypatch.setattr(simulate_module, "_PART_EVENTS", part_events)
    rng = np.random.default_rng(part_events)
    five = ["A", "B,1", 'say "hi"', " pad", "E"]  # names the CSV must quote
    seventy = [f"P{j}" + ',"x"' * (j % 9 == 0) for j in range(70)]  # the wide scan case
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    for names, card in ((five, 2), (five, 3), (five, 12), (seventy, 2)):
        trajectories = random_trajectories(rng, len(names), card)
        ensemble = Ensemble.from_trajectories(trajectories)
        write_ensemble_csv(ensemble, new, names)
        reference_write_ensemble_csv(trajectories, old, names)
        assert new.read_bytes() == old.read_bytes()
        write_ensemble_csv(trajectories, new, names)  # a list of trajectories too
        assert new.read_bytes() == old.read_bytes()
        shuffled = Ensemble(ensemble.times, ensemble.processes, ensemble.new_states,
                            ensemble.offsets, ensemble.initial_states, ensemble.t_end,
                            [40, 3, 17, 5, 1, 99, 2, 8])
        write_ensemble_csv(shuffled, new, names)
        reference_write_ensemble_csv(trajectories, old, names, shuffled.ids.tolist())
        assert new.read_bytes() == old.read_bytes()
        for traj in trajectories:
            write_trajectory_csv(traj, new, names)
            reference_write_trajectory_csv(traj, old, names)
            assert new.read_bytes() == old.read_bytes()
    model = make_random_model(random.Random(2), max_states=36)
    ensemble = sample_ensemble(model, None, SimulationConfig(20.0, 30, 4))
    write_ensemble_csv(ensemble, new, model.names)
    reference_write_ensemble_csv(ensemble, old, model.names)
    assert new.read_bytes() == old.read_bytes()


def reference_write_table(path, header, chunks):
    """csv.writer row by row, floats by format_float and rows of local states
    by their digits: the writer the row template replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for columns in chunks:
            for row in zip(*(np.asarray(c).tolist() for c in columns)):
                w.writerow([format_float(v) if isinstance(v, float)
                            else "".join(map(str, v)) if isinstance(v, list) else v
                            for v in row])


@pytest.mark.parametrize("part_events", [3, 1 << 16])
def test_write_table_matches_csv_writer(part_events, monkeypatch, tmp_path):
    monkeypatch.setattr(simulate_module, "_PART_EVENTS", part_events)
    rng = np.random.default_rng(part_events)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3]
    int64 = np.iinfo(np.int64)
    names = UNUSUAL_NAMES + ["", "plain"]

    def chunk(rows, high, width):
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        floats[:len(special)] = special[:rows]
        ints = rng.integers(int64.min, int64.max, rows, endpoint=True)
        ints[:2] = [int64.min, int64.max][:rows]
        return [floats, ints, rng.integers(0, 2, rows).astype(bool),
                rng.integers(0, high, (rows, width)), np.array(names)[rng.integers(0, 6, rows)],
                rng.integers(0, 100, rows).astype(np.uint8).tolist()]

    # local states up to 13 take the template, up to 9 the digit view
    chunks = [chunk(11, 14, 3), chunk(10, 10, 5), chunk(0, 10, 2), chunk(7, 2, 0),
              chunk(1, 10, 40)]
    header = ["f", "i", "b", "state", 'the "name"', "listed"]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    reference_write_table(old, header, chunks)
    for columns in chunks:  # the caller quotes strings
        columns[4] = np.array([simulate_module._csv_field(v) for v in columns[4].tolist()])
    simulate_module._write_table(new, header, chunks)
    assert new.read_bytes() == old.read_bytes()
    with open(new, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 11 + 10 + 7 + 1


def test_ensemble_views_and_slices(chain3):
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(8.0, 6, 3))
    assert ensemble.event_count == sum(t.event_count for t in ensemble)
    assert [t.event_count for t in ensemble[2:5]] == [t.event_count for t in ensemble][2:5]
    packed = Ensemble.from_trajectories(list(ensemble))
    for a, b in zip(packed, ensemble):
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.new_states, b.new_states)
    assert Ensemble.from_trajectories(ensemble) is ensemble
    assert ensemble[-1].times.base is not None  # a view, not a copy
    assert len(ensemble[4:2]) == 0
    with pytest.raises(IndexError):
        ensemble[6]
    with pytest.raises(ValueError, match="consecutive"):
        ensemble[::2]


def test_times_are_checked_once_where_arrays_enter(chain3, monkeypatch, tmp_path):
    # the sampler's result and the CSV reader check their event times; a
    # slice, a part or a member view of a checked ensemble is not checked again
    checked = []
    real = simulate_module._check_times
    monkeypatch.setattr(simulate_module, "_check_times",
                        lambda times, *args: checked.append(times.size) or real(times, *args))
    ensemble = sample_ensemble(chain3, None, SimulationConfig(30.0, 40, 3))
    assert checked == [ensemble.event_count]
    for part in [ensemble[5:9], *simulate_module._parts(ensemble)]:
        assert sum(t.event_count for t in part) == part.event_count
        assert len(part[1:]) == len(part) - 1
    assert ensemble[-1].times.size and len(checked) == 1
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(ensemble, path, chain3.names)
    assert len(checked) == 1
    read_ensemble_csv(path, 30.0)
    assert checked == [ensemble.event_count] * 2


@pytest.mark.parametrize("times, message", [
    ([1.0, 1.0], "event times must be finite, positive and strictly increasing"),
    ([0.5, 0.25], "event times must be finite, positive and strictly increasing"),
    ([-1.0, 2.0], "event times must be finite, positive and strictly increasing"),
    ([1.0, 7.0], "event beyond t_end"),
], ids=["repeated", "decreasing", "negative", "past-t_end"])
def test_every_entry_point_rejects_bad_times(times, message, chain3, monkeypatch, tmp_path):
    t_end = 5.0
    with pytest.raises(ValueError, match=message):  # a constructor call
        Ensemble(times, [0, 1], [1, 1], [0, 2], [(0, 0, 0)], t_end)
    with pytest.raises(ValueError, match=message):
        Trajectory((0, 0, 0), times, [0, 1], [1, 1], t_end)
    # from_trajectories: a trajectory's times changed in place after its check
    changed = Trajectory((0, 0, 0), [1.0, 2.0], [0, 1], [1, 1], t_end)
    changed.times[:] = times
    with pytest.raises(ValueError, match=message):
        Ensemble.from_trajectories([changed])
    path = tmp_path / "log.csv"  # the CSV reader, in both layouts
    for header, id_cell in (("time,process,state", ""), ("trajectory_id,time,process,state", "7,")):
        rows = [f"{id_cell}0.0,{p},0" for p in "ABC"]
        rows += [f"{id_cell}{t!r},{p},1" for t, p in zip(times, "AB")]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=message):
            read_ensemble_csv(path, t_end)

    def steps(table, keys, start, t_end, width=None):  # the sampler's result
        for t in times:
            yield (np.zeros(1, dtype=np.int32), np.array([t]), np.zeros(1, dtype=np.int32),
                   np.ones(1, dtype=np.int32))
    monkeypatch.setattr(simulate_module, "_steps", steps)
    with pytest.raises(ValueError, match=message):
        sample_trajectory(chain3, None, t_end, 1)


# -- the competing-clocks sampler the engine replaced, as a distributional reference ----


def reference_clock_trajectory(model, initial, t_end, rng):
    """Each process holds an exponential clock at its exit rate; the earliest
    fires, and the fired process and its children redraw their clocks."""
    values = list(initial)

    def row(j):
        cfg = sum(values[p] * m for p, m in zip(model.parent_indices[j],
                                                 model.parent_multipliers[j]))
        rates = model.cims[j].matrices[cfg][values[j]].copy()
        rates[values[j]] = 0.0
        return rates

    def clock(now, j):
        rate = row(j).sum()
        return now + rng.expovariate(rate) if rate > 0 else math.inf

    clocks = [clock(0.0, j) for j in range(model.process_count)]
    events = []
    while True:
        j = min(range(model.process_count), key=clocks.__getitem__)
        now = clocks[j]
        if now > t_end:
            return events
        rates = row(j)
        values[j] = rng.choices(range(len(rates)), weights=rates)[0]
        events.append((now, j, values[j]))
        for i in {j, *(k for k, parents in enumerate(model.parent_indices) if j in parents)}:
            clocks[i] = clock(now, i)


def _first_model_with_three_states():
    seed = 0
    while max(make_random_model(random.Random(seed), max_states=18).cardinalities) < 3:
        seed += 1
    return make_random_model(random.Random(seed), max_states=18)


def _event_stats(model, runs):
    """Event count per trajectory, and the completed holding times per joint state."""
    counts, holds = [], {}
    for initial, events in runs:
        counts.append(len(events))
        values, prev = list(initial), 0.0
        for t, j, s in events:
            holds.setdefault(state_index(values, model), []).append(t - prev)
            values[j], prev = s, t
    return np.array(counts, dtype=float), holds


def _z(a, b):
    a, b = np.asarray(a), np.asarray(b)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return abs(a.mean() - b.mean()) / se


@pytest.mark.parametrize("name", ["chain3", "three-state"])
def test_engine_matches_clock_reference(name, chain3):
    model = chain3 if name == "chain3" else _first_model_with_three_states()
    n, t_end = 2000, 12.0
    ensemble = sample_ensemble(model, None, SimulationConfig(t_end, n, 404))
    engine = [(t.initial_state, list(zip(t.times.tolist(), t.processes.tolist(),
                                         t.new_states.tolist()))) for t in ensemble]
    rng = random.Random(405)
    reference = [(model.initial_state,
                  reference_clock_trajectory(model, model.initial_state, t_end, rng))
                 for _ in range(n)]
    counts_e, holds_e = _event_stats(model, engine)
    counts_r, holds_r = _event_stats(model, reference)
    assert _z(counts_e, counts_r) < 4.0
    checked = 0
    for state in holds_e.keys() & holds_r.keys():
        if min(len(holds_e[state]), len(holds_r[state])) >= 200:
            assert _z(holds_e[state], holds_r[state]) < 4.0
            checked += 1
    assert checked >= 4


def test_engine_transient_law_with_three_state_process():
    model = _first_model_with_three_states()
    n, t = 20_000, 1.5
    ensemble = sample_ensemble(model, None, SimulationConfig(t, n, 606))
    counts = np.zeros(model.state_count)
    for traj in ensemble:
        counts[state_index(state_at(traj, t), model)] += 1
    p0 = np.zeros(model.state_count)
    p0[state_index(model.initial_state, model)] = 1.0
    expected = transient_distribution(amalgamate(model), p0, t)
    se = np.sqrt(np.maximum(expected * (1 - expected), 1e-12) / n)
    assert (np.abs(counts / n - expected) <= 4 * se).all()


# -- the flat path ------------------------------------------------------------------


def _absorbing_model() -> CtbnModel:
    """X0 stops at 1, and X1 stops with it: the states (1, *) have exit rate 0."""
    return CtbnModel(
        (ProcessSpec("X0", 2), ProcessSpec("X1", 3, ("X0",))),
        (Cim([[[-1.0, 1.0], [0.0, 0.0]]]),
         Cim([[[-2.0, 1.5, 0.5], [3.0, -3.0, 0.0], [0.2, 0.3, -0.5]], np.zeros((3, 3))])),
        initial_state=(0, 0))


def _path_models() -> list[CtbnModel]:
    randoms = [make_random_model(random.Random(seed), max_states=36) for seed in range(20)]
    assert sum(3 in m.cardinalities for m in randoms) >= 5
    return randoms + [zero_rate_model(2), _absorbing_model(), toggler_model(1.5, 0.4)]


def _steps_taken(model, keys, initial, t_end) -> list[list[tuple]]:
    """Every array `_steps` yields, as (dtype, bytes)."""
    start = simulate_module._initial_states(model, keys, initial)
    return [[(a.dtype.str, a.tobytes()) for a in step]
            for step in simulate_module._steps(model.rate_table, keys, start, t_end)]


def test_flat_and_general_paths_agree(monkeypatch):
    # every yielded (live, t, j, s), bit for bit, from a given start state and
    # from one drawn from the model's distribution
    rng = np.random.default_rng(15)
    for m, model in enumerate(_path_models()):
        dist = rng.random(model.state_count)
        drawn = CtbnModel(model.processes, model.cims, initial_distribution=dist / dist.sum())
        given = tuple(int(rng.integers(c)) for c in model.cardinalities)
        for count in (1, 10, 300):
            keys = _member_keys(derive_seed(m), range(count))
            for subject, initial in ((model, given), (drawn, None)):
                assert subject.rate_table.flat_bytes <= simulate_module.FLAT_TABLE_BYTES
                flat = _steps_taken(subject, keys, initial, 8.0)
                assert "flat" in vars(subject.rate_table)
                monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", 0)
                assert _steps_taken(subject, keys, initial, 8.0) == flat
                monkeypatch.undo()
                assert len(flat) > 3 or count < 300 or not model.rate_table.rates.any()


@pytest.mark.parametrize("count", [40, 5000], ids=["copied-rows", "binary-search"])
def test_pick_counts_the_entries_at_most_the_target(count):
    # oracle: the pick equals counting, on nondecreasing rows with runs of
    # equal entries (zero rates), at targets 0, equal to an entry and at the
    # float below a row's total, for row lengths around powers of two
    rng = np.random.default_rng(9)
    for length in (1, 2, 3, 7, 8, 9, 13, 16, 17, 40):
        rates = rng.random((300, length)) * (rng.random((300, length)) < 0.6)
        rates[:, -1] += 0.5  # every row ends above 0
        cum = np.cumsum(rates, axis=1)
        rows = rng.integers(0, 300, count)
        assert (rows.size * length < simulate_module._COPY_ENTRIES) == (count == 40)
        total = cum[rows, -1]
        target = rng.random(rows.size) * total
        target[::5] = 0.0
        target[1::5] = cum[rows[1::5], rng.integers(0, length, rows[1::5].size)]
        target[2::5] = total[2::5]
        target = np.minimum(target, np.nextafter(total, 0.0))  # the engine's cap
        want = np.count_nonzero(cum[rows] <= target[:, None], axis=1)
        for dtype in (np.int32, np.int64):
            got = simulate_module._pick(cum, rows.astype(dtype), target)
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("cap", [None, 0], ids=["flat", "general"])
def test_a_target_rounded_up_to_the_total_picks_the_last_positive_rate(cap, monkeypatch):
    # with a subnormal exit rate, the largest transition draw times the total
    # rounds up to the total; the engine lowers that target to the float below
    # it, so the pick stays on the row's last positive rate
    if cap is not None:
        monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", cap)
    monkeypatch.setattr(simulate_module, "_uniforms", lambda keys, draws: np.tile(
        [2.0 ** -30, 1 - 2.0 ** -53], (keys.size, 1)))  # holding time, transition
    rate = 2.0 ** -1031
    model = independent_togglers([rate, rate, 0.0], [rate, rate, 0.0])
    assert (1 - 2.0 ** -53) * (2 * rate) == 2 * rate  # the draw rounds up
    traj = sample_trajectory(model, None, 2.0 ** 1003, 1)
    # every state's last positive rate toggles process 1, about 2^1000 apart
    assert traj.event_count == 7
    assert traj.processes.tolist() == [1] * 7
    assert traj.new_states.tolist() == [1, 0, 1, 0, 1, 0, 1]



@pytest.mark.parametrize("cap", [None, 0], ids=["flat", "general"])
def test_a_subnormal_exit_rate_samples_without_warnings(cap, monkeypatch):
    # a holding time over the smallest subnormal rate overflows to inf, past
    # any horizon: the member stops with no events and no overflow warning
    if cap is not None:
        monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ensemble = sample_ensemble(toggler_model(5e-324, 5e-324), None,
                                   SimulationConfig(1.7e308, 300, 1))
    assert ensemble.event_count == 0 and len(ensemble) == 300


def _events_by_member(table, keys, start, t_end, width) -> list[list[tuple]]:
    """Each trajectory's (time, process, new state) events, in the order one
    `_steps` run yields them; checks that every step's members are ascending
    and at most `width` (None: all)."""
    events = [[] for _ in keys.tolist()]
    for live, t, j, s in simulate_module._steps(table, keys, start, t_end, width):
        assert live.size <= (width or keys.size) and (np.diff(live) > 0).all()
        for k, event in zip(live.tolist(), zip(t.tolist(), j.tolist(), s.tolist())):
            events[k].append(event)
    return events


@pytest.mark.parametrize("cap", [None, 0], ids=["flat", "general"])
def test_refilled_runs_give_every_trajectory_the_same_events(cap, monkeypatch):
    # oracle: a run of width 1 or 7, which admits trajectories into the
    # slots of finished ones, gives every trajectory the events it has when
    # all run at once, bit for bit; starts differ per trajectory and are
    # int16 rows, as the Monte Carlo rounds pass them
    rng = np.random.default_rng(20)
    if cap is not None:
        monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", cap)
    for m, model in enumerate([*_path_models(), chain13_model()]):
        table = model.rate_table
        assert simulate_module._flat(table) == (cap is None)
        keys = _member_keys(derive_seed(m), range(30))
        start = states_from_indices(rng.integers(model.state_count, size=keys.size),
                                    model.cardinalities).astype(np.int16)
        t_end = 1.0 if model.process_count == 13 else 8.0
        want = _events_by_member(table, keys, start, t_end, None)
        assert sum(map(len, want)) > 30 or not table.rates.any()
        for width in (1, 7):
            assert _events_by_member(table, keys, start, t_end, width) == want


def _table_models(chain3) -> list[CtbnModel]:
    """The shapes and the seeded random models (3-state processes among them)
    the flat table is checked on."""
    shapes = [experiment_spec(name).build_model() for name in ("fork5", "cycle-chain6",
                                                                "complex9")]
    return [chain3, *shapes, *_path_models()[:8], _absorbing_model()]


def test_flat_table_rows(chain3):
    # oracle: row x is the general path's full-width cumulative row with its
    # zero-rate diagonal and padding columns dropped, bit for bit; `next` is
    # the state-space neighbor table; intensity_matrix's off-diagonal row is
    # the move table's rates, whose row-wise cumsum the flat table is
    models = _table_models(chain3)
    assert sum(3 in m.cardinalities for m in models) >= 3
    for model in models:
        table, flat = model.rate_table, model.rate_table.flat
        width = table.rates.shape[1]
        graph = StateSpaceGraph(model.cardinalities)
        rates, moves = model_module._move_table(table)
        assert flat.cum.shape == flat.next.shape == rates.shape == (model.state_count,
                                                                    graph.degree)
        assert flat.next.tobytes() == moves.tobytes()
        assert flat.cum.tobytes() == np.cumsum(rates, axis=1).tobytes()
        assert flat.total.tobytes() == flat.cum[:, -1].copy().tobytes()
        Q = intensity_matrix(model).toarray()
        for i, x in enumerate(enumerate_states(model)):
            rows = np.asarray(x) @ table.weights + table.offsets
            real = [j * width + s for j, c in enumerate(model.cardinalities)
                    for s in range(c) if s != x[j]]
            full = table.rates[rows].ravel().cumsum()
            assert flat.cum[i].tobytes() == full[real].tobytes()
            assert flat.next[i].tolist() == graph.neighbor_table(i).tolist()
            assert Q[i, flat.next[i]].tobytes() == rates[i].tobytes()
            # column c moves process[c] to local[x, c], its digit of next[x, c]
            moved = [j * width + s for j, s in zip(flat.process.tolist(), flat.local[i].tolist())]
            assert moved == real
            assert [state_from_index(y, model)[j] for y, j in zip(
                flat.next[i].tolist(), flat.process.tolist())] == flat.local[i].tolist()


def test_flat_table_cap_checked_before_building(monkeypatch, no_flat_table):
    model = make_random_model(random.Random(3), max_states=36)
    table = model.rate_table
    monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", table.flat_bytes - 1)
    ensemble = sample_ensemble(model, None, SimulationConfig(10.0, 50, 2))
    assert ensemble.event_count > 50
    ednt_mc(model, 0.5, SimulationConfig(5.0, 20, 2), states=[0, 1])
    assert "flat" not in vars(table)


def test_flat_table_built_once_with_the_capped_bytes(monkeypatch):
    builds = []
    real = model_module._move_table
    monkeypatch.setattr(model_module, "_move_table",
                        lambda table: builds.append(table) or real(table))
    model = make_random_model(random.Random(4), max_states=36)
    table = model.rate_table
    monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", table.flat_bytes)  # fits exactly
    sample_ensemble(model, None, SimulationConfig(10.0, 50, 2))
    sample_trajectory(model, None, 3.0, 7)
    ednt_mc(model, 0.5, SimulationConfig(5.0, 20, 2), states=[0, 1])
    assert builds == [table]
    flat = table.flat
    assert sum(a.nbytes for a in flat) == table.flat_bytes
    degree = sum(c - 1 for c in model.cardinalities)
    assert flat.cum.shape == flat.next.shape == flat.local.shape == (model.state_count, degree)
    assert (flat.total.shape, flat.process.shape) == ((model.state_count,), (degree,))
    assert [a.dtype for a in flat] == [np.float64, np.int32, np.int16, np.float64, np.int32]


def test_exact_analysis_builds_no_flat_table(request):
    spec = experiment_spec("chain5")
    ensemble = sample_ensemble(spec.build_model(), None, SimulationConfig(30.0, 20, 1))
    request.getfixturevalue("no_flat_table")
    model = spec.build_model()
    intensity_matrix(model)
    amalgamate(model)
    ednt_exact(model, 0.5)
    compare_rednt_vs_naive(model, ensemble, alpha=0.5)  # the cascades pipeline
    assert "flat" not in vars(model.rate_table)


@pytest.mark.parametrize("call", [
    lambda m: sample_trajectory(m, None, math.nan, 1),
    lambda m: sample_trajectory(m, None, -1.0, 1),
    lambda m: ednt_mc(m, -1.0, SimulationConfig(5.0, 10, 1), states=[0]),
    lambda m: ednt_mc(m, math.inf, SimulationConfig(5.0, 10, 1), states=[0]),
    lambda m: stopping_rule_ednt(m, m.initial_state, 0.5, math.inf, 0.1),
    lambda m: stopping_rule_ednt(m, m.initial_state, 0.0, 5.0, 0.1),
], ids=["nan-horizon", "negative-horizon", "negative-alpha", "infinite-alpha",
        "infinite-horizon", "zero-alpha"])
def test_invalid_arguments_raise_before_the_flat_table(call, no_flat_table):
    model = make_random_model(random.Random(5), max_states=36)  # no table built yet
    with pytest.raises(ValueError):
        call(model)
    assert "flat" not in vars(model.rate_table)


def _three_state_model() -> CtbnModel:
    """A seeded random model with two 3-state processes and parents."""
    return next(m for m in (make_random_model(random.Random(seed), max_states=200)
                            for seed in range(100))
                if m.cardinalities.count(3) >= 2 and any(m.parent_indices))


@pytest.mark.parametrize("cap", [None, 0], ids=["flat", "general"])
def test_engine_peak_within_step_bytes(cap, monkeypatch):
    # _step_bytes, which MC_CALL_BYTES is divided by, bounds the path taken:
    # on complex9, on chain13 (the benchmark's Monte Carlo model) and on a
    # model with 3-state processes
    for model in (experiment_spec("complex9").build_model(), chain13_model(),
                  _three_state_model()):
        table = model.rate_table
        assert table.flat is not None  # built before measuring
        if cap is not None:
            monkeypatch.setattr(simulate_module, "FLAT_TABLE_BYTES", cap)
        count = 2000
        keys = _member_keys(derive_seed(1), range(count))
        start = simulate_module._initial_states(model, keys, None)
        tracemalloc.start()
        try:
            steps = sum(1 for _ in simulate_module._steps(table, keys, start, 20.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps > 100
        assert peak < count * _step_bytes(table)
        # with 20 times as many trajectories pending as run at once, the
        # peak is that of the width: a pending trajectory costs the engine
        # nothing beyond its key and start row, which the caller holds
        width = 1000
        keys = _member_keys(derive_seed(2), range(20 * width))
        start = simulate_module._initial_states(model, keys, None).astype(np.int16)
        tracemalloc.start()
        try:
            steps = sum(1 for _ in simulate_module._steps(table, keys, start, 2.0, width))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps > 100
        assert peak < width * _step_bytes(table)
        monkeypatch.undo()


def test_flat_cap_reaches_16_binary_processes(no_flat_table):
    # checked by flat_bytes alone: 16 binary togglers fit the 16 MiB cap, 17 do not
    fits, too_big = (independent_togglers([1.0] * n, [2.0] * n).rate_table for n in (16, 17))
    assert simulate_module.FLAT_TABLE_BYTES == 1 << 24
    assert fits.flat_bytes <= simulate_module.FLAT_TABLE_BYTES < too_big.flat_bytes
    assert fits.flat_bytes == (1 << 16) * (14 * 16 + 8) + 4 * 16
    assert simulate_module._flat(fits) and not simulate_module._flat(too_big)
    assert "flat" not in vars(fits) and "flat" not in vars(too_big)


@pytest.mark.parametrize("model", [
    independent_togglers([1.0] * 12, [2.0] * 12),  # 4 096 states, no parents
    experiment_spec("complex9").build_model(),
], ids=["togglers12", "complex9"])
def test_flat_table_build_peak(model):
    table = model.rate_table
    tracemalloc.start()
    try:
        flat = table.flat
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in flat) == table.flat_bytes <= held
    assert peak <= 2 * table.flat_bytes

import csv
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctbn_sentry import (
    NaiveParams,
    SimulationConfig,
    Trajectory,
    build_state_space_graph,
    compare_rednt_vs_naive,
    default_fast_threshold,
    ednt_exact,
    experiment_spec,
    identify_cascades,
    jaccard_at_k,
    naive_scores,
    rednt,
    sample_ensemble,
    state_index,
    write_cascade_report,
    write_comparison_report,
    write_naive_scores_report,
)
from ctbn_sentry import simulate as simulate_module
from ctbn_sentry.cascade import NaiveScores
from ctbn_sentry.model import active_alarm_count
from ctbn_sentry.simulate import format_float, read_ensemble_csv

from conftest import chain13_model, make_random_model, random_trajectories


def traj_from_times(times, n_processes=1, t_end=None, initial=None):
    """Trajectory with the given event times; processes cycle 0..n-1 and
    binary states alternate so each event is a genuine change."""
    times = list(times)
    procs = [i % n_processes for i in range(len(times))]
    flips = {}
    states = []
    for p in procs:
        flips[p] = 1 - flips.get(p, 0)
        states.append(flips[p])
    initial = initial if initial is not None else (0,) * n_processes
    end = t_end if t_end is not None else (times[-1] if times else 0.0)
    return Trajectory(initial, np.array(times), np.array(procs), np.array(states), end)


# -- window detection ---------------------------------------------------------------


def test_no_events_no_cascades():
    traj = traj_from_times([], t_end=5.0)
    assert identify_cascades(traj, NaiveParams(0.5, 2)) == []


def test_fast_run_detection():
    # events at 0.1/0.2/0.3 then a long pause: the two fast arrivals after
    # the opener form the run; the opener itself has no fast predecessor
    traj = traj_from_times([0.1, 0.2, 0.3, 5.0], n_processes=4, t_end=6.0)
    windows = identify_cascades(traj, NaiveParams(0.5, 2))
    assert len(windows) == 1
    win = windows[0]
    assert (win.first_event_index, win.last_event_index) == (1, 2)
    assert win.length == 2
    # the launching state is the one reached by the opening event
    assert win.sentry_state == (1, 0, 0, 0)
    # requiring three fast events rejects this run
    assert identify_cascades(traj, NaiveParams(0.5, 3)) == []


def test_all_slow_gaps_no_cascades():
    traj = traj_from_times([0.1, 1.0, 1.9], t_end=2.0)
    for mcl in (2, 3):
        assert identify_cascades(traj, NaiveParams(0.5, mcl)) == []


def test_threshold_is_strict():
    traj = traj_from_times([1.0, 1.5, 2.0], t_end=3.0)
    assert identify_cascades(traj, NaiveParams(0.5, 2)) == []
    assert len(identify_cascades(traj, NaiveParams(0.5000001, 2))) == 1


def test_two_separated_runs_never_merge():
    times = [1.0, 1.1, 1.2, 9.0, 9.05, 9.1]
    traj = traj_from_times(times, n_processes=2, t_end=10.0)
    windows = identify_cascades(traj, NaiveParams(0.5, 2))
    assert [(w.first_event_index, w.last_event_index) for w in windows] == [(1, 2), (4, 5)]


def test_params_validation():
    with pytest.raises(ValueError):
        NaiveParams(0.0, 2)
    with pytest.raises(ValueError):
        NaiveParams(0.5, 1)


@st.composite
def gap_lists(draw):
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=0, max_size=30))
    return np.cumsum(gaps).tolist()


@settings(max_examples=80, deadline=None)
@given(gap_lists(), st.floats(0.05, 1.5), st.integers(2, 4))
def test_windows_disjoint_ordered_maximal(times, threshold, mcl):
    traj = traj_from_times(times, n_processes=3,
                           t_end=(times[-1] + 1.0) if times else 1.0)
    params = NaiveParams(threshold, mcl)
    windows = identify_cascades(traj, params)
    gaps = np.diff(np.concatenate(([np.nan], traj.times)))
    prev_end = -1
    for win in windows:
        assert win.first_event_index > prev_end  # disjoint and ordered
        prev_end = win.last_event_index
        assert win.length >= mcl
        # every window event arrived fast
        for i in range(win.first_event_index, win.last_event_index + 1):
            assert gaps[i] < threshold
        # maximal on both sides: the surrounding events are not fast
        # (gaps[0] is nan, so the comparison is falsy for the opening event)
        assert not (gaps[win.first_event_index - 1] < threshold)
        after = win.last_event_index + 1
        if after < traj.event_count:
            assert not (gaps[after] < threshold)


@settings(max_examples=40, deadline=None)
@given(gap_lists(), st.floats(0.05, 1.5))
# Boundary case: the last gap is 0.10000000000000009 as given but
# 0.09999999999999964 after the shift, so only the shifted copy has a window.
@example(times=[1.0, 1.0625, 1.1625], threshold=0.1)
def test_windows_shift_invariant(times, threshold):
    # A shift moves each gap by rounding error, so the strict `gap <
    # threshold` test can flip for a gap that close to the threshold.  The
    # property: windows agree when no gap is within rounding error of it, and
    # a window found in only one copy spans or borders such a boundary gap.
    params = NaiveParams(threshold, 2)
    a = traj_from_times(times, t_end=(times[-1] + 1) if times else 1.0)
    shifted = [t + 7.5 for t in times]
    b = traj_from_times(shifted, t_end=(shifted[-1] + 1) if shifted else 9.0)
    rounding = 4 * np.spacing(max(shifted, default=0.0))
    boundary = ((np.abs(np.diff(a.times) - threshold) <= rounding)
                | (np.abs(np.diff(b.times) - threshold) <= rounding))
    wa = [(w.first_event_index, w.last_event_index, w.sentry_state)
          for w in identify_cascades(a, params)]
    wb = [(w.first_event_index, w.last_event_index, w.sentry_state)
          for w in identify_cascades(b, params)]
    if not boundary.any():
        assert wa == wb
    # gap i precedes event i + 1; window (f, l) depends on gaps f - 2 .. l
    for first, last, _ in set(wa) ^ set(wb):
        assert boundary[max(first - 2, 0):last + 1].any()


# -- naive scores ----------------------------------------------------------------------


def test_counts_conserved(chain3):
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(40.0, 200, 6))
    params = NaiveParams(default_fast_threshold(ensemble), 2)
    scores = naive_scores(ensemble, params)
    windows_total = sum(len(identify_cascades(t, params)) for t in ensemble)
    assert scores.total_cascades == windows_total
    assert sum(scores.counts.values()) == windows_total


def test_scores_are_conditional_frequencies(chain3):
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(40.0, 200, 6))
    params = NaiveParams(default_fast_threshold(ensemble), 2)
    scores = naive_scores(ensemble, params)
    for state, count in scores.counts.items():
        assert count <= scores.visits[state]
        assert 0.0 <= scores.score(state) <= 1.0
    assert scores.score((1, 1, 1, 1)) == 0.0  # never-visited state


def test_no_cascades_all_zero():
    traj = traj_from_times([1.0, 3.0], n_processes=2, t_end=4.0)
    scores = naive_scores([traj], NaiveParams(0.5, 2))
    assert scores.total_cascades == 0
    assert not scores.counts
    assert sum(scores.visits.values()) == 3  # initial entry plus two events


def test_single_cascade_single_count():
    traj = traj_from_times([1.0, 1.1, 1.2], n_processes=3, t_end=2.0)
    scores = naive_scores([traj], NaiveParams(0.5, 2))
    assert scores.total_cascades == 1
    assert list(scores.counts.values()) == [1]
    assert scores.count((1, 0, 0)) == 1


# -- the array scan against the per-trajectory replays it replaced ----------------------
# `naive_scores` and `identify_cascades` work on the ensemble's arrays.  Before,
# they replayed each trajectory's events into state tuples: first each on its own
# (the first up to each run start, the second with a start pointer walked alongside
# the events), then both through one `_states` replay counted with `Counter`s.
# All three are kept here as references, on the old per-trajectory run detection.


def reference_fast_runs(times, params):
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


def reference_states(trajectory):
    values = list(trajectory.initial_state)
    states = [tuple(values)]
    for proc, new in zip(trajectory.processes.tolist(), trajectory.new_states.tolist()):
        values[proc] = new
        states.append(tuple(values))
    return states


def reference_counter_scores(trajectories, params):
    counts, visits, total = Counter(), Counter(), 0
    for traj in trajectories:
        states = reference_states(traj)
        visits.update(states)
        launched = [states[a] for a, _ in reference_fast_runs(traj.times, params)]
        counts.update(launched)
        total += len(launched)
    return NaiveScores(dict(counts), dict(visits), total)


def reference_identify_cascades(trajectory, params):
    runs = reference_fast_runs(trajectory.times, params)
    if not runs:
        return []
    procs = trajectory.processes.tolist()
    states = trajectory.new_states.tolist()
    values = list(trajectory.initial_state)
    out = []
    pos = 0
    for a, b in runs:
        while pos < a:  # replay up to (not including) the run's first event
            values[procs[pos]] = states[pos]
            pos += 1
        out.append((a, b, tuple(values)))
    return out


def reference_naive_scores(trajectories, params):
    acc = NaiveScores()
    for trajectory in trajectories:
        values = list(trajectory.initial_state)
        key = tuple(values)
        visits = acc.visits
        counts = acc.counts
        visits[key] = visits.get(key, 0) + 1  # the initial state counts as an entry
        starts = [a for a, _ in reference_fast_runs(trajectory.times, params)]
        acc.total_cascades += len(starts)
        procs = trajectory.processes.tolist()
        states = trajectory.new_states.tolist()
        w = 0
        for i in range(len(procs)):
            if w < len(starts) and i == starts[w]:
                key = tuple(values)
                counts[key] = counts.get(key, 0) + 1
                w += 1
            values[procs[i]] = states[i]
            key = tuple(values)
            visits[key] = visits.get(key, 0) + 1
    return acc


def _first_events(trajectory, n):
    return Trajectory(trajectory.initial_state, trajectory.times[:n],
                      trajectory.processes[:n], trajectory.new_states[:n],
                      trajectory.t_end)


def test_replay_matches_reference_implementations():
    non_binary = 0
    for seed in range(10):
        rng = random.Random(seed)
        model = make_random_model(rng, max_states=36)
        non_binary += max(model.cardinalities) > 2
        ensemble = list(sample_ensemble(model, None,
                                        SimulationConfig(rng.uniform(5.0, 30.0), 25, seed)))
        # trajectories with no event and with one event
        ensemble += [_first_events(ensemble[0], 0), _first_events(ensemble[1], 1)]
        median = default_fast_threshold(ensemble)
        for threshold in (0.5 * median, median, 2.0 * median):
            for mcl in (2, 3, 4):
                params = NaiveParams(threshold, mcl)
                got = naive_scores(ensemble, params)
                for want in (reference_naive_scores(ensemble, params),
                             reference_counter_scores(ensemble, params)):
                    assert got.counts == want.counts
                    assert got.visits == want.visits
                    assert got.total_cascades == want.total_cascades
                assert type(got.counts) is dict and type(got.visits) is dict
                for traj in ensemble:
                    windows = [(w.first_event_index, w.last_event_index, w.sentry_state)
                               for w in identify_cascades(traj, params)]
                    assert windows == reference_identify_cascades(traj, params)
    assert non_binary >= 2


@pytest.mark.parametrize("part_events", [1, 7, 1 << 16])
@pytest.mark.parametrize("n, card", [(3, 2), (70, 2), (40, 3)])
def test_scan_in_parts_and_wide_states_match_reference(n, card, part_events, monkeypatch,
                                                       tmp_path):
    # small parts split the ensemble between and after members; 70 binary or 40
    # ternary processes overflow one int64 state code, so codes span columns
    monkeypatch.setattr(simulate_module, "_PART_EVENTS", part_events)
    ensemble = random_trajectories(np.random.default_rng(n * card), n, card)
    for threshold, mcl in ((0.5, 2), (1.0, 2), (1.0, 3)):
        params = NaiveParams(threshold, mcl)
        got = naive_scores(ensemble, params)
        want = reference_counter_scores(ensemble, params)
        assert (got.counts, got.visits, got.total_cascades) == (
            want.counts, want.visits, want.total_cascades)
        rows = []
        for k, traj in enumerate(ensemble):
            windows = reference_identify_cascades(traj, params)
            assert [(w.first_event_index, w.last_event_index, w.sentry_state)
                    for w in identify_cascades(traj, params)] == windows
            rows += [[str(k), format_float(traj.times[a]), format_float(traj.times[b]),
                      str(b - a + 1), "".join(map(str, x))] for a, b, x in windows]
        path = tmp_path / "cascades.csv"
        write_cascade_report(path, ensemble, params)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[1:] == rows
        _assert_reports_match_row_writers(ensemble, params, tmp_path)


def reference_write_cascade_report(path, trajectories, params, ids=None):
    """The row-by-row writer the columnar one replaced; ids default to ordinals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trajectory_id", "start_time", "end_time", "length",
                    "sentry_state_bits"])
        for k, traj in zip(range(len(trajectories)) if ids is None else ids, trajectories):
            for a, b, state in reference_identify_cascades(traj, params):
                w.writerow([k, format_float(traj.times[a]), format_float(traj.times[b]),
                            b - a + 1, "".join(map(str, state))])


def reference_write_naive_scores_report(path, scores):
    """The row-by-row writer the columnar one replaced."""
    states = sorted(set(scores.visits) | set(scores.counts),
                    key=lambda s: (-scores.score(s), -scores.count(s), s))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state_bits", "naive_count", "naive_score", "visits", "active_alarms"])
        for state in states:
            w.writerow(["".join(str(v) for v in state), scores.count(state),
                        format_float(scores.score(state)), scores.visits.get(state, 0),
                        active_alarm_count(state)])


def reference_write_comparison_report(path, result):
    """The row-by-row writer the columnar one replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "jaccard"])
        for k, j in result.jaccard:
            w.writerow([k, format_float(j)])


def _assert_reports_match_row_writers(trajectories, params, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_cascade_report(new, trajectories, params)
    reference_write_cascade_report(old, trajectories, params)
    assert new.read_bytes() == old.read_bytes()
    scores = naive_scores(trajectories, params)
    write_naive_scores_report(new, scores)
    reference_write_naive_scores_report(old, scores)
    assert new.read_bytes() == old.read_bytes()


def test_reports_match_row_writers(tmp_path):
    for seed in range(6):
        rng = random.Random(seed)
        model = make_random_model(rng, max_states=36)
        config = SimulationConfig(rng.uniform(5.0, 30.0), 40, seed)
        ensemble = sample_ensemble(model, None, config)
        params = NaiveParams(default_fast_threshold(ensemble), 2)
        _assert_reports_match_row_writers(ensemble, params, tmp_path)
        # members with no events, and the empty ensemble
        trajectories = list(ensemble) + [_first_events(ensemble[0], 0)]
        _assert_reports_match_row_writers(trajectories, params, tmp_path)
        _assert_reports_match_row_writers([], params, tmp_path)
    for max_active in (0, 1, 3):
        model = experiment_spec("chain3").build_model()
        result = compare_rednt_vs_naive(
            model, sample_ensemble(model, None, SimulationConfig(20.0, 30, 2)),
            max_active=max_active)
        write_comparison_report(tmp_path / "new.csv", result)
        reference_write_comparison_report(tmp_path / "old.csv", result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_cascade_report_keeps_trajectory_ids(tmp_path):
    # ids neither consecutive nor sorted in the file
    log = tmp_path / "log.csv"
    log.write_text("trajectory_id,time,process,state\n9,0.0,A,0\n9,0.0,B,0\n"
                   "5,0.0,A,0\n5,0.0,B,1\n9,1.0,A,1\n9,1.2,B,1\n5,3.0,A,1\n"
                   "5,3.1,B,0\n9,1.3,A,0\n5,3.3,A,0\n")
    ensemble, _ = read_ensemble_csv(log)
    path = tmp_path / "cascades.csv"
    write_cascade_report(path, ensemble, NaiveParams(0.5, 2))
    assert path.read_text().splitlines() == [
        "trajectory_id,start_time,end_time,length,sentry_state_bits",
        "5,3.1000000000000001,3.2999999999999998,2,11",
        "9,1.2,1.3,2,10"]
    reference_write_cascade_report(tmp_path / "old.csv", list(ensemble), NaiveParams(0.5, 2),
                                   ids=[5, 9])
    assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()


# -- thresholds --------------------------------------------------------------------------


def test_median_threshold_odd():
    traj = traj_from_times([1.0, 2.0, 4.0, 7.0], t_end=8.0)  # gaps 1, 2, 3
    assert default_fast_threshold([traj]) == 2.0


def test_median_threshold_even():
    traj = traj_from_times([1.0, 2.0, 5.0], t_end=6.0)  # gaps 1, 3
    assert default_fast_threshold([traj]) == 2.0


def test_median_threshold_pools_across_trajectories():
    a = traj_from_times([1.0, 2.0], t_end=3.0)      # gap 1
    b = traj_from_times([1.0, 4.0, 9.0], t_end=10.0)  # gaps 3, 5
    assert default_fast_threshold([a, b]) == 3.0


def test_median_threshold_without_gaps_is_infinite():
    # no trajectory has two events: no gap, so no event can be fast
    assert default_fast_threshold([traj_from_times([1.0], t_end=2.0)]) == math.inf
    assert default_fast_threshold([traj_from_times([], t_end=2.0)] * 3) == math.inf
    assert default_fast_threshold([]) == math.inf


def test_chain3_threshold_between_extreme_scales(chain3):
    # pooled median gap sits strictly between the shortest holding scale
    # (all rates competing, 5 + 15 + 15) and the slowest single rate (0.1)
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(50.0, 400, 8))
    threshold = default_fast_threshold(ensemble)
    assert 1 / 35.0 < threshold < 1 / 0.1


# -- jaccard -----------------------------------------------------------------------------


def test_jaccard_identical():
    ranking = [(0, 0), (0, 1), (1, 0)]
    for k in (1, 2, 3):
        assert jaccard_at_k(ranking, list(ranking), k) == 1.0


def test_jaccard_disjoint():
    assert jaccard_at_k([(0,), (1,)], [(2,), (3,)], 2) == 0.0


def test_jaccard_one_shared_of_top_two():
    a = [(0, 0), (0, 1)]
    b = [(0, 0), (1, 1)]
    assert jaccard_at_k(a, b, 2) == pytest.approx(1 / 3)


def test_jaccard_validates_k():
    with pytest.raises(ValueError):
        jaccard_at_k([(0,)], [(0,)], 2)
    with pytest.raises(ValueError):
        jaccard_at_k([(0,)], [(0,)], 0)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))),
       st.integers(1, 6))
def test_jaccard_symmetric_and_full_coverage(a, b, k):
    assert jaccard_at_k(a, b, k) == jaccard_at_k(b, a, k)
    assert jaccard_at_k(a, b, len(a)) == 1.0  # same support


# -- end-to-end comparison -----------------------------------------------------------------


def test_chain3_naive_count_leader(chain3):
    # among the at-most-one-alarm states, the state with the root freshly on
    # launches by far the most cascades
    ensemble = sample_ensemble(chain3, None, SimulationConfig(50.0, 2000, 99))
    result = compare_rednt_vs_naive(chain3, ensemble, k_range=[1, 2])
    counts = {s: result.scores.count(s) for s in result.rednt_ranking}
    assert max(counts, key=counts.get) == (1, 0, 0)
    assert counts[(1, 0, 0)] > 3 * counts[(0, 1, 0)]
    assert dict(result.jaccard)[2] >= 1 / 3


def test_chain3_full_list_jaccard_is_one(chain3):
    ensemble = sample_ensemble(chain3, None, SimulationConfig(50.0, 500, 99))
    result = compare_rednt_vs_naive(chain3, ensemble, k_range=[4])
    assert dict(result.jaccard)[4] == 1.0  # both lists rank the same support


def test_six_process_top_state_agreement():
    spec = experiment_spec("cycle-chain6")
    model = spec.build_model()
    ensemble = sample_ensemble(model, None, SimulationConfig(60.0, 3000, 77))
    result = compare_rednt_vs_naive(model, ensemble, k_range=[1, 2], alpha=spec.alpha)
    assert result.rednt_ranking[0] == (0, 0, 1, 0, 0, 0)
    counts = {s: result.scores.count(s) for s in result.rednt_ranking}
    assert max(counts, key=counts.get) == (0, 0, 1, 0, 0, 0)
    assert dict(result.jaccard)[1] == 1.0
    assert dict(result.jaccard)[2] == 1.0


def test_pipeline_solves_exactly_past_old_cap():
    # 8 192 states, above any dense-size limit: the pipeline's EDNT is the
    # exact solve at every size up to the state cap
    model = chain13_model()
    assert model.state_count == 8192
    ensemble = sample_ensemble(model, None, SimulationConfig(2.0, 3, 1))
    result = compare_rednt_vs_naive(model, ensemble, k_range=[1], alpha=2.0)
    exact = ednt_exact(model, 2.0)
    assert np.array_equal(result.ranking.ednt, exact)
    assert not result.ranking.stderrs.any()
    assert np.array_equal(result.ranking.values,
                          rednt(exact, build_state_space_graph(model)).values)
    assert result.max_active == 1 and len(result.rednt_ranking) == 14


def test_pipeline_filters_by_max_active(chain3):
    ensemble = sample_ensemble(chain3, None, SimulationConfig(30.0, 50, 5))
    default = compare_rednt_vs_naive(chain3, ensemble)
    assert default.max_active == 1 and len(default.jaccard) == 4
    for max_active, count in ((0, 1), (2, 7), (3, 8)):
        result = compare_rednt_vs_naive(chain3, ensemble, max_active=max_active)
        assert result.max_active == max_active
        assert len(result.rednt_ranking) == len(result.jaccard) == count
        assert sorted(result.naive_ranking) == sorted(result.rednt_ranking)


def test_naive_ranking_breaks_ties_by_state_index():
    # a short horizon leaves most low-activity states unvisited: score and count 0
    model = experiment_spec("chain5").build_model()
    ensemble = sample_ensemble(model, None, SimulationConfig(2.0, 5, 3))
    result = compare_rednt_vs_naive(model, ensemble, max_active=2)
    keys = [(-result.scores.score(s), -result.scores.count(s), state_index(s, model))
            for s in result.naive_ranking]
    assert keys == sorted(keys)
    assert sum(key[:2] == (0.0, 0) for key in keys) >= 5


def test_explicit_params_respected(chain3):
    ensemble = sample_ensemble(chain3, None, SimulationConfig(30.0, 200, 5))
    result = compare_rednt_vs_naive(chain3, ensemble, 0.04, k_range=[1],
                                    min_cascade_length=3)
    assert result.fast_threshold == 0.04
    # the minimum length applies with a given threshold too
    assert result.scores == naive_scores(ensemble, NaiveParams(0.04, 3))
    assert result.scores != naive_scores(ensemble, NaiveParams(0.04, 2))


# -- reports -----------------------------------------------------------------------------


def test_cascade_report_csv(chain3, tmp_path):
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(30.0, 20, 12))
    params = NaiveParams(default_fast_threshold(ensemble), 2)
    path = tmp_path / "cascades.csv"
    write_cascade_report(path, ensemble, params)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trajectory_id,start_time,end_time,length,sentry_state_bits"
    assert len(lines) > 10
    tid, start, end, length, bits = lines[1].split(",")
    assert float(end) >= float(start)
    assert int(length) >= 2
    assert len(bits) == 3 and set(bits) <= {"0", "1"}


def test_naive_scores_report_csv(chain3, tmp_path):
    ensemble = sample_ensemble(chain3, (0, 0, 0), SimulationConfig(30.0, 50, 12))
    scores = naive_scores(ensemble, NaiveParams(0.06, 2))
    path = tmp_path / "scores.csv"
    write_naive_scores_report(path, scores)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "state_bits,naive_count,naive_score,visits,active_alarms"
    score_col = [float(line.split(",")[2]) for line in lines[1:]]
    assert score_col == sorted(score_col, reverse=True)

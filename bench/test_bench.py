"""Self-tests of the benchmark: oracles against closed forms, and every output
check against real program outputs, untouched (passes) and corrupted (fails).

Run from the root of a checkout with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from ctbn_sentry import cli  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def toggler(up: float, down: float) -> dict:
    return {"processes": [{"name": "X", "cardinality": 2, "parents": []}],
            "cims": {"X": [[[-up, up], [down, -down]]]}, "initial_state": [0]}


# -- oracles --------------------------------------------------------------------


def test_symmetric_toggler_closed_forms():
    rate, alpha, t_end = 2.5, 0.4, 3.0
    doc = toggler(rate, rate)
    np.testing.assert_allclose(oracles.ednt(doc, alpha), [rate / alpha] * 2, rtol=1e-12)
    np.testing.assert_allclose(oracles.ednt_horizon(doc, alpha, t_end),
                               [rate / alpha * (1 - math.exp(-alpha * t_end))] * 2,
                               rtol=1e-12)
    mean, square = oracles.event_moments(doc, t_end)
    # N(T) is Poisson(rate T): mean rate T, second moment rate T + (rate T)^2
    np.testing.assert_allclose(mean, [rate * t_end] * 2, rtol=1e-12)
    np.testing.assert_allclose(square, [rate * t_end + (rate * t_end) ** 2] * 2, rtol=1e-12)


def test_generator_of_two_process_chain():
    doc = {"processes": [{"name": "A", "cardinality": 2, "parents": []},
                         {"name": "B", "cardinality": 2, "parents": ["A"]}],
           "cims": {"A": [[[-1.0, 1.0], [5.0, -5.0]]],
                    "B": [[[-0.1, 0.1], [15.0, -15.0]], [[-15.0, 15.0], [0.1, -0.1]]]},
           "initial_state": [0, 0]}
    Q, q = oracles.generator(doc)
    # states 00, 01, 10, 11; A is the most significant digit
    want = np.array([[-1.1, 0.1, 1.0, 0.0],
                     [15.0, -16.0, 0.0, 1.0],
                     [5.0, 0.0, -20.0, 15.0],
                     [0.0, 5.0, 0.1, -5.1]])
    np.testing.assert_allclose(Q.toarray(), want)
    np.testing.assert_allclose(q, -np.diag(want))


def test_horizon_value_is_v_minus_discounted_tail(tmp_path):
    doc = workloads._write_replicator(tmp_path / "m.json", "chain5", (1.0, 5.0), 15.0, 0.1)
    alpha, t_end = 0.7, 3.0
    Q, _ = oracles.generator(doc)
    v = oracles.ednt(doc, alpha)
    tail = expm_multiply(t_end * (Q - alpha * sp.identity(Q.shape[0])), v)
    np.testing.assert_allclose(oracles.ednt_horizon(doc, alpha, t_end), v - tail, rtol=1e-10)


def test_rednt_definition():
    # two binary processes; states 00, 01, 10, 11
    assert oracles.rednt([1.0, 2.0, 4.0, 8.0], [2, 2]).tolist() == [1.0, 2.0, 4.0, 4.0]
    # a zero state is pinned to 1; a positive neighbour of it is infinite
    assert oracles.rednt([0.0, 2.0, 4.0, 8.0], [2, 2]).tolist() == [1.0, math.inf, math.inf, 4.0]


def test_fast_runs_strict_and_first_event_slow():
    times = [0.05, 0.1, 0.15, 1.0, 1.5, 1.9, 2.2, 5.0, 5.5]
    assert oracles.fast_runs(times, 0.5, 2) == [(1, 2), (5, 6)]
    assert oracles.fast_runs(times, 0.5, 3) == []
    assert oracles.fast_runs([1.0, 1.5], 0.5, 1) == []  # a gap equal to the cut is slow


# -- output checks ----------------------------------------------------------------


def run(ops) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            assert cli.main(op.argv) == 0


def edit_csv(path: Path, change) -> None:
    """Rewrite a CSV through change(rows), rows being lists of strings after the header."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = change(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


@contextlib.contextmanager
def corrupted(path: Path, change):
    """Edit a file for the duration of the block, then restore it."""
    saved = path.read_bytes()
    edit_csv(path, change)
    try:
        yield
    finally:
        path.write_bytes(saved)


def set_cell(row: int, column: int, value):
    def change(rows):
        rows[row][column] = str(value(rows[row][column]) if callable(value) else value)
        return rows
    return change


def outputs(tmp_path_factory, name, keep=lambda op: True):
    """Run a workload's operations once (those `keep` selects) at seed 7."""
    work = tmp_path_factory.mktemp(name)
    ops = [op for op in workloads.build(name, 7, work) if keep(op)]
    run(ops)
    return work / "out", ops


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return outputs(tmp_path_factory, "shapes-bundle",
                   lambda op: op.argv[1] in ("chain3", "cycle-chain6"))


def test_bundle_checks_pass(bundle):
    for op in bundle[1]:
        assert op.check()["residual"] < 1e-9


@pytest.mark.parametrize("file, change, message", [
    ("sentry.csv", set_cell(3, 1, lambda v: float(v) * (1 + 1e-6)), "EDNT of"),
    ("sentry.csv", set_cell(3, 3, lambda v: float(v) * 1.01), "REDNT of"),
    ("sentry.csv", lambda rows: rows[:-1], "rows for"),
    ("sentry.csv", lambda rows: [rows[1], rows[0]] + rows[2:], "not sorted|top low-activity"),
    ("naive_scores.csv", set_cell(0, 3, lambda v: int(v) + 20000), "events, expected"),
    ("naive_scores.csv", set_cell(0, 1, lambda v: 10 ** 9), "count above visits"),
    ("cascades.csv", lambda rows: rows[:-1], "windows differ"),
    ("cascades.csv", set_cell(0, 4, "111"), "windows differ"),
    ("comparison.csv", set_cell(0, 1, "0.5"), "differs from recomputed"),
    ("comparison.csv", lambda rows: rows[:-1], "differs from recomputed"),
])
def test_bundle_checks_fail_on_corruption(bundle, file, change, message):
    out, ops = bundle
    with corrupted(out / "chain3" / file, change), \
            pytest.raises(CheckFailed, match=message):
        ops[0].check()


def test_bundle_top_state_fails_when_swapped(bundle):
    out, ops = bundle
    path = out / "cycle-chain6" / "sentry.csv"

    def swap(rows):  # relabel the top two low-activity rows
        low = [r for r in rows if int(r[4]) <= 1]
        low[0][0], low[1][0] = low[1][0], low[0][0]
        return rows
    with corrupted(path, swap):
        with pytest.raises(CheckFailed, match="EDNT of"):
            ops[1].check()
        with pytest.raises(CheckFailed, match="top low-activity"):
            workloads.check_top_state(path, "001000")


def test_mc_checks(tmp_path_factory):
    out, ops = outputs(tmp_path_factory, "mc-sentry")
    ops[0].check()
    with corrupted(out / "sentry.csv", set_cell(2, 1, lambda v: float(v) * 1.5)), \
            pytest.raises(CheckFailed, match="V_T"):
        ops[0].check()
    with corrupted(out / "sentry.csv", lambda rows: rows[:-1]), \
            pytest.raises(CheckFailed, match="low-activity states"):
        ops[0].check()


def test_mc_z_grows_with_states():
    assert 5.0 < workloads.mc_z(14) < workloads.mc_z(92) < 6.5


def test_exact_checks(tmp_path_factory):
    out, ops = outputs(tmp_path_factory, "exact-sweep", lambda op: "chain8" in op.argv[1])
    assert ops[0].check()["residual"] < 1e-9
    with corrupted(out / "chain8.csv", set_cell(0, 1, lambda v: float(v) * (1 + 1e-6))), \
            pytest.raises(CheckFailed, match="EDNT of"):
        ops[0].check()


def test_exact_top_state_check(tmp_path):
    rows = "state_bits,ednt,ednt_stderr,rednt,active_alarms\n0100,1,0,2,1\n1000,1,0,1.5,1\n"
    (tmp_path / "r.csv").write_text(rows)
    with pytest.raises(CheckFailed, match="top low-activity"):
        workloads.check_top_state(tmp_path / "r.csv", "1000")


def test_alarm_log_checks(tmp_path):
    log, cascades, scores = (tmp_path / n for n in ("log.csv", "c.csv", "s.csv"))
    truth = workloads.plant_alarm_log(log, 3, trajectories=20, events=60)
    assert truth.windows and any(v > 1 for v in truth.counts.values())
    argv = ["cascades", str(log), "--fast-threshold", repr(workloads.ALARM_THRESHOLD),
            "--out-cascades", str(cascades), "--out-scores", str(scores)]
    run([workloads.Op(argv, lambda: {})])
    workloads.check_alarm_log(cascades, scores, truth)

    for path, change, message in [
        (cascades, set_cell(0, 2, lambda v: float(v) + 1e-9), "windows differ"),
        (cascades, lambda rows: rows[1:], "windows differ"),
        (scores, set_cell(0, 3, lambda v: int(v) + 1), "counts or visits"),
        (scores, set_cell(0, 1, lambda v: int(v) + 1), "counts or visits"),
    ]:
        with corrupted(path, change), pytest.raises(CheckFailed, match=message):
            workloads.check_alarm_log(cascades, scores, truth)

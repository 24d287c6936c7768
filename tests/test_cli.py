import argparse
import json
import math
from pathlib import Path

import pytest

from ctbn_sentry import cli
from ctbn_sentry import experiments as experiments_module
from ctbn_sentry import model_to_json_dict, save_model
from ctbn_sentry.cli import main
from conftest import chain_model

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def chain3_path(chain3, tmp_path):
    path = tmp_path / "chain3.json"
    save_model(chain3, path)
    return str(path)


def run(argv):
    return main(argv)


# -- validate ----------------------------------------------------------------------


def test_validate_ok(chain3_path, capsys):
    assert run(["validate", chain3_path]) == 0
    assert capsys.readouterr().out == ""


def test_validate_bundled_fixture():
    bundled = Path(__file__).resolve().parents[1] / "src/ctbn_sentry/data/chain3.json"
    assert run(["validate", str(bundled)]) == 0


def test_validate_unreadable(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"processes": [')
    assert run(["validate", str(path)]) == 2
    assert run(["validate", str(tmp_path / "missing.json")]) == 2


def test_validate_non_integer_initial_state(chain3, tmp_path, capsys):
    doc = model_to_json_dict(chain3)
    doc["initial_state"] = [0, 1.5, 0.9]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["code"], r["message"]) for r in records] == [
        ("initial", "initial state: local state 1.5 is not an integer")]


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc.update(comment="extra"), "unknown model fields: ['comment']"),
    (lambda doc: doc["cims"]["B"][0].pop(), "inhomogeneous shape"),  # a ragged CIM
    (lambda doc: doc["processes"][0].update(cardinality="two"),
     "process 'A': cardinality 'two' is not an integer"),
    (lambda doc: doc["processes"][0].update(cardinality=2.9),  # was truncated to 2
     "process 'A': cardinality 2.9 is not an integer"),
], ids=["unknown-field", "ragged-cim", "cardinality", "fractional-cardinality"])
def test_unreadable_model_file(change, message, chain3, tmp_path, capsys):
    doc = model_to_json_dict(chain3)
    change(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read model {str(path)!r}: ") and message in err
    assert err.count("\n") == 1


def test_list_form_cims_is_unreadable(chain3, tmp_path, capsys):
    # cims map each process name to its CIMs; a list in process order is not read
    doc = model_to_json_dict(chain3)
    doc["cims"] = [doc["cims"][name] for name in chain3.names]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read model {str(path)!r}: ")
    assert err.count("\n") == 1


def test_validate_bad_row_sum(chain3_path, tmp_path, capsys):
    doc = json.loads(Path(chain3_path).read_text())
    doc["cims"]["A"][0][0] = [-0.5, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert sum(1 for r in records if r["severity"] == "error") == 1
    assert records[0]["code"] == "row-sum"


# -- simulate ----------------------------------------------------------------------


def test_simulate_deterministic(chain3_path, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", chain3_path, "--t-end", "5", "--trajectories", "3",
            "--seed", "42", "--single-file"]
    assert run(base + ["--out", str(out_a)]) == 0
    assert run(base + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_zero_horizon(chain3_path, tmp_path):
    out = tmp_path / "z.csv"
    assert run(["simulate", chain3_path, "--t-end", "0", "--trajectories", "2",
                "--seed", "1", "--single-file", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 3  # header plus initial rows only
    assert all(line.split(",")[1] == "0.0" for line in lines[1:])


def test_simulate_per_trajectory_files(chain3_path, tmp_path):
    out = tmp_path / "dir"
    assert run(["simulate", chain3_path, "--t-end", "2", "--trajectories", "2",
                "--seed", "3", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["trajectory_00000.csv", "trajectory_00001.csv"]


def test_simulate_initial_flag(chain3_path, tmp_path):
    out = tmp_path / "i.csv"
    assert run(["simulate", chain3_path, "--initial", "1,1,1", "--t-end", "0",
                "--seed", "1", "--single-file", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [r.split(",")[3] for r in rows] == ["1", "1", "1"]


@pytest.mark.parametrize("n", [64, 100])
def test_simulate_past_int64_joint_indices(n, tmp_path):
    model = chain_model(n)
    path = tmp_path / "chain.json"
    save_model(model, path)
    out = tmp_path / "ensemble.csv"
    assert run(["simulate", str(path), "--t-end", "2", "--trajectories", "3",
                "--single-file", "--out", str(out)]) == 0
    assert out.read_text().count(",0.0,") == 3 * n  # every member's time-0 rows
    start = tmp_path / "start.csv"
    assert run(["simulate", str(path), "--initial", "1" + "0" * (n - 1), "--t-end", "0",
                "--single-file", "--out", str(start)]) == 0
    assert start.read_text().splitlines()[1] == "0,0.0,P00,1"


def test_simulate_bad_initial(chain3_path, tmp_path, capsys):
    code = run(["simulate", chain3_path, "--initial", "5,0,0", "--t-end", "1",
                "--seed", "1", "--single-file", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "invalid initial state" in capsys.readouterr().err


# -- sentry ------------------------------------------------------------------------


def test_sentry_exact_ranking(chain3_path, tmp_path):
    out = tmp_path / "sentry.csv"
    assert run(["sentry", chain3_path, "--exact", "--alpha", "0.1",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].startswith("100,")


def test_sentry_mc_with_max_active(chain3_path, tmp_path):
    out = tmp_path / "sentry_mc.csv"
    assert run(["sentry", chain3_path, "--alpha", "0.2", "--t-end", "30",
                "--trajectories", "40", "--seed", "9", "--max-active", "1",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    bits = {line.split(",")[0] for line in lines[1:]}
    assert {"000", "100", "010", "001"} <= bits


def test_sentry_stopping_rule(chain3_path, tmp_path):
    out = tmp_path / "sentry_eps.csv"
    assert run(["sentry", chain3_path, "--alpha", "0.5", "--t-end", "25",
                "--trajectories", "4000", "--epsilon", "0.05", "--seed", "4",
                "--max-active", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 2


def test_sentry_epsilon_never_met_equals_fixed_count(chain3_path, tmp_path):
    fixed, eps = tmp_path / "fixed.csv", tmp_path / "eps.csv"
    base = ["sentry", chain3_path, "--alpha", "0.3", "--t-end", "20",
            "--trajectories", "300", "--seed", "5"]
    assert run(base + ["--out", str(fixed)]) == 0
    assert run(base + ["--epsilon", "1e-9", "--out", str(eps)]) == 0
    assert eps.read_bytes() == fixed.read_bytes()


@pytest.mark.parametrize("mode", [["--exact"], ["--trajectories", "20", "--max-active", "0"]],
                         ids=["exact", "monte-carlo"])
def test_sentry_infinite_alpha_is_domain_error(chain3_path, tmp_path, capsys, mode):
    out = tmp_path / "s.csv"
    assert run(["sentry", chain3_path, "--alpha", "inf", *mode, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: alpha must be positive and finite, got inf"]
    assert not out.exists()


def test_sentry_exact_absorbing_state(tmp_path):
    path = tmp_path / "absorbing.json"
    path.write_text(json.dumps({
        "processes": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
        "cims": {"A": [[[-0.0, 0.0], [0.3201900409138983, -0.3201900409138983]]],
                 "B": [[[-0.0, 0.0], [538.6076586395066, -538.6076586395066]]]},
        "initial_state": [0, 0],
    }))
    out = tmp_path / "sentry.csv"
    assert run(["sentry", str(path), "--exact", "--alpha", "0.2658", "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines()[-1] == "00,0,0,1,0"


def test_sentry_exact_golden(chain3_path, tmp_path):
    out = tmp_path / "sentry.csv"
    assert run(["sentry", chain3_path, "--exact", "--alpha", "0.1", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sentry_chain3_exact.csv").read_bytes()


def test_sentry_max_active_past_the_state_cap(tmp_path, capsys):
    # 21 processes, 2 097 152 joint states: past the cap, which an exact solve
    # and a Monte Carlo run over every state keep
    path = tmp_path / "chain21.json"
    save_model(chain_model(21), path)
    out = tmp_path / "sentry.csv"
    base = ["sentry", str(path), "--trajectories", "20", "--t-end", "2", "--out", str(out)]
    assert run([*base, "--max-active", "1"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 22  # no alarm, or one of 21
    out.unlink()
    assert run([*base, "--exact"]) == 1
    assert run(base) == 1
    assert not out.exists()
    assert all(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("command", [["sentry", "model.json", "--out", "s.csv"],
                                     ["experiment", "chain3", "--out", "x"]])
def test_negative_max_active_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--max-active", "-1"])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("parse, lowest, below, message", [
    (cli._positive_float, "1e-300", "0", "expected a positive number, got 0"),
    (cli._nonneg_float, "0", "-1e-300", "expected a non-negative number, got -1e-300"),
    (cli._positive_int, "1", "0", "expected a positive integer, got 0"),
    (cli._nonneg_int, "0", "-1", "expected a non-negative integer, got -1"),
    (cli._cascade_length, "2", "1", "minimum cascade length must be >= 2, got 1"),
])
def test_number_flag_bounds(parse, lowest, below, message):
    assert parse(lowest) == float(lowest)
    with pytest.raises(argparse.ArgumentTypeError, match=f"^{message}$"):
        parse(below)
    if isinstance(parse(lowest), float):  # NaN and inf pass; the library rejects them
        assert math.isnan(parse("nan")) and parse("inf") == math.inf


@pytest.mark.parametrize("values, message", [
    ({"max-active": -1}, "argument --max-active: expected a non-negative integer, got -1"),
    ({"trajectories": 2.5}, "argument --trajectories: invalid _positive_int value: '2.5'"),
    ({"exact": "no"}, "argument --exact: config value must be true or false, got 'no'"),
])
def test_config_values_are_checked_like_flags(values, message, chain3_path, tmp_path,
                                              capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(config), "sentry", chain3_path, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_values_for_experiment_are_checked(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_active": -1}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(config), "experiment", "chain3", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("values, key", [
    ({"trajectoris": 10, "bogus": 1}, "trajectoris"),
    ({"alpha": 0.1, "min-length": 3}, "min-length"),  # a flag of cascades only
    ({"config": "other.json"}, "config"),
    ({"model": "other.json"}, "model"),  # a positional, not a flag
])
def test_config_unknown_key_is_usage_error(values, key, chain3_path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(config), "sentry", chain3_path, "--exact", "--out", str(out)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"ctbn-sentry sentry: error: config key {key!r} is not a flag of sentry"]
    assert not out.exists()


def test_config_values_write_what_their_flags_write(chain3_path, tmp_path, capsys):
    # a negative number, and a value holding "=", reach argparse whole
    out = tmp_path / "a=b.csv"
    flags = ["--seed", "-5", "--t-end", "2.5", "--out", str(out)]
    base = ["simulate", chain3_path, "--trajectories", "3", "--single-file"]
    assert run([*base, *flags]) == 0
    want = capsys.readouterr().out, out.read_bytes()
    out.unlink()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -5, "t-end": 2.5, "out": str(out)}))
    assert run(["--config", str(config), *base]) == 0
    assert (capsys.readouterr().out, out.read_bytes()) == want


def test_config_boolean_and_flag_precedence(chain3_path, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"exact": True, "alpha": 0.1, "trajectories": 2.5}))
    out = tmp_path / "s.csv"
    # the flag replaces the bad config value, so only the flag is parsed
    assert run(["--config", str(config), "sentry", chain3_path, "--trajectories", "5",
                "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sentry_chain3_exact.csv").read_bytes()


@pytest.mark.parametrize("values, flags", [
    ({"fast-threshold": 0.1}, ["--auto-threshold"]),
    ({"auto-threshold": True}, ["--fast-threshold", "2"]),
    ({"auto-threshold": True}, ["--fast-threshold=2"]),
    ({"fast-threshold": "abc"}, ["--auto-threshold"]),  # dropped, so never parsed
    ({"auto-threshold": "yes"}, ["--fast-threshold=2"]),
], ids=["number-then-auto", "auto-then-number", "equals-form", "bad-number",
        "bad-boolean"])
def test_config_value_yields_to_a_flag_of_its_group(values, flags, tmp_path, capsys):
    # a command-line flag beats the config values of its mutually exclusive group
    log = tmp_path / "log.csv"
    log.write_text("time,process,state\n0.0,A,0\n0.0,B,0\n1.0,A,1\n1.5,B,1\n"
                   "4.0,A,0\n4.1,B,0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
    argv = ["cascades", str(log), *flags, "--out-cascades", str(out_c),
            "--out-scores", str(out_s)]
    assert run(argv) == 0
    want = capsys.readouterr().out, out_c.read_bytes(), out_s.read_bytes()
    assert run(["--config", str(config), *argv]) == 0
    assert (capsys.readouterr().out, out_c.read_bytes(), out_s.read_bytes()) == want


@pytest.mark.parametrize("values, flags", [
    ({"fast-threshold": 0.5}, ["--fast-threshold", "0.5"]),
    ({"auto-threshold": True}, ["--auto-threshold"]),
    ({"fast-threshold": 0.5, "auto-threshold": False}, ["--fast-threshold", "0.5"]),
], ids=["number", "auto", "number-auto-off"])
def test_config_threshold_stands_for_its_flag(values, flags, tmp_path, capsys):
    # a threshold given only in the config meets the group's requirement
    log = tmp_path / "log.csv"
    log.write_text("time,process,state\n0.0,A,0\n0.0,B,0\n1.0,A,1\n1.5,B,1\n"
                   "4.0,A,0\n4.1,B,0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
    argv = ["cascades", str(log), "--out-cascades", str(out_c), "--out-scores", str(out_s)]
    assert run([*argv, *flags]) == 0
    want = capsys.readouterr().out, out_c.read_bytes(), out_s.read_bytes()
    out_c.unlink()
    out_s.unlink()
    assert run(["--config", str(config), *argv]) == 0
    assert (capsys.readouterr().out, out_c.read_bytes(), out_s.read_bytes()) == want


@pytest.mark.parametrize("values, message", [
    ({}, "one of the arguments --fast-threshold --auto-threshold is required"),
    ({"auto-threshold": False}, "one of the arguments --fast-threshold --auto-threshold "
                                "is required"),
    ({"fast-threshold": 0.5, "auto-threshold": True},
     "argument --auto-threshold: not allowed with argument --fast-threshold"),
], ids=["neither", "auto-off", "both"])
def test_config_threshold_group_errors(values, message, tmp_path, capsys):
    # neither source gives a threshold, or the config gives both: the
    # message and exit code of the command-line flags
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    argv = ["cascades", str(tmp_path / "log.csv"), "--out-cascades", str(tmp_path / "c.csv"),
            "--out-scores", str(tmp_path / "s.csv")]
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(config), *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"ctbn-sentry cascades: error: {message}"
    if not values:  # as with no config at all
        with pytest.raises(SystemExit):
            run(argv)
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    assert not list(tmp_path.glob("*.csv"))


# -- cascades ----------------------------------------------------------------------


def test_cascades_pipeline(chain3_path, tmp_path):
    traj_csv = tmp_path / "ens.csv"
    run(["simulate", chain3_path, "--t-end", "60", "--trajectories", "30",
         "--seed", "5", "--single-file", "--out", str(traj_csv)])
    out_c, out_s = tmp_path / "cascades.csv", tmp_path / "scores.csv"
    assert run(["cascades", str(traj_csv), "--auto-threshold",
                "--min-length", "2", "--out-cascades", str(out_c),
                "--out-scores", str(out_s)]) == 0
    cascade_lines = out_c.read_text().strip().splitlines()
    score_lines = out_s.read_text().strip().splitlines()
    assert len(cascade_lines) > 30
    best = score_lines[1].split(",")
    assert best[0] == "100"  # the root-on state launches the most cascades


def test_cascades_golden(tmp_path):
    out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
    assert run(["cascades", str(GOLDEN / "two_members.csv"), "--fast-threshold", "0.5",
                "--min-length", "2", "--out-cascades", str(out_c),
                "--out-scores", str(out_s)]) == 0
    assert out_c.read_bytes() == (GOLDEN / "two_members_cascades.csv").read_bytes()
    assert out_s.read_bytes() == (GOLDEN / "two_members_naive_scores.csv").read_bytes()


def test_cascades_empty_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("time,process,state\n0.0,A,0\n")
    out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
    assert run(["cascades", str(empty), "--auto-threshold",
                "--out-cascades", str(out_c), "--out-scores", str(out_s)]) == 0
    assert len(out_c.read_text().strip().splitlines()) == 1
    # visits do not depend on the threshold, so the lone state is still reported
    assert out_s.read_text().splitlines() == [
        "state_bits,naive_count,naive_score,visits,active_alarms", "0,0,0,1,0"]


def test_cascades_infinite_threshold(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("time,process,state\n0.0,A,0\n0.0,B,0\n1.0,A,1\n1.5,B,1\n9.0,A,0\n")
    out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
    assert run(["cascades", str(log), "--fast-threshold", "inf",
                "--out-cascades", str(out_c), "--out-scores", str(out_s)]) == 0
    assert len(out_c.read_text().splitlines()) == 2  # both gaps are fast: one window


BAD_TIMES = "event times must be finite, positive and strictly increasing"


@pytest.mark.parametrize("text, message", [
    ("trajectory_id,time,process,state\n0,0.0,A,0\n0,0.0,B,0\n0,1.0,A,1\n"
     "1,0.0,A,0\n1,0.0,C,0\n1,2.0,C,1\n",
     "process 'C' in trajectory 1 is not declared by a time-0 row (declared: A, B)"),
    ("time,process,state\n0.0,A,0\n0.0,B,0\n1.0,A,1\n2.0,C,1\n",
     "process 'C' in {path} is not declared by a time-0 row (declared: A, B)"),
    ("time,process,state\n0.0,A,0\n1.0,A,1\nnan,A,0\n", BAD_TIMES),
    ("trajectory_id,time,process,state\n0,0.0,A,0\n0,inf,A,1\n", BAD_TIMES),
    ("trajectory_id,time,process,state\n0,0.0,A,0\n0,0.0,B,0\n1,0.0,A,1\n1,1.0,B,1\n",
     "process 'B' has no time-0 row in trajectory 1"),
], ids=["ensemble-undeclared", "single-undeclared", "single-nan", "ensemble-inf",
        "ensemble-missing-initial"])
def test_cascades_bad_trajectory_csv(tmp_path, capsys, text, message):
    log = tmp_path / "log.csv"
    log.write_text(text)
    assert run(["cascades", str(log), "--fast-threshold", "1",
                "--out-cascades", str(tmp_path / "c.csv"),
                "--out-scores", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message.format(path=log)}"]


def test_cascades_reads_one_log_in_either_layout(chain3_path, tmp_path):
    # one trajectory written without and with its trajectory_id column (id 0)
    common = [chain3_path, "--t-end", "60", "--seed", "5"]
    assert run(["simulate", *common, "--out", str(tmp_path / "one")]) == 0
    assert run(["simulate", *common, "--single-file", "--out", str(tmp_path / "ids.csv")]) == 0
    reports = []
    for log in (tmp_path / "one" / "trajectory_00000.csv", tmp_path / "ids.csv"):
        out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
        assert run(["cascades", str(log), "--auto-threshold", "--out-cascades", str(out_c),
                    "--out-scores", str(out_s)]) == 0
        reports.append((out_c.read_bytes(), out_s.read_bytes()))
    assert reports[0] == reports[1]
    assert len(reports[0][0].splitlines()) > 2  # cascades found in member 0


def test_cascades_header_only_log(tmp_path):
    # no row: one member with no process, visited once in the empty state
    log = tmp_path / "log.csv"
    log.write_text("time,process,state\n")
    out_c, out_s = tmp_path / "c.csv", tmp_path / "s.csv"
    assert run(["cascades", str(log), "--fast-threshold", "1",
                "--out-cascades", str(out_c), "--out-scores", str(out_s)]) == 0
    assert len(out_c.read_text().splitlines()) == 1
    assert out_s.read_text().splitlines() == [
        "state_bits,naive_count,naive_score,visits,active_alarms", ",0,0,1,0"]


def test_cascades_min_length_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["cascades", "whatever.csv", "--auto-threshold", "--min-length", "1",
             "--out-cascades", "c.csv", "--out-scores", "s.csv"])
    assert exc.value.code == 2


# -- graph -------------------------------------------------------------------------


def test_graph_separate_json(chain3_path, capsys):
    assert run(["graph", chain3_path, "separate", "--a", "A", "--b", "C",
                "--c", "B"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separated"] is True
    assert doc["A"] == ["A"] and doc["B"] == ["C"] and doc["C"] == ["B"]
    assert doc["ancestral_set"] == ["A", "B", "C"]


def test_graph_condense_blocks(tmp_path, capsys):
    from ctbn_sentry import experiment_spec

    spec = experiment_spec("cycle-chain6")
    path = tmp_path / "six.json"
    save_model(spec.build_model(), path)
    assert run(["graph", str(path), "condense"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["blocks"]) == 4
    assert sorted(doc["blocks"]["A"]) == ["A", "B", "C"]


def test_graph_moralize_dot(chain3_path, capsys):
    assert run(["graph", chain3_path, "moralize"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph") and '"A" -- "B"' in out


def test_graph_moralize_golden(tmp_path, capsys):
    assert run(["graph", _shape_model("cycle-chain6", tmp_path), "moralize"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "moralize_cycle-chain6.dot").read_text()


def test_graph_partition_file(chain3_path, tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps({"root": ["A"], "rest": ["B", "C"]}))
    assert run(["graph", chain3_path, "partition", "--blocks-file", str(blocks)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["edges"] == [["root", "rest"]]


def _shape_model(name, tmp_path):
    from ctbn_sentry import experiment_spec

    path = tmp_path / f"{name}.json"
    save_model(experiment_spec(name).build_model(), path)
    return str(path)


@pytest.mark.parametrize("shape, query, golden", [
    ("cycle-chain6", ["condense"], "condense_cycle-chain6"),
    ("chain3", ["partition", "--blocks-file", str(GOLDEN / "chain3_blocks.json")],
     "partition_chain3"),
])
def test_graph_blocks_and_dot_golden(shape, query, golden, tmp_path):
    out, dot = tmp_path / "blocks.json", tmp_path / "graph.dot"
    assert run(["graph", _shape_model(shape, tmp_path), *query, "--dot", str(dot),
                "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()
    assert dot.read_bytes() == (GOLDEN / f"{golden}.dot").read_bytes()


BAD_BLOCKS = ("error: blocks file must hold a JSON object mapping each block name "
              "to a list of node names")


@pytest.mark.parametrize("blocks", [[1, 2], {"X": 5}, {"root": ["A"], "rest": "BC"},
                                    {"root": ["A"], "rest": ["B", 3]}, "ABC"],
                         ids=["list", "number", "string-member", "number-in-list", "string"])
def test_graph_partition_rejects_malformed_blocks(blocks, chain3_path, tmp_path, capsys):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(blocks))
    assert run(["graph", chain3_path, "partition", "--blocks-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [BAD_BLOCKS]


def test_graph_partition_requires_blocks_file(chain3_path, capsys):
    assert run(["graph", chain3_path, "partition"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: partition requires --blocks-file"]


# -- experiment --------------------------------------------------------------------


def test_experiment_bundle_and_config(tmp_path):
    out = tmp_path / "bundle"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trajectories": 150, "t-end": 25.0,
                                  "display-trajectories": 2}))
    assert run(["--config", str(config), "experiment", "chain3", "--seed", "7",
                "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["cascades.csv", "comparison.csv", "manifest.json",
                     "model.json", "naive_scores.csv", "sentry.csv",
                     "trajectories.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trajectory_count"] == 150  # config applied
    assert manifest["seed"] == 7                # flag wins over default
    sentry_lines = (out / "sentry.csv").read_text().strip().splitlines()
    assert sentry_lines[1].startswith("100,")


@pytest.mark.parametrize("max_active, rows", [(0, 1), (2, 16)])
def test_experiment_comparison_uses_max_active(tmp_path, max_active, rows):
    out = tmp_path / "bundle"
    assert run(["experiment", "chain5", "--max-active", str(max_active),
                "--trajectories", "20", "--t-end", "20", "--display-trajectories", "1",
                "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["max_active"] == max_active
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "k,jaccard"
    assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(1, rows + 1)]


def test_experiment_max_active_defaults_to_largest_parent_set(tmp_path):
    got = {}
    for name in sorted(experiments_module.EXPERIMENTS):
        spec = experiments_module.experiment_spec(name, trajectory_count=5, t_end=2.0)
        assert spec.max_active is None
        paths = experiments_module.run_experiment(spec, tmp_path / name)
        got[name] = json.loads(paths["manifest"].read_text())["max_active"]
        model = spec.build_model()
        assert got[name] == max(len(p.parents) for p in model.processes)
    assert got == {"chain3": 1, "chain5": 1, "cycle5": 1, "fork5": 1,
                   "cycle-chain6": 1, "complex9": 3}


def test_experiment_golden_bundle(tmp_path):
    out = tmp_path / "bundle"
    assert run(["experiment", "chain3", "--seed", "1", "--trajectories", "40",
                "--t-end", "20", "--out", str(out)]) == 0
    golden = GOLDEN / "experiment_chain3"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_experiment_without_gaps(tmp_path):
    from ctbn_sentry import SimulationConfig, derive_seed, sample_ensemble, write_ensemble_csv
    from ctbn_sentry.experiments import _ANALYSIS_STREAM, experiment_spec

    # a horizon this short leaves every analysis trajectory with at most one
    # event: there is no gap, so the threshold is infinite and nothing is fast
    out = tmp_path / "bundle"
    assert run(["experiment", "chain3", "--t-end", "0.001", "--trajectories", "50",
                "--out", str(out)]) == 0
    assert (out / "cascades.csv").read_text().splitlines() == [
        "trajectory_id,start_time,end_time,length,sentry_state_bits"]
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["fast_threshold"] is None

    spec = experiment_spec("chain3", t_end=0.001, trajectory_count=50)
    model = spec.build_model()
    analysis = sample_ensemble(model, None, SimulationConfig(
        spec.t_end, 50, derive_seed(spec.seed, _ANALYSIS_STREAM)))
    log = tmp_path / "analysis.csv"
    write_ensemble_csv(analysis, log, model.names)
    scores = tmp_path / "scores.csv"
    assert run(["cascades", str(log), "--auto-threshold", "--out-cascades",
                str(tmp_path / "c.csv"), "--out-scores", str(scores)]) == 0
    assert scores.read_bytes() == (out / "naive_scores.csv").read_bytes()


@pytest.mark.parametrize("display, trajectories", [(5, 30), (50, 30)])
def test_experiment_display_is_analysis_prefix(tmp_path, display, trajectories):
    from ctbn_sentry import SimulationConfig, derive_seed, sample_ensemble, write_ensemble_csv
    from ctbn_sentry.cascade import NaiveParams, write_cascade_report
    from ctbn_sentry.experiments import _ANALYSIS_STREAM, experiment_spec

    out = tmp_path / "bundle"
    assert run(["experiment", "fork5", "--seed", "3", "--trajectories", str(trajectories),
                "--t-end", "15", "--display-trajectories", str(display),
                "--out", str(out)]) == 0
    spec = experiment_spec("fork5", seed=3, t_end=15.0)
    model = spec.build_model()
    prefix = sample_ensemble(model, None, SimulationConfig(
        spec.t_end, trajectories, derive_seed(spec.seed, _ANALYSIS_STREAM)))[:display]
    assert len(prefix) == min(display, trajectories)
    write_ensemble_csv(prefix, tmp_path / "trajectories.csv", model.names)
    threshold = json.loads((out / "manifest.json").read_text())["fast_threshold"]
    write_cascade_report(tmp_path / "cascades.csv", prefix,
                         NaiveParams(threshold, spec.min_cascade_length))
    for name in ("trajectories.csv", "cascades.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_experiment_display_uses_its_own_threshold(tmp_path):
    # one analysis trajectory with no gap: the threshold is infinite, and the
    # display is that one trajectory, so it has no window either
    out = tmp_path / "bundle"
    assert run(["experiment", "chain3", "--t-end", "0.05", "--trajectories", "1",
                "--display-trajectories", "300", "--out", str(out)]) == 0
    rows = (out / "trajectories.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0"}
    assert (out / "cascades.csv").read_text().splitlines() == [
        "trajectory_id,start_time,end_time,length,sentry_state_bits"]
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["fast_threshold"] is None


def test_failed_experiment_writes_nothing(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run(["experiment", "chain3", "--alpha", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_failed_experiment_write_removes_the_directory_it_made(tmp_path, capsys,
                                                               monkeypatch):
    def blocked(path, comparison):
        raise OSError(f"cannot write {path}")
    monkeypatch.setattr(experiments_module, "write_comparison_report", blocked)
    out = tmp_path / "new" / "bundle"
    assert run(["experiment", "chain3", "--trajectories", "20", "--t-end", "5",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


def test_experiment_unknown_name(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "nope", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


# -- failed writes -------------------------------------------------------------------


@pytest.mark.parametrize("command", [
    ["simulate", "{model}", "--out", "{bad}/D"],
    ["simulate", "{model}", "--single-file", "--out", "{bad}/x.csv"],
    ["sentry", "{model}", "--exact", "--out", "{bad}/x.csv"],
    ["cascades", "{log}", "--auto-threshold", "--out-cascades", "{bad}/c.csv",
     "--out-scores", "{bad}/s.csv"],
    ["graph", "{model}", "moralize", "--out", "{bad}/g.dot"],
    ["graph", "{model}", "condense", "--dot", "{bad}/g.dot"],
    ["experiment", "chain3", "--trajectories", "20", "--t-end", "5", "--out", "{bad}/D"],
    # the first output can be written, a later one cannot: the first is removed
    ["cascades", "{log}", "--auto-threshold", "--out-cascades", "{tmp}/c.csv",
     "--out-scores", "{bad}/s.csv"],
    ["graph", "{model}", "condense", "--out", "{tmp}/g.json", "--dot", "{bad}/x.dot"],
    ["experiment", "chain3", "--trajectories", "20", "--t-end", "5", "--out", "{busy}"],
    ["simulate", "{model}", "--t-end", "5", "--trajectories", "4", "--out", "{part}"],
    # the first output was there before: it stays, as a file or as a link
    ["cascades", "{log}", "--auto-threshold", "--out-cascades", "{old}",
     "--out-scores", "{bad}/s.csv"],
    ["graph", "{model}", "condense", "--out", "{link}", "--dot", "{bad}/x.dot"],
], ids=["simulate", "simulate-single-file", "sentry", "cascades", "graph-out",
        "graph-dot", "experiment", "cascades-second", "graph-dot-second",
        "experiment-later", "simulate-per-file", "cascades-first-existing",
        "graph-first-link"])
def test_failed_write_exits_2(command, chain3_path, tmp_path, capsys):
    log = tmp_path / "log.csv"
    assert run(["simulate", chain3_path, "--t-end", "5", "--trajectories", "3",
                "--single-file", "--out", str(log)]) == 0
    blocker = tmp_path / "f.txt"  # a regular file: no path below it can be made
    blocker.write_text("")
    busy = tmp_path / "busy"  # an earlier bundle whose sentry.csv is a directory
    (busy / "sentry.csv").mkdir(parents=True)
    (busy / "model.json").write_text("{}")
    part = tmp_path / "part"  # an existing directory whose third trajectory file is one
    (part / "trajectory_00002.csv").mkdir(parents=True)
    old = tmp_path / "old.csv"
    old.write_text("")
    link = tmp_path / "link.json"
    link.symlink_to(old)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = [arg.format(model=chain3_path, log=log, bad=blocker, tmp=tmp_path, busy=busy,
                       old=old, link=link, part=part) for arg in command]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert sorted(tmp_path.rglob("*")) == before

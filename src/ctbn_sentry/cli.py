"""Command-line front end.

Subcommands: validate, simulate, sentry, cascades, graph, experiment.
Exit codes: 0 success, 1 domain violation, 2 unreadable input, a failed write
or a usage error.
Every randomized command takes --seed and defaults to a fixed constant, so
identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import cascade as _cascade
from . import graphs as _graphs
from . import model as _model
from . import sentry as _sentry
from . import simulate as _sim
from .experiments import DEFAULT_SEED, EXPERIMENTS, experiment_spec, run_experiment

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _number(name: str, cast, low, strict: bool, expected: str):
    """An argparse type: the text cast, and at or above `low` (above, if
    `strict`), else a usage error "`expected`, got <text>".  NaN and inf
    pass; the library rejects them, with exit 1."""
    def parse(text: str):
        value = cast(text)
        if value <= low if strict else value < low:
            raise argparse.ArgumentTypeError(f"{expected}, got {text}")
        return value
    parse.__name__ = name  # argparse names it in "invalid <name> value: ..."
    return parse


_positive_float = _number("_positive_float", float, 0, True, "expected a positive number")
_nonneg_float = _number("_nonneg_float", float, 0, False, "expected a non-negative number")
_positive_int = _number("_positive_int", int, 0, True, "expected a positive integer")
_nonneg_int = _number("_nonneg_int", int, 0, False, "expected a non-negative integer")
_cascade_length = _number("_cascade_length", int, 2, False,
                          "minimum cascade length must be >= 2")


def _parse_initial(text: str, model: _model.CtbnModel) -> tuple[int, ...]:
    """Accept '0,1,0' or compact digits '010' (one digit per process)."""
    try:
        if "," in text:
            values = tuple(int(v) for v in text.split(","))
        else:
            values = tuple(int(ch) for ch in text.strip())
        _model._check_states(values, model.cardinalities)
        return values
    except ValueError as exc:
        raise ValueError(f"invalid initial state {text!r}: {exc}") from exc


def _load_model(path: str) -> _model.CtbnModel:
    """The model file, else exit 2: it cannot be opened, is not JSON, has an
    unknown field or a value that does not parse (loading validates nothing)."""
    try:
        return _model.load_model(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"cannot read model {path!r}: {exc}") from exc


class _InputError(Exception):
    """Unreadable input, or a usage error the parser cannot see: exit 2."""


def _node_set(text: str | None) -> list[str]:
    if not text:
        return []
    return [t.strip() for t in text.split(",") if t.strip()]


# -- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    violations = _model.validate_model(model, include_warnings=True)
    for v in violations:
        print(v.to_json())
    errors = [v for v in violations if v.severity == "error"]
    return EXIT_DOMAIN if errors else EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    _model.require_valid(model)
    initial = _parse_initial(args.initial, model) if args.initial else None
    config = _sim.SimulationConfig(args.t_end, args.trajectories, args.seed)
    trajectories = _sim.sample_ensemble(model, initial, config)
    out = Path(args.out)
    if args.single_file:
        _sim._write_files(
            [(out, lambda p: _sim.write_ensemble_csv(trajectories, p, model.names))], out.parent)
        print(f"wrote {len(trajectories)} trajectories to {out}")
    else:
        _sim._write_files(
            [(out / f"trajectory_{k:05d}.csv",
              lambda p, traj=traj: _sim.write_trajectory_csv(traj, p, model.names))
             for k, traj in enumerate(trajectories)], out)
        print(f"wrote {len(trajectories)} trajectory files to {out}/")
    return EXIT_OK


def cmd_sentry(args) -> int:
    model = _load_model(args.model)
    _model.require_valid(model)
    gs = _model.StateSpaceGraph(model.cardinalities)
    config = _sim.SimulationConfig(args.t_end, args.trajectories, args.seed)

    if args.exact:
        ednt = _sentry.ednt_exact(model, args.alpha)
    else:
        states = (None if args.max_active is None
                  else _model.low_activity_states(model, args.max_active, neighbors=True))
        ednt = _sentry.ednt_mc(model, args.alpha, config, states=states, epsilon=args.epsilon)

    ranking = _sentry.rednt(ednt, gs)
    if ranking.flags:
        flagged = sorted(set(ranking.flags.values()))
        print(f"note: degenerate REDNT entries present ({', '.join(flagged)})",
              file=sys.stderr)
    _sentry.write_sentry_report(args.out, ranking)
    print(f"wrote sentry report to {args.out}")
    return EXIT_OK


def cmd_cascades(args) -> int:
    trajectories, _names = _sim.read_ensemble_csv(args.trajectories)
    threshold = args.fast_threshold
    if threshold is None:
        threshold = _cascade.default_fast_threshold(trajectories)
    if threshold < math.inf:
        print(f"fast threshold: {threshold:.6g}")

    params = _cascade.NaiveParams(threshold, args.min_length)
    _sim._write_files([
        (args.out_cascades, lambda p: _cascade.write_cascade_report(p, trajectories, params)),
        (args.out_scores, lambda p: _cascade.write_naive_scores_report(
            p, _cascade.naive_scores(trajectories, params)))])
    print(f"wrote {args.out_cascades} and {args.out_scores}")
    return EXIT_OK


def cmd_graph(args) -> int:
    model = _load_model(args.model)
    g = _model.ctbn_graph(model)

    files = []  # (path, text) pairs to write
    if args.query == "moralize":
        text = _graphs.ugraph_to_dot(_graphs.moralize(g), "moral")
    elif args.query == "separate":
        cert = _graphs.ctbn_independent(
            g, _node_set(args.a), _node_set(args.b), _node_set(args.c))
        text = cert.to_json() + "\n"
    else:
        if args.query == "condense":
            part, name = _graphs.condensation(g), "condensation"
        else:
            part, name = _graphs.graph_partition(g, _load_blocks(args.blocks_file)), "partition"
        doc = {
            "blocks": {block: sorted(members) for block, members in part.blocks.items()},
            "edges": part.graph.edges,
        }
        text = json.dumps(doc, indent=1) + "\n"
        if args.dot:
            files.append((args.dot, _graphs.partition_to_dot(part, name)))
    if args.out:
        files.insert(0, (args.out, text))
    else:
        sys.stdout.write(text)
    _sim._write_files([(path, lambda p, t=t: Path(p).write_text(t)) for path, t in files])
    return EXIT_OK


def _load_blocks(path: str | None) -> dict[str, list[str]]:
    """The blocks file: a JSON object mapping each block name to a list of
    node names."""
    if not path:
        raise _InputError("partition requires --blocks-file")
    try:
        with open(path) as fh:
            blocks = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read blocks file: {exc}") from exc
    if not (isinstance(blocks, dict) and all(
            isinstance(members, list) and all(isinstance(node, str) for node in members)
            for members in blocks.values())):
        raise _InputError("blocks file must hold a JSON object mapping each block name "
                          "to a list of node names")
    return blocks


def cmd_experiment(args) -> int:
    spec = experiment_spec(
        args.name,
        seed=args.seed,
        alpha=args.alpha,
        t_end=args.t_end,
        trajectory_count=args.trajectories,
        max_active=args.max_active,
        fast_threshold=args.fast_threshold,
        min_cascade_length=args.min_length,
        display_trajectories=args.display_trajectories,
    )
    paths = run_experiment(spec, args.out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctbn-sentry",
        description="Model, simulate, and analyze cascading alarm processes.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON file of flag values; command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against all constraints")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="sample trajectories to CSV")
    p.add_argument("model")
    p.add_argument("--initial", help="initial state, e.g. 0,0,0 or 000")
    p.add_argument("--t-end", type=_nonneg_float, default=10.0)
    p.add_argument("--trajectories", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory (or file with --single-file)")
    p.add_argument("--single-file", action="store_true",
                   help="write one CSV with a trajectory_id column")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sentry", help="EDNT/REDNT report")
    p.add_argument("model")
    p.add_argument("--alpha", type=_positive_float, default=0.1)
    p.add_argument("--t-end", type=_positive_float, default=100.0)
    p.add_argument("--trajectories", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-active", type=_nonneg_int, default=None,
                   help="estimate only states with at most this many active alarms "
                        "(plus their neighbors)")
    p.add_argument("--exact", action="store_true", help="solve the linear system")
    p.add_argument("--epsilon", type=_positive_float, default=None,
                   help="relative half-width target for the sequential stopping rule")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sentry)

    p = sub.add_parser("cascades", help="cascade windows and naive scores from a trajectory CSV")
    p.add_argument("trajectories")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fast-threshold", type=_positive_float, default=None)
    group.add_argument("--auto-threshold", action="store_true",
                       help="use the pooled median inter-event gap")
    p.add_argument("--min-length", type=_cascade_length, default=2)
    p.add_argument("--out-cascades", required=True)
    p.add_argument("--out-scores", required=True)
    p.set_defaults(func=cmd_cascades)

    p = sub.add_parser("graph", help="dependence-graph queries")
    p.add_argument("model")
    p.add_argument("query", choices=["moralize", "condense", "partition", "separate"])
    p.add_argument("--a", help="comma-separated node set A")
    p.add_argument("--b", help="comma-separated node set B")
    p.add_argument("--c", help="comma-separated node set C", default="")
    p.add_argument("--blocks-file", help="JSON mapping block name -> member list")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("experiment", help="run a built-in experiment end to end")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=_positive_float, default=None)
    p.add_argument("--t-end", type=_positive_float, default=None, dest="t_end")
    p.add_argument("--trajectories", type=_positive_int, default=None)
    p.add_argument("--max-active", type=_nonneg_int, default=None)
    p.add_argument("--fast-threshold", type=_positive_float, default=None)
    p.add_argument("--min-length", type=_cascade_length, default=None)
    p.add_argument("--display-trajectories", type=_positive_int, default=None,
                   help="write the first N analysis trajectories, at most --trajectories, "
                        "and their cascade windows")
    p.set_defaults(func=cmd_experiment)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """`argv` with the values of a --config file added as the command's flags,
    ``--flag=value`` (an on/off flag, bare when true; it takes only a
    boolean), so argparse checks them as it checks the command line.  A key
    that no flag of the command takes is a usage error.  A flag on the
    command line drops the values of every flag in its mutually exclusive
    group, and its own, unread."""
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config")
    probe.add_argument("command", nargs="?")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    try:
        with open(known.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object of flag values")
    command = parser._subparsers._group_actions[0].choices.get(known.command)
    if command is None:  # the parser reports the missing or unknown command
        return argv
    flags = {flag.dest: flag for flag in command._actions
             if flag.option_strings and not isinstance(flag, argparse._HelpAction)}
    given = {arg.split("=", 1)[0] for arg in argv if arg.startswith("--")}
    dropped = {flag.dest for flag in flags.values() if given.intersection(flag.option_strings)}
    dropped |= {flag.dest for group in command._mutually_exclusive_groups
                if dropped.intersection(f.dest for f in group._group_actions)
                for flag in group._group_actions}
    tokens = []
    for key, value in values.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            command.error(f"config key {key!r} is not a flag of {known.command}")
        name = flag.option_strings[0]
        if flag.dest in dropped:
            continue
        if not isinstance(flag, argparse._StoreTrueAction):
            tokens.append(f"{name}={value}")
        elif not isinstance(value, bool):
            command.error(f"argument {name}: config value must be true or false, got {value!r}")
        elif value:
            tokens.append(name)
    return argv + tokens


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_apply_config(parser, argv))
    try:
        return args.func(args)
    except (_InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_model.InvalidModelError, _model.StateSpaceCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

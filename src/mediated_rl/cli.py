"""Command-line entry points: training sweeps and oracle analyses."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import games, harness, oracle
from .errors import ConfigError, ContractError


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="train one configuration over its seeds")
    p.add_argument("--config", help="INI config file; flags below override it")
    p.add_argument("--env", choices=harness.ENVS)
    p.add_argument("--mediator", choices=list(harness.MEDIATOR_MODES))
    p.add_argument("--k", type=int)
    p.add_argument("--seeds", type=int, help="number of seeds (0..n-1)")
    p.add_argument("--iters", type=int)
    p.add_argument("--num-agents", type=int)
    p.add_argument("--multiplier", type=float)
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=["csv", "json", "table"], default="table")


def _add_oracle_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("oracle", help="print exact equilibrium analyses")
    p.add_argument("--env", required=True, choices=harness.ENVS)
    p.add_argument("--num-agents", type=int)
    p.add_argument("--multiplier", type=float)
    p.add_argument("--profile", help="JSON file with a mixed strategy profile")
    p.add_argument("--k", type=int)


# flag -> (INI section, key)
_FLAG_KEYS = {"env": ("game", "env"), "num_agents": ("game", "num_agents"),
              "multiplier": ("game", "multiplier"),
              "mediator": ("mediation", "mediator_mode"), "k": ("mediation", "k"),
              "iters": ("harness", "iterations"), "seeds": ("harness", "seeds")}


def _flag_overrides(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """The flags given, as INI keys; a flag given as 0 counts as given, so
    validation can reject it."""
    overrides: dict[str, dict[str, str]] = {}
    for flag, value in vars(args).items():
        if flag not in _FLAG_KEYS or value is None:
            continue
        if flag == "seeds":
            value = " ".join(map(str, range(value)))
        section, key = _FLAG_KEYS[flag]
        overrides.setdefault(section, {})[key] = str(value)
    return overrides


def _check_out(path: str) -> None:
    """Fail before training, not after, when ``path`` cannot be written."""
    folder = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(folder)
            or not os.access(folder, os.W_OK)):
        raise ConfigError(f"--out {path} must name a file in an existing, "
                          "writable directory")


def _cmd_run(args: argparse.Namespace) -> int:
    config = harness.load_config_file(args.config, _flag_overrides(args))
    config.validate()
    if args.out:
        _check_out(args.out)
    report = harness.sweep(config)
    text = harness.emit(report, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    for seed, reason in report.failed:
        print(f"seed {seed} aborted: {reason}", file=sys.stderr)
    return 1 if report.failed else 0


def _profile_from_json(data) -> oracle.MixedProfile:
    """A profile decoded from JSON: coalition keys such as "10" become bit
    tuples and agent keys ints; ``MixedProfile`` converts the numbers."""
    if not isinstance(data, dict) or "agent_policies" not in data:
        raise ConfigError("a profile is a JSON object with agent_policies")
    by_coal = data.get("mediator_by_coalition")
    try:
        if by_coal is not None:
            by_coal = [{tuple(int(c) for c in bits): {
                            int(a): d for a, d in per_agent.items()}
                        for bits, per_agent in state.items()}
                       for state in by_coal]
    except (AttributeError, TypeError, ValueError):  # not a mapping of numbers
        raise ConfigError('mediator_by_coalition maps coalition bits such as '
                          '"10" to {agent id: distribution}') from None
    try:
        return oracle.MixedProfile(
            agent_policies=data["agent_policies"],
            mediated=data.get("mediated", False),
            mediator_by_coalition=by_coal,
            mediator_by_size=data.get("mediator_by_size"))
    except (TypeError, ValueError) as exc:  # not lists of numbers
        raise ConfigError(f"profile entries must be lists of numbers ({exc})") from None


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = harness.load_config_file(None, _flag_overrides(args))
    spec, k = config.validate(), config.k
    low, high = oracle.normalization_constants(spec)
    print(f"env={spec.name} agents={spec.num_agents} horizon={spec.horizon}")
    print(f"normalization: all-defect={low:.6g} full-cooperation={high:.6g}")
    if spec.kind is games.GameKind.ONE_SHOT_PGG:
        probs = oracle.optimal_constrained_mediator_pgg(
            spec.num_agents, spec.multiplier)
        for size in range(1, spec.num_agents + 1):
            print(f"optimal constrained mediator: "
                  f"pi(contribute | size {size}) = {probs[size]:.3f}")
    if spec.kind is games.GameKind.MATRIX and spec.horizon == 1:
        welfare, _ = oracle.max_mediated_welfare(spec)
        print(f"max mediated welfare: {welfare:.6g}")
    if args.profile:
        try:
            with open(args.profile, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not JSON
            raise ConfigError(f"cannot read profile: {exc}") from None
        try:
            answer = oracle.exploitability(spec, _profile_from_json(data), k=k)
        except ContractError as exc:  # the profile does not fit the game
            raise ConfigError(str(exc)) from None
        print("expected payoffs: " + " ".join(
            f"agent{i}={v:.6g}" for i, v in enumerate(answer.payoffs)))
        for i, gap in enumerate(answer.gaps):
            print(f"best-response gap agent{i}: {gap:.6g}")
        print(f"NashConv: {answer.nash_conv:.6g}")
        if answer.commit_values is not None:
            for i, (commit, own) in enumerate(answer.commit_values):
                print(f"commit values agent{i}: committed={commit:.6g} "
                      f"locked-out={own:.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mediated-rl",
        description="Train self-interested agents with a learned mediator, "
                    "or query the exact game oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_oracle_parser(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_oracle(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

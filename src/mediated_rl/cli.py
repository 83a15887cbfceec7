"""Command-line entry points: training sweeps and oracle analyses."""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

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


def _cmd_run(args: argparse.Namespace) -> int:
    config = harness.load_config_file(args.config, _flag_overrides(args))
    config.validate()
    report = harness.sweep(config)
    text = harness.emit(report, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    for seed, reason in report.failed:
        print(f"seed {seed} aborted: {reason}", file=sys.stderr)
    return 1 if report.failed else 0


def _profile_from_json(spec, data) -> oracle.MixedProfile:
    """A profile read from JSON, checked against the game it is for."""
    if not isinstance(data, dict):
        raise ConfigError("a profile is a JSON object with agent_policies")
    by_coal = data.get("mediator_by_coalition")
    if by_coal is not None:
        if len(by_coal) != spec.horizon:
            raise ConfigError(f"mediator_by_coalition needs {spec.horizon} "
                              "state(s)")
        by_coal = [_mediator_table(spec, state) for state in by_coal]
    pgg = spec.kind is games.GameKind.ONE_SHOT_PGG
    by_size = data.get("mediator_by_size")
    if by_size is not None:
        if not pgg:
            raise ConfigError("mediator_by_size is for the one-shot pgg only")
        by_size = _size_table(spec, by_size)
    mediated = bool(data.get("mediated", False))
    arities = [a + mediated for a in spec.num_actions]
    try:
        states = [[np.asarray(p, dtype=np.float64) for p in state]
                  for state in data["agent_policies"]]
    except (KeyError, TypeError, ValueError):  # missing, or not lists of numbers
        states = None
    if states is None or len(states) != spec.horizon or any(
            [p.shape for p in state] != [(a,) for a in arities]
            for state in states):
        raise ConfigError(f"agent_policies needs {spec.horizon} state(s) of "
                          f"policies over {arities} actions")
    if mediated and (by_size if pgg else by_coal) is None:
        raise ConfigError("a mediated profile needs "
                          + ("mediator_by_size" if pgg else "mediator_by_coalition"))
    try:
        return oracle.MixedProfile(
            agent_policies=states,
            mediated=mediated,
            mediator_by_coalition=by_coal, mediator_by_size=by_size)
    except ContractError as exc:
        raise ConfigError(f"bad profile: {exc}") from None


def _mediator_table(spec, state: dict) -> dict:
    """One state's mediator policies, keyed by coalition bits then agent;
    every member of every non-empty coalition needs a probability vector
    over its own env actions."""
    try:
        table = {tuple(int(c) for c in bits): {
                     int(a): np.asarray(d, dtype=np.float64)
                     for a, d in per_agent.items()}
                 for bits, per_agent in state.items()}
    except (AttributeError, TypeError, ValueError):  # not a mapping of numbers
        raise ConfigError('mediator_by_coalition maps coalition bits such as '
                          '"10" to {agent id: distribution}') from None
    for bits in itertools.product((0, 1), repeat=spec.num_agents):
        for agent in (i for i, b in enumerate(bits) if b):
            dist = table.get(bits, {}).get(agent)
            if (dist is None or dist.shape != (spec.num_actions[agent],)
                    or not oracle.is_distribution(dist)):
                raise ConfigError(
                    f"mediator_by_coalition needs, in every state, a "
                    f"probability vector over agent {agent}'s "
                    f"{spec.num_actions[agent]} actions for coalition "
                    + "".join(map(str, bits)))
    return table


def _size_table(spec, by_size) -> np.ndarray:
    """The symmetric mediator's contribute probability per coalition size."""
    try:
        table = np.asarray(by_size, dtype=np.float64)
    except (TypeError, ValueError):  # not a list of numbers
        table = None
    if (table is None or table.shape != (spec.num_agents + 1,)
            or not np.all((table >= 0.0) & (table <= 1.0))):
        raise ConfigError(f"mediator_by_size needs {spec.num_agents + 1} "
                          "probabilities, one per coalition size 0..N")
    return table


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
        profile = _profile_from_json(spec, data)
        payoffs = oracle.expected_payoffs(spec, profile, k=k)
        print("expected payoffs: "
              + " ".join(f"agent{i}={v:.6g}" for i, v in enumerate(payoffs)))
        for i in range(spec.num_agents):
            gap = oracle.best_response_gap(spec, profile, i, k=k)
            print(f"best-response gap agent{i}: {gap:.6g}")
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

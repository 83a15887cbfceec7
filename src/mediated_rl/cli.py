"""Command-line entry points: training sweeps and oracle analyses."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import games, harness, oracle
from .errors import ConfigError, ContractError


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="train one configuration over its seeds")
    p.add_argument("--config", help="INI config file; flags below override it")
    p.add_argument("--env", choices=["pd", "pds", "pd2", "pgg", "pgg-iter"])
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
    p.add_argument("--env", required=True,
                   choices=["pd", "pds", "pd2", "pgg", "pgg-iter"])
    p.add_argument("--num-agents", type=int, default=3)
    p.add_argument("--multiplier", type=float, default=2.0)
    p.add_argument("--profile", help="JSON file with a mixed strategy profile")
    p.add_argument("--k", type=int, default=1)


def _given(value, default):
    return default if value is None else value


def _resolve_run_config(args: argparse.Namespace) -> harness.RunConfig:
    """Config file or defaults, overridden by every flag given; a flag given
    as 0 counts as given, so validation can reject it."""
    if args.config:
        config = harness.load_config_file(args.config)
    else:
        config = harness.default_config(args.env or "pd")
    updates: dict = {}
    if args.env:
        base = harness.default_config(
            args.env,
            mediator_mode=args.mediator or config.mediator_mode,
            k=_given(args.k, config.k),
            num_agents=_given(args.num_agents, config.num_agents),
            multiplier=_given(args.multiplier, config.multiplier))
        config = base if not args.config else replace(
            config, env=base.env, num_agents=base.num_agents,
            multiplier=base.multiplier, agent=base.agent,
            mediator=base.mediator, iterations=base.iterations,
            symmetric_mediator=base.symmetric_mediator)
    if args.mediator:
        updates["mediator_mode"] = args.mediator
        spec = games.make_spec(args.env or config.env, config.num_agents,
                               config.multiplier)
        updates["symmetric_mediator"] = (
            spec.kind is games.GameKind.ONE_SHOT_PGG and args.mediator != "none")
    if args.k is not None:
        updates["k"] = args.k
    if args.iters is not None:
        updates["iterations"] = args.iters
    if args.seeds is not None:
        updates["seeds"] = tuple(range(args.seeds))
    if args.num_agents is not None:
        updates["num_agents"] = args.num_agents
    if args.multiplier is not None:
        updates["multiplier"] = args.multiplier
    return replace(config, **updates)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_run_config(args)
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


def _profile_from_json(spec, data: dict) -> oracle.MixedProfile:
    """A profile read from JSON, checked against the game it is for."""
    by_coal = None
    if data.get("mediator_by_coalition") is not None:
        by_coal = []
        for state in data["mediator_by_coalition"]:
            table = {}
            for bits, per_agent in state.items():
                key = tuple(int(c) for c in bits)
                table[key] = {int(a): np.asarray(d)
                              for a, d in per_agent.items()}
            by_coal.append(table)
    by_size = data.get("mediator_by_size")
    mediated = bool(data.get("mediated", False))
    arities = [a + mediated for a in spec.num_actions]
    states = data["agent_policies"]
    if len(states) != spec.horizon or any(
            [len(p) for p in state] != arities for state in states):
        raise ConfigError(f"agent_policies needs {spec.horizon} state(s) of "
                          f"policies over {arities} actions")
    pgg = spec.kind is games.GameKind.ONE_SHOT_PGG
    if mediated and (by_size if pgg else by_coal) is None:
        raise ConfigError("a mediated profile needs "
                          + ("mediator_by_size" if pgg else "mediator_by_coalition"))
    try:
        return oracle.MixedProfile(
            agent_policies=[[np.asarray(p) for p in state] for state in states],
            mediated=mediated,
            mediator_by_coalition=by_coal,
            mediator_by_size=np.asarray(by_size) if by_size is not None else None)
    except ContractError as exc:
        raise ConfigError(f"bad profile: {exc}") from None


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError("k must be >= 1")
    spec = games.make_spec(args.env, args.num_agents, args.multiplier)
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
        payoffs = oracle.expected_payoffs(spec, profile, k=args.k)
        print("expected payoffs: "
              + " ".join(f"agent{i}={v:.6g}" for i, v in enumerate(payoffs)))
        for i in range(spec.num_agents):
            gap = oracle.best_response_gap(spec, profile, i, k=args.k)
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

"""Experiment orchestration: configs, seeded training, multi-seed sweeps.

One training iteration samples ``batch_size`` complete episodes under the
current policies, then applies one gradient step per network (each agent's
critic and actor on its trainable steps, then the mediator's critic, actor
heads, and Lagrange multipliers). Reports are deterministic per (config,
seed): rollout order is fixed and parallelism only ever spans seeds.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import games, oracle
from .agents import AgentLearner, LearnerParams
from .approx import EntropySchedule
from .errors import ConfigError, ContractError, TrainingDiverged
from .games import GameKind, PayoffSpec, base_obs_batch
from .mediation import FREE, window_statuses
from .mediator import MediatorLearner
from .rollout import (TrajectoryBatch, build_agent_batch, build_mediator_batch,
                      sample_batch)

MEDIATOR_MODES = ("none", "naive", "constrained")
WORKER_ENV_VAR = "MEDIATED_RL_WORKERS"


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run needs; validated before anything starts."""

    env: str
    num_agents: int
    multiplier: float | None  # the PGGs' only; None for the matrix games
    k: int
    mediator_mode: str
    iterations: int
    agent: LearnerParams
    mediator: LearnerParams
    seeds: tuple[int, ...]
    batch_size: int = 128
    gamma: float = 0.99
    eval_episodes: int = 100
    log_every: int = 100

    def validate(self) -> PayoffSpec:
        if self.mediator_mode not in MEDIATOR_MODES:
            raise ConfigError(f"mediator_mode must be one of {MEDIATOR_MODES}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.batch_size < 1 or self.iterations < 0:
            raise ConfigError("batch_size must be positive, iterations >= 0")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if self.log_every < 0:
            raise ConfigError("log_every must be >= 0 (0 disables the history)")
        _check_seeds(self.seeds)
        if self.num_agents < 2:
            raise ConfigError("num_agents must be >= 2")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        for name, params in (("agent", self.agent), ("mediator", self.mediator)):
            if params.hidden < 1:
                raise ConfigError(f"[{name}] hidden must be >= 1")
            rates = {"lr_actor": params.lr_actor, "lr_critic": params.lr_critic}
            if name == "mediator":
                rates["lambda_lr"] = params.lambda_lr
            for key, rate in rates.items():
                if not (np.isfinite(rate) and rate > 0.0):
                    raise ConfigError(f"[{name}] {key} must be finite and > 0")
        spec = games.make_spec(self.env, self.num_agents, self.multiplier)
        if self.num_agents != spec.num_agents:
            raise ConfigError(f"{spec.name} is a {spec.num_agents}-agent game, "
                              f"num_agents cannot be {self.num_agents}")
        if self.multiplier != spec.multiplier:
            raise ConfigError(f"{spec.name} has no multiplier")
        if self.k > spec.horizon:
            raise ConfigError("k cannot exceed the horizon")
        return spec


def _check_seeds(seeds: tuple[int, ...]) -> tuple[int, ...]:
    """``seeds`` if they name one or more distinct non-negative seeds; a
    repeated seed would count one run twice."""
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must name one or more distinct, "
                          f"non-negative seeds, got {seeds}")
    return seeds


def _linear(start: float, decay: float, minimum: float) -> EntropySchedule:
    return EntropySchedule("linear", start=start, decay=decay, minimum=minimum)


def _exponential(start: float, steps: int, minimum: float) -> EntropySchedule:
    return EntropySchedule("exponential", start=start, steps=steps, minimum=minimum)


# (agent params, mediator params, iterations) per environment.
_TABLE_DEFAULTS: dict[str, tuple[LearnerParams, LearnerParams, int]] = {
    "pd": (
        LearnerParams(4e-4, 8e-4, 8, _linear(1.0, 0.0005, 0.001)),
        LearnerParams(8e-4, 1e-3, 8, _linear(1.0, 0.0005, 0.001)),
        2000),
    "pd2": (
        LearnerParams(4e-4, 8e-4, 8, _linear(1.0, 0.0007, 0.001)),
        LearnerParams(8e-4, 1e-3, 8, _linear(1.0, 0.0007, 0.001)),
        2000),
    "pds": (
        LearnerParams(1e-3, 1e-3, 16, _linear(0.5, 0.00004, 0.01)),
        LearnerParams(1e-3, 1e-3, 32, _linear(0.5, 0.00004, 0.01), lambda_lr=1e-3),
        10000),
    "pgg": (
        LearnerParams(1e-3, 1e-3, 16, _exponential(0.5, 20000, 0.01)),
        LearnerParams(1e-3, 1e-3, 16, _exponential(0.5, 20000, 0.01), lambda_lr=1e-3),
        20000),
    "pgg-iter": (
        LearnerParams(5e-4, 1e-3, 16, _exponential(0.2, 10000, 0.001)),
        LearnerParams(5e-4, 1e-3, 16, _exponential(0.2, 10000, 0.001), lambda_lr=1e-3),
        20000),
}
ENVS = tuple(_TABLE_DEFAULTS)


def default_config(env: str, mediator_mode: str = "none", k: int = 1,
                   num_agents: int | None = None,
                   multiplier: float | None = None) -> RunConfig:
    """Published hyperparameters for an environment id. ``num_agents``
    defaults to 3 for the public goods games and 2 for the matrix games;
    ``multiplier`` defaults to 2.0 for the public goods games and is None
    for the matrix games, which have none."""
    env = env.replace("_", "-")
    if env not in _TABLE_DEFAULTS:
        raise ConfigError(f"no default hyperparameters for env {env!r}")
    agent, mediator, iterations = _TABLE_DEFAULTS[env]
    pgg = env.startswith("pgg")
    return RunConfig(
        env=env,
        num_agents=(3 if pgg else 2) if num_agents is None else num_agents,
        multiplier=(2.0 if pgg else None) if multiplier is None else multiplier,
        k=k,
        mediator_mode=mediator_mode,
        iterations=iterations,
        agent=agent,
        mediator=mediator,
        seeds=tuple(range(10 if pgg else 50)))


# ---------------------------------------------------------------------------
# Reports


@dataclass
class RunReport:
    """Metrics of one seeded run. Wall clock is excluded from equality so
    identical (config, seed) runs compare equal."""

    env: str
    mediator_mode: str
    k: int
    seed: int
    iterations: int
    metrics: dict[str, float]
    lambda_ic: list[list[float]] | None = None
    lambda_e: list[list[float]] | None = None
    history: list[dict] = field(default_factory=list)
    wall_clock_s: float = field(default=0.0, compare=False)
    aborted: bool = False
    abort_reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepReport:
    """Seed-aggregated metrics: mean and standard deviation per metric."""

    env: str
    mediator_mode: str
    k: int
    metrics: dict[str, tuple[float, float]]  # name -> (mean, std)
    num_seeds: int
    failed: list[tuple[int, str]] = field(default_factory=list)
    reports: list[RunReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "env": self.env, "mediator_mode": self.mediator_mode, "k": self.k,
            "num_seeds": self.num_seeds,
            "metrics": {k: list(v) for k, v in self.metrics.items()},
            "failed": [list(f) for f in self.failed],
            "reports": [r.to_dict() for r in self.reports],
        }


# ---------------------------------------------------------------------------
# Training


def _build_learners(config: RunConfig, spec: PayoffSpec,
                    rng: np.random.Generator
                    ) -> tuple[list[AgentLearner], MediatorLearner | None]:
    mediated = config.mediator_mode != "none"
    agents = [AgentLearner(i, spec, config.agent, rng, mediated, config.k)
              for i in range(spec.num_agents)]
    mediator = None
    if mediated:
        mediator = MediatorLearner(
            spec, config.mediator, config.gamma, rng,
            constrained=config.mediator_mode == "constrained")
    return agents, mediator


def train(config: RunConfig, seed: int) -> RunReport:
    """Run one seed to completion (or abort) and evaluate the final policies."""
    spec = config.validate()
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    agents, mediator = _build_learners(config, spec, rng)
    constrained = config.mediator_mode == "constrained"
    lambda_ic: list[list[float]] | None = [] if constrained else None
    lambda_e: list[list[float]] | None = [] if constrained else None
    history: list[dict] = []
    aborted = False
    abort_reason = ""

    try:
        for it in range(config.iterations):
            entry = _train_iteration(config, spec, agents, mediator, rng, it)
            if constrained:
                lambda_ic.append(mediator.lagrange.lambda_ic.tolist())
                lambda_e.append(mediator.lagrange.lambda_e.tolist())
            if entry is not None:
                history.append(entry)
    except TrainingDiverged as exc:
        aborted = True
        abort_reason = str(exc)

    metrics: dict[str, float] = {}
    if not aborted:
        eval_traj = sample_batch(spec, config.k, agents, mediator,
                                 config.eval_episodes, rng)
        metrics = collect_metrics(spec, config, agents, mediator, eval_traj)
    return RunReport(
        env=config.env, mediator_mode=config.mediator_mode, k=config.k,
        seed=seed, iterations=config.iterations, metrics=metrics,
        lambda_ic=lambda_ic, lambda_e=lambda_e, history=history,
        wall_clock_s=time.perf_counter() - start,
        aborted=aborted, abort_reason=abort_reason)


def _train_iteration(config: RunConfig, spec: PayoffSpec,
                     agents: list[AgentLearner],
                     mediator: MediatorLearner | None,
                     rng: np.random.Generator, it: int) -> dict | None:
    """Sample one batch and take one gradient step per network on it.

    Returns the history entry on logged iterations. The batch and the
    activations it caches are released on return, before the next sample.
    """
    traj = sample_batch(spec, config.k, agents, mediator, config.batch_size, rng)
    beta_agent = config.agent.entropy.coef(it)
    for agent in agents:
        agent.update(build_agent_batch(traj, agent, config.k, config.gamma),
                     beta_agent)
        # Its activations are spent; free them before the mediator's update.
        traj.agent_acts[agent.index].clear()
    if mediator is not None:
        med_stats = mediator.update(build_mediator_batch(traj, mediator),
                                    config.mediator.entropy.coef(it), config.k)
    if not (config.log_every and it % config.log_every == 0):
        return None
    entry = {
        "iteration": it,
        "mean_reward": float(traj.reward.sum(axis=0).mean()),
        "commit_rate": _empirical_commit_rate(traj),
    }
    if mediator is not None:
        entry.update(med_stats)
    return entry


# ---------------------------------------------------------------------------
# Evaluation


def _empirical_commit_rate(traj: TrajectoryBatch) -> float:
    decisions = traj.status == FREE
    if not decisions.any():
        return 0.0
    return float(traj.member[decisions].mean())


def _mediator_action_rate(traj: TrajectoryBatch, action: int) -> float:
    acted = traj.med_action >= 0
    if not acted.any():
        return float("nan")
    return float((traj.med_action[acted] == action).mean())


def _coalition_tag(bits: np.ndarray) -> str:
    return "".join(str(int(b)) for b in bits)


def collect_metrics(spec: PayoffSpec, config: RunConfig,
                    agents: list[AgentLearner],
                    mediator: MediatorLearner | None,
                    traj: TrajectoryBatch) -> dict[str, float]:
    """Direct policy queries plus empirical statistics of the eval episodes."""
    metrics: dict[str, float] = {}
    n = spec.num_agents
    returns = traj.reward.sum(axis=0)  # (episodes, N)
    per_agent = returns.mean(axis=0)
    mean_return = float(per_agent.mean())
    metrics["welfare"] = float(returns.sum(axis=1).mean())
    metrics["reward_norm"] = oracle.normalized_reward(spec, mean_return)
    for i in range(n):
        metrics[f"return/agent{i}"] = float(per_agent[i])
    if mediator is not None:
        metrics["commit_rate"] = _empirical_commit_rate(traj)
        metrics["mediator_coop_rate"] = _mediator_action_rate(
            traj, games.COOPERATE)

    if spec.kind is GameKind.MATRIX:
        _matrix_policy_metrics(spec, config, agents, mediator, traj, metrics)
    elif spec.kind is GameKind.ONE_SHOT_PGG:
        _pgg_policy_metrics(spec, config, agents, mediator, metrics)
    else:
        _iter_pgg_policy_metrics(spec, config, agents, metrics)

    if mediator is not None and mediator.lagrange is not None:
        for i in range(n):
            metrics[f"lambda_ic/agent{i}"] = float(mediator.lagrange.lambda_ic[i])
            metrics[f"lambda_e/agent{i}"] = float(mediator.lagrange.lambda_e[i])
    return metrics


_ACTION_NAMES = {games.DEFECT: "defect", games.COOPERATE: "coop",
                 games.SACRIFICE: "sacrifice"}


def _matrix_policy_metrics(spec: PayoffSpec, config: RunConfig,
                           agents: list[AgentLearner],
                           mediator: MediatorLearner | None,
                           traj: TrajectoryBatch,
                           metrics: dict[str, float]) -> None:
    multi = spec.horizon > 1
    for t in range(spec.horizon):
        tag = f"@s{t}" if multi else ""
        base = base_obs_batch(spec, t, None, 1)
        # An agent outside the coalition: free at a boundary, else locked out.
        status = window_statuses(np.zeros(1, dtype=bool), t, config.k)
        for i, agent in enumerate(agents):
            probs = agent.policy(base[:, i], status)[0]
            for a in range(agent.num_env_actions):
                metrics[f"pi_{_ACTION_NAMES[a]}{tag}/agent{i}"] = float(probs[a])
            if agent.mediated and status[0] == FREE:
                metrics[f"pi_commit{tag}/agent{i}"] = float(probs[-1])
        if mediator is None:
            continue
        for bits in _report_coalitions(spec.num_agents):
            coalition = np.asarray(bits, dtype=bool)
            ctag = _coalition_tag(coalition)
            for i in range(spec.num_agents):
                if not coalition[i]:
                    continue
                probs, _ = mediator.policy(base, coalition[None], [0], [i])
                for a in range(spec.num_actions[i]):
                    metrics[f"piM_{_ACTION_NAMES[a]}{tag}|{ctag}/agent{i}"] = \
                        float(probs[0, a])
    if mediator is not None and spec.name == "pds":
        _pds_joint_metrics(spec, traj, metrics)


def _report_coalitions(n: int) -> list[tuple[int, ...]]:
    """Singletons plus the full coalition; the paper's tables report these."""
    out = []
    for i in range(n):
        bits = [0] * n
        bits[i] = 1
        out.append(tuple(bits))
    out.append((1,) * n)
    return out


def _pds_joint_metrics(spec: PayoffSpec, traj: TrajectoryBatch,
                       metrics: dict[str, float]) -> None:
    full = traj.member.all(axis=2)
    if not full.any():
        return
    acts = traj.med_action[full]  # (rows, 2)
    joint_cc = (acts[:, 0] == games.COOPERATE) & (acts[:, 1] == games.COOPERATE)
    metrics["P_cc|full"] = float(joint_cc.mean())
    metrics["P_s|full"] = float((acts[:, 1] == games.SACRIFICE).mean())


def _pgg_policy_metrics(spec: PayoffSpec, config: RunConfig,
                        agents: list[AgentLearner],
                        mediator: MediatorLearner | None,
                        metrics: dict[str, float]) -> None:
    base = base_obs_batch(spec, 0, None, 1)
    commit = []
    for i, agent in enumerate(agents):
        probs = agent.policy(base[:, i], 0)[0]
        metrics[f"pi_coop/agent{i}"] = float(probs[games.COOPERATE])
        if agent.mediated:
            metrics[f"pi_commit/agent{i}"] = float(probs[-1])
            commit.append(float(probs[-1]))
    if commit:
        metrics["pi_commit/mean"] = float(np.mean(commit))
    if mediator is None:
        return
    for size in range(1, spec.num_agents + 1):
        coalition = np.zeros(spec.num_agents, dtype=bool)
        coalition[:size] = True
        probs, _ = mediator.policy(base, coalition[None], [0], [0])
        metrics[f"piM_coop|size{size}"] = float(probs[0, games.COOPERATE])


def _iter_pgg_policy_metrics(spec: PayoffSpec, config: RunConfig,
                             agents: list[AgentLearner],
                             metrics: dict[str, float]) -> None:
    # Unit endowments at the first turn, as every episode starts.
    base = base_obs_batch(spec, 0, np.ones((1, spec.num_agents)), 1)
    for i, agent in enumerate(agents):
        probs = agent.policy(base[:, i], 0)[0]
        metrics[f"pi_coop@init/agent{i}"] = float(probs[games.COOPERATE])
        if agent.mediated:
            metrics[f"pi_commit@init/agent{i}"] = float(probs[-1])


# ---------------------------------------------------------------------------
# Sweeps


def _train_entry(args: tuple[RunConfig, int]) -> RunReport:
    return train(*args)


def worker_count() -> int:
    value = os.environ.get(WORKER_ENV_VAR, "")
    if not value:
        return 1
    try:
        return max(1, int(value))
    except ValueError:
        raise ConfigError(
            f"{WORKER_ENV_VAR} must be an integer, got {value!r}") from None


def sweep(config: RunConfig) -> SweepReport:
    """Run every seed, aggregate seed means and standard deviations.

    Failed seeds are recorded, flagged, and excluded from the aggregates.
    """
    seeds = config.seeds
    workers = worker_count()
    if workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_train_entry,
                                    [(config, s) for s in seeds]))
    else:
        reports = [train(config, s) for s in seeds]
    good = [r for r in reports if not r.aborted]
    failed = [(r.seed, r.abort_reason) for r in reports if r.aborted]
    metrics: dict[str, tuple[float, float]] = {}
    if good:
        keys = [k for k in good[0].metrics if all(k in r.metrics for r in good)]
        for key in keys:
            values = np.asarray([r.metrics[key] for r in good])
            finite = values[np.isfinite(values)]
            if finite.size == 0:
                metrics[key] = (float("nan"), 0.0)
                continue
            std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
            metrics[key] = (float(finite.mean()), std)
    return SweepReport(env=config.env, mediator_mode=config.mediator_mode,
                       k=config.k, metrics=metrics, num_seeds=len(good),
                       failed=failed, reports=reports)


# ---------------------------------------------------------------------------
# Emission


def emit(report: RunReport | SweepReport, fmt: str, path: str | None = None) -> str:
    """Render a report as csv, json, or an aligned text table.

    Returns the rendered text; writes it to ``path`` when given.
    """
    if fmt == "json":
        payload = report.to_dict()
        text = json.dumps(payload, indent=2, sort_keys=False)
    elif fmt == "csv":
        text = _to_csv(report)
    elif fmt == "table":
        text = _to_table(report)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _to_csv(report: RunReport | SweepReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if isinstance(report, SweepReport):
        writer.writerow(["env", "mediator_mode", "k", "metric",
                         "mean", "std", "num_seeds"])
        for key, (mean, std) in report.metrics.items():
            writer.writerow([report.env, report.mediator_mode, report.k,
                             key, f"{mean:.6g}", f"{std:.6g}", report.num_seeds])
    else:
        writer.writerow(["env", "mediator_mode", "k", "seed", "metric", "value"])
        for key, value in report.metrics.items():
            writer.writerow([report.env, report.mediator_mode, report.k,
                             report.seed, key, f"{value:.6g}"])
    return buffer.getvalue()


def _to_table(report: RunReport | SweepReport) -> str:
    lines = [f"env={report.env} mediator={report.mediator_mode} k={report.k}"]
    if isinstance(report, SweepReport):
        lines.append(f"seeds={report.num_seeds} failed={len(report.failed)}")
        for key, (mean, std) in report.metrics.items():
            lines.append(f"{key:<32} {mean:>8.3f} +- {std:.3f}")
    else:
        lines.append(f"seed={report.seed}")
        for key, value in report.metrics.items():
            lines.append(f"{key:<32} {value:>8.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Config files: INI sections mirroring the module split. The command line
# writes its flags into the same parser as overrides, so a run takes the
# env's published defaults, then file values, then flags.


def _seeds(text: str) -> tuple[int, ...]:
    # Checked here too, as a bad file value fails even where a flag replaces it.
    return _check_seeds(tuple(int(s) for s in text.split()))


_HARNESS_KEYS = {"batch_size": int, "iterations": int, "eval_episodes": int,
                 "log_every": int, "gamma": float, "seeds": _seeds}
_LEARNER_KEYS = {"lr_actor": float, "lr_critic": float, "hidden": int,
                 "lambda_lr": float}
# INI key -> (EntropySchedule field, parser)
_ENTROPY_KEYS = {"entropy_strategy": ("strategy", str),
                 "entropy_start": ("start", float),
                 "entropy_decay": ("decay", float),
                 "entropy_steps": ("steps", int),
                 "entropy_min": ("minimum", float)}
_INI_KEYS = {
    "game": {"env", "num_agents", "multiplier"},
    "mediation": {"mediator_mode", "k"},
    # Only the mediator has Lagrange multipliers.
    "agent": {*_LEARNER_KEYS, *_ENTROPY_KEYS} - {"lambda_lr"},
    "mediator": {*_LEARNER_KEYS, *_ENTROPY_KEYS},
    "harness": set(_HARNESS_KEYS),
}


def load_config_file(path: str | None,
                     overrides: dict[str, dict[str, str]] | None = None
                     ) -> RunConfig:
    """The config of the INI file at ``path`` (None reads no file), with
    ``overrides`` (section -> key -> value) written over the file's values."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        # A bad file value is an error even where an override replaces it.
        config_from_parser(parser)
    parser.read_dict(overrides or {})
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    """The env's published defaults, overridden by every key the parser
    sets. Unknown sections and keys are configuration errors."""
    for name, section in parser.items():
        known = _INI_KEYS.get(name)
        if known is None and name != parser.default_section:
            raise ConfigError(f"unknown section [{name}]")
        for key in section:
            if key not in (known or ()):
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    game = parser["game"] if "game" in parser else {}
    mediation = parser["mediation"] if "mediation" in parser else {}
    har = parser["harness"] if "harness" in parser else {}
    config = default_config(
        game.get("env", "pd"),
        mediator_mode=mediation.get("mediator_mode", "none"),
        k=_read(mediation, "k", int, 1),
        num_agents=_read(game, "num_agents", int, None),
        multiplier=_read(game, "multiplier", float, None))
    config = replace(config, **{key: _read(har, key, convert, getattr(config, key))
                                for key, convert in _HARNESS_KEYS.items()})
    for section, current in (("agent", config.agent), ("mediator", config.mediator)):
        if section in parser:
            config = replace(config, **{section: _learner_from_section(
                parser[section], current)})
    return config


def _read(section, key: str, convert, default):
    """``section[key]`` parsed by ``convert``, or ``default`` when absent."""
    if key not in section:
        return default
    text = section.get(key)
    try:
        return convert(text)
    except ConfigError:  # parsed, but not a valid value
        raise
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {text!r}") from None


def _learner_from_section(section, current: LearnerParams) -> LearnerParams:
    ent_updates = {
        attr: _read(section, key, convert, getattr(current.entropy, attr))
        for key, (attr, convert) in _ENTROPY_KEYS.items()}
    try:
        entropy = replace(current.entropy, **ent_updates)
    except ContractError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None
    return replace(current, entropy=entropy, **{
        key: _read(section, key, convert, getattr(current, key))
        for key, convert in _LEARNER_KEYS.items()})

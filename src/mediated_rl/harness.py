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
from .errors import ConfigError, TrainingDiverged
from .games import GameKind, PayoffSpec, obs_dim
from .mediation import FREE
from .mediator import MediatorLearner
from .rollout import (TrajectoryBatch, build_agent_batch, build_mediator_batch,
                      mediator_actor_inputs, sample_batch)

MEDIATOR_MODES = ("none", "naive", "constrained")
WORKER_ENV_VAR = "MEDIATED_RL_WORKERS"


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run needs; validated before anything starts."""

    env: str
    num_agents: int = 2
    multiplier: float = 2.0
    k: int = 1
    mediator_mode: str = "none"
    symmetric_mediator: bool = False
    batch_size: int = 128
    iterations: int = 2000
    gamma: float = 0.99
    agent: LearnerParams = field(default_factory=lambda: _TABLE_DEFAULTS["pd"][0])
    mediator: LearnerParams = field(default_factory=lambda: _TABLE_DEFAULTS["pd"][1])
    log_lambda_bounds: tuple[float, float] = (-4.0, 4.0)
    eval_episodes: int = 100
    log_every: int = 100
    seeds: tuple[int, ...] = (0,)

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
        if not self.seeds:
            raise ConfigError("seeds must name at least one seed")
        if self.num_agents < 2:
            raise ConfigError("num_agents must be >= 2")
        if not self.multiplier > 0.0:
            raise ConfigError("multiplier must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        spec = games.make_spec(self.env, self.num_agents, self.multiplier)
        if self.k > spec.horizon:
            raise ConfigError("k cannot exceed the horizon")
        if self.symmetric_mediator and spec.kind is not GameKind.ONE_SHOT_PGG:
            raise ConfigError("symmetric mediator mode is for the one-shot PGG")
        return spec


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


def default_config(env: str, mediator_mode: str = "none", k: int = 1,
                   num_agents: int = 3, multiplier: float = 2.0,
                   seeds: tuple[int, ...] | None = None) -> RunConfig:
    """Published hyperparameters for an environment id."""
    env = env.replace("_", "-")
    if env not in _TABLE_DEFAULTS:
        raise ConfigError(f"no default hyperparameters for env {env!r}")
    agent, mediator, iterations = _TABLE_DEFAULTS[env]
    if seeds is None:
        seeds = tuple(range(10 if env.startswith("pgg") else 50))
    return RunConfig(
        env=env,
        num_agents=num_agents if env.startswith("pgg") else 2,
        multiplier=multiplier,
        k=k,
        mediator_mode=mediator_mode,
        symmetric_mediator=(env == "pgg" and mediator_mode != "none"),
        iterations=iterations,
        agent=agent,
        mediator=mediator,
        seeds=seeds)


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

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(**data)


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

    def mean(self, name: str) -> float:
        return self.metrics[name][0]

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
    base_dim = obs_dim(spec)
    status_feature = mediated and spec.horizon > 1 and (
        spec.kind is GameKind.MATRIX or config.k > 1)
    agents = [
        AgentLearner(i, base_dim, spec.num_actions[i], config.agent,
                     config.gamma, rng, mediated=mediated,
                     status_feature=status_feature)
        for i in range(spec.num_agents)
    ]
    mediator = None
    if mediated:
        mediator = MediatorLearner(
            spec, config.mediator, config.gamma, rng, base_dim,
            symmetric=config.symmetric_mediator,
            constrained=config.mediator_mode == "constrained",
            log_lambda_bounds=config.log_lambda_bounds)
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
        mode = "constrained" if config.mediator_mode == "constrained" else "naive"
        med_stats = mediator.update(build_mediator_batch(traj, mediator),
                                    config.mediator.entropy.coef(it), mode,
                                    config.k)
    if not (config.log_every and it % config.log_every == 0):
        return None
    entry = {
        "iteration": it,
        "mean_reward": float(traj.reward.sum(axis=0).mean()),
        "commit_rate": _empirical_commit_rate(traj, config.k),
    }
    if mediator is not None:
        entry.update(med_stats)
    return entry


# ---------------------------------------------------------------------------
# Evaluation


def _empirical_commit_rate(traj: TrajectoryBatch, k: int) -> float:
    decisions = traj.status == FREE
    if not decisions.any():
        return 0.0
    return float(traj.member[decisions].mean())


def _mediator_action_rate(traj: TrajectoryBatch, action: int) -> float:
    acted = traj.med_action >= 0
    if not acted.any():
        return float("nan")
    return float((traj.med_action[acted] == action).mean())


def _query_agent(agent: AgentLearner, base_obs: list[float],
                 status: int) -> np.ndarray:
    obs = list(base_obs) + ([float(status)] if agent.status_feature else [])
    if agent.mediated:
        mask = np.asarray(
            [status != 1] * agent.num_env_actions + [status != -1])[None, :]
    else:
        mask = np.ones((1, agent.num_actions), dtype=bool)
    return agent.policy(np.asarray([obs]), mask)[0]


def _query_mediator(mediator: MediatorLearner, base_obs: list[float],
                    coalition: np.ndarray, agent: int) -> np.ndarray:
    rows_b = np.zeros(1, dtype=np.int64)
    rows_i = np.asarray([agent])
    base_t = np.asarray([[base_obs] * mediator.num_agents])
    actor_in = mediator_actor_inputs(mediator, base_t, coalition[None, :],
                                     rows_b, rows_i)
    return mediator.policy(actor_in, rows_i)[0]


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
        metrics["commit_rate"] = _empirical_commit_rate(traj, config.k)
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


def _state_obs(spec: PayoffSpec, turn: int) -> list[float]:
    if spec.horizon == 1:
        return [1.0]
    return [turn / spec.horizon]


def _matrix_policy_metrics(spec: PayoffSpec, config: RunConfig,
                           agents: list[AgentLearner],
                           mediator: MediatorLearner | None,
                           traj: TrajectoryBatch,
                           metrics: dict[str, float]) -> None:
    multi = spec.horizon > 1
    for t in range(spec.horizon):
        tag = f"@s{t}" if multi else ""
        base = _state_obs(spec, t)
        boundary = t % config.k == 0
        for i, agent in enumerate(agents):
            probs = _query_agent(agent, base, 0 if boundary else -1)
            for a in range(agent.num_env_actions):
                metrics[f"pi_{_ACTION_NAMES[a]}{tag}/agent{i}"] = float(probs[a])
            if agent.mediated and boundary:
                metrics[f"pi_commit{tag}/agent{i}"] = float(probs[-1])
        if mediator is None:
            continue
        for bits in _report_coalitions(spec.num_agents):
            coalition = np.asarray(bits, dtype=bool)
            ctag = _coalition_tag(coalition)
            for i in range(spec.num_agents):
                if not coalition[i]:
                    continue
                probs = _query_mediator(mediator, base, coalition, i)
                for a in range(spec.num_actions[i]):
                    metrics[f"piM_{_ACTION_NAMES[a]}{tag}|{ctag}/agent{i}"] = \
                        float(probs[a])
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
    base = _state_obs(spec, 0)
    commit = []
    for i, agent in enumerate(agents):
        probs = _query_agent(agent, base, 0)
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
        probs = _query_mediator(mediator, base, coalition, 0)
        metrics[f"piM_coop|size{size}"] = float(probs[games.COOPERATE])


def _iter_pgg_policy_metrics(spec: PayoffSpec, config: RunConfig,
                             agents: list[AgentLearner],
                             metrics: dict[str, float]) -> None:
    base = [1.0, 0.0]  # initial endowment, first turn
    for i, agent in enumerate(agents):
        probs = _query_agent(agent, base, 0)
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


def sweep(config: RunConfig, seeds: tuple[int, ...] | None = None) -> SweepReport:
    """Run every seed, aggregate seed means and standard deviations.

    Failed seeds are recorded, flagged, and excluded from the aggregates.
    """
    seeds = tuple(seeds if seeds is not None else config.seeds)
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
# Config files (INI sections mirroring the module split; CLI overrides win)


def load_config_file(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    game = parser["game"] if "game" in parser else {}
    mediation = parser["mediation"] if "mediation" in parser else {}
    har = parser["harness"] if "harness" in parser else {}
    env = game.get("env", "pd")
    config = default_config(
        env,
        mediator_mode=mediation.get("mediator_mode", "none"),
        k=int(mediation.get("k", 1)),
        num_agents=int(game.get("num_agents", 3)),
        multiplier=float(game.get("multiplier", 2.0)))
    updates: dict = {}
    if "symmetric_mediator" in mediation:
        updates["symmetric_mediator"] = mediation.getboolean("symmetric_mediator")
    if "log_lambda_bounds" in mediation:
        lo, hi = (float(x) for x in mediation.get("log_lambda_bounds").split())
        updates["log_lambda_bounds"] = (lo, hi)
    for key in ("batch_size", "iterations", "eval_episodes", "log_every"):
        if key in har:
            updates[key] = int(har.get(key))
    if "gamma" in har:
        updates["gamma"] = float(har.get("gamma"))
    if "seeds" in har:
        updates["seeds"] = tuple(int(s) for s in har.get("seeds").split())
    config = replace(config, **updates)
    for section, current in (("agent", config.agent), ("mediator", config.mediator)):
        if section in parser:
            config = replace(config, **{section: _learner_from_section(
                parser[section], current)})
    return config


def _learner_from_section(section, current: LearnerParams) -> LearnerParams:
    entropy = current.entropy
    ent_updates = {}
    for key, attr in (("entropy_start", "start"), ("entropy_decay", "decay"),
                      ("entropy_min", "minimum")):
        if key in section:
            ent_updates[attr] = float(section.get(key))
    if "entropy_steps" in section:
        ent_updates["steps"] = int(section.get("entropy_steps"))
    if "entropy_strategy" in section:
        ent_updates["strategy"] = section.get("entropy_strategy")
    if ent_updates:
        entropy = replace(entropy, **ent_updates)
    return LearnerParams(
        lr_actor=float(section.get("lr_actor", current.lr_actor)),
        lr_critic=float(section.get("lr_critic", current.lr_critic)),
        hidden=int(section.get("hidden", current.hidden)),
        entropy=entropy,
        lambda_lr=float(section.get("lambda_lr", current.lambda_lr)))

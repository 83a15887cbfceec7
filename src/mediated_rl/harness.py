"""Experiment orchestration: configs, seeded training, multi-seed sweeps.

One training iteration samples ``batch_size`` complete episodes under the
current policies, then applies one gradient step per network (the agents'
stacked critics and actors on their trainable steps, then the mediator's
critic, actor heads, and Lagrange multipliers). Reports are deterministic per
(config, seed): rollout order is fixed and parallelism only ever spans seeds.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import games, oracle
from .agents import AgentLearner, LearnerParams
from .approx import EntropySchedule
from .errors import (ConfigError, ContractError, TrainingDiverged, is_integer,
                     is_real)
from .games import GameKind, PayoffSpec, base_obs_batch
from .mediation import FREE, coalition_codes, window_statuses
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
        for name in ("num_agents", "k", "iterations", "batch_size",
                     "eval_episodes", "log_every"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
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
        if not is_real(self.gamma) or not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be a real number in [0, 1), got {self.gamma!r}")
        for name, params in (("agent", self.agent), ("mediator", self.mediator)):
            if not is_integer(params.hidden) or params.hidden < 1:
                raise ConfigError(f"[{name}] hidden must be an integer >= 1, "
                                  f"got {params.hidden!r}")
            for key in ("lr_actor", "lr_critic", "lambda_lr"):
                rate = getattr(params, key)
                if not (is_real(rate) and np.isfinite(rate) and rate > 0.0):
                    raise ConfigError(f"[{name}] {key} must be a finite real "
                                      f"number > 0, got {rate!r}")
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
    """``seeds`` if they name one or more distinct non-negative integer
    seeds; a repeated seed would count one run twice."""
    if (not seeds or not all(map(is_integer, seeds)) or min(seeds) < 0
            or len(set(seeds)) < len(seeds)):
        raise ConfigError(f"seeds must name one or more distinct, "
                          f"non-negative integer seeds, got {seeds}")
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
    """Metrics and logged ``history`` of one seeded run. A metric the
    evaluation could not measure is None. Wall clock is excluded from
    equality, so identical (config, seed) runs compare equal."""

    env: str
    mediator_mode: str
    k: int
    seed: int
    iterations: int
    metrics: dict[str, float | None]
    history: list[dict] = field(default_factory=list)
    wall_clock_s: float = field(default=0.0, compare=False)
    aborted: bool = False
    abort_reason: str = ""


@dataclass
class SweepReport:
    """Seed-aggregated metrics: mean and standard deviation per metric over
    the seeds that measured it; (None, None) where no seed did."""

    env: str
    mediator_mode: str
    k: int
    metrics: dict[str, tuple[float | None, float | None]]  # name -> (mean, std)
    num_seeds: int
    failed: list[tuple[int, str]] = field(default_factory=list)
    reports: list[RunReport] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Training


def _build_learners(config: RunConfig, spec: PayoffSpec,
                    rng: np.random.Generator
                    ) -> tuple[AgentLearner, MediatorLearner | None]:
    mediated = config.mediator_mode != "none"
    agents = AgentLearner(spec, config.agent, rng, mediated, config.k)
    mediator = None
    if mediated:
        mediator = MediatorLearner(
            spec, config.mediator, config.gamma, rng,
            constrained=config.mediator_mode == "constrained")
    return agents, mediator


def train(config: RunConfig, seed: int) -> RunReport:
    """Run one seed to completion (or abort) and evaluate the final policies."""
    spec = config.validate()
    _check_seeds((seed,))
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    agents, mediator = _build_learners(config, spec, rng)
    history: list[dict] = []
    aborted = False
    abort_reason = ""

    try:
        for it in range(config.iterations):
            entry = _train_iteration(config, spec, agents, mediator, rng, it)
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
        env=config.env, mediator_mode=config.mediator_mode, k=int(config.k),
        seed=int(seed), iterations=int(config.iterations), metrics=metrics,
        history=history, wall_clock_s=time.perf_counter() - start,
        aborted=aborted, abort_reason=abort_reason)


def _train_iteration(config: RunConfig, spec: PayoffSpec,
                     agents: AgentLearner,
                     mediator: MediatorLearner | None,
                     rng: np.random.Generator, it: int) -> dict | None:
    """Sample one batch and take one gradient step per network on it.

    Returns the history record on logged iterations: ``iteration``,
    ``mean_reward``, ``commit_rate`` and all a mediator's update returns.
    The batch and its cached activations are freed on return, before the
    next sample.
    """
    traj = sample_batch(spec, config.k, agents, mediator, config.batch_size, rng)
    agents.learn(build_agent_batch(traj, config.k, config.gamma),
                 config.agent.entropy.coef(it))
    # The activations are spent; free them before the mediator's update.
    traj.agent_acts.clear()
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
    # Every episode starts free, so there is always a decision to average.
    return float(traj.member[traj.status == FREE].mean())


def _mediator_action_rate(traj: TrajectoryBatch, action: int) -> float | None:
    acted = traj.med_action >= 0
    if not acted.any():
        return None
    return float((traj.med_action[acted] == action).mean())


def collect_metrics(spec: PayoffSpec, config: RunConfig,
                    agents: AgentLearner,
                    mediator: MediatorLearner | None,
                    traj: TrajectoryBatch) -> dict[str, float | None]:
    """Direct policy queries plus empirical statistics of the eval episodes;
    a statistic of events that never happened is None."""
    metrics: dict[str, float | None] = {}
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

    _policy_metrics(spec, config.k, agents, mediator, metrics)
    if mediator is not None and spec.name == "pds":
        _pds_joint_metrics(traj, metrics)

    if mediator is not None and mediator.lagrange is not None:
        for i in range(n):
            metrics[f"lambda_ic/agent{i}"] = float(mediator.lagrange.lambda_ic[i])
            metrics[f"lambda_e/agent{i}"] = float(mediator.lagrange.lambda_e[i])
    return metrics


_ACTION_NAMES = {games.DEFECT: "defect", games.COOPERATE: "coop",
                 games.SACRIFICE: "sacrifice"}


def _policy_metrics(spec: PayoffSpec, k: int, agents: AgentLearner,
                    mediator: MediatorLearner | None,
                    metrics: dict[str, float]) -> None:
    """The learned policies, read at each state of a matrix game and at the
    first turn of a PGG (unit endowments, as every episode starts) with the
    status of an agent outside the coalition: free at a window boundary,
    locked out inside a window.

    Agents report every env action on the matrix games and ``coop`` on the
    PGGs, and ``pi_commit`` where they are free. The mediator reports its
    play for every member of each singleton and of the full coalition (the
    paper's tables) on the matrix games, and for agent 0 in the coalition of
    the first s agents, for each size s, on the one-shot PGG, one query per
    state; pgg-iter reports no mediator key.
    """
    n = spec.num_agents
    matrix = spec.kind is GameKind.MATRIX
    one_shot = spec.kind is GameKind.ONE_SHOT_PGG
    for t in range(spec.horizon if matrix else 1):
        tag = ("@init" if spec.kind is GameKind.ITERATIVE_PGG
               else f"@s{t}" if spec.horizon > 1 else "")
        base = base_obs_batch(spec, t, np.ones((1, n)), 1)
        status = window_statuses(np.zeros(1, dtype=bool), t, k)
        probs = agents.policy(base, status)[0][:, 0]
        for i, a_env in enumerate(agents.num_env_actions):
            for a in range(a_env) if matrix else [games.COOPERATE]:
                metrics[f"pi_{_ACTION_NAMES[a]}{tag}/agent{i}"] = float(probs[i, a])
            if agents.mediated and status[0] == FREE:
                metrics[f"pi_commit{tag}/agent{i}"] = float(probs[i, a_env])
        if one_shot and agents.mediated:
            metrics["pi_commit/mean"] = float(np.mean(probs[:, -1]))
        if mediator is None or not (matrix or one_shot):
            continue
        coalitions = (np.vstack([np.eye(n, dtype=bool), np.ones(n, dtype=bool)])
                      if matrix else np.tri(n, dtype=bool))
        med, _, index = mediator.policy(
            np.repeat(base, len(coalitions), axis=0), coalitions)
        codes = coalition_codes(coalitions)
        for (c, i), dist in zip(zip(*np.nonzero(coalitions)), med[index]):
            if matrix:
                for a in range(spec.num_actions[i]):
                    metrics[f"piM_{_ACTION_NAMES[a]}{tag}|{codes[c]:0{n}b}/agent{i}"] = \
                        float(dist[a])
            elif i == 0:
                metrics[f"piM_coop|size{coalitions[c].sum()}"] = \
                    float(dist[games.COOPERATE])


def _pds_joint_metrics(traj: TrajectoryBatch,
                       metrics: dict[str, float | None]) -> None:
    """The mediator's joint play where both agents committed; None where the
    full coalition never formed, so every report carries the same keys."""
    full = traj.member.all(axis=2)
    if not full.any():
        metrics["P_cc|full"] = metrics["P_s|full"] = None
        return
    acts = traj.med_action[full]  # (rows, 2)
    joint_cc = (acts[:, 0] == games.COOPERATE) & (acts[:, 1] == games.COOPERATE)
    metrics["P_cc|full"] = float(joint_cc.mean())
    metrics["P_s|full"] = float((acts[:, 1] == games.SACRIFICE).mean())


# ---------------------------------------------------------------------------
# Sweeps


def worker_count() -> int:
    value = os.environ.get(WORKER_ENV_VAR, "")
    if not value:
        return 1
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(
            f"{WORKER_ENV_VAR} must be an integer, got {value!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKER_ENV_VAR} must be at least 1, got {value!r}")
    return workers


def sweep(config: RunConfig) -> SweepReport:
    """Run every seed, aggregate seed means and standard deviations.

    Failed seeds are recorded, flagged, and excluded from the aggregates. A
    metric aggregates the seeds that measured it, and is (None, None) when
    none did.
    """
    seeds = config.seeds
    workers = worker_count()
    if workers > 1 and len(seeds) > 1:
        # Imported here: loading multiprocessing costs every other process
        # about 1.3 MB of resident memory. The pool forks every worker at once.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            reports = list(pool.map(train, itertools.repeat(config), seeds))
    else:
        reports = [train(config, s) for s in seeds]
    good = [r for r in reports if not r.aborted]
    failed = [(r.seed, r.abort_reason) for r in reports if r.aborted]
    metrics: dict[str, tuple[float | None, float | None]] = {}
    if good:
        for key in good[0].metrics:  # every report of a config has the same keys
            measured = np.asarray([r.metrics[key] for r in good
                                   if r.metrics[key] is not None])
            if measured.size == 0:
                metrics[key] = (None, None)
                continue
            std = float(measured.std(ddof=1)) if measured.size > 1 else 0.0
            metrics[key] = (float(measured.mean()), std)
    return SweepReport(env=config.env, mediator_mode=config.mediator_mode,
                       k=int(config.k), metrics=metrics, num_seeds=len(good),
                       failed=failed, reports=reports)


# ---------------------------------------------------------------------------
# Emission


def emit(report: RunReport | SweepReport, fmt: str, path: str | None = None) -> str:
    """Render a report as csv, json, or an aligned text table.

    An unmeasured (None) metric is null in json and nan in csv and the
    table. JSON has no NaN or infinity, so a non-finite number in a report
    raises ValueError. Returns the rendered text; writes it to ``path`` when
    given.
    """
    if fmt == "json":
        text = json.dumps(asdict(report), indent=2, allow_nan=False)
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


def _number(value: float | None, spec: str) -> str:
    """``value`` formatted by ``spec``; an unmeasured (None) value as nan."""
    return format(float("nan") if value is None else value, spec)


def _to_csv(report: RunReport | SweepReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if isinstance(report, SweepReport):
        writer.writerow(["env", "mediator_mode", "k", "metric",
                         "mean", "std", "num_seeds"])
        for key, (mean, std) in report.metrics.items():
            writer.writerow([report.env, report.mediator_mode, report.k,
                             key, _number(mean, ".6g"), _number(std, ".6g"),
                             report.num_seeds])
    else:
        writer.writerow(["env", "mediator_mode", "k", "seed", "metric", "value"])
        for key, value in report.metrics.items():
            writer.writerow([report.env, report.mediator_mode, report.k,
                             report.seed, key, _number(value, ".6g")])
    return buffer.getvalue()


def _to_table(report: RunReport | SweepReport) -> str:
    lines = [f"env={report.env} mediator={report.mediator_mode} k={report.k}"]
    if isinstance(report, SweepReport):
        lines.append(f"seeds={report.num_seeds} failed={len(report.failed)}")
        for key, (mean, std) in report.metrics.items():
            lines.append(f"{key:<32} {_number(mean, '>8.3f')} +- {_number(std, '.3f')}")
    else:
        lines.append(f"seed={report.seed}")
        for key, value in report.metrics.items():
            lines.append(f"{key:<32} {_number(value, '>8.3f')}")
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

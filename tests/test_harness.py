"""Config handling, report emission, determinism, and sweep aggregation."""

import collections
import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from mediated_rl import cli, harness
from mediated_rl.approx import Mlp
from mediated_rl.errors import ConfigError
from mediated_rl.harness import (RunConfig, RunReport, SweepReport,
                                 default_config, emit, load_config_file,
                                 sweep, train)


def tiny_config(env="pd", mode="naive", **kwargs):
    base = default_config(env, mode)
    return replace(base, iterations=kwargs.pop("iterations", 5),
                   batch_size=kwargs.pop("batch_size", 16),
                   eval_episodes=kwargs.pop("eval_episodes", 32),
                   seeds=kwargs.pop("seeds", (0, 1)), **kwargs)


# ---------------------------------------------------------------------------
# Config validation and defaults


def test_default_configs_published_values():
    pd = default_config("pd")
    assert pd.iterations == 2000
    assert pd.batch_size == 128
    assert pd.gamma == 0.99
    assert pd.agent.lr_actor == 4e-4
    assert pd.agent.lr_critic == 8e-4
    assert pd.agent.hidden == 8
    assert pd.agent.entropy.start == 1.0
    assert pd.agent.entropy.decay == 0.0005
    assert pd.mediator.lr_actor == 8e-4
    pgg = default_config("pgg", "constrained", num_agents=3)
    assert pgg.iterations == 20000
    assert pgg.agent.entropy.strategy == "exponential"
    assert pgg.symmetric_mediator
    pds = default_config("pds", "constrained")
    assert pds.iterations == 10000
    assert pds.mediator.hidden == 32
    assert pds.mediator.lambda_lr == 1e-3
    ipgg = default_config("pgg-iter", "naive", k=10, num_agents=3)
    assert ipgg.agent.lr_actor == 5e-4
    assert ipgg.agent.entropy.start == 0.2


def test_validate_rejects_bad_modes_and_k():
    with pytest.raises(ConfigError):
        replace(tiny_config(), mediator_mode="sometimes").validate()
    with pytest.raises(ConfigError):
        replace(tiny_config(), k=0).validate()
    with pytest.raises(ConfigError):
        replace(tiny_config("pd"), k=2).validate()  # k > horizon
    with pytest.raises(ConfigError):
        replace(tiny_config("pd"), symmetric_mediator=True).validate()


@pytest.mark.parametrize("field,value", [
    ("eval_episodes", 0), ("eval_episodes", -3), ("log_every", -1),
    ("seeds", ()), ("num_agents", 0), ("multiplier", 0.0)])
def test_validate_rejects_values_that_cannot_run(field, value):
    # eval_episodes=0 used to give NaN metrics; an empty seed list, an empty
    # game or a zero multiplier has nothing to train.
    with pytest.raises(ConfigError):
        replace(tiny_config(), **{field: value}).validate()


@pytest.mark.parametrize("flag", ["--seeds", "--k", "--num-agents",
                                  "--multiplier"])
def test_cli_zero_flag_is_a_configuration_error(flag, capsys):
    # A flag given as 0 is not the same as a flag left out.
    status = cli.main(["run", "--env", "pgg", "--mediator", "naive",
                       "--iters", "0", flag, "0"])
    assert status == 2
    assert "configuration error" in capsys.readouterr().err


def test_non_integer_worker_count_is_a_configuration_error(monkeypatch, capsys):
    monkeypatch.setenv(harness.WORKER_ENV_VAR, "abc")
    with pytest.raises(ConfigError):
        harness.worker_count()
    status = cli.main(["run", "--env", "pd", "--iters", "0", "--seeds", "1"])
    assert status == 2
    assert harness.WORKER_ENV_VAR in capsys.readouterr().err


def test_config_file_round_trip(tmp_path):
    text = textwrap.dedent("""\
        [game]
        env = pgg
        num_agents = 3
        multiplier = 2.0

        [mediation]
        k = 1
        mediator_mode = constrained
        symmetric_mediator = true
        log_lambda_bounds = -4 4

        [agent]
        lr_actor = 0.002
        entropy_start = 0.3

        [mediator]
        hidden = 24
        lambda_lr = 0.005

        [harness]
        batch_size = 64
        iterations = 123
        gamma = 0.95
        seeds = 3 5 7
        """)
    path = tmp_path / "run.ini"
    path.write_text(text)
    config = load_config_file(str(path))
    assert config.env == "pgg"
    assert config.mediator_mode == "constrained"
    assert config.symmetric_mediator
    assert config.agent.lr_actor == 0.002
    assert config.agent.entropy.start == 0.3
    assert config.mediator.hidden == 24
    assert config.mediator.lambda_lr == 0.005
    assert config.batch_size == 64
    assert config.iterations == 123
    assert config.gamma == 0.95
    assert config.seeds == (3, 5, 7)
    config.validate()


def test_load_missing_config_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "absent.ini"))


# ---------------------------------------------------------------------------
# Training determinism and edge cases


def test_identical_config_and_seed_reports_equal():
    config = tiny_config(iterations=8)
    first = train(config, seed=4)
    second = train(config, seed=4)
    assert first == second  # wall clock excluded from comparison
    assert first.metrics == second.metrics


def test_zero_iterations_reports_near_uniform_policies():
    config = tiny_config(iterations=0, eval_episodes=64)
    report = train(config, seed=0)
    # Untrained networks start near-symmetric: all head probabilities well
    # inside the simplex.
    for key in ("pi_defect/agent0", "pi_coop/agent0", "pi_commit/agent0"):
        assert 0.1 < report.metrics[key] < 0.65


def test_lambda_history_logged_every_iteration():
    config = tiny_config("pgg", "constrained", iterations=7)
    report = train(config, seed=1)
    assert len(report.lambda_ic) == 7
    assert len(report.lambda_e) == 7
    assert all(len(row) == config.num_agents for row in report.lambda_ic)
    naive = train(tiny_config("pgg", "naive", iterations=3), seed=1)
    assert naive.lambda_ic is None


def test_each_network_sees_each_row_once_per_iteration(monkeypatch):
    # Agent actors run only while sampling, each agent critic runs once, and
    # the mediator critic runs three times: TD values, post-step values, and
    # one pass over every flipped coalition.
    config = replace(default_config("pgg-iter", "constrained", k=10),
                     batch_size=32)
    spec = config.validate()
    rng = np.random.default_rng(0)
    agents, mediator = harness._build_learners(config, spec, rng)
    calls = collections.Counter()
    rows = collections.Counter()
    state = {"phase": "update", "depth": 0}

    def counted(name):
        original = getattr(Mlp, name)

        def wrapper(net, x, *args):
            if state["depth"] == 0:
                calls[id(net), state["phase"]] += 1
                rows[id(net), state["phase"]] += np.shape(x)[0]
            state["depth"] += 1
            try:
                return original(net, x, *args)
            finally:
                state["depth"] -= 1
        monkeypatch.setattr(Mlp, name, wrapper)

    counted("forward")
    counted("forward_cached")
    real_sample = harness.sample_batch

    def sampling(*args):
        state["phase"] = "rollout"
        try:
            return real_sample(*args)
        finally:
            state["phase"] = "update"
    monkeypatch.setattr(harness, "sample_batch", sampling)
    trainable = []
    real_build = harness.build_agent_batch

    def building(*args):
        batch = real_build(*args)
        trainable.append(len(batch))
        return batch
    monkeypatch.setattr(harness, "build_agent_batch", building)

    harness._train_iteration(config, spec, agents, mediator, rng, 0)
    for agent, m in zip(agents, trainable):
        assert calls[id(agent.actor), "rollout"] == spec.horizon
        assert rows[id(agent.actor), "rollout"] == m
        assert calls[id(agent.actor), "update"] == 0
        assert calls[id(agent.critic), "update"] == 1
        assert rows[id(agent.critic), "update"] == m
        assert calls[id(agent.critic), "rollout"] == 0
    assert calls[id(mediator.actor), "update"] == 0
    assert calls[id(mediator.critic), "rollout"] == 0
    assert calls[id(mediator.critic), "update"] == 3
    steps = spec.horizon * config.batch_size
    assert rows[id(mediator.critic), "update"] == steps * (2 + spec.num_agents)


def test_report_probabilities_in_unit_interval():
    report = train(tiny_config(iterations=10), seed=2)
    for key, value in report.metrics.items():
        if key.startswith(("pi_", "piM_", "P_")):
            assert -1e-9 <= value <= 1.0 + 1e-9, key


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_single_seed_mean_equals_run_std_zero():
    config = tiny_config(seeds=(3,))
    result = sweep(config)
    single = train(config, seed=3)
    for key, (mean, std) in result.metrics.items():
        assert mean == pytest.approx(single.metrics[key])
        assert std == 0.0


def test_sweep_aggregates_across_seeds():
    config = tiny_config(seeds=(0, 1, 2))
    result = sweep(config)
    assert result.num_seeds == 3
    assert not result.failed
    reports = [train(config, seed=s) for s in (0, 1, 2)]
    for key, (mean, _) in result.metrics.items():
        values = [r.metrics[key] for r in reports]
        finite = [v for v in values if np.isfinite(v)]
        if finite:
            assert mean == pytest.approx(np.mean(finite))


def test_sweep_flags_failed_seeds(monkeypatch):
    config = tiny_config(seeds=(0, 1))

    real_train = harness.train

    def flaky(cfg, seed):
        report = real_train(cfg, seed)
        if seed == 1:
            report.aborted = True
            report.abort_reason = "synthetic failure"
        return report

    monkeypatch.setattr(harness, "train", flaky)
    result = harness.sweep(config)
    assert result.num_seeds == 1
    assert result.failed == [(1, "synthetic failure")]


# ---------------------------------------------------------------------------
# Emission


def test_emit_json_round_trip(tmp_path):
    report = train(tiny_config(iterations=3), seed=0)
    path = tmp_path / "report.json"
    text = emit(report, "json", str(path))
    parsed = RunReport.from_dict(json.loads(path.read_text()))
    assert parsed == report
    assert json.loads(text) == json.loads(path.read_text())


def test_emit_csv_fixed_header_and_rows():
    report = train(tiny_config(iterations=3), seed=0)
    text = emit(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "env,mediator_mode,k,seed,metric,value"
    assert len(lines) == 1 + len(report.metrics)
    first = lines[1].split(",")
    assert first[:4] == ["pd", "naive", "1", "0"]


def test_emit_sweep_csv_schema():
    result = sweep(tiny_config(seeds=(0, 1)))
    text = emit(result, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "env,mediator_mode,k,metric,mean,std,num_seeds"
    assert len(lines) == 1 + len(result.metrics)


def test_emit_empty_sweep_header_only():
    empty = SweepReport(env="pd", mediator_mode="none", k=1, metrics={},
                        num_seeds=0)
    text = emit(empty, "csv")
    assert text.strip() == "env,mediator_mode,k,metric,mean,std,num_seeds"


def test_emit_table_three_decimals():
    report = train(tiny_config(iterations=3), seed=0)
    text = emit(report, "table")
    assert "pi_commit/agent0" in text
    with pytest.raises(ConfigError):
        emit(report, "yaml")

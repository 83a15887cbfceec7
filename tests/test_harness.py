"""Config handling, report emission, determinism, and sweep aggregation."""

import collections
import concurrent.futures
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import mediated_rl
from mediated_rl import cli, harness
from mediated_rl.approx import Mlp
from mediated_rl.errors import ConfigError, is_real
from mediated_rl.harness import (RunConfig, RunReport, SweepReport,
                                 default_config, emit, load_config_file,
                                 sweep, train)
from mediated_rl.mediator import MediatorLearner
from mediated_rl.rollout import build_mediator_batch


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
    assert pd.multiplier is None
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
    assert pgg.multiplier == 2.0
    assert pgg.iterations == 20000
    assert pgg.agent.entropy.strategy == "exponential"
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


@pytest.mark.parametrize("field,value", [
    ("eval_episodes", 0), ("eval_episodes", -3), ("log_every", -1),
    ("seeds", ()), ("num_agents", 0), ("multiplier", 0.0),
    ("batch_size", 4.0), ("k", 1.0), ("eval_episodes", 2.0),
    ("iterations", 2.0), ("log_every", 2.5), ("num_agents", 2.0),
    ("batch_size", True), ("seeds", (0.5,)), ("seeds", (0, True)),
    ("agent", replace(tiny_config().agent, hidden=8.0)),
    ("mediator", replace(tiny_config().mediator, hidden=np.float64(8.5)))])
def test_validate_rejects_values_that_cannot_run(field, value):
    # eval_episodes=0 used to give NaN metrics; an empty seed list, an empty
    # game or a zero multiplier has nothing to train. A float or bool count
    # used to pass and fail later with a bare TypeError, or run silently.
    with pytest.raises(ConfigError, match=re.escape(field)):
        replace(tiny_config(), **{field: value}).validate()


def test_validate_accepts_numpy_integer_counts():
    config = replace(tiny_config(), iterations=np.int64(0),
                     batch_size=np.int32(4), seeds=(np.int64(3),))
    assert train(config, 3).iterations == 0


@pytest.mark.parametrize("seed", [0.5, -1, True, "3"])
def test_train_rejects_a_seed_that_cannot_run(seed):
    # These used to fail with a bare TypeError or ValueError from
    # SeedSequence, or (a bool) to run and report seed=True.
    with pytest.raises(ConfigError, match="seeds"):
        train(replace(tiny_config(), iterations=0), seed)


def test_train_accepts_a_numpy_integer_seed():
    assert train(replace(tiny_config(), iterations=0), np.int64(3)).seed == 3


def test_reports_hold_python_ints():
    # A NumPy integer seed, iteration count or seed list used to pass
    # validation and then fail JSON emission.
    config = replace(default_config("pd", "naive"), iterations=0, eval_episodes=4)
    reports = [train(config, np.int64(3)),
               train(replace(config, iterations=np.int64(0)), 3),
               sweep(replace(config, seeds=(np.int64(0), np.int64(1))))]
    for report in reports:
        json.loads(emit(report, "json"))
    for run in (*reports[:2], *reports[2].reports):
        assert [type(run.seed), type(run.k), type(run.iterations)] == [int] * 3
    assert type(reports[2].k) is int


@pytest.mark.parametrize("field,value,name", [
    ("gamma", False, "gamma"), ("gamma", np.complex128(0.5), "gamma"),
    ("gamma", "0.9", "gamma"), ("gamma", None, "gamma"),
    ("multiplier", "2", "multiplier"),
    ("agent", replace(tiny_config().agent, lr_actor="1e-3"), "lr_actor"),
    ("agent", replace(tiny_config().agent, lr_critic=None), "lr_critic"),
    ("mediator", replace(tiny_config().mediator, lambda_lr=True), "lambda_lr"),
    ("mediator", replace(tiny_config().mediator, lr_actor=1j), "lr_actor")])
def test_validate_rejects_a_value_that_is_not_a_real_number(field, value, name):
    # These used to train (a bool or complex gamma, a bool lambda_lr) or end
    # in a bare TypeError.
    with pytest.raises(ConfigError, match=re.escape(name)):
        replace(tiny_config(), **{field: value}).validate()
    with pytest.raises(ConfigError, match=re.escape(name)):
        replace(tiny_config("pgg"), **{field: value}).validate()


def test_validate_accepts_numpy_real_numbers():
    config = replace(tiny_config("pgg"), gamma=np.float32(0.5),
                     multiplier=np.float64(2.0),
                     mediator=replace(tiny_config().mediator,
                                      lambda_lr=np.float32(1e-3)))
    config.validate()


def test_a_real_number_is_an_int_or_a_float():
    for value in (0, 1.5, np.int64(2), np.float32(0.5), float("nan")):
        assert is_real(value)
    for value in (True, np.bool_(True), 1j, np.complex128(0.5), "0.5", None,
                  np.array([0.5])):
        assert not is_real(value)


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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_worker_count_below_one_is_a_configuration_error(monkeypatch, capsys, value):
    # These used to run one worker.
    monkeypatch.setenv(harness.WORKER_ENV_VAR, value)
    with pytest.raises(ConfigError, match=f"{harness.WORKER_ENV_VAR}.*{value}"):
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
    assert config.agent.lr_actor == 0.002
    assert config.agent.entropy.start == 0.3
    assert config.mediator.hidden == 24
    assert config.mediator.lambda_lr == 0.005
    assert config.batch_size == 64
    assert config.iterations == 123
    assert config.gamma == 0.95
    assert config.seeds == (3, 5, 7)
    config.validate()


@pytest.mark.parametrize("text", [
    "[mediation]\nk = two",
    "[game]\nnum_agents = three",
    "[game]\nmultiplier = x",
    "[harness]\ngamma = high",
    "[harness]\nseeds = 0 one",
    "[mediation]\nsymmetric_mediator = maybe",
    "[agent]\nentropy_strategy = cosine",
    "[agent]\nentropy_steps = 0",
    "[mediation]\nlog_lambda_bounds = 4",
    "[mediation]\nlog_lambda_bounds = 4 -4",
    "k = 1",
    "[game]\nenv = pd\n[game]\nenv = pds",
    "[game]\nenv = pgg\n[agent]\nentropy_start = 0\nentropy_min = 0",
    "[agent]\nhidden = 0",
    "[mediator]\nhidden = 0",
    "[agent]\nlr_actor = 1%",
    "[agent]\nlr_actor = nan",
    "[agent]\nlr_actor = -1",
    "[mediator]\nlr_critic = 0",
    "[mediator]\nlambda_lr = inf",
    "[agent]\nentropy_start = -1\nentropy_min = -2",
    "[mediator]\nentropy_decay = -0.1",
    "[harness]\nseeds = -1",
    "[harness]\nseeds = 0 0",
], ids=["k", "num_agents", "multiplier", "gamma", "seeds", "symmetric",
        "strategy", "steps", "bounds-arity", "bounds-order", "no-section",
        "duplicate-section", "exponential-from-zero", "agent-hidden",
        "mediator-hidden", "percent-sign", "lr-nan", "lr-negative",
        "lr-zero", "lambda-lr-inf", "entropy-negative", "entropy-decay-negative",
        "seeds-negative", "seeds-repeated"])
def test_bad_config_file_value_is_a_configuration_error(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text + "\n")
    status = cli.main(["run", "--config", str(path), "--iters", "0",
                       "--seeds", "1"])
    assert status == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[harnes]\niterations = 7", "unknown section [harnes]"),
    ("[agent]\nlr_actr = 0.1", "unknown key 'lr_actr' in section [agent]"),
    ("[agent]\nlambda_lr = 1e-3", "unknown key 'lambda_lr' in section [agent]"),
], ids=["section", "key", "agent-lambda-lr"])
def test_unknown_config_section_or_key_is_named(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text + "\n")
    assert cli.main(["run", "--config", str(path), "--iters", "0"]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_exponential_schedule_to_zero_is_a_configuration_error(tmp_path, capsys):
    # (0 / start) ** frac is 0: the entropy bonus would vanish at iteration 1.
    path = tmp_path / "bad.ini"
    path.write_text("[game]\nenv = pgg\n[agent]\nentropy_min = 0\n")
    message = "[agent] an exponential entropy schedule needs minimum > 0"
    with pytest.raises(ConfigError) as caught:
        load_config_file(str(path))
    assert str(caught.value) == message
    assert cli.main(["run", "--config", str(path), "--iters", "0"]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def resolved_config(monkeypatch, argv):
    """The RunConfig that ``mediated-rl run`` would sweep for ``argv``."""
    seen = []

    def capture(config):
        seen.append(config)
        return SweepReport(env=config.env, mediator_mode=config.mediator_mode,
                           k=config.k, metrics={}, num_seeds=0)
    monkeypatch.setattr(harness, "sweep", capture)
    assert cli.main(["run", *argv]) == 0
    return seen[0]


def test_flags_and_config_keys_resolve_alike(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent("""\
        [game]
        env = pgg-iter
        num_agents = 4
        multiplier = 1.5

        [mediation]
        mediator_mode = constrained
        k = 10

        [harness]
        iterations = 7
        seeds = 0 1 2
        """))
    from_flags = resolved_config(monkeypatch, [
        "--env", "pgg-iter", "--num-agents", "4", "--multiplier", "1.5",
        "--mediator", "constrained", "--k", "10", "--iters", "7",
        "--seeds", "3"])
    assert resolved_config(monkeypatch, ["--config", str(path)]) == from_flags
    assert from_flags == replace(
        default_config("pgg-iter", "constrained", k=10, num_agents=4,
                       multiplier=1.5), iterations=7, seeds=(0, 1, 2))


def test_env_flag_keeps_the_config_file_values(tmp_path, monkeypatch):
    # Published defaults of the flag's env, then the file, then the flags.
    path = tmp_path / "run.ini"
    path.write_text("[game]\nenv = pgg\n[agent]\nlr_actor = 0.123\n"
                    "[harness]\niterations = 7\n")
    config = resolved_config(monkeypatch, ["--config", str(path), "--env", "pds",
                                           "--seeds", "1"])
    pds = default_config("pds")
    assert config == replace(pds, iterations=7, seeds=(0,),
                             agent=replace(pds.agent, lr_actor=0.123))


def run_pd_with(tmp_path, how: str, key: str, value: str) -> int:
    """Exit status of ``mediated-rl run`` on pd with one [game] key set by
    its flag or by a config file."""
    path = tmp_path / "run.ini"
    path.write_text(f"[game]\nenv = pd\n{key} = {value}\n")
    argv = (["--env", "pd", "--" + key.replace("_", "-"), value]
            if how == "flag" else ["--config", str(path)])
    return cli.main(["run", *argv, "--iters", "0", "--seeds", "1"])


@pytest.mark.parametrize("how", ["flag", "file"])
def test_matrix_game_agent_count_is_fixed(tmp_path, capsys, how):
    assert run_pd_with(tmp_path, how, "num_agents", "5") == 2
    assert "pd is a 2-agent game" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "file"])
def test_matrix_game_has_no_multiplier(tmp_path, capsys, how):
    # It used to be accepted and silently ignored.
    assert run_pd_with(tmp_path, how, "multiplier", "7") == 2
    assert "pd has no multiplier" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/r.csv", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_out_fails_before_training(tmp_path, monkeypatch, capsys,
                                              out):
    def no_sweep(config):
        raise AssertionError("trained although --out cannot be written")
    monkeypatch.setattr(harness, "sweep", no_sweep)
    status = cli.main(["run", "--env", "pd", "--iters", "0", "--seeds", "1",
                       "--out", str(tmp_path / out)])
    assert status == 2
    assert "configuration error: --out" in capsys.readouterr().err


PD_POLICY = [[[0.5, 0.5], [0.5, 0.5]]]
PGG_MEDIATED = {"agent_policies": [[[0.5, 0.25, 0.25]] * 3], "mediated": True}


def pd_mediated(coalition_11, entries=None):
    """A mediated pd profile whose full coalition plays ``coalition_11``
    for agent 0; ``entries`` adds or replaces coalitions of its table."""
    coop = [0.0, 1.0]
    table = {"10": {"0": coop}, "01": {"1": coop},
             "11": {"0": coalition_11, "1": coop}, **(entries or {})}
    return {"agent_policies": [[[0.2, 0.3, 0.5]] * 2], "mediated": True,
            "mediator_by_coalition": [table]}


@pytest.mark.parametrize("profile,flags", [
    ({"agent_policies": [[[0.5, 0.2], [0.5, 0.5]]]}, []),
    ({"agent_policies": [[[0.2, 0.3, 0.5]] * 2], "mediated": True}, []),
    ({"agent_policies": PD_POLICY}, ["--k", "0"]),
    (None, ["--k", "0"]),
    ({"agent_policies": [[[0.5, 0.5]]]}, []),
    ("missing", []),
    ("{", []),
    ({"agent_policies": [[[0.2, 0.3, 0.5]] * 2], "mediated": True,
      "mediator_by_coalition": [{"11": {"0": [0.5, 0.5], "1": [0.5, 0.5]}}]},
     []),
    ({"agent_policies": [[[0.2, 0.3, 0.5]] * 2], "mediated": True,
      "mediator_by_coalition": [{"1x": {"0": [0.5, 0.5]}}]}, []),
    (PGG_MEDIATED | {"mediator_by_size": [0.5]}, ["--env", "pgg"]),
    (PGG_MEDIATED | {"mediator_by_size": [0, 0.5, 2.5, 1]}, ["--env", "pgg"]),
    (pd_mediated(coalition_11=[-0.5, 1.5]), []),
    (pd_mediated(coalition_11=[0.9, 0.9]), []),
    (pd_mediated(coalition_11=[0.0, 1.0]) | {"mediator_by_size": [0, 0.5, 1]},
     []),
    (None, ["--num-agents", "5"]),
    (None, ["--k", "7"]),
    (None, ["--multiplier", "0.5"]),
    ({"agent_policies": [[["a", "b"], [0.5, 0.5]]]}, []),
    ({"agent_policies": [[[0.5, 0.5], None]]}, []),
    ({"agent_policies": 5}, []),
    ([PD_POLICY], []),
    ({"mediated": False}, []),
    ({"agent_policies": PD_POLICY, "mediated": "false"}, []),
    (pd_mediated(coalition_11=[0.0, 1.0]) | {"mediated": 1}, []),
    (PGG_MEDIATED | {"mediator_by_coalition": [{}]}, ["--env", "pgg"]),
    ({"agent_policies": [[[0.5, 0.5]] * 3], "mediator_by_size": [0, 0, 1, 1]},
     ["--env", "pgg"]),
    (pd_mediated(coalition_11=["a", "b"]), []),
    (pd_mediated(coalition_11=None), []),
    (pd_mediated([0.0, 1.0], {"01": {"0": [0.0, 1.0], "1": [0.0, 1.0]}}), []),
], ids=["not-a-distribution", "no-mediator-table", "k0-profile", "k0",
        "one-agent", "missing-file", "not-json", "partial-mediator-table",
        "bad-coalition-key", "size-table-length", "size-table-range",
        "coalition-negative", "coalition-sum", "size-table-matrix-game",
        "matrix-agent-count",
        "k-past-horizon", "matrix-multiplier", "non-numeric-policy", "null-policy",
        "policies-not-a-list", "top-level-array", "no-agent-policies",
        "mediated-string", "mediated-integer", "coalition-table-on-pgg",
        "size-table-unmediated", "coalition-non-numeric", "coalition-null",
        "coalition-non-member"])
def test_bad_oracle_input_is_a_configuration_error(tmp_path, capsys,
                                                   profile, flags):
    path = tmp_path / "profile.json"
    if isinstance(profile, (dict, list)):
        path.write_text(json.dumps(profile))
    elif profile == "{":
        path.write_text(profile)
    args = ["oracle", "--env", "pd", *flags]
    if profile is not None:
        args += ["--profile", str(path)]
    assert cli.main(args) == 2
    assert "configuration error" in capsys.readouterr().err


def test_oracle_reads_a_good_profile(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"agent_policies": PD_POLICY}))
    assert cli.main(["oracle", "--env", "pd", "--profile", str(path)]) == 0
    assert "best-response gap agent1" in capsys.readouterr().out


def test_oracle_reads_a_complete_mediator_table(tmp_path, capsys):
    coop = [0.0, 1.0]
    table = {"10": {"0": coop}, "01": {"1": coop}, "11": {"0": coop, "1": coop}}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "agent_policies": [[[0.0, 0.0, 1.0]] * 2], "mediated": True,
        "mediator_by_coalition": [table]}))
    assert cli.main(["oracle", "--env", "pd", "--profile", str(path)]) == 0
    assert "best-response gap agent1" in capsys.readouterr().out


@pytest.mark.parametrize("mediated", [False, True])
def test_oracle_prints_nash_conv_as_the_sum_of_the_gaps(tmp_path, capsys,
                                                        mediated):
    path = tmp_path / "profile.json"
    profile = (pd_mediated(coalition_11=[0.3, 0.7]) if mediated else
               {"agent_policies": [[[0.2, 0.8], [0.6, 0.4]]]})
    path.write_text(json.dumps(profile))
    assert cli.main(["oracle", "--env", "pd", "--profile", str(path)]) == 0
    out = capsys.readouterr().out
    gaps = [float(g) for g in re.findall(r"best-response gap agent\d: (\S+)", out)]
    nash_conv = float(re.search(r"^NashConv: (\S+)$", out, re.M).group(1))
    assert len(gaps) == 2 and nash_conv > 0
    assert nash_conv == pytest.approx(sum(gaps), rel=1e-5)
    commits = re.findall(r"^commit values agent(\d): committed=\S+ locked-out=\S+$",
                         out, re.M)
    assert commits == (["0", "1"] if mediated else [])


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


def test_identical_reports_with_an_unmeasured_metric_compare_equal():
    # pds evaluation leaves P_cc|full None when the full coalition never forms.
    config = replace(default_config("pds", "naive"), iterations=0,
                     eval_episodes=4)
    first, second = train(config, 0), train(config, 0)
    assert first.metrics["P_cc|full"] is None
    assert first == second
    assert first == replace(second, wall_clock_s=second.wall_clock_s + 1.0)
    measured = replace(second, metrics={**second.metrics, "P_cc|full": 0.5})
    assert first != measured and measured != first
    logged = replace(second, history=[{"ic_gap": [None]}])
    assert logged == replace(first, history=[{"ic_gap": [None]}])
    assert logged != replace(first, history=[{"ic_gap": [0.0]}])


def test_identical_sweeps_with_an_unmeasured_metric_compare_equal():
    config = replace(default_config("pds", "naive"), iterations=0,
                     eval_episodes=4, seeds=(0, 1))
    first, second = sweep(config), sweep(config)
    assert first.metrics["P_cc|full"][0] is None
    assert first == second
    measured = replace(second, metrics={**second.metrics,
                                        "P_cc|full": (0.5, 0.0)})
    assert first != measured and measured != first
    assert first != replace(second, num_seeds=3)
    assert first != first.reports[0]


def test_zero_iterations_reports_near_uniform_policies():
    config = tiny_config(iterations=0, eval_episodes=64)
    report = train(config, seed=0)
    # Untrained networks start near-symmetric: all head probabilities well
    # inside the simplex.
    for key in ("pi_defect/agent0", "pi_coop/agent0", "pi_commit/agent0"):
        assert 0.1 < report.metrics[key] < 0.65


def test_lambda_history_logged_every_iteration():
    config = tiny_config("pgg", "constrained", iterations=7, log_every=1)
    report = train(config, seed=1)
    assert [record["iteration"] for record in report.history] == list(range(7))
    for record in report.history:
        for key in ("lambda_ic", "lambda_e"):
            assert len(record[key]) == config.num_agents
            assert all(type(value) is float for value in record[key])
        for key in ("ic_gap", "e_gap"):
            assert len(record[key]) == config.num_agents
            assert all(value is None or type(value) is float
                       for value in record[key])
    # The last record holds the multipliers the final metrics report.
    assert report.history[-1]["lambda_ic"] == [
        report.metrics[f"lambda_ic/agent{i}"] for i in range(config.num_agents)]
    naive = train(tiny_config("pgg", "naive", iterations=3, log_every=1), seed=1)
    assert len(naive.history) == 3
    assert not any(key in record for record in naive.history
                   for key in ("lambda_ic", "lambda_e", "ic_gap", "e_gap"))


def test_constrained_report_does_not_grow_with_iterations():
    # With the history off, a report holds its final metrics only. Each
    # number counts as one character, so the lengths compare what the
    # reports hold, not how many digits their floats print with.
    def json_length(iterations):
        config = tiny_config("pgg", "constrained", iterations=iterations,
                             log_every=0)
        text = emit(train(config, seed=0), "json")
        return len(re.sub(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", "0", text))

    short, long = json_length(5), json_length(50)
    assert abs(long - short) <= 0.01 * short


def test_each_network_sees_each_row_once_per_iteration(monkeypatch):
    # The stacked agent actor runs only while sampling, once per step over
    # every row; the stacked agent critic runs once; and the mediator critic
    # runs three times: TD values, post-step values, and one pass over every
    # flipped coalition. Rows count per stack slice.
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
                rows[id(net), state["phase"]] += np.shape(x)[1]
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
    harness._train_iteration(config, spec, agents, mediator, rng, 0)
    steps = spec.horizon * config.batch_size
    assert calls[id(agents.actor), "rollout"] == spec.horizon
    assert rows[id(agents.actor), "rollout"] == steps
    assert calls[id(agents.actor), "update"] == 0
    assert calls[id(agents.critic), "update"] == 1
    assert rows[id(agents.critic), "update"] == steps
    assert calls[id(agents.critic), "rollout"] == 0
    assert calls[id(mediator.actor), "update"] == 0
    assert calls[id(mediator.critic), "rollout"] == 0
    assert calls[id(mediator.critic), "update"] == 3
    assert rows[id(mediator.critic), "update"] == steps * (2 + spec.num_agents)


@pytest.mark.parametrize("env,k,one_shot,num_agents", [
    pytest.param("pd", 1, True, None, id="pd-1-True"),
    pytest.param("pgg", 1, True, None, id="pgg-1-True"),
    pytest.param("pgg", 1, True, 16, id="pgg16-1-True"),
    pytest.param("pd2", 2, False, None, id="pd2-2-False"),
    pytest.param("pgg-iter", 10, False, None, id="pgg-iter-10-False")])
def test_one_shot_agent_networks_run_one_row_per_agent(monkeypatch, env, k,
                                                       one_shot, num_agents):
    # A one-shot game has one state: the rollout and the update run each
    # agent's actor and critic on one row, which stands for every episode,
    # and the mediator's actor on the game's state table: N * 2^N rows, a
    # row per (coalition, agent), or N + 1 in the symmetric PGG, a row per
    # size. A multi-step game runs the agents' actor on every episode at
    # each step, their critic on every step of every episode, and the
    # mediator's actor on every member.
    config = replace(default_config(env, "constrained", k=k,
                                    num_agents=num_agents), batch_size=32)
    spec = config.validate()
    agents, mediator = harness._build_learners(config, spec,
                                               np.random.default_rng(0))
    shapes = collections.defaultdict(list)
    original = Mlp.forward_cached
    batches = []

    def spy(net, x, *args):
        shapes[id(net)].append(np.shape(x))
        return original(net, x, *args)

    def kept(traj, mediator):
        batches.append(build_mediator_batch(traj, mediator))
        return batches[-1]
    monkeypatch.setattr(Mlp, "forward_cached", spy)
    monkeypatch.setattr(harness, "build_mediator_batch", kept)
    harness._train_iteration(config, spec, agents, mediator,
                             np.random.default_rng(1), 0)
    n, t_max = spec.num_agents, spec.horizon
    rows = 1 if one_shot else config.batch_size
    assert shapes[id(agents.actor)] == [(n, rows, agents.actor.sizes[0])] * t_max
    assert shapes[id(agents.critic)] == [(n, t_max * rows, agents.critic.sizes[0])]
    (batch,) = batches
    members = batch.member.reshape(t_max, -1).sum(axis=1)
    med_rows = [shape[1] for shape in shapes[id(mediator.actor)]]
    assert all(shape[::2] == (1, mediator.actor.sizes[0])
               for shape in shapes[id(mediator.actor)])
    if one_shot:
        assert med_rows == [len(batch.actor_probs)]
        assert med_rows[0] == (n + 1 if mediator.symmetric else n * 2 ** n)
        assert med_rows[0] < members[0] == len(batch.actor_rows)
    else:
        assert med_rows == members.tolist() and batch.actor_rows is None
    assert len(batch.actor_actions) == members.sum()


FAULTS_PER_ITERATION = textwrap.dedent("""
    import resource
    from dataclasses import replace
    from mediated_rl import harness

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    config = harness.default_config("pgg-iter", "constrained", k=10)
    harness.train(replace(config, iterations=10), 0)
    start = faults()
    harness.train(replace(config, iterations=0), 1)
    setup = faults() - start
    start = faults()
    harness.train(replace(config, iterations=30), 1)
    print((faults() - start - setup) / 30)
""")


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's heap trimming")
def test_pgg_iter_training_stays_within_a_page_fault_budget():
    # glibc hands the free top of the heap back to the system, and the next
    # iteration faults every page of it in again, unless a live array sits
    # above it. The agents' held arrays are such arrays once glibc serves
    # arrays of their size from the heap, which it does after it has freed
    # one from a mapping of its own: so, as in the benchmark, a 10-iteration
    # run comes first. The faults of a 30-iteration run less those of a
    # run without iterations (set-up and evaluation) are counted; when every
    # pass allocated its arrays, an iteration took about 700.
    src = str(Path(mediated_rl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_ITERATION],
                         capture_output=True, text=True, check=True, env=env)
    assert float(out.stdout) < 150


def test_report_probabilities_in_unit_interval():
    report = train(tiny_config(iterations=10), seed=2)
    for key, value in report.metrics.items():
        if key.startswith(("pi_", "piM_", "P_")):
            assert -1e-9 <= value <= 1.0 + 1e-9, key


@pytest.mark.parametrize("env,states", [("pd", 1), ("pds", 1), ("pd2", 2),
                                        ("pgg", 1), ("pgg-iter", 0)])
def test_report_queries_the_mediator_once_per_state(env, states, monkeypatch):
    # One query answers every member of every coalition the report reads:
    # each state of a matrix game, the first turn of the one-shot pgg and no
    # state of pgg-iter, which reports no mediator key.
    calls = []
    policy = MediatorLearner.policy

    def counted(self, *args, **kwargs):
        calls.append(len(args[1]))
        return policy(self, *args, **kwargs)

    monkeypatch.setattr(MediatorLearner, "policy", counted)
    config = tiny_config(env, "naive")
    spec = config.validate()
    agents, mediator = harness._build_learners(config, spec,
                                               np.random.default_rng(0))
    metrics = {}
    harness._policy_metrics(spec, config.k, agents, mediator, metrics)
    n = spec.num_agents
    assert calls == [n + 1 if env.startswith("pd") else n] * states
    assert any(key.startswith("piM_") for key in metrics) == (states > 0)


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


def test_sweep_averages_pds_joint_metrics_over_the_seeds_that_measured_them():
    # With 4 eval episodes the full coalition forms in some seeds only; the
    # others report None, and the sweep averages the seeds that measured it.
    config = replace(default_config("pds", "naive"), iterations=0,
                     eval_episodes=4, seeds=tuple(range(8)))
    result = sweep(config)
    for key in ("P_cc|full", "P_s|full"):
        values = [r.metrics[key] for r in result.reports]
        measured = [v for v in values if v is not None]
        assert 0 < len(measured) < len(values)
        assert result.metrics[key][0] == pytest.approx(np.mean(measured))


def test_a_sweep_metric_no_seed_measured_is_none():
    # Neither seed forms the full coalition in 4 episodes. A deviation of 0.0
    # would claim the seeds agreed on a value that neither measured.
    config = replace(default_config("pds", "naive"), iterations=0,
                     eval_episodes=4, seeds=(0, 1))
    result = sweep(config)
    assert [r.metrics["P_s|full"] for r in result.reports] == [None, None]
    assert result.metrics["P_s|full"] == (None, None)
    assert json.loads(emit(result, "json"))["metrics"]["P_s|full"] == [None, None]
    assert re.search(r"^P_s\|full +nan \+- nan$", emit(result, "table"), re.M)
    assert "pds,naive,1,P_s|full,nan,nan,2\n" in emit(result, "csv")


def test_process_pool_sweep_equals_the_serial_sweep(monkeypatch):
    # Results are deterministic per (config, seed), in any worker process.
    config = tiny_config("pgg", "constrained", seeds=(0, 1))
    serial = sweep(config)
    monkeypatch.setenv(harness.WORKER_ENV_VAR, "2")
    pooled = sweep(config)
    assert pooled.reports == serial.reports
    assert pooled.metrics == serial.metrics


@pytest.mark.parametrize("workers,seeds,pool", [("64", (0, 1), 2),
                                               ("2", (0, 1, 2), 2)])
def test_sweep_pool_has_no_more_workers_than_seeds(monkeypatch, workers,
                                                  seeds, pool):
    # A process pool forks all its workers at the first submit; a fake pool
    # records its size and maps in this process, so no pool is started.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv(harness.WORKER_ENV_VAR, workers)
    config = tiny_config(iterations=0, eval_episodes=4, seeds=seeds)
    assert sweep(config).reports == [train(config, s) for s in seeds]
    assert sizes == [pool]


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


@pytest.mark.parametrize("env,mode,batch_size", [
    ("pd", "naive", 16), ("pgg", "constrained", 1)], ids=["naive", "constrained"])
def test_emit_json_round_trip(tmp_path, env, mode, batch_size):
    # One episode per batch leaves each agent on one side of the coalition,
    # so every constrained record holds None for a gap the dual step skipped.
    report = train(tiny_config(env, mode, iterations=3, batch_size=batch_size,
                               log_every=1), seed=0)
    if mode == "constrained":
        assert all(None in record["ic_gap"] + record["e_gap"]
                   for record in report.history)
    path = tmp_path / "report.json"
    text = emit(report, "json", str(path))
    parsed = RunReport(**json.loads(path.read_text()))
    assert parsed == report
    assert json.loads(text) == json.loads(path.read_text())


def test_emit_sweep_json_holds_every_field():
    result = sweep(tiny_config(iterations=0, seeds=(0, 1)))
    parsed = json.loads(emit(result, "json"))
    assert list(parsed) == [f.name for f in fields(SweepReport)]
    assert parsed["metrics"] == {k: list(v) for k, v in result.metrics.items()}
    assert [RunReport(**r) for r in parsed["reports"]] == result.reports


def test_emit_json_writes_non_finite_numbers_as_null():
    # pds evaluation leaves P_*|full None when the full coalition never forms,
    # and a sweep's mean of no measured value is None; strict parsers (jq,
    # JSON.parse) read both as null. JSON has no NaN token, so a non-finite
    # number in a report is a fault and json output refuses it.
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    config = replace(default_config("pds", "naive"), iterations=0,
                     eval_episodes=4, seeds=(0, 1))
    result = sweep(config)
    report = replace(result.reports[0], history=[{"ic_gap": [None, 0.5]}])
    assert report.metrics["P_cc|full"] is None
    assert result.metrics["P_s|full"][0] is None
    run = json.loads(emit(report, "json"), parse_constant=refuse)
    assert run["metrics"]["P_cc|full"] is run["metrics"]["P_s|full"] is None
    assert run["history"] == [{"ic_gap": [None, 0.5]}]
    assert run["metrics"]["welfare"] == report.metrics["welfare"]
    aggregate = json.loads(emit(result, "json"), parse_constant=refuse)
    assert aggregate["metrics"]["P_s|full"] == [None, None]
    assert aggregate["reports"][1]["metrics"]["P_cc|full"] is None
    for bad in (replace(report, history=[{"lambda": np.inf}]),
                replace(report, metrics={**report.metrics, "welfare": np.nan})):
        with pytest.raises(ValueError):
            emit(bad, "json")


def test_a_report_with_an_unmeasured_metric_survives_a_json_round_trip():
    # Two episodes a batch leave some incentive gap unmeasured in the history,
    # and neither seed forms the full coalition in 4 evaluation episodes.
    config = replace(default_config("pds", "constrained"), iterations=3,
                     batch_size=2, log_every=1, eval_episodes=4, seeds=(2, 3))
    result = sweep(config)
    report = result.reports[0]
    assert report.metrics["P_cc|full"] is None
    assert result.metrics["P_cc|full"] == (None, None)
    assert any(None in entry["ic_gap"] for entry in report.history)
    assert RunReport(**json.loads(emit(report, "json"))) == report
    parsed = json.loads(emit(result, "json"))
    assert {key: tuple(value) for key, value in parsed["metrics"].items()} \
        == result.metrics


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

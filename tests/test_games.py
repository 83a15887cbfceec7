"""Payoff rules and environment invariants."""

import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediated_rl import games, harness
from mediated_rl.errors import ConfigError, ContractError
from mediated_rl.games import (GameKind, PayoffSpec, iterative_pgg, make_spec,
                               one_shot_pgg, pd_with_sacrifice,
                               prisoners_dilemma, two_step_pd)
from mediated_rl.oracle import optimal_constrained_mediator_pgg
from mediated_rl.rollout import sample_batch


def step_one(spec, turn, actions, endowments=None):
    """``step_batch`` on a batch of one episode; returns (rewards, endowments)."""
    e = None if endowments is None else np.asarray(endowments, dtype=float)[None]
    rewards, new_e = games.step_batch(spec, turn, e, np.asarray([actions]))
    return rewards[0], None if new_e is None else new_e[0]


# ---------------------------------------------------------------------------
# Construction and episode start


def test_reset_iterative_pgg_unit_endowments():
    # Rollouts start every episode at turn 0 with one unit per agent.
    config = harness.default_config("pgg-iter", num_agents=3)
    spec = config.validate()
    rng = np.random.default_rng(0)
    agents, _ = harness._build_learners(config, spec, rng)
    traj = sample_batch(spec, 1, agents, None, 4, rng)
    np.testing.assert_array_equal(traj.base[0, :, :, 0], np.ones((4, 3)))
    np.testing.assert_array_equal(traj.base[0, :, :, 1], np.zeros((4, 3)))


def test_reset_matrix_game_stateless():
    _, endowments = step_one(prisoners_dilemma(), 0, [0, 1])
    assert endowments is None


def test_reset_two_step_not_terminal():
    spec = two_step_pd()
    assert spec.horizon == 2
    step_one(spec, 1, [0, 0])  # the second turn still steps


@pytest.mark.parametrize("n", [1.0, 3.0, 5.0])
def test_invalid_pgg_multiplier_rejected(n):
    with pytest.raises(ConfigError):
        one_shot_pgg(3, n)


@pytest.mark.parametrize("n", ["2", 2j, np.complex128(2.0)])
def test_pgg_multiplier_must_be_a_real_number(n):
    with pytest.raises(ConfigError, match="real multiplier"):
        one_shot_pgg(3, n)


@pytest.mark.parametrize("count", [3.0, True, "3", None, 0, -2])
def test_agent_count_must_be_a_positive_integer(count):
    # A float count used to end in a bare TypeError, and a bool count in a
    # complaint about the multiplier.
    for build in (lambda: make_spec("pgg", count), lambda: make_spec("pgg-iter", count),
                  lambda: PayoffSpec(GameKind.ONE_SHOT_PGG, count, (2, 2, 2),
                                     multiplier=2.0),
                  lambda: optimal_constrained_mediator_pgg(count, 2.0)):
        with pytest.raises(ConfigError, match="num_agents"):
            build()


def test_a_game_keeps_read_only_copies_of_its_tables():
    tables = [[[[0, 0], [7, -5]], [[-5, 7], [2, 2]]]]
    spec = PayoffSpec(GameKind.MATRIX, 2, [2, 2], payoff_tables=tables)
    tables[0][0][0][0] = 99
    assert spec.num_actions == (2, 2)
    np.testing.assert_array_equal(spec.payoff_tables[0],
                                  prisoners_dilemma().payoff_tables[0])
    for make in (prisoners_dilemma, pd_with_sacrifice, two_step_pd):
        game = make()
        for twin in (game, copy.copy(game), copy.deepcopy(game),
                     pickle.loads(pickle.dumps(game))):
            assert twin.num_actions == game.num_actions
            for table, original in zip(twin.payoff_tables, game.payoff_tables,
                                       strict=True):
                np.testing.assert_array_equal(table, original)
                assert table.dtype == np.float64
                with pytest.raises(ValueError):
                    table[(0,) * table.ndim] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                twin.payoff_tables = None


def test_a_game_equals_only_itself_and_keys_a_dict():
    # Arrays have no single truth value, so specs compare by identity.
    for make in (prisoners_dilemma, two_step_pd, lambda: make_spec("pgg", 3, 2.0)):
        game, twin = make(), make()
        assert game == game and game != twin
        assert {game: 1, twin: 2}[game] == 1
        assert copy.deepcopy(game) != game


def test_make_spec_ids():
    assert make_spec("pd").name == "pd"
    assert make_spec("pgg-iter", 3, 2.0).kind is GameKind.ITERATIVE_PGG
    assert make_spec("pgg_iter", 3, 2.0).horizon == 10
    with pytest.raises(ConfigError):
        make_spec("nope")


# ---------------------------------------------------------------------------
# Matrix payoffs


PD_CASES = [
    ((0, 0), (0.0, 0.0)),
    ((0, 1), (7.0, -5.0)),
    ((1, 0), (-5.0, 7.0)),
    ((1, 1), (2.0, 2.0)),
]


@pytest.mark.parametrize("action,expected", PD_CASES)
def test_pd_payoffs(action, expected):
    rewards, _ = step_one(prisoners_dilemma(), 0, action)
    np.testing.assert_array_equal(rewards, expected)


def test_pds_cooperate_sacrifice():
    rewards, _ = step_one(pd_with_sacrifice(), 0, [1, 2])
    np.testing.assert_array_equal(rewards, (5.0, 0.0))


def test_two_step_pd_state0_mutual_cooperation():
    spec = two_step_pd()
    rewards, _ = step_one(spec, 0, [1, 1])
    np.testing.assert_array_equal(rewards, (-1.0, 4.0))
    # second state is the plain PD, and the last one
    rewards, _ = step_one(spec, 1, [1, 1])
    np.testing.assert_array_equal(rewards, (2.0, 2.0))
    with pytest.raises(ContractError):
        step_one(spec, 2, [1, 1])


def test_matrix_step_deterministic():
    spec = pd_with_sacrifice()
    first = step_one(spec, 0, [0, 2])[0]
    second = step_one(spec, 0, [0, 2])[0]
    np.testing.assert_array_equal(first, second)


def test_step_on_terminal_raises():
    with pytest.raises(ContractError):
        step_one(prisoners_dilemma(), 1, [0, 0])


# ---------------------------------------------------------------------------
# One-shot PGG


def test_pgg_reward_paper_example():
    rewards, _ = step_one(one_shot_pgg(3, 2.0), 0, [1, 1, 0])
    np.testing.assert_allclose(rewards, (1 / 3, 1 / 3, 4 / 3))


def test_pgg_reward_no_contributions():
    rewards, _ = step_one(one_shot_pgg(3, 2.0), 0, [0, 0, 0])
    np.testing.assert_array_equal(rewards, np.zeros(3))


def test_pgg_reward_full_contribution():
    rewards, _ = step_one(one_shot_pgg(3, 2.0), 0, [1, 1, 1])
    np.testing.assert_allclose(rewards, np.ones(3))


@pytest.mark.parametrize("n_agents", [2, 3, 5, 10])
def test_pgg_budget_identity_all_vectors(n_agents):
    # sum_i r_i == (n - 1) * sum_j c_j for every contribution vector
    mult = 1.5
    bits = np.asarray(list(itertools.product((0, 1), repeat=n_agents)))
    rewards, _ = games.step_batch(one_shot_pgg(n_agents, mult), 0, None, bits)
    np.testing.assert_allclose(rewards.sum(axis=1), (mult - 1.0) * bits.sum(axis=1),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Iterative PGG


def test_pgg_iter_full_contribution_growth():
    _, endowments = step_one(iterative_pgg(3, 2.0), 0, [1, 1, 1], np.ones(3))
    np.testing.assert_allclose(endowments, np.full(3, 1.5))


def test_pgg_iter_no_contribution_no_change():
    before = np.array([0.7, 2.0, 1.1])
    rewards, after = step_one(iterative_pgg(3, 2.0), 4, [0, 0, 0], before)
    np.testing.assert_array_equal(after, before)
    np.testing.assert_array_equal(rewards, np.zeros(3))


def test_pgg_iter_partial_contribution_values():
    # Two contributors at unit endowment: pool = 1, doubled and split three
    # ways returns 2/3 to everyone.
    rewards, new = step_one(iterative_pgg(3, 2.0), 0, [1, 1, 0], np.ones(3))
    np.testing.assert_allclose(new, (7 / 6, 7 / 6, 5 / 3))
    np.testing.assert_allclose(rewards, new - 1.0)
    # independent scalar cross-check of agent 0's endowment
    assert new[0] == pytest.approx(1.0 - 0.5 + 2.0 * 1.0 / 3.0)


def test_pgg_iter_step_after_horizon_raises():
    with pytest.raises(ContractError):
        step_one(iterative_pgg(3, 2.0), 10, [1, 1, 1], np.ones(3))


@settings(max_examples=40, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    endow=st.lists(st.floats(0.1, 50.0), min_size=3, max_size=3),
)
def test_pgg_iter_conservation(bits, endow):
    # Total endowment grows by exactly (n - 1) times the pooled contribution.
    spec = iterative_pgg(3, 2.0)
    before = np.asarray(endow)
    rewards, after = step_one(spec, 0, bits, before)
    pooled = float((0.5 * before * np.asarray(bits)).sum())
    assert after.sum() - before.sum() == pytest.approx(
        (spec.multiplier - 1.0) * pooled, rel=1e-12)
    np.testing.assert_allclose(rewards, after - before)


def test_pgg_iter_return_telescopes_to_endowment_delta():
    spec = iterative_pgg(3, 2.0)
    rng = np.random.default_rng(0)
    endow = np.ones((8, 3))
    total = np.zeros((8, 3))
    for turn in range(spec.horizon):
        rewards, endow = games.step_batch(spec, turn, endow,
                                          rng.integers(0, 2, size=(8, 3)))
        total += rewards
    np.testing.assert_allclose(total, endow - 1.0)


# ---------------------------------------------------------------------------
# Batch stepping agrees with the scalar rule


def reference_step(spec, turn, endow, action):
    """One episode's (rewards, new endowments), written out per game."""
    if spec.kind is GameKind.MATRIX:
        return spec.payoff_tables[turn][tuple(action)], None
    c = np.asarray(action, dtype=float)
    ratio = spec.multiplier / spec.num_agents
    if spec.kind is GameKind.ONE_SHOT_PGG:
        return ratio * c.sum() - c, None
    paid = 0.5 * endow * c
    new = endow - paid + ratio * paid.sum()
    return new - endow, new


@pytest.mark.parametrize("env", ["pd", "pds", "pd2", "pgg", "pgg-iter"])
def test_step_batch_matches_scalar(env):
    spec = make_spec(env, 3, 2.0)
    rng = np.random.default_rng(1)
    batch = 16
    endow = np.ones((batch, spec.num_agents)) \
        if spec.kind is GameKind.ITERATIVE_PGG else None
    for turn in range(spec.horizon):
        actions = np.stack([rng.integers(0, spec.num_actions[i], size=batch)
                            for i in range(spec.num_agents)], axis=1)
        rewards, new_endow = games.step_batch(spec, turn, endow, actions)
        for b in range(batch):
            expected, expected_endow = reference_step(
                spec, turn, None if endow is None else endow[b], actions[b])
            np.testing.assert_allclose(rewards[b], expected, atol=1e-12)
            if endow is not None:
                np.testing.assert_allclose(new_endow[b], expected_endow, atol=1e-12)
        endow = new_endow


def test_obs_layouts():
    assert games.obs_dim(prisoners_dilemma()) == 1
    assert games.obs_dim(two_step_pd()) == 1
    assert games.obs_dim(iterative_pgg(3, 2.0)) == 2
    obs = games.base_obs_batch(two_step_pd(), 1, None, 4)
    np.testing.assert_array_equal(obs, np.full((4, 2, 1), 0.5))
    obs = games.base_obs_batch(prisoners_dilemma(), 0, None, 2)
    np.testing.assert_array_equal(obs, np.ones((2, 2, 1)))
    endow = np.array([[1.0, 2.0, 3.0]])
    obs = games.base_obs_batch(iterative_pgg(3, 2.0), 5, endow, 1)
    np.testing.assert_array_equal(obs[0, :, 0], endow[0])
    np.testing.assert_array_equal(obs[0, :, 1], np.full(3, 0.5))

"""Trajectory sampling protocol and training-batch assembly."""

import numpy as np
import pytest

from mediated_rl import games
from mediated_rl.agents import AgentLearner, LearnerParams
from mediated_rl.approx import (EntropySchedule, masked_softmax, policy_loss,
                               sample_categorical)
from mediated_rl.harness import _build_learners, default_config
from mediated_rl.mediation import FREE, legal_action_mask_batch
from mediated_rl.rollout import (build_agent_batch, build_mediator_batch,
                                 mediator_actor_inputs, sample_agent_actions,
                                 sample_batch, window_reward_sums)


def learners_for(env, mediator_mode="naive", k=1, num_agents=3, seed=0):
    config = default_config(env, mediator_mode, k=k, num_agents=num_agents,
                            seeds=(seed,))
    spec = config.validate()
    rng = np.random.default_rng(seed)
    agents, mediator = _build_learners(config, spec, rng)
    return config, spec, rng, agents, mediator


def test_one_shot_trajectory_shapes():
    config, spec, rng, agents, mediator = learners_for("pd")
    traj = sample_batch(spec, 1, agents, mediator, 32, rng)
    assert traj.reward.shape == (1, 32, 2)
    assert traj.base.shape == (2, 32, 2, 1)
    assert traj.status.shape == (1, 32, 2)
    assert np.all(traj.status == FREE)


def test_coalition_matches_commit_choices():
    config, spec, rng, agents, mediator = learners_for("pd")
    traj = sample_batch(spec, 1, agents, mediator, 64, rng)
    np.testing.assert_array_equal(traj.member[0], traj.choice[0] == 2)


def test_env_action_substitution_by_membership():
    # Members execute the mediator's action; everyone else their own choice.
    config, spec, rng, agents, mediator = learners_for("pgg", num_agents=3)
    traj = sample_batch(spec, 1, agents, mediator, 64, rng)
    member = traj.member
    np.testing.assert_array_equal(traj.env_action[member],
                                  traj.med_action[member])
    np.testing.assert_array_equal(traj.env_action[~member],
                                  traj.choice[~member])
    assert np.all(traj.med_action[~member] == -1)
    assert np.all(traj.med_action[member] >= 0)


def test_coalition_constant_within_windows_in_rollout():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=5)
    traj = sample_batch(spec, 5, agents, mediator, 16, rng)
    for t in range(1, spec.horizon):
        if t % 5 != 0:
            np.testing.assert_array_equal(traj.member[t], traj.member[t - 1])


def test_statuses_follow_windows():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=5)
    traj = sample_batch(spec, 5, agents, mediator, 16, rng)
    assert np.all(traj.status[0] == 0)
    assert np.all(traj.status[5] == 0)
    for t in (1, 2, 3, 4, 6, 7, 8, 9):
        np.testing.assert_array_equal(traj.status[t] == 1, traj.member[t])


def test_masked_actions_never_sampled_in_rollout():
    # Locked-out agents never choose commit; committed agents always do.
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=10)
    traj = sample_batch(spec, 10, agents, mediator, 32, rng)
    locked = traj.status == -1
    assert not np.any(traj.choice[locked] == 2)
    forced = traj.status == 1
    assert np.all(traj.choice[forced] == 2)


def test_rewards_match_env_actions():
    config, spec, rng, agents, mediator = learners_for("pd")
    traj = sample_batch(spec, 1, agents, mediator, 32, rng)
    table = spec.payoff_tables[0]
    expected = table[traj.env_action[0, :, 0], traj.env_action[0, :, 1]]
    np.testing.assert_array_equal(traj.reward[0], expected)


def test_unmediated_rollout_has_no_commit():
    config, spec, rng, agents, mediator = learners_for("pd", "none")
    assert mediator is None
    traj = sample_batch(spec, 1, agents, None, 32, rng)
    assert traj.choice.max() <= 1
    assert not traj.member.any()


def test_rollout_deterministic_given_seed():
    c1, spec, rng1, agents1, med1 = learners_for("pgg", seed=9)
    c2, _, rng2, agents2, med2 = learners_for("pgg", seed=9)
    t1 = sample_batch(spec, 1, agents1, med1, 16, rng1)
    t2 = sample_batch(spec, 1, agents2, med2, 16, rng2)
    np.testing.assert_array_equal(t1.choice, t2.choice)
    np.testing.assert_array_equal(t1.reward, t2.reward)
    np.testing.assert_array_equal(t1.med_action, t2.med_action)


# ---------------------------------------------------------------------------
# Window reward sums and agent batches


def test_window_reward_sums_discounting():
    rewards = np.arange(6, dtype=float).reshape(6, 1)  # single episode column
    sums, ends = window_reward_sums(rewards, k=3, gamma=0.5)
    assert ends[0] == 3 and ends[3] == 6
    assert sums[0, 0] == pytest.approx(0 + 0.5 * 1 + 0.25 * 2)
    assert sums[3, 0] == pytest.approx(3 + 0.5 * 4 + 0.25 * 5)


def test_window_reward_sums_truncated_final_window():
    rewards = np.ones((5, 1))
    sums, ends = window_reward_sums(rewards, k=3, gamma=1.0)
    assert ends[3] == 5
    assert sums[3, 0] == pytest.approx(2.0)  # two steps remain


def test_agent_batch_excludes_committed_steps():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=10)
    traj = sample_batch(spec, 10, agents, mediator, 32, rng)
    for agent in agents:
        batch = build_agent_batch(traj, agent, 10, 0.99)
        statuses = traj.status[:, :, agent.index]
        assert len(batch) == int((statuses != 1).sum())


def test_agent_batch_k_step_targets_on_commitment():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=10)
    traj = sample_batch(spec, 10, agents, mediator, 64, rng)
    agent = agents[0]
    batch = build_agent_batch(traj, agent, 10, 0.99)
    committed = traj.member[0, :, 0]
    # Episodes where agent 0 committed at t=0: the (only) trainable step for
    # that window carries the full discounted episode reward, no bootstrap.
    gamma_pow = 0.99 ** np.arange(10)
    expected = np.einsum("t,tb->b", gamma_pow, traj.reward[:, :, 0])
    # trainable rows are ordered t-major, so the t=0 rows come first
    first_block = batch.reward_sum[:64]
    np.testing.assert_allclose(first_block[committed],
                               expected[committed], rtol=1e-12)
    np.testing.assert_allclose(batch.bootstrap_coef[:64][committed], 0.0)
    # uncommitted agents at t=0 keep the 1-step target
    uncommitted = ~committed
    np.testing.assert_allclose(first_block[uncommitted],
                               traj.reward[0, uncommitted, 0], rtol=1e-12)


def test_agent_batch_one_step_bootstrap_coef():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=1)
    traj = sample_batch(spec, 1, agents, mediator, 8, rng)
    batch = build_agent_batch(traj, agents[0], 1, 0.99)
    rows = len(batch)
    # horizon 10, batch 8: all steps trainable at k=1
    assert rows == 80
    coefs = batch.bootstrap_coef.reshape(10, 8)
    assert np.all(coefs[:-1] == 0.99)
    assert np.all(coefs[-1] == 0.0)


# ---------------------------------------------------------------------------
# Mediator batches


def test_mediator_batch_layout_and_next_inputs():
    config, spec, rng, agents, mediator = learners_for("pd2", k=1)
    traj = sample_batch(spec, 1, agents, mediator, 16, rng)
    batch = build_mediator_batch(traj, mediator)
    assert batch.critic_cur.shape[0] == 2 * 16
    # actor rows correspond exactly to coalition members
    assert batch.actor_actions.shape[0] == int(traj.member.sum())
    assert np.all(batch.actor_actions >= 0)
    # step s bootstraps from step s + batch; the last step of every episode
    # does not bootstrap
    deltas, _ = mediator.td_residuals(batch)
    values = mediator.agent_values(mediator.critic.forward(batch.critic_cur),
                                   batch.member)
    np.testing.assert_allclose(
        deltas[:16], batch.rewards[:16] + 0.99 * values[16:] - values[:16],
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(deltas[16:], batch.rewards[16:] - values[16:],
                               rtol=1e-12, atol=1e-12)


def test_mediator_batch_actor_masks_heterogeneous_actions():
    # The cached policy gives agent 0's missing sacrifice action no mass.
    config, spec, rng, agents, mediator = learners_for("pds")
    traj = sample_batch(spec, 1, agents, mediator, 64, rng)
    batch = build_mediator_batch(traj, mediator)
    agent0_rows = batch.actor_agent == 0
    agent1_rows = batch.actor_agent == 1
    if agent0_rows.any():
        np.testing.assert_array_equal(
            batch.actor_probs[agent0_rows][:, 2], 0.0)
    if agent1_rows.any():
        assert (batch.actor_probs[agent1_rows] > 0.0).all()
    np.testing.assert_allclose(batch.actor_probs.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# Cached activations: same draws and same gradients as fresh passes


def reference_rollout(spec, k, agents, mediator, batch, rng):
    """The per-agent sampling loop: each agent's masked policy and draw in
    turn, then the mediator's. Returns (choice, med_action)."""
    t_max, n = spec.horizon, spec.num_agents
    choice = np.empty((t_max, batch, n), dtype=np.int64)
    med_action = np.full((t_max, batch, n), -1, dtype=np.int64)
    endow = (np.ones((batch, n))
             if spec.kind is games.GameKind.ITERATIVE_PGG else None)
    coalition = np.zeros((batch, n), dtype=bool)
    for t in range(t_max):
        base = games.base_obs_batch(spec, t, endow, batch)
        status = (np.zeros((batch, n), dtype=np.int64) if t % k == 0
                  else np.where(coalition, 1, -1))
        for i, agent in enumerate(agents):
            obs = base[:, i]
            if agent.status_feature:
                obs = np.concatenate([obs, status[:, i, None]], axis=1)
            if mediator is None:
                masks = np.ones((batch, agent.num_actions), dtype=bool)
            else:
                masks = legal_action_mask_batch(status[:, i],
                                                agent.num_env_actions)
            choice[t, :, i] = sample_categorical(agent.policy(obs, masks), rng)
        env_action = choice[t].copy()
        if mediator is not None:
            if t % k == 0:
                coalition = choice[t] == np.asarray(spec.num_actions)
            rows_b, rows_i = np.nonzero(coalition)
            if rows_b.size:
                actor_in = mediator_actor_inputs(mediator, base, coalition,
                                                 rows_b, rows_i)
                acts = sample_categorical(mediator.policy(actor_in, rows_i), rng)
                med_action[t, rows_b, rows_i] = acts
                env_action[rows_b, rows_i] = acts
        _, endow = games.step_batch(spec, t, endow, env_action)
    return choice, med_action


@pytest.mark.parametrize("env,mode,k", [
    ("pds", "constrained", 1), ("pds", "none", 1), ("pd2", "naive", 2),
    ("pgg", "constrained", 1), ("pgg-iter", "constrained", 10),
    ("pgg-iter", "naive", 5), ("pgg-iter", "none", 1)])
def test_rollout_draws_match_per_agent_reference(env, mode, k):
    # One draw over all agents consumes the generator agent-major, exactly
    # like each agent drawing in turn, including unequal action counts.
    config, spec, rng, agents, mediator = learners_for(env, mode, k=k, seed=3)
    state = rng.bit_generator.state
    traj = sample_batch(spec, k, agents, mediator, 48, rng)
    after = rng.random()
    rng.bit_generator.state = state
    choice, med_action = reference_rollout(spec, k, agents, mediator, 48, rng)
    np.testing.assert_array_equal(traj.choice, choice)
    np.testing.assert_array_equal(traj.med_action, med_action)
    assert rng.random() == after


def test_agent_draws_match_per_agent_sampling():
    # pds-like padding: agent 0 has 3 actions padded to 4, agent 1 has 4.
    # Rows summing below 1 stand in for rounding: the cap keeps agent 0
    # off its padding column, as its own unpadded draw would.
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=(2, 500))
    probs[0, :, 3] = 0.0
    probs[:, ::2] *= 0.8
    num_actions = np.array([3, 4])
    joint = sample_agent_actions(probs, num_actions, np.random.default_rng(1))
    reference_rng = np.random.default_rng(1)
    for i, a in enumerate(num_actions):
        np.testing.assert_array_equal(
            joint[i], sample_categorical(probs[i, :, :a], reference_rng))
    assert joint[0].max() == 2


def fresh_agent_pass(traj, agent):
    """Actor activations and masked policy at the agent's trainable steps,
    recomputed from the trajectory."""
    i = agent.index
    t_idx, b_idx = np.nonzero(traj.status[:, :, i] != 1)
    obs = traj.base[t_idx, b_idx, i]
    if agent.status_feature:
        obs = np.concatenate(
            [obs, traj.status[t_idx, b_idx, i, None].astype(float)], axis=1)
    if agent.mediated:
        masks = legal_action_mask_batch(traj.status[t_idx, b_idx, i],
                                        agent.num_env_actions)
    else:
        masks = np.ones((t_idx.size, agent.num_actions), dtype=bool)
    logits, acts = agent.actor.forward_cached(obs)
    return acts, masked_softmax(logits, masks)


@pytest.mark.parametrize("env,k", [("pds", 1), ("pgg-iter", 10), ("pgg-iter", 5)])
def test_cached_gradients_match_fresh_forward(env, k):
    config, spec, rng, agents, mediator = learners_for(env, "constrained", k=k)
    traj = sample_batch(spec, k, agents, mediator, 64, rng)
    for agent in agents:
        batch = build_agent_batch(traj, agent, k, 0.99)
        acts, probs = fresh_agent_pass(traj, agent)
        weights = np.random.default_rng(agent.index).normal(size=len(batch))
        cached = policy_loss(agent.actor, batch.actor_acts, batch.probs,
                             batch.actions, weights, 0.1)
        fresh = policy_loss(agent.actor, acts, probs, batch.actions, weights, 0.1)
        assert cached[0] == pytest.approx(fresh[0], abs=1e-12)
        np.testing.assert_allclose(cached[1], fresh[1], rtol=0, atol=1e-12)
    batch = build_mediator_batch(traj, mediator)
    assert batch.actor_actions.size > 0
    steps = batch.actor_step
    coalition = batch.member[steps]
    base = traj.base[:spec.horizon].reshape(-1, spec.num_agents,
                                            traj.base.shape[-1])[steps]
    actor_in = mediator_actor_inputs(mediator, base, coalition,
                                     np.arange(steps.size), batch.actor_agent)
    logits, acts = mediator.actor.forward_cached(actor_in)
    probs = masked_softmax(logits, mediator.action_masks(batch.actor_agent))
    weights = np.random.default_rng(9).normal(size=steps.size)
    cached = policy_loss(mediator.actor, batch.actor_acts, batch.actor_probs,
                         batch.actor_actions, weights, 0.1)
    fresh = policy_loss(mediator.actor, acts, probs, batch.actor_actions,
                        weights, 0.1)
    assert cached[0] == pytest.approx(fresh[0], abs=1e-12)
    np.testing.assert_allclose(cached[1], fresh[1], rtol=0, atol=1e-12)


def test_agent_batch_bootstraps_from_own_records():
    # k=5 over horizon 10: a commit decision bootstraps from the next
    # window's start, any other step from the next step, and both are
    # records of the same batch.
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=5)
    traj = sample_batch(spec, 5, agents, mediator, 64, rng)
    for agent in agents:
        batch = build_agent_batch(traj, agent, 5, 0.99)
        turn = batch.critic_obs[:, 1] * spec.horizon
        boot_turn = batch.critic_obs[batch.boot_rows, 1] * spec.horizon
        live = batch.bootstrap_coef > 0
        assert live.any()
        np.testing.assert_allclose(
            batch.bootstrap_coef[live], 0.99 ** (boot_turn - turn)[live])
        assert np.all(np.isin(np.round(boot_turn - turn)[live], (1, 5)))

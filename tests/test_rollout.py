"""Trajectory sampling protocol and training-batch assembly."""

from types import SimpleNamespace

import numpy as np
import pytest

from mediated_rl import games
from mediated_rl.approx import (Mlp, masked_softmax, policy_loss,
                                sample_categorical)
from mediated_rl.harness import _build_learners, default_config
from mediated_rl.mediation import FREE, legal_action_mask_batch
from mediated_rl.rollout import (build_agent_batch, build_mediator_batch,
                                 sample_batch)


def learners_for(env, mediator_mode="naive", k=1, num_agents=None, seed=0):
    config = default_config(env, mediator_mode, k=k, num_agents=num_agents)
    spec = config.validate()
    rng = np.random.default_rng(seed)
    agents, mediator = _build_learners(config, spec, rng)
    return config, spec, rng, agents, mediator


def test_one_shot_trajectory_shapes():
    config, spec, rng, agents, mediator = learners_for("pd")
    traj = sample_batch(spec, 1, agents, mediator, 32, rng)
    assert traj.reward.shape == (1, 32, 2)
    assert traj.base.shape == (1, 32, 2, 1)
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
    executed = np.where(member, traj.med_action, traj.choice)
    np.testing.assert_array_equal(
        traj.reward[0], games.step_batch(spec, 0, None, executed[0])[0])
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
    executed = np.where(traj.member, traj.med_action, traj.choice)
    expected = table[executed[0, :, 0], executed[0, :, 1]]
    np.testing.assert_array_equal(traj.reward[0], expected)


def test_unmediated_rollout_has_no_commit():
    config, spec, rng, agents, mediator = learners_for("pd", "none")
    assert mediator is None
    traj = sample_batch(spec, 1, agents, None, 32, rng)
    assert traj.choice.max() <= 1
    assert not traj.member.any()


def test_mediated_batch_without_members_has_empty_mediator_caches():
    # Nobody commits, so the mediator draws nothing: the generator ends where
    # the reference, which skips the mediator, leaves it, and the update
    # still runs. A multi-step game runs the actor on zero rows, so its
    # caches are empty arrays of the actor's widths; a one-shot game's hold
    # its state table, N + 1 rows in the PGG and N * 2^N elsewhere.
    for env in ("pd", "pds", "pd2", "pgg", "pgg-iter"):
        config, spec, rng, agents, mediator = learners_for(env, "constrained")
        for i, commit in enumerate(agents.num_env_actions):
            agents.actor.biases[-1][i, commit] = -1e3
        state = rng.bit_generator.state
        traj = sample_batch(spec, 1, agents, mediator, 32, rng)
        after = rng.random()
        rng.bit_generator.state = state
        reference_rollout(spec, 1, agents, mediator, 32, rng)
        assert rng.random() == after
        assert not traj.member.any()
        n = spec.num_agents
        rows = (0 if spec.horizon > 1 else n + 1 if mediator.symmetric
                else n * 2 ** n)
        assert ([a.shape for a in traj.med_acts]
                == [(rows, width) for width in mediator.actor.sizes])
        assert traj.med_probs.shape == (rows, mediator.max_env_actions)
        mediator.update(build_mediator_batch(traj, mediator), 0.1, 1)


def test_rollout_deterministic_given_seed():
    c1, spec, rng1, agents1, med1 = learners_for("pgg", seed=9)
    c2, _, rng2, agents2, med2 = learners_for("pgg", seed=9)
    t1 = sample_batch(spec, 1, agents1, med1, 16, rng1)
    t2 = sample_batch(spec, 1, agents2, med2, 16, rng2)
    np.testing.assert_array_equal(t1.choice, t2.choice)
    np.testing.assert_array_equal(t1.reward, t2.reward)
    np.testing.assert_array_equal(t1.med_action, t2.med_action)


# ---------------------------------------------------------------------------
# Agent batches


def test_agent_batch_excludes_committed_steps():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=10)
    traj = sample_batch(spec, 10, agents, mediator, 32, rng)
    batch = build_agent_batch(traj, 10, 0.99)
    for i in range(spec.num_agents):
        statuses = traj.status[:, :, i].ravel()
        np.testing.assert_array_equal(batch.keep[i], statuses != 1)
    assert batch.keep.sum() == int((traj.status != 1).sum())
    assert len(batch) == 10 * 32


def test_agent_batch_k_step_targets_on_commitment():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=10)
    traj = sample_batch(spec, 10, agents, mediator, 64, rng)
    batch = build_agent_batch(traj, 10, 0.99)
    committed = traj.member[0, :, 0]
    # Episodes where agent 0 committed at t=0: the (only) trainable step for
    # that window carries the full discounted episode reward, no bootstrap.
    gamma_pow = 0.99 ** np.arange(10)
    expected = np.einsum("t,tb->b", gamma_pow, traj.reward[:, :, 0])
    # rows are ordered t-major, so the t=0 rows come first
    first_block = batch.reward_sum[0, :64]
    np.testing.assert_allclose(first_block[committed],
                               expected[committed], rtol=1e-12)
    np.testing.assert_allclose(batch.bootstrap_coef[0, :64][committed], 0.0)
    # uncommitted agents at t=0 keep the 1-step target
    uncommitted = ~committed
    np.testing.assert_allclose(first_block[uncommitted],
                               traj.reward[0, uncommitted, 0], rtol=1e-12)


def test_agent_batch_cut_windows_at_k3():
    # k=3 over horizon 10: windows start at 0, 3, 6 and 9. A commit at 3 or
    # 6 takes its 3-step discounted return and bootstraps 3 steps on; the
    # window at 9 is cut to one step and ends the episode.
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=3)
    traj = sample_batch(spec, 3, agents, mediator, 64, rng)
    gamma, b = 0.9, traj.batch
    batch = build_agent_batch(traj, 3, gamma)
    for i in range(spec.num_agents):
        for t in (3, 6, 9):
            episodes = np.flatnonzero(traj.member[t, :, i])
            assert episodes.size
            rows = t * b + episodes
            end = min(t + 3, spec.horizon)
            window_return = sum(gamma ** (s - t) * traj.reward[s, episodes, i]
                                for s in range(t, end))
            np.testing.assert_allclose(batch.reward_sum[i, rows],
                                       window_return, rtol=1e-12)
            if t < 9:
                np.testing.assert_array_equal(batch.boot_rows[i, rows],
                                              (t + 3) * b + episodes)
                np.testing.assert_allclose(batch.bootstrap_coef[i, rows],
                                           gamma ** 3, rtol=1e-15)
            else:
                np.testing.assert_array_equal(batch.bootstrap_coef[i, rows], 0.0)


@pytest.mark.parametrize("env,k", [("pd2", 2), ("pgg-iter", 5)])
def test_commit_decisions_by_membership_match_commit_choices(env, k):
    # Membership at a window start is the commit choice made there.
    config, spec, rng, agents, mediator = learners_for(env, k=k)
    traj = sample_batch(spec, k, agents, mediator, 64, rng)
    start = traj.status == FREE
    by_member = start & traj.member
    assert by_member.any()
    np.testing.assert_array_equal(
        by_member, start & (traj.choice == np.asarray(spec.num_actions)))


def test_agent_batch_one_step_bootstrap_coef():
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=1)
    traj = sample_batch(spec, 1, agents, mediator, 8, rng)
    batch = build_agent_batch(traj, 1, 0.99)
    # horizon 10, batch 8, 3 agents: all steps trainable at k=1
    assert batch.keep.sum() == 240
    coefs = batch.bootstrap_coef[0].reshape(10, 8)
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
    critic_out = mediator.critic.forward(batch.critic_cur[None])[0]
    values = mediator.agent_values(critic_out, batch.member)
    np.testing.assert_allclose(
        deltas[:16], batch.rewards[:16] + 0.99 * values[16:] - values[:16],
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(deltas[16:], batch.rewards[16:] - values[16:],
                               rtol=1e-12, atol=1e-12)


def test_constraint_gaps_sum_each_window_at_k3():
    # IC gaps average each member's discounted window sum of
    # V_i(C) - V_i(C minus i) over the windows it joined; E gaps each
    # outsider's sum of V_j(C plus j) - V_j(C) over the windows it skipped.
    config, spec, rng, agents, mediator = learners_for("pgg-iter",
                                                       "constrained", k=3)
    traj = sample_batch(spec, 3, agents, mediator, 16, rng)
    batch = build_mediator_batch(traj, mediator)
    actual, flipped = mediator.counterfactual_values(batch.critic_cur,
                                                     batch.member)
    t_max, b, n = traj.reward.shape
    gain = (flipped - actual).reshape(t_max, b, n)
    totals, counts = np.zeros((2, n)), np.zeros((2, n))
    for start in range(0, t_max, 3):
        for e in range(b):
            for i in range(n):
                side = 0 if traj.member[start, e, i] else 1
                sign = -1.0 if side == 0 else 1.0
                totals[side, i] += sum(
                    mediator.gamma ** (t - start) * sign * gain[t, e, i]
                    for t in range(start, min(start + 3, t_max)))
                counts[side, i] += 1
    ic_gaps, ic_valid, e_gaps, e_valid = mediator._constraint_gaps(batch, 3)
    assert ic_valid.all() and e_valid.all()
    np.testing.assert_allclose([ic_gaps, e_gaps], totals / counts,
                               rtol=1e-10, atol=1e-12)


def test_mediator_batch_actor_masks_heterogeneous_actions():
    # The cached policy gives agent 0's missing sacrifice action no mass.
    # pds is one-shot: the cache holds the game's 8 states.
    config, spec, rng, agents, mediator = learners_for("pds")
    traj = sample_batch(spec, 1, agents, mediator, 64, rng)
    batch = build_mediator_batch(traj, mediator)
    assert len(batch.actor_probs) == 8 < len(batch.actor_rows)
    probs = batch.actor_probs[batch.actor_rows]
    agent0_rows = batch.actor_agent == 0
    agent1_rows = batch.actor_agent == 1
    if agent0_rows.any():
        np.testing.assert_array_equal(probs[agent0_rows][:, 2], 0.0)
    if agent1_rows.any():
        assert (probs[agent1_rows] > 0.0).all()
    np.testing.assert_allclose(batch.actor_probs.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# Cached activations: same draws and same gradients as fresh passes


def hand_mediator_rows(mediator, base, coalition, rows_b, rows_i):
    """Mediator actor rows written out here: the member's observation, then
    |C|/N for the symmetric mediator, else the coalition and member one-hots."""
    obs = base[rows_b, rows_i]
    if mediator.symmetric:
        return np.concatenate([obs, coalition.mean(axis=1)[rows_b, None]],
                              axis=1)
    ids = np.eye(coalition.shape[1])[rows_i]
    return np.concatenate([obs, coalition[rows_b].astype(float), ids], axis=1)


def slice_net(net, i):
    """Slice ``i`` of a stacked network, as a network of its own."""
    alone = Mlp(net.sizes)
    alone.theta[:] = net.theta[i]
    return alone


def agent_policy(agents, i, obs, status, mediated):
    """Agent ``i``'s masked policy over its own actions, computed alone
    from its rows ``obs`` (M, obs width) and statuses (M,)."""
    if agents.status_feature:
        obs = np.concatenate([obs, status[:, None]], axis=1)
    a = agents.num_actions[i]
    if mediated:
        masks = legal_action_mask_batch(status, agents.num_env_actions[i])
    else:
        masks = np.ones((obs.shape[0], a), dtype=bool)
    logits = slice_net(agents.actor, i).forward(obs[None])[0, :, :a]
    return masked_softmax(logits, masks)


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
        for i in range(n):
            probs = agent_policy(agents, i, base[:, i], status[:, i],
                                 mediator is not None)
            choice[t, :, i] = sample_categorical(probs, rng)
        env_action = choice[t].copy()
        if mediator is not None:
            if t % k == 0:
                coalition = choice[t] == np.asarray(spec.num_actions)
            rows_b, rows_i = np.nonzero(coalition)
            if rows_b.size:
                actor_in = hand_mediator_rows(mediator, base, coalition,
                                              rows_b, rows_i)
                probs = masked_softmax(
                    slice_net(mediator.actor, 0).forward(actor_in[None])[0],
                    mediator.action_masks(rows_i))
                acts = sample_categorical(probs, rng)
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
    # Rows summing below 1 stand in for rounding: agent 0 never draws its
    # padding column, and each agent draws what its own unpadded draw would.
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=(2, 500))
    probs[0, :, 3] = 0.0
    probs[:, ::2] *= 0.8
    num_actions = np.array([3, 4])
    joint = sample_categorical(probs, np.random.default_rng(1))
    reference_rng = np.random.default_rng(1)
    for i, a in enumerate(num_actions):
        np.testing.assert_array_equal(
            joint[i], sample_categorical(probs[i, :, :a], reference_rng))
    assert joint[0].max() == 2


def test_committed_agents_keep_committing_on_a_zero_uniform():
    # pd2 with k = 2: a high uniform makes both agents commit at step 0, so
    # at step 1 their policies are [0, 0, 1]. A uniform of 0.0 there must
    # still draw the commit, not the zero-probability column 0.
    _, spec, _, agents, mediator = learners_for("pd2", "naive", k=2)
    # One uniform per draw: agents, mediator, agents, mediator.
    uniforms = iter([0.99, 0.5, 0.0, 0.5])
    stub = SimpleNamespace(random=lambda shape: np.full(shape, next(uniforms)))
    traj = sample_batch(spec, 2, agents, mediator, 8, stub)
    assert traj.member.all()
    np.testing.assert_array_equal(traj.choice, 2)


def fresh_agent_pass(traj, agents):
    """Every agent's actor activations and masked policy at every step,
    recomputed from the trajectory in one pass."""
    n = traj.status.shape[2]
    base = traj.base.reshape(-1, n, traj.base.shape[-1])
    status = traj.status.reshape(-1, n)
    masks = legal_action_mask_batch(status.T, agents.num_env_actions[:, None])
    logits, acts = agents.actor.forward_cached(agents.actor_inputs(base, status))
    return acts, masked_softmax(logits, masks)


@pytest.mark.parametrize("env,k", [("pds", 1), ("pgg-iter", 10), ("pgg-iter", 5)])
def test_cached_gradients_match_fresh_forward(env, k):
    config, spec, rng, agents, mediator = learners_for(env, "constrained", k=k)
    traj = sample_batch(spec, k, agents, mediator, 64, rng)
    batch = build_agent_batch(traj, k, 0.99)
    acts, probs = fresh_agent_pass(traj, agents)
    weights = np.random.default_rng(0).normal(size=batch.actions.shape)
    one_row = spec.horizon == 1  # every record on the one row
    cached = policy_loss(agents.actor, batch.actor_acts, batch.probs,
                         batch.actions, weights, 0.1, batch.keep,
                         np.zeros(len(batch), np.intp) if one_row else None)
    fresh = policy_loss(agents.actor, acts, probs, batch.actions, weights, 0.1,
                        batch.keep)
    np.testing.assert_allclose(cached[0], fresh[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(cached[1], fresh[1], rtol=0, atol=1e-12)
    batch = build_mediator_batch(traj, mediator)
    assert batch.actor_actions.size > 0
    steps = batch.actor_step
    coalition = batch.member[steps]
    base = traj.base.reshape(-1, spec.num_agents, traj.base.shape[-1])[steps]
    actor_in = hand_mediator_rows(mediator, base, coalition,
                                  np.arange(steps.size), batch.actor_agent)
    logits, acts = mediator.actor.forward_cached(actor_in[None])
    probs = masked_softmax(logits[0], mediator.action_masks(batch.actor_agent))
    weights = np.random.default_rng(9).normal(size=(1, steps.size))
    keep = np.ones((1, steps.size), dtype=bool)
    assert (batch.actor_rows is None) != one_row
    cached = policy_loss(mediator.actor, [a[None] for a in batch.actor_acts],
                         batch.actor_probs[None], batch.actor_actions[None],
                         weights, 0.1, keep, batch.actor_rows)
    fresh = policy_loss(mediator.actor, acts, probs[None],
                        batch.actor_actions[None], weights, 0.1, keep)
    np.testing.assert_allclose(cached[0], fresh[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(cached[1], fresh[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("env,k", [("pd2", 2), ("pds", 1), ("pgg", 1),
                                   ("pgg-iter", 10)])
def test_policy_queries_match_the_rollout(env, k):
    # Evaluation queries a learner's policy through the same rows and masks
    # the rollout samples with. A one-shot game stores one row, which
    # stands for every episode: a query of any of its rows, alone or all
    # together, returns that row.
    config, spec, rng, agents, mediator = learners_for(env, "constrained", k=k)
    traj = sample_batch(spec, k, agents, mediator, 64, rng)
    per_step = 1 if spec.horizon == 1 else traj.batch
    assert traj.agent_probs.shape[1] == spec.horizon * per_step
    queried = 0
    for t in range(spec.horizon):
        for i in range(spec.num_agents):
            for s in (0, -1):
                rows = np.flatnonzero(traj.status[t, :, i] == s)
                if rows.size == 0:
                    continue
                queried += rows.size
                groups = [rows] if per_step > 1 else [rows, *rows[:, None]]
                for group in groups:
                    stored = group if per_step > 1 else np.array([0])
                    np.testing.assert_allclose(
                        agents.policy(traj.base[t, group], s)[0][i],
                        traj.agent_probs[i, t * per_step + stored],
                        rtol=0, atol=1e-12)
    assert queried > 0
    # Mediator samples are listed t-major, as the rollout drew them; a
    # one-shot game stores its state table and each sample's row.
    stored = (traj.med_probs if traj.med_rows is None
              else traj.med_probs[traj.med_rows])
    sample = 0
    for t in range(spec.horizon):
        for e in np.flatnonzero(traj.member[t].any(axis=1)):
            probs, _, rows = mediator.policy(traj.base[t, [e]],
                                             traj.member[t, [e]])
            for row in probs if rows is None else probs[rows]:
                np.testing.assert_allclose(row, stored[sample],
                                           rtol=0, atol=1e-12)
                sample += 1
    assert sample == len(stored) > 0


def test_agent_batch_bootstraps_from_own_records():
    # k=5 over horizon 10: a commit decision bootstraps from the next
    # window's start, any other step from the next step, and both are
    # records of the same batch.
    config, spec, rng, agents, mediator = learners_for("pgg-iter", k=5)
    traj = sample_batch(spec, 5, agents, mediator, 64, rng)
    batch = build_agent_batch(traj, 5, 0.99)
    for i in range(spec.num_agents):
        turn = batch.critic_obs[i, :, 1] * spec.horizon
        boot_turn = batch.critic_obs[i, batch.boot_rows[i], 1] * spec.horizon
        live = (batch.bootstrap_coef[i] > 0) & batch.keep[i]
        assert live.any()
        assert batch.keep[i, batch.boot_rows[i, live]].all()
        np.testing.assert_allclose(
            batch.bootstrap_coef[i, live], 0.99 ** (boot_turn - turn)[live])
        assert np.all(np.isin(np.round(boot_turn - turn)[live], (1, 5)))

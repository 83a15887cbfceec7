"""Actor-critic learner arithmetic: targets, losses, step filtering."""

import numpy as np
import pytest

from mediated_rl import games
from mediated_rl.agents import (AgentBatch, AgentLearner, LearnerParams,
                                filter_trainable_steps, td_targets)
from mediated_rl.approx import EntropySchedule, Mlp, masked_softmax, policy_loss


def make_params(hidden=8):
    return LearnerParams(
        lr_actor=1e-2, lr_critic=1e-2, hidden=hidden,
        entropy=EntropySchedule("linear", start=0.0, decay=0.0, minimum=0.0))


def make_agent(seed=0, mediated=True):
    """Agent 0 of the one-shot PD: one observation column, two env actions."""
    return AgentLearner(0, games.prisoners_dilemma(), make_params(),
                        rng=np.random.default_rng(seed), mediated=mediated)


def constant_batch(agent, rewards, actions, masks, coefs=None):
    """Records on a constant observation, with the actor activations and
    policy a rollout would have cached; each bootstraps from itself."""
    m = len(rewards)
    _, acts = agent.actor.forward_cached(np.ones((m, 1)))
    return AgentBatch(
        critic_obs=np.ones((m, 1)),
        actions=np.asarray(actions),
        reward_sum=np.asarray(rewards, dtype=float),
        boot_rows=np.arange(m),
        bootstrap_coef=np.zeros(m) if coefs is None else np.asarray(coefs),
        actor_acts=acts,
        probs=masked_softmax(acts[-1], masks),
    )


def single_step_batch(agent, reward, coef=0.0, action=0, mask=None):
    if mask is None:
        mask = np.ones((1, agent.num_actions), dtype=bool)
    return constant_batch(agent, [reward], [action], mask, [coef])


def critic_loss(agent, batch):
    """The critic loss of one training step on ``batch``."""
    return agent.update(batch, beta=0.0)["critic_loss"]


def actor_loss(agent, batch, advantages, beta):
    """The actor loss and gradient the update takes for given advantages."""
    return policy_loss(agent.actor, batch.actor_acts, batch.probs,
                       batch.actions, advantages, beta)


# ---------------------------------------------------------------------------
# Critic targets and loss


def test_critic_target_reduces_to_reward_at_gamma_zero():
    agent = make_agent()
    agent.critic.theta[:] = 0.0
    batch = single_step_batch(agent, reward=2.0, coef=0.0)
    loss = critic_loss(agent, batch)
    assert loss == pytest.approx(4.0)


def test_critic_terminal_drops_bootstrap():
    agent = make_agent()
    batch = single_step_batch(agent, reward=1.5, coef=0.0)
    values, targets, _ = td_targets(agent.critic, batch)
    assert targets[0] == pytest.approx(1.5)
    loss = critic_loss(agent, batch)
    assert loss == pytest.approx((1.5 - values[0]) ** 2)


def test_critic_k_step_target_arithmetic():
    # k=3, gamma=0.99, rewards (1,1,1), V(boot)=0, V(obs)=0:
    # target = 1 + 0.99 + 0.9801 = 2.9701, loss = target^2.
    agent = make_agent()
    agent.critic.theta[:] = 0.0
    gamma = 0.99
    reward_sum = 1.0 + gamma + gamma ** 2
    batch = single_step_batch(agent, reward=reward_sum, coef=gamma ** 3)
    loss = critic_loss(agent, batch)
    assert loss == pytest.approx(2.9701 ** 2)


def test_critic_converges_to_expected_reward():
    # Fixed deterministic data: value should approach the mean reward.
    agent = make_agent(seed=3)
    rewards = np.array([1.0, 1.0, 0.0, 2.0] * 8)
    batch = constant_batch(agent, rewards, np.zeros(32, dtype=np.int64),
                           np.ones((32, 3), dtype=bool))
    for _ in range(2000):
        critic_loss(agent, batch)
    value = agent.critic.forward(np.ones((1, 1)))[0, 0]
    assert value == pytest.approx(rewards.mean(), abs=0.02)


# ---------------------------------------------------------------------------
# Actor loss


def test_actor_zero_advantage_zero_entropy_zero_gradient():
    agent = make_agent()
    batch = single_step_batch(agent, reward=0.0)
    _, grad = actor_loss(agent, batch, np.zeros(1), beta=0.0)
    np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_positive_advantage_raises_action_probability():
    agent = make_agent(seed=1)
    batch = single_step_batch(agent, reward=1.0, action=1)
    before = agent.policy(np.ones((1, 1)), 0)[0, 1]
    _, grad = actor_loss(agent, batch, np.array([1.0]), beta=0.0)
    agent.actor_opt.step(agent.actor.theta, grad)
    after = agent.policy(np.ones((1, 1)), 0)[0, 1]
    assert after > before


def test_entropy_gradient_zero_at_uniform():
    # Two legal actions with identical logits: entropy is maximal, so with
    # zero advantage the policy gradient vanishes.
    agent = make_agent()
    agent.actor.theta[:] = 0.0
    batch = single_step_batch(agent, reward=0.0, action=0,
                              mask=np.array([[True, True, False]]))
    _, grad = actor_loss(agent, batch, np.zeros(1), beta=0.5)
    assert np.abs(grad).max() < 1e-12


def test_entropy_drives_masked_policy_to_uniform():
    agent = make_agent(seed=5)
    mask = np.array([[True, True, False]])
    for _ in range(3000):
        # One fresh rollout per step, as in training.
        batch = single_step_batch(agent, reward=0.0, mask=mask)
        _, grad = actor_loss(agent, batch, np.zeros(1), beta=0.1)
        agent.actor_opt.step(agent.actor.theta, grad)
    # Locked out (status -1): the commit action is masked, as in ``mask``.
    probs = agent.policy(np.ones((1, 1)), -1)[0]
    assert probs[0] == pytest.approx(0.5, abs=1e-3)
    assert probs[1] == pytest.approx(0.5, abs=1e-3)
    assert probs[2] == 0.0


# ---------------------------------------------------------------------------
# Trainable-step filtering


def test_filter_k1_keeps_everything():
    statuses = np.zeros((5, 4))
    assert filter_trainable_steps(statuses).all()


def test_filter_excludes_committed_window():
    # Committed at t=0 with k=10: only the decision step remains.
    statuses = np.array([0] + [1] * 9)
    keep = filter_trainable_steps(statuses)
    assert keep[0]
    assert not keep[1:].any()


def test_filter_keeps_locked_out_steps():
    statuses = np.array([0, -1, -1, 0, -1])
    assert filter_trainable_steps(statuses).all()


def test_update_empty_batch_is_noop():
    agent = make_agent()
    empty = constant_batch(agent, np.zeros(0), np.zeros(0, dtype=np.int64),
                           np.zeros((0, 3), dtype=bool))
    theta = agent.actor.theta.copy()
    agent.update(empty, beta=0.1)
    np.testing.assert_array_equal(agent.actor.theta, theta)


def test_unmediated_agent_has_no_commit_head():
    agent = make_agent(mediated=False)
    assert agent.num_actions == 2
    probs = agent.policy(np.ones((1, 1)), 0)
    assert probs.shape == (1, 2)


@pytest.mark.parametrize("spec,mediated,k,expected", [
    (games.prisoners_dilemma(), True, 1, False),
    (games.two_step_pd(), True, 1, True),
    (games.two_step_pd(), False, 2, False),
    (games.one_shot_pgg(3, 2.0), True, 1, False),
    (games.iterative_pgg(3, 2.0), True, 1, False),
    (games.iterative_pgg(3, 2.0), True, 2, True)])
def test_actor_sees_status_only_where_the_game_varies_it(spec, mediated, k,
                                                         expected):
    # A status column is added in mediated multi-step games where a status
    # other than 0 can reach a decision: any matrix game, or windows k > 1.
    agent = AgentLearner(1, spec, make_params(), np.random.default_rng(0),
                         mediated, k)
    assert agent.status_feature is expected
    width = games.obs_dim(spec)
    assert agent.actor.sizes[0] == width + expected
    assert agent.critic.sizes[0] == width
    rows = agent.actor_inputs(np.full((2, width), 0.5), np.array([-1, 1]))
    np.testing.assert_array_equal(rows[:, :width], 0.5)
    if expected:
        np.testing.assert_array_equal(rows[:, width], [-1.0, 1.0])

"""Actor-critic learner arithmetic: targets, losses, step filtering, and the
agent stack."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from mediated_rl import agents as agents_module
from mediated_rl import games
from mediated_rl.agents import (AgentBatch, AgentLearner, LearnerParams,
                                filter_trainable_steps, td_targets)
from mediated_rl.approx import (Adam, EntropySchedule, Mlp, masked_softmax,
                                policy_loss)
from mediated_rl.errors import ContractError, TrainingDiverged
from mediated_rl.harness import _build_learners, _train_iteration, default_config
from mediated_rl.rollout import (build_agent_batch, build_mediator_batch,
                                 sample_batch)


def make_params(hidden=8):
    return LearnerParams(
        lr_actor=1e-2, lr_critic=1e-2, hidden=hidden,
        entropy=EntropySchedule("linear", start=0.0, decay=0.0, minimum=0.0))


def make_agent(seed=0, mediated=True):
    """The two agents of the one-shot PD: one observation column, two env
    actions each."""
    return AgentLearner(games.prisoners_dilemma(), make_params(),
                        rng=np.random.default_rng(seed), mediated=mediated)


def constant_batch(agent, rewards, actions, masks, coefs=None):
    """The same records for both agents on a constant observation, with the
    actor activations and policy a rollout would have cached; each
    bootstraps from itself."""
    m = len(rewards)

    def both(values, dtype=float):
        return np.tile(np.asarray(values, dtype=dtype), (2, 1))

    _, acts = agent.actor.forward_cached(np.ones((2, m, 1)))
    return AgentBatch(
        critic_obs=np.ones((2, m, 1)),
        actions=both(actions, np.int64),
        reward_sum=both(rewards),
        boot_rows=both(np.arange(m), np.int64),
        bootstrap_coef=both(np.zeros(m) if coefs is None else coefs),
        keep=np.ones((2, m), dtype=bool),
        actor_acts=acts,
        probs=masked_softmax(acts[-1], masks),
    )


def single_step_batch(agent, reward, coef=0.0, action=0, mask=None):
    if mask is None:
        mask = np.ones((1, 3), dtype=bool)
    return constant_batch(agent, [reward], [action], mask, [coef])


def critic_loss(agent, batch):
    """Agent 0's critic loss of one training step on ``batch``."""
    return agent.learn(batch, beta=0.0)["critic_loss"][0]


def actor_loss(agent, batch, advantages, beta):
    """Agent 0's actor loss and the stack's gradient the update takes for
    given advantages (the same for both agents)."""
    losses, grad = policy_loss(agent.actor, batch.actor_acts, batch.probs,
                               batch.actions, np.tile(advantages, (2, 1)),
                               beta, batch.keep)
    return losses[0], grad


def actor_step(agent, grad):
    """Every agent's own optimizer step along an actor gradient, with none
    on its critic block, which the step leaves where it is."""
    critic = np.zeros_like(agent.critic.theta)
    for i, row in enumerate(np.concatenate((grad, critic), axis=1)):
        agent.update(i, row)


def agent0_policy(agent, status):
    """Agent 0's policy at the constant observation."""
    return agent.policy(np.ones((1, 2, 1)), status)[0][0, 0]


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
    assert targets[0, 0] == pytest.approx(1.5)
    loss = critic_loss(agent, batch)
    assert loss == pytest.approx((1.5 - values[0, 0]) ** 2)


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
    value = agent.critic.forward(np.ones((2, 1, 1)))[0, 0, 0]
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
    before = agent0_policy(agent, 0)[1]
    _, grad = actor_loss(agent, batch, np.array([1.0]), beta=0.0)
    actor_step(agent, grad)
    after = agent0_policy(agent, 0)[1]
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
        actor_step(agent, grad)
    # Locked out (status -1): the commit action is masked, as in ``mask``.
    probs = agent0_policy(agent, -1)
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
    agent.learn(empty, beta=0.1)
    np.testing.assert_array_equal(agent.actor.theta, theta)


def test_unmediated_agent_has_no_commit_head():
    agent = make_agent(mediated=False)
    np.testing.assert_array_equal(agent.num_actions, [2, 2])
    probs, _ = agent.policy(np.ones((1, 2, 1)), 0)
    assert probs.shape == (2, 1, 2)


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
    agent = AgentLearner(spec, make_params(), np.random.default_rng(0),
                         mediated, k)
    assert agent.status_feature is expected
    width = games.obs_dim(spec)
    assert agent.actor.sizes[0] == width + expected
    assert agent.critic.sizes[0] == width
    n = spec.num_agents
    status = np.repeat([[-1], [1]], n, axis=1)  # (rows, agents)
    rows = agent.actor_inputs(np.full((2, n, width), 0.5), status)
    assert rows.shape == (n, 2, width + expected)
    np.testing.assert_array_equal(rows[..., :width], 0.5)
    if expected:
        np.testing.assert_array_equal(rows[..., width],
                                      np.tile([-1.0, 1.0], (n, 1)))


# ---------------------------------------------------------------------------
# The stack: independent agents in one network per role


def reference_draws(sizes, rng):
    """A lone network's parameters, in the order it draws them: per layer
    its weights, then its biases."""
    params = []
    for d_in, d_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(d_in)
        params.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        params.append(rng.uniform(-bound, bound, size=d_out))
    return params


@pytest.mark.parametrize("spec,mediated,k", [
    (games.pd_with_sacrifice(), True, 1),
    (games.pd_with_sacrifice(), False, 1),
    (games.iterative_pgg(5, 2.0), True, 2)])
def test_slices_start_as_separately_drawn_networks(spec, mediated, k):
    # Agent by agent, actor then critic: the draws separate per-agent
    # networks make from the same generator, at each agent's own sizes.
    agents = AgentLearner(spec, make_params(), np.random.default_rng(7),
                          mediated, k)
    rng = np.random.default_rng(7)
    h = make_params().hidden
    for i in range(spec.num_agents):
        a = agents.num_actions[i]
        for net, sizes in ((agents.actor, (agents.actor.sizes[0], h, h, a)),
                           (agents.critic, agents.critic.sizes)):
            drawn = reference_draws(sizes, rng)
            layers = [p for w, b in zip(net.weights, net.biases) for p in (w, b)]
            for got, want in zip(layers, drawn):
                np.testing.assert_array_equal(got[i][..., :want.shape[-1]], want)
        # Padding columns past the agent's own actions start at zero.
        assert not agents.actor.weights[-1][i][:, a:].any()
        assert not agents.actor.biases[-1][i][a:].any()


def test_padded_action_column_stays_zero():
    # pds: agent 0 has 2 env actions + commit, padded to agent 1's 4. Its
    # padding column has probability 0 and gradient 0, and its parameters
    # stay exactly 0 through training.
    config = replace(default_config("pds", "naive"), batch_size=32)
    spec = config.validate()
    rng = np.random.default_rng(0)
    agents, mediator = _build_learners(config, spec, rng)
    traj = sample_batch(spec, 1, agents, mediator, 32, rng)
    np.testing.assert_array_equal(traj.agent_probs[0, :, 3], 0.0)
    batch = build_agent_batch(traj, 1, 0.99)
    weights = np.random.default_rng(1).normal(size=batch.actions.shape)
    _, grad = policy_loss(agents.actor, batch.actor_acts, batch.probs,
                          batch.actions, weights, 0.5, batch.keep,
                          np.zeros(len(batch), np.intp))
    for it in range(50):
        _train_iteration(config, spec, agents, mediator, rng, it)
    split = agents.actor.theta.shape[1]  # the actor block of each row
    moments = [np.stack([getattr(opt, m)[:split] for opt in agents.optimizers])
               for m in "mv"]
    for param in (agents.actor.theta, *moments, grad):
        view = Mlp(agents.actor.sizes, stack=2)
        view.theta[:] = param
        assert not view.weights[-1][0][:, 3].any()
        assert not view.biases[-1][0][3]
    probs, _ = agents.policy(traj.base[0, :4], 0)
    np.testing.assert_array_equal(probs[0, :, 3], 0.0)


def test_committed_rows_carry_no_gradient():
    # At status +1 the mediator acts for the agent: whatever those records'
    # rewards, the update is bit for bit the same.
    config = replace(default_config("pgg-iter", "constrained", k=10),
                     batch_size=32)
    spec = config.validate()
    rng = np.random.default_rng(3)
    agents, mediator = _build_learners(config, spec, rng)
    traj = sample_batch(spec, 10, agents, mediator, 32, rng)
    thetas = []
    for scramble in (False, True):
        learner = copy.deepcopy(agents)
        batch = build_agent_batch(copy.deepcopy(traj), 10, 0.99)
        assert not batch.keep.all()
        if scramble:
            off = ~batch.keep
            batch.reward_sum[off] = np.random.default_rng(4).normal(
                scale=100.0, size=off.sum())
        learner.learn(batch, 0.1)
        thetas.append((learner.actor.theta, learner.critic.theta))
    for before, after in zip(*thetas):
        np.testing.assert_array_equal(before, after)


def test_divergence_names_the_first_agent():
    agent = make_agent()
    agent.critic.theta[1] = np.nan
    batch = single_step_batch(agent, reward=1.0)
    with pytest.raises(TrainingDiverged, match="agent 1 critic loss"):
        agent.learn(batch, beta=0.0)


def test_each_agent_steps_only_its_own_slices():
    # ``update(i, ...)`` is agent i's optimizer step: the other agents'
    # parameters and optimizer state are untouched.
    agent = make_agent()
    actor, critic = agent.actor.theta.copy(), agent.critic.theta.copy()
    agent.update(1, np.ones(agent.theta.shape[1]))
    np.testing.assert_array_equal(agent.actor.theta[0], actor[0])
    np.testing.assert_array_equal(agent.critic.theta[0], critic[0])
    assert (agent.actor.theta[1] != actor[1]).all()
    assert (agent.critic.theta[1] != critic[1]).all()
    assert [opt.t for opt in agent.optimizers] == [0, 1]
    assert not agent.optimizers[0].m.any() and agent.optimizers[1].m.all()


def test_one_learn_takes_one_adam_step_per_agent(monkeypatch):
    # Each agent's actor and critic step together: N steps per ``learn``,
    # each on that agent's whole row of ``theta``.
    steps = []
    step = Adam.step

    def counted(opt, theta, grad):
        steps.append(theta)
        step(opt, theta, grad)

    monkeypatch.setattr(Adam, "step", counted)
    config = replace(default_config("pgg", "constrained", num_agents=5),
                     batch_size=16)
    spec = config.validate()
    rng = np.random.default_rng(2)
    agents, mediator = _build_learners(config, spec, rng)
    batch = build_agent_batch(sample_batch(spec, 1, agents, mediator, 16, rng),
                              1, 0.99)
    agents.learn(batch, 0.1)
    assert len(steps) == 5
    for i, theta in enumerate(steps):
        assert theta.shape == agents.theta[i].shape
        assert np.shares_memory(theta, agents.theta[i])


def test_non_finite_gradient_names_the_first_agent(monkeypatch):
    # Finite losses, but agent 1's critic gradient overflows: it is named
    # before any agent steps.
    def overflowing(residuals, keep):
        upstream = np.zeros_like(residuals)
        upstream[1] = np.inf
        return np.zeros(len(residuals)), upstream

    monkeypatch.setattr(agents_module, "value_loss", overflowing)
    agent = make_agent()
    theta = agent.critic.theta.copy()
    with np.errstate(invalid="ignore"), pytest.raises(
            TrainingDiverged, match="agent 1 critic gradient"):
        agent.learn(single_step_batch(agent, reward=1.0), beta=0.0)
    np.testing.assert_array_equal(agent.critic.theta, theta)


def test_copied_and_unpickled_learners_train_as_the_original():
    # A deep copy and a pickle round trip of trained learners keep their
    # networks' views into ``theta``, so their steps reach ``forward``, and
    # the agents' networks stay views of the learner's one parameter array.
    config = default_config("pgg-iter", "constrained", k=10)
    spec = config.validate()
    agents, mediator = _build_learners(config, spec, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for it in range(2):
        _train_iteration(config, spec, agents, mediator, rng, it)
    twins = [(agents, mediator), copy.deepcopy((agents, mediator)),
             pickle.loads(pickle.dumps((agents, mediator)))]
    for it in range(2, 7):
        traj = sample_batch(spec, config.k, agents, mediator, 8, rng)
        agent_batch = build_agent_batch(traj, config.k, config.gamma)
        mediator_batch = build_mediator_batch(traj, mediator)
        for learner, med in twins:
            learner.learn(copy.deepcopy(agent_batch), 0.1)
            med.update(copy.deepcopy(mediator_batch), 0.1, config.k)
    for learner, med in twins[1:]:
        for net, original in ((learner.actor, agents.actor), (learner.critic, agents.critic),
                              (med.actor, mediator.actor), (med.critic, mediator.critic)):
            assert net.theta.tobytes() == original.theta.tobytes()
            assert all(np.shares_memory(w, net.theta) for w in net.weights + net.biases)
    for learner, _ in twins:
        split = learner.actor.theta.shape[1]
        for net, block in ((learner.actor, learner.theta[:, :split]),
                           (learner.critic, learner.theta[:, split:])):
            assert np.shares_memory(net.theta, block)
            assert net.theta.__array_interface__ == block.__array_interface__


def test_held_arrays_leave_learning_unchanged():
    # The critic's activations and the delta·Wᵀ work array are held across
    # learn calls and replaced only when the batch length changes; learning
    # on them is bit for bit learning on fresh arrays, whatever they held.
    config = default_config("pgg-iter", "constrained", k=10)
    spec = config.validate()
    agents, mediator = _build_learners(config, spec, np.random.default_rng(5))
    fresh = copy.deepcopy(agents)
    rng = np.random.default_rng(6)
    batches = [build_agent_batch(sample_batch(spec, 10, agents, mediator, size,
                                              rng), 10, 0.99)
               for size in (8, 8, 4, 4, 8)]
    held = []
    for batch in batches:
        agents.learn(copy.deepcopy(batch), 0.1)
        held.append([agents._delta_work, *agents._critic_acts])
        fresh._critic_acts, fresh._delta_work = [], np.empty((3, 0, 0))
        fresh.learn(copy.deepcopy(batch), 0.1)
    assert [len(b) for b in batches] == [80, 80, 40, 40, 80]
    for before, after, same in zip(held, held[1:], (True, False, True, False)):
        assert all((a is b) == same for a, b in zip(before, after))
    assert agents.actor.theta.tobytes() == fresh.actor.theta.tobytes()
    assert agents.critic.theta.tobytes() == fresh.critic.theta.tobytes()


def test_copies_leave_out_the_held_arrays():
    # The held work arrays are no state: a deep copy or a pickle of a
    # trained learner carries neither, and the copy starts with empty ones.
    config = default_config("pgg-iter", "constrained", k=10)
    spec = config.validate()
    agents, mediator = _build_learners(config, spec, np.random.default_rng(5))
    _train_iteration(config, spec, agents, mediator, np.random.default_rng(6), 0)
    held = agents._delta_work.nbytes + sum(a.nbytes for a in agents._critic_acts)
    assert agents._delta_work.size and held > 10**6
    data = pickle.dumps(agents)
    assert len(data) < held
    for twin in (pickle.loads(data), copy.deepcopy(agents)):
        assert twin._critic_acts == []
        assert twin._delta_work.shape == (3, 0, agents.critic.sizes[1])


# ---------------------------------------------------------------------------
# One-shot games: one row per agent stands for the batch


def tiled_batch(learner, batch):
    """``batch`` with ``learner``'s actor activations and policy computed on
    all R rows, as a multi-step game runs them: each a copy of the one
    state, at status 0."""
    base = batch.critic_obs.swapaxes(0, 1)
    logits, acts = learner.actor.forward_cached(learner.actor_inputs(base, 0))
    masks = np.arange(logits.shape[-1]) < learner.num_actions[:, None, None]
    return replace(batch, actor_acts=acts, probs=masked_softmax(logits, masks))


@pytest.mark.parametrize("env,mode,num_agents", [
    ("pd", "naive", None), ("pds", "constrained", None),
    ("pgg", "constrained", 16)])
def test_one_shot_learning_matches_the_tiled_rows(env, mode, num_agents):
    # The rollout caches one row per agent; learning on it, with the
    # critic's upstream summed onto that row, equals learning on that row
    # tiled to every record, in losses and parameters, up to round-off.
    config = replace(default_config(env, mode, num_agents=num_agents),
                     batch_size=64)
    spec = config.validate()
    agents, mediator = _build_learners(config, spec, np.random.default_rng(2))
    reference = copy.deepcopy(agents)
    rng = np.random.default_rng(3)
    for it in range(5):
        traj = sample_batch(spec, 1, agents, mediator, 64, rng)
        batch = build_agent_batch(traj, 1, config.gamma)
        assert batch.actor_acts[0].shape == (spec.num_agents, 1, 1)
        assert len(batch) == 64
        beta = config.agent.entropy.coef(it)
        expected = reference.learn(tiled_batch(reference, batch), beta)
        losses = agents.learn(batch, beta)
        for key in ("critic_loss", "actor_loss"):
            np.testing.assert_allclose(losses[key], expected[key],
                                       rtol=0, atol=1e-12)
    for net, twin in ((agents.actor, reference.actor),
                      (agents.critic, reference.critic)):
        np.testing.assert_allclose(net.theta, twin.theta, rtol=0, atol=1e-12)


def test_one_shot_policy_rows_must_agree():
    # A one-shot game's policy runs on the first row for all of them, so a
    # query whose rows differ, in observation or status, is refused.
    agent = make_agent()
    probs, cache = agent.policy(np.ones((5, 2, 1)), np.zeros((5, 2), np.int64))
    assert probs.shape == (2, 1, 3) and cache[0].shape == (2, 1, 1)
    base = np.ones((5, 2, 1))
    base[3, 1] = 0.5
    with pytest.raises(ContractError, match="differ"):
        agent.policy(base, 0)
    status = np.zeros((5, 2), np.int64)
    status[4, 0] = -1
    with pytest.raises(ContractError, match="differ"):
        agent.policy(np.ones((5, 2, 1)), status)

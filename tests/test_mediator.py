"""Mediator learner: losses, factorization, duals, counterfactual queries."""

import numpy as np
import pytest

from mediated_rl import games
from mediated_rl.agents import LearnerParams
from mediated_rl.approx import (EntropySchedule, masked_softmax,
                                sample_categorical)
from mediated_rl.errors import ContractError
from mediated_rl.mediation import coalition_codes
from mediated_rl.mediator import (LagrangeState, MediatorBatch,
                                  MediatorLearner, actor_head_weights)
from mediated_rl.oracle import MixedProfile


def make_params(hidden=8):
    return LearnerParams(
        lr_actor=1e-2, lr_critic=1e-2, hidden=hidden,
        entropy=EntropySchedule("linear", start=0.0, decay=0.0, minimum=0.0),
        lambda_lr=0.1)


def make_mediator(seed=0, symmetric=False, constrained=True, spec=None):
    spec = spec or games.one_shot_pgg(3, 2.0) if symmetric else \
        (spec or games.prisoners_dilemma())
    return MediatorLearner(spec, make_params(), gamma=0.99,
                           rng=np.random.default_rng(seed),
                           constrained=constrained), spec


def critic_out(mediator, rows):
    """The mediator critic's raw outputs on ``rows``, without the stack axis."""
    return mediator.critic.forward(rows[None])[0]


def one_shot_batch(mediator, spec, member, rewards, actions):
    """Single-step terminal batch with explicit coalition and actions, with
    the actor activations and policy a rollout would have cached."""
    n = spec.num_agents
    member = np.asarray(member, dtype=bool)[None, :]
    base = np.ones((1, n, 1))
    critic_cur = mediator.critic_inputs(base, member)
    rows_b, rows_i = np.nonzero(member)
    actor_in = mediator.actor_inputs(base, member, rows_b, rows_i)
    _, acts = mediator.actor.forward_cached(actor_in[None])
    acts = [layer[0] for layer in acts]  # the batch layout has no stack axis
    return MediatorBatch(
        critic_cur=critic_cur,
        rewards=np.asarray(rewards, dtype=float)[None, :],
        member=member,
        actor_acts=acts,
        actor_probs=masked_softmax(acts[-1], mediator.action_masks(rows_i)),
        actor_rows=None,
        actor_actions=np.asarray(actions),
        actor_agent=rows_i,
        actor_step=np.zeros(rows_i.size, dtype=np.int64),
        horizon=1,
        batch=1,
    )


# ---------------------------------------------------------------------------
# Critic loss


def test_critic_terminal_target_is_reward():
    mediator, spec = make_mediator()
    batch = one_shot_batch(mediator, spec, [True, True], [2.0, 2.0], [1, 1])
    deltas, _ = mediator.td_residuals(batch)
    values = mediator.agent_values(
        critic_out(mediator, batch.critic_cur), batch.member)
    np.testing.assert_allclose(deltas, batch.rewards - values)


def test_critic_zero_rewards_zero_values_zero_loss():
    mediator, spec = make_mediator()
    mediator.critic.theta[:] = 0.0
    batch = one_shot_batch(mediator, spec, [True, False], [0.0, 0.0], [0])
    deltas, _ = mediator.td_residuals(batch)
    np.testing.assert_array_equal(deltas, np.zeros((1, 2)))


def test_critic_converges_to_coalition_values():
    # Fixed all-commit episodes with rewards (2, 2): values approach (2, 2).
    mediator, spec = make_mediator(seed=2, constrained=False)
    for _ in range(2500):
        # One fresh rollout per step, as in training.
        batch = one_shot_batch(mediator, spec, [True, True], [2.0, 2.0], [1, 1])
        mediator.update(batch, beta=0.0, k=1)
    values = mediator.agent_values(
        critic_out(mediator, batch.critic_cur), batch.member)
    np.testing.assert_allclose(values, [[2.0, 2.0]], atol=0.02)


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["per-coalition", "symmetric"])
def test_critic_gradient_matches_finite_differences(symmetric):
    # The critic steps along the gradient of its mean summed squared TD
    # residual with the bootstrapped targets held fixed; in the symmetric
    # mediator members' values come from one head and the others' from the
    # other, so both heads collect gradient.
    mediator, spec = make_mediator(seed=5, symmetric=symmetric,
                                   constrained=False)
    rng = np.random.default_rng(6)
    horizon, episodes, n = 2, 4, spec.num_agents
    rows = horizon * episodes
    member = rng.random((rows, n)) < 0.5
    batch = MediatorBatch(
        critic_cur=mediator.critic_inputs(
            rng.normal(size=(rows, n, games.obs_dim(spec))), member),
        rewards=rng.normal(size=(rows, n)), member=member, actor_acts=[],
        actor_probs=np.zeros((0, spec.max_actions)), actor_rows=None,
        actor_actions=np.zeros(0, dtype=np.int64),
        actor_agent=np.zeros(0, dtype=np.int64),
        actor_step=np.zeros(0, dtype=np.int64), horizon=horizon,
        batch=episodes)

    def values():
        return mediator.agent_values(critic_out(mediator, batch.critic_cur),
                                     member)

    following = np.zeros((rows, n))
    following[:-episodes] = values()[episodes:]
    targets = batch.rewards + mediator.gamma * following

    def loss():
        return ((targets - values()) ** 2).sum(axis=1).mean()

    theta = mediator.critic.theta.reshape(-1)  # a view
    numeric = np.empty_like(theta)
    for j in range(theta.size):
        theta[j] += 1e-5
        up = loss()
        theta[j] -= 2e-5
        down = loss()
        theta[j] += 1e-5
        numeric[j] = (up - down) / 2e-5
    expected = loss()
    steps = []
    mediator.critic_opt.step = lambda _, grad: steps.append(grad.ravel())
    stats = mediator.update(batch, beta=0.0, k=1)
    assert stats["critic_loss"] == pytest.approx(expected, rel=1e-12)
    (analytic,) = steps
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    assert (np.abs(analytic - numeric) / scale).max() < 1e-5
    if symmetric:  # both heads' output biases move
        assert np.all(analytic[-2:] != 0.0)


# ---------------------------------------------------------------------------
# Actor head weights


def multipliers(lambda_ic, lambda_e):
    """A Lagrange state holding exactly these multipliers (0 included)."""
    with np.errstate(divide="ignore"):
        return LagrangeState(np.log(lambda_ic), np.log(lambda_e), lr=0.1)


def test_naive_weight_is_social_welfare_residual():
    deltas = np.array([[0.5, -0.2, 0.1]])
    member = np.array([[True, True, True]])
    w = actor_head_weights(deltas, member, np.zeros(3, dtype=np.int64),
                           np.arange(3), None)
    np.testing.assert_allclose(w, np.full(3, 0.4))


def test_constrained_equals_naive_at_zero_lambda_bitwise():
    rng = np.random.default_rng(7)
    deltas = rng.normal(size=(5, 3))
    member = rng.random((5, 3)) < 0.6
    steps = np.repeat(np.arange(5), 2)
    agents = np.tile(np.array([0, 2]), 5)
    naive = actor_head_weights(deltas, member, steps, agents, None)
    constrained = actor_head_weights(deltas, member, steps, agents,
                                     multipliers(np.zeros(3), np.zeros(3)))
    assert np.array_equal(naive, constrained)


def test_ic_term_adds_own_residual():
    deltas = np.array([[1.0, 2.0]])
    member = np.array([[True, True]])
    w = actor_head_weights(deltas, member, np.zeros(2, dtype=np.int64),
                           np.arange(2), multipliers([0.5, 0.25], np.zeros(2)))
    np.testing.assert_allclose(w, [3.0 + 0.5, 3.0 + 0.5])


def test_e_term_subtracts_outside_residuals():
    deltas = np.array([[1.0, 2.0, -1.0]])
    member = np.array([[True, True, False]])
    w = actor_head_weights(deltas, member, np.zeros(2, dtype=np.int64),
                           np.array([0, 1]),
                           multipliers(np.zeros(3), [0.0, 0.0, 2.0]))
    np.testing.assert_allclose(w, [3.0 + 2.0, 3.0 + 2.0])


# ---------------------------------------------------------------------------
# Factorization


@pytest.mark.parametrize("spec", [games.pd_with_sacrifice(),
                                  games.one_shot_pgg(3, 2.0)],
                         ids=["pds", "pgg"])
def test_one_shot_policy_gives_each_distinct_sample_its_own_row(spec):
    # The coalitions come in falling order of their keys, and each member's
    # row is its key in the game's state table: each member must still get
    # its own row's policy, masked by its own actions, and its draws stay
    # inside them.
    mediator = MediatorLearner(spec, make_params(), gamma=0.99,
                               rng=np.random.default_rng(4))
    n = spec.num_agents
    if n == 2:  # keys code * N + member: 6, 7, 4, 3
        coalition = np.array([[True, True], [True, False], [False, True]])
        expected, table = [6, 7, 4, 3], n * 2 ** n
    else:  # keys |C|: 3, 3, 3, 2, 2, 1
        coalition = np.tri(n, dtype=bool)[::-1]
        expected, table = [3, 3, 3, 2, 2, 1], n + 1
    base = np.ones((len(coalition), n, 1))
    row_probs, cache, rows = mediator.policy(base, coalition)
    rows_b, rows_i = np.nonzero(coalition)
    assert len(row_probs) == len(cache[0]) == table
    np.testing.assert_array_equal(rows, expected)
    probs = row_probs[rows]
    for r, (b, i) in enumerate(zip(rows_b, rows_i)):
        actor_in = mediator.actor_inputs(base, coalition, [b], [i])
        np.testing.assert_array_equal(cache[0][rows[r]], actor_in[0])
        alone = masked_softmax(mediator.actor.forward(actor_in[None])[0],
                               mediator.action_masks(np.array([i])))
        np.testing.assert_allclose(probs[r], alone[0], rtol=0, atol=1e-15)
    draws = sample_categorical(np.repeat(probs, 200, axis=0),
                               np.random.default_rng(5))
    assert (draws < np.repeat(mediator.num_env_actions[rows_i], 200)).all()


def test_one_shot_policy_runs_each_state_once():
    # Samples of one (coalition, member) share their row of the state
    # table, and a query at other observations than the game's is refused;
    # a multi-step game runs a row per sample and has no index.
    mediator, spec = make_mediator(seed=3)
    coalition = np.array([[True, True], [True, False], [True, True]])
    row_probs, cache, rows = mediator.policy(np.ones((3, 2, 1)), coalition)
    np.testing.assert_array_equal(rows, [6, 7, 4, 6, 7])
    assert len(row_probs) == len(cache[-1]) == 8
    base = np.ones((3, 2, 1))
    base[2, 1] = 0.5
    for query in (base, np.full((3, 2, 1), 0.5)):
        with pytest.raises(ContractError, match="differ"):
            mediator.policy(query, coalition)
    pd2 = MediatorLearner(games.two_step_pd(), make_params(), gamma=0.99,
                          rng=np.random.default_rng(3))
    probs, cache, rows = pd2.policy(np.ones((3, 2, 1)), coalition)
    assert rows is None
    assert len(probs) == len(cache[-1]) == coalition.sum()


@pytest.mark.parametrize("spec", [games.prisoners_dilemma(),
                                  games.pd_with_sacrifice()],
                         ids=["pd", "pds"])
def test_one_shot_table_has_the_oracles_coalition_layout(spec):
    # Row code * N + i is agent i's policy in the coalition that
    # coalition_codes numbers code, so the rows of the members fill an exact
    # oracle profile as they are, and each member of each coalition finds
    # its row at its flat index in the coalitions' (2^N, N) array.
    mediator = MediatorLearner(spec, make_params(), gamma=0.99,
                               rng=np.random.default_rng(6))
    n = spec.num_agents
    probs, cache, rows = mediator.policy(np.ones((1, n, 1)),
                                         np.zeros((1, n), dtype=bool))
    assert len(probs) == n * 2 ** n and len(rows) == 0
    inputs = cache[0]  # the observation, C one-hot, then agent one-hot
    assert not inputs.flags.writeable  # the table itself
    coalitions = inputs[::n, 1:1 + n].astype(bool)
    np.testing.assert_array_equal(coalition_codes(coalitions), np.arange(2 ** n))
    np.testing.assert_array_equal(inputs[:, 1:1 + n], np.repeat(coalitions, n, axis=0))
    np.testing.assert_array_equal(inputs[:, 1 + n:], np.tile(np.eye(n), (2 ** n, 1)))
    _, _, rows = mediator.policy(np.ones((2 ** n, n, 1)), coalitions)
    np.testing.assert_array_equal(rows, np.flatnonzero(coalitions))
    by_coalition = {tuple(bits.astype(int).tolist()): {
        i: probs[code * n + i, :spec.num_actions[i]] for i in np.flatnonzero(bits)}
        for code, bits in enumerate(coalitions)}
    uniform = [np.full(a + 1, 1 / (a + 1)) for a in spec.num_actions]
    profile = MixedProfile([uniform], mediated=True,
                           mediator_by_coalition=[by_coalition])
    _, dense = profile.check(spec)
    for code, bits in enumerate(coalitions):
        for i in np.flatnonzero(bits):
            a = spec.num_actions[i]
            np.testing.assert_array_equal(dense[0, code, i, :a],
                                          probs[code * n + i, :a])


@pytest.mark.parametrize("n", [3, 16])
def test_one_shot_pgg_table_has_the_oracles_size_layout(n):
    # Row s is the policy of a coalition of s agents: its contribute
    # probabilities are an exact oracle profile's size table as they are.
    spec = games.one_shot_pgg(n, 2.0)
    mediator = MediatorLearner(spec, make_params(), gamma=0.99,
                               rng=np.random.default_rng(7))
    coalitions = np.tri(n + 1, n, -1, dtype=bool)
    probs, cache, rows = mediator.policy(np.ones((n + 1, n, 1)), coalitions)
    assert len(probs) == n + 1
    np.testing.assert_array_equal(cache[0][:, 1], np.arange(n + 1) / n)
    np.testing.assert_array_equal(
        rows, coalitions.sum(axis=1)[np.nonzero(coalitions)[0]])
    by_size = probs[:, games.COOPERATE]
    profile = MixedProfile([[np.full(3, 1 / 3)] * n], mediated=True,
                           mediator_by_size=by_size)
    np.testing.assert_array_equal(profile.check(spec)[1], by_size)


def test_joint_policy_is_product_of_heads():
    mediator, spec = make_mediator(seed=3)
    base = np.ones((1, 2, 1))
    member = np.array([[True, True]])
    row_probs, _, rows = mediator.policy(base, member)
    probs = row_probs[rows]
    joint_logp = np.log(probs[0, 1]) + np.log(probs[1, 0])
    per_head = np.log(probs[np.arange(2), [1, 0]]).sum()
    assert joint_logp == per_head


# ---------------------------------------------------------------------------
# Lagrange state and dual updates


def test_lambda_update_zero_gap_no_change():
    state = LagrangeState(np.array([0.3, -0.2]), np.array([0.1, 0.0]), lr=0.1)
    valid = np.ones(2, dtype=bool)
    state.apply(np.zeros(2), valid, np.zeros(2), valid)
    np.testing.assert_array_equal(state.log_ic, [0.3, -0.2])
    np.testing.assert_array_equal(state.log_e, [0.1, 0.0])


def test_lambda_update_violated_constraint_tightens():
    # Gap of -1 with lr 0.1 raises log lambda by exactly 0.1.
    state = LagrangeState.fresh(1, lr=0.1)
    valid = np.ones(1, dtype=bool)
    state.apply(np.array([-1.0]), valid, np.array([-1.0]), valid)
    assert state.log_ic[0] == pytest.approx(0.1)
    assert state.log_e[0] == pytest.approx(0.1)


def test_lambda_update_clamps_at_bounds():
    valid = np.ones(1, dtype=bool)
    state = LagrangeState(np.array([4.0]), np.array([-4.0]), lr=1.0)
    state.apply(np.array([-5.0]), valid, np.array([5.0]), valid)
    assert state.log_ic[0] == 4.0
    assert state.log_e[0] == -4.0


def test_lagrange_state_positive_and_bounded():
    state = LagrangeState.fresh(3, lr=1.0)
    for _ in range(20):
        state.apply(np.full(3, 1.0), np.ones(3, dtype=bool),
                    np.full(3, -1.0), np.ones(3, dtype=bool))
    assert np.all(state.lambda_ic > 0)
    assert np.all(state.lambda_e > 0)
    assert np.all(state.log_ic >= -4.0)
    assert np.all(state.log_e <= 4.0)
    assert state.log_ic[0] == -4.0
    assert state.log_e[0] == 4.0


def test_lagrange_skips_agents_without_samples():
    state = LagrangeState.fresh(2, lr=0.5)
    state.apply(np.array([1.0, 99.0]), np.array([True, False]),
                np.zeros(2), np.zeros(2, dtype=bool))
    assert state.log_ic[0] == pytest.approx(-0.5)
    assert state.log_ic[1] == 0.0


def test_dual_descent_direction_through_update():
    # When every member's counterfactual (left-out) value strictly exceeds
    # its coalition value, the IC constraint is violated batch-wide and
    # every member's log lambda_ic rises; the mirror holds for lambda_e.
    mediator, spec = make_mediator(seed=4)
    batch = one_shot_batch(mediator, spec, [True, False], [0.0, 0.0], [0])
    rng = np.random.default_rng(0)
    mediator.critic.theta[:] = rng.normal(size=mediator.critic.theta.size) * 0.3
    before_ic = mediator.lagrange.log_ic.copy()
    before_e = mediator.lagrange.log_e.copy()
    # The dual step reads gaps from the post-update critic; recompute them
    # through the same code path for the sign comparison.
    mediator.update(batch, beta=0.0, k=1)
    after_ic = mediator.lagrange.log_ic
    after_e = mediator.lagrange.log_e
    ic_gaps, ic_valid, e_gaps, e_valid = mediator._constraint_gaps(batch, 1)
    for i in range(2):
        if ic_valid[i]:
            assert np.sign(before_ic[i] - after_ic[i]) == np.sign(ic_gaps[i]) \
                or after_ic[i] in (-4.0, 4.0)
        else:
            assert after_ic[i] == before_ic[i]
        if e_valid[i]:
            assert np.sign(before_e[i] - after_e[i]) == np.sign(e_gaps[i]) \
                or after_e[i] in (-4.0, 4.0)
        else:
            assert after_e[i] == before_e[i]


# ---------------------------------------------------------------------------
# Counterfactual queries


def test_counterfactual_remove_flips_one_hot():
    # Each agent's flipped value is the critic at the input with only that
    # agent's coalition bit flipped: cleared for members, set for outsiders.
    mediator, spec = make_mediator(seed=5)
    member = np.array([[True, True], [True, False]])
    critic_cur = np.concatenate([np.ones((2, 2)), member.astype(float)], axis=1)
    actual, flipped = mediator.counterfactual_values(critic_cur, member)
    def value(rows):
        return critic_out(mediator, rows)
    np.testing.assert_array_equal(actual, value(critic_cur))
    np.testing.assert_allclose(
        flipped[0], [value(np.array([[1.0, 1.0, 0.0, 1.0]]))[0, 0],
                     value(np.array([[1.0, 1.0, 1.0, 0.0]]))[0, 1]], rtol=1e-12)
    np.testing.assert_allclose(
        flipped[1], [value(np.array([[1.0, 1.0, 0.0, 0.0]]))[0, 0],
                     value(np.array([[1.0, 1.0, 1.0, 1.0]]))[0, 1]], rtol=1e-12)


def test_counterfactual_symmetric_fraction_shift():
    # Members are valued as non-members of the coalition without them,
    # outsiders as members of the coalition with them.
    mediator, spec = make_mediator(seed=6, symmetric=True)
    member = np.array([[True, True, False]])
    critic_cur = np.array([[2.0 / 3.0]])
    actual, flipped = mediator.counterfactual_values(critic_cur, member)
    out = critic_out(mediator, critic_cur)[0]
    np.testing.assert_array_equal(actual[0], [out[0], out[0], out[1]])
    smaller = critic_out(mediator, np.array([[1.0 / 3.0]]))[0]
    larger = critic_out(mediator, np.array([[1.0]]))[0]
    np.testing.assert_allclose(flipped[0], [smaller[1], smaller[1], larger[0]],
                               rtol=1e-12)


def test_counterfactual_determinism():
    mediator, spec = make_mediator(seed=7)
    member = np.array([[True, False]])
    critic_cur = np.concatenate([np.ones((1, 2)), member.astype(float)], axis=1)
    a1 = mediator.counterfactual_values(critic_cur, member)
    a2 = mediator.counterfactual_values(critic_cur, member)
    np.testing.assert_array_equal(a1[0], a2[0])
    np.testing.assert_array_equal(a1[1], a2[1])


# ---------------------------------------------------------------------------
# Full update equivalences


def test_naive_and_constrained_updates_match_at_zero_lambda():
    # A constrained mediator whose multipliers are exactly zero weighs its
    # actor samples exactly as an unconstrained one with the same networks.
    results = {}
    for constrained in (False, True):
        mediator, spec = make_mediator(seed=11, constrained=constrained)
        if constrained:
            mediator.lagrange.log_ic[:] = -np.inf
            mediator.lagrange.log_e[:] = -np.inf
        batch = one_shot_batch(mediator, spec, [True, False], [1.0, -1.0], [1])
        deltas, _ = mediator.td_residuals(batch)
        results[constrained] = actor_head_weights(
            deltas, batch.member, batch.actor_step, batch.actor_agent,
            mediator.lagrange)
    assert np.array_equal(results[False], results[True])


def test_lambda_constant_within_iteration_windows():
    # One update per iteration: whatever lambda the actor loss uses is the
    # same for every window inside that iteration's batch.
    mediator, spec = make_mediator(seed=12)
    batch = one_shot_batch(mediator, spec, [True, True], [1.0, 1.0], [1, 1])
    deltas, _ = mediator.td_residuals(batch)
    w1 = actor_head_weights(deltas, batch.member, batch.actor_step,
                            batch.actor_agent, mediator.lagrange)
    w2 = actor_head_weights(deltas, batch.member, batch.actor_step,
                            batch.actor_agent, mediator.lagrange)
    np.testing.assert_array_equal(w1, w2)

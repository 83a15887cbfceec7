"""Commitment protocol: masks, statuses, coalition formation, action assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediated_rl.agents import AgentLearner, LearnerParams
from mediated_rl.approx import EntropySchedule
from mediated_rl.errors import ContractError
from mediated_rl.games import iterative_pgg, one_shot_pgg, step_batch
from mediated_rl.mediation import (joint_env_actions, legal_action_mask_batch,
                                   next_coalition, window_statuses,
                                   window_sums)
from mediated_rl.mediator import MediatorLearner
from mediated_rl.rollout import sample_batch


def test_mask_decision_step_everything_legal():
    np.testing.assert_array_equal(legal_action_mask_batch(np.array([0]), 2),
                                  [[True, True, True]])


def test_mask_locked_out_blocks_commit():
    np.testing.assert_array_equal(legal_action_mask_batch(np.array([-1]), 2),
                                  [[True, True, False]])


def test_mask_committed_forces_commit():
    np.testing.assert_array_equal(legal_action_mask_batch(np.array([1]), 2),
                                  [[False, False, True]])


def test_mask_batch_matches_scalar():
    # Each row is the mask of its own status, written out per status.
    statuses = np.array([-1, 0, 1, 0, -1])
    expected = {-1: [True, True, True, False], 0: [True, True, True, True],
                1: [False, False, False, True]}
    np.testing.assert_array_equal(legal_action_mask_batch(statuses, 3),
                                  [expected[s] for s in statuses])


def test_mask_batch_pads_agents_with_fewer_actions():
    # Agents with 2 and 3 env actions: each row is that agent's own mask,
    # padded with illegal columns up to the largest action count.
    statuses = np.array([[-1, 0, 1], [1, -1, 0]])  # (agents, batch)
    counts = np.array([2, 3])
    batched = legal_action_mask_batch(statuses, counts[:, None])
    np.testing.assert_array_equal(batched, [
        [[True, True, False, False], [True, True, True, False],
         [False, False, True, False]],
        [[False, False, False, True], [True, True, True, False],
         [True, True, True, True]],
    ])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), agents=st.integers(1, 5), rows=st.integers(0, 6),
       per_agent=st.booleans())
def test_mask_batch_matches_per_element_enumeration(data, agents, rows, per_agent):
    # Any statuses (agents, rows), with one action count for all agents or
    # one per agent: each entry is legal exactly as the protocol says.
    statuses = np.asarray(data.draw(st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=rows, max_size=rows),
        min_size=agents, max_size=agents)), dtype=np.int64).reshape(agents, rows)
    counts = np.asarray(data.draw(st.lists(
        st.integers(1, 4), min_size=agents if per_agent else 1,
        max_size=agents if per_agent else 1)))
    given_counts = counts[:, None] if per_agent else int(counts[0])
    mask = legal_action_mask_batch(statuses, given_counts)
    width = int(counts.max()) + 1
    assert mask.shape == (agents, rows, width) and mask.dtype == bool
    for i in range(agents):
        a = int(counts[i % counts.size])
        for b in range(rows):
            status = statuses[i, b]
            for col in range(width):
                if col < a:
                    legal = status != 1  # env action: not while committed
                elif col == a:
                    legal = status != -1  # commit: not while locked out
                else:
                    legal = False  # padding past this agent's actions
                assert mask[i, b, col] == legal


def test_statuses_at_window_boundary_are_zero():
    coalition = np.array([[True, False], [False, False]])
    np.testing.assert_array_equal(window_statuses(coalition, 2, 2),
                                  [[0, 0], [0, 0]])


def test_statuses_mid_window():
    coalition = np.array([[True, False], [False, True]])
    np.testing.assert_array_equal(window_statuses(coalition, 1, 2),
                                  [[1, -1], [-1, 1]])


def test_form_coalition_k1_both_commit():
    coalition = next_coalition(np.zeros((1, 2), dtype=bool), np.array([[2, 2]]),
                               0, 1, np.array([2, 2]))
    np.testing.assert_array_equal(coalition, [[True, True]])


def test_form_coalition_mid_window_carries_over():
    prev = np.array([[True, False]])
    new = next_coalition(prev, np.array([[2, 0]]), 1, 2, np.array([2, 2]))
    np.testing.assert_array_equal(new, prev)


def test_form_coalition_unanimous_k10():
    # Agents with unequal action sets commit with their own commit index.
    new = next_coalition(np.zeros((2, 3), dtype=bool),
                         np.array([[2, 3, 2], [2, 2, 0]]), 0, 10,
                         np.array([2, 3, 2]))
    np.testing.assert_array_equal(new, [[True, True, True], [True, False, False]])
    np.testing.assert_array_equal(window_statuses(new, 1, 10),
                                  [[1, 1, 1], [1, -1, -1]])


def test_form_coalition_rejects_noncommit_from_committed():
    prev = np.array([[True, False]])
    with pytest.raises(ContractError, match="non-commit"):
        next_coalition(prev, np.array([[0, 0]]), 1, 2, np.array([2, 2]))


def test_form_coalition_rejects_commit_from_locked_out():
    prev = np.array([[True, False]])
    with pytest.raises(ContractError, match="locked-out"):
        next_coalition(prev, np.array([[2, 2]]), 1, 2, np.array([2, 2]))


def test_assemble_substitution_by_membership():
    joint = joint_env_actions(np.array([[0, 9]]), np.array([[-1, 1]]),
                              np.array([[False, True]]))
    np.testing.assert_array_equal(joint, [[0, 1]])


def test_assemble_empty_coalition_keeps_choices():
    joint = joint_env_actions(np.array([[1, 0]]), np.full((1, 2), -1),
                              np.zeros((1, 2), dtype=bool))
    np.testing.assert_array_equal(joint, [[1, 0]])


def test_assemble_full_coalition_all_mediator():
    joint = joint_env_actions(np.array([[2, 2]]), np.array([[1, 1]]),
                              np.ones((1, 2), dtype=bool))
    np.testing.assert_array_equal(joint, [[1, 1]])


def test_assemble_missing_mediator_action_raises():
    with pytest.raises(ContractError):
        joint_env_actions(np.array([[2, 0]]), np.array([[-1, -1]]),
                          np.array([[True, False]]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 12),
       gamma=st.floats(0.0, 1.0), width=st.integers(1, 3))
def test_window_sums_match_a_per_step_loop(data, horizon, gamma, width):
    k = data.draw(st.integers(1, horizon))
    values = np.random.default_rng(horizon * k).normal(size=(horizon, width, 2))
    expected = np.zeros((-(-horizon // k), width, 2))
    for t in range(horizon):
        expected[t // k] += gamma ** (t % k) * values[t]
    np.testing.assert_allclose(window_sums(values, k, gamma), expected,
                               rtol=1e-12, atol=1e-12)


def test_window_sums_k1_returns_the_values():
    values = np.random.default_rng(0).normal(size=(7, 4, 3))
    np.testing.assert_array_equal(window_sums(values, 1, 0.37), values)


def test_window_sums_cut_final_window():
    # Horizon 5 in windows of 3: the second window holds steps 3 and 4.
    values = np.arange(10.0).reshape(5, 2)
    np.testing.assert_allclose(window_sums(values, 3, 0.5),
                               [[0 + 0.5 * 2 + 0.25 * 4, 1 + 0.5 * 3 + 0.25 * 5],
                                [6 + 0.5 * 8, 7 + 0.5 * 9]], rtol=1e-15)


def test_coalition_fraction():
    # The symmetric mediator encodes a coalition as |C|/N.
    spec = one_shot_pgg(3, 2.0)
    mediator = MediatorLearner(spec, _params(), 0.99, np.random.default_rng(0))
    member = np.array([[True, True, False], [False, False, False]])
    np.testing.assert_allclose(
        mediator.critic_inputs(np.ones((2, 3, 1)), member), [[2 / 3], [0.0]])


def _params():
    return LearnerParams(1e-3, 1e-3, 8, EntropySchedule("linear", start=0.1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 5),
    horizon=st.integers(1, 12),
    k_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 1000),
)
def test_coalition_constant_within_windows(n, horizon, k_frac, seed):
    """The rollout keeps the protocol for any window length and learners."""
    k = 1 + int(k_frac * (horizon - 1))
    spec = iterative_pgg(n, 2.0, horizon=horizon)
    rng = np.random.default_rng(seed)
    agents = AgentLearner(spec, _params(), rng, k=k)
    mediator = MediatorLearner(spec, _params(), 0.99, rng)
    traj = sample_batch(spec, k, agents, mediator, 16, rng)
    boundary = np.arange(horizon) % k == 0
    # Status is 0 exactly at window boundaries.
    np.testing.assert_array_equal((traj.status == 0).all(axis=(1, 2)), boundary)
    assert (traj.status[~boundary] != 0).all()
    # Membership is constant inside windows, and mid-window statuses follow it.
    for t in np.flatnonzero(~boundary):
        np.testing.assert_array_equal(traj.member[t], traj.member[t - 1])
        np.testing.assert_array_equal(traj.status[t] == 1, traj.member[t])
    # Committed agents always choose commit; locked-out agents never do.
    assert (traj.choice[traj.status == 1] == 2).all()
    assert (traj.choice[traj.status == -1] != 2).all()
    np.testing.assert_array_equal(traj.member[boundary],
                                  traj.choice[boundary] == 2)
    # Members play the mediator's action, which they always have; everyone
    # else plays their own choice, and the rewards are those of that play.
    member = traj.member
    assert (traj.med_action[member] >= 0).all()
    assert (traj.med_action[~member] == -1).all()
    executed = np.where(member, traj.med_action, traj.choice)
    endow = np.ones((16, n))
    for t in range(horizon):
        reward, endow = step_batch(spec, t, endow, executed[t])
        np.testing.assert_array_equal(traj.reward[t], reward)


"""Commitment protocol: masks, coalition formation, action assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediated_rl import mediation
from mediated_rl.errors import ContractError
from mediated_rl.mediation import (CommitmentState, assemble_joint_action,
                                   coalition_fraction, form_coalition,
                                   initial_commitment, legal_action_mask,
                                   legal_action_mask_batch)


def test_mask_decision_step_everything_legal():
    np.testing.assert_array_equal(legal_action_mask(0, 2),
                                  [True, True, True])


def test_mask_locked_out_blocks_commit():
    np.testing.assert_array_equal(legal_action_mask(-1, 2),
                                  [True, True, False])


def test_mask_committed_forces_commit():
    np.testing.assert_array_equal(legal_action_mask(1, 2),
                                  [False, False, True])


def test_mask_invalid_status():
    with pytest.raises(ContractError):
        legal_action_mask(2, 2)


def test_mask_batch_matches_scalar():
    statuses = np.array([-1, 0, 1, 0, -1])
    batched = legal_action_mask_batch(statuses, 3)
    for s, row in zip(statuses, batched):
        np.testing.assert_array_equal(row, legal_action_mask(int(s), 3))


def test_mask_batch_pads_agents_with_fewer_actions():
    # Agents with 2 and 3 env actions: each row is that agent's own mask,
    # padded with illegal columns up to the largest action count.
    statuses = np.array([[-1, 0, 1], [1, -1, 0]])  # (agents, batch)
    counts = np.array([2, 3])
    batched = legal_action_mask_batch(statuses, counts[:, None])
    assert batched.shape == (2, 3, 4)
    for i, a in enumerate(counts):
        for s, row in zip(statuses[i], batched[i]):
            np.testing.assert_array_equal(row[:a + 1], legal_action_mask(int(s), a))
            assert not row[a + 1:].any()


def test_statuses_at_window_boundary_are_zero():
    state = CommitmentState(coalition=np.array([True, False]), k=2, t=2)
    np.testing.assert_array_equal(state.statuses(), [0, 0])


def test_statuses_mid_window():
    state = CommitmentState(coalition=np.array([True, False]), k=2, t=1)
    np.testing.assert_array_equal(state.statuses(), [1, -1])


def test_form_coalition_k1_both_commit():
    prev = initial_commitment(2, 1)
    commit_ids = np.array([2, 2])
    new = form_coalition(np.array([2, 2]), prev, 0, commit_ids)
    np.testing.assert_array_equal(new.coalition, [True, True])


def test_form_coalition_mid_window_carries_over():
    prev = CommitmentState(coalition=np.array([True, False]), k=2, t=0)
    new = form_coalition(np.array([2, 0]), prev, 1, np.array([2, 2]))
    np.testing.assert_array_equal(new.coalition, [True, False])


def test_form_coalition_unanimous_k10():
    prev = initial_commitment(3, 10)
    new = form_coalition(np.array([2, 2, 2]), prev, 0, np.array([2, 2, 2]))
    np.testing.assert_array_equal(new.coalition, [True, True, True])
    np.testing.assert_array_equal(
        CommitmentState(new.coalition, 10, 1).statuses(), [1, 1, 1])


def test_form_coalition_rejects_noncommit_from_committed():
    prev = CommitmentState(coalition=np.array([True, False]), k=2, t=0)
    with pytest.raises(ContractError):
        form_coalition(np.array([0, 0]), prev, 1, np.array([2, 2]))


def test_form_coalition_rejects_commit_from_locked_out():
    prev = CommitmentState(coalition=np.array([True, False]), k=2, t=0)
    with pytest.raises(ContractError):
        form_coalition(np.array([2, 2]), prev, 1, np.array([2, 2]))


def test_assemble_substitution_by_membership():
    joint = assemble_joint_action(np.array([0, 9]), np.array([-1, 1]),
                                  np.array([False, True]))
    np.testing.assert_array_equal(joint, [0, 1])


def test_assemble_empty_coalition_keeps_choices():
    joint = assemble_joint_action(np.array([1, 0]), np.full(2, -1),
                                  np.zeros(2, dtype=bool))
    np.testing.assert_array_equal(joint, [1, 0])


def test_assemble_full_coalition_all_mediator():
    joint = assemble_joint_action(np.array([2, 2]), np.array([1, 1]),
                                  np.ones(2, dtype=bool))
    np.testing.assert_array_equal(joint, [1, 1])


def test_assemble_missing_mediator_action_raises():
    with pytest.raises(ContractError):
        assemble_joint_action(np.array([2, 0]), np.array([-1, -1]),
                              np.array([True, False]))


def test_coalition_fraction():
    assert coalition_fraction(np.array([True, True, False])) == pytest.approx(2 / 3)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    horizon=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
def test_coalition_constant_within_windows(k, horizon, seed):
    """Random choice streams never change the coalition mid-window."""
    rng = np.random.default_rng(seed)
    n = 3
    commit_ids = np.full(n, 2)
    state = initial_commitment(n, k)
    coalitions = []
    for t in range(horizon):
        statuses = CommitmentState(state.coalition, k, t).statuses()
        choices = np.empty(n, dtype=np.int64)
        for i, s in enumerate(statuses):
            legal = np.flatnonzero(legal_action_mask(int(s), 2))
            choices[i] = rng.choice(legal)
        state = form_coalition(choices, state, t, commit_ids)
        coalitions.append(state.coalition.copy())
    for t in range(1, horizon):
        if t % k != 0:
            np.testing.assert_array_equal(coalitions[t], coalitions[t - 1])

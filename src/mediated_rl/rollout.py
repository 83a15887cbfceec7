"""Vectorized episode sampling and training-batch assembly.

A trajectory batch advances ``batch`` episodes in lockstep (these games have
a fixed horizon), storing time-major arrays. Per step: agents sample from
masked policies, the coalition forms (or carries over mid-window), the
mediator samples env actions for members, and the env steps. Sampling order
is fixed, so a seeded generator makes rollouts bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import AgentBatch, AgentLearner, filter_trainable_steps
from .approx import sample_categorical
from .errors import ContractError
from .games import GameKind, PayoffSpec, base_obs_batch, step_batch
# Unused here: perfbench's tracer wraps rollout.legal_action_mask_batch by name.
from .mediation import (FREE, joint_env_actions, legal_action_mask_batch,
                        next_coalition, window_statuses, window_sums)
from .mediator import MediatorBatch, MediatorLearner


@dataclass
class TrajectoryBatch:
    """Batch of episodes, time-major: leading axes are (horizon, batch, agents).

    The rollout also keeps what its policies computed, because training takes
    one gradient step on exactly this batch. ``AgentLearner.policy`` runs on
    every step, also where the commit is forced (status +1), and
    ``agent_acts`` holds its actor cache, input first, and ``agent_probs``
    every agent's masked policy, both agent-major in flat step order
    t * rows + b, over the rows the policy returned per step: the batch's,
    or in a one-shot game the one row that stands for all. The mediator's
    R (step, member) samples are listed t-major like ``np.nonzero(member)``;
    its actor cache and policy hold a row per sample, or in a one-shot game
    the rows of its state table, and ``med_rows`` gives each sample's row.
    """

    base: np.ndarray        # (T, B, N, obs width) observations before each step
    status: np.ndarray      # (T, B, N) in {-1, 0, 1}
    choice: np.ndarray      # (T, B, N) agent-head action ids (commit included)
    member: np.ndarray      # (T, B, N) coalition flags
    med_action: np.ndarray  # (T, B, N) mediator env actions, -1 outside coalition
    reward: np.ndarray      # (T, B, N)
    agent_acts: list[np.ndarray]  # per layer: (N, T*rows, width), rows B or 1
    agent_probs: np.ndarray  # (N, T*rows, max actions), zero past an agent's actions
    med_acts: list[np.ndarray] | None  # per layer: (U, width)
    med_probs: np.ndarray | None       # (U, max env actions)
    med_rows: np.ndarray | None        # (R,) row per sample; None: U = R

    @property
    def horizon(self) -> int:
        return self.reward.shape[0]

    @property
    def batch(self) -> int:
        return self.reward.shape[1]


def sample_batch(spec: PayoffSpec, k: int, agents: AgentLearner,
                 mediator: MediatorLearner | None, batch: int,
                 rng: np.random.Generator) -> TrajectoryBatch:
    """Roll out ``batch`` complete episodes under the current policies.

    Each step samples every agent from one ``AgentLearner.policy`` call and
    one draw, agent-major (agent 0's batch first) as if each agent sampled
    in turn; padding columns of smaller action sets are never drawn. A
    policy of one row is drawn from for every episode. Then one
    ``MediatorLearner.policy`` call and one draw sample the members in
    ``np.nonzero`` order, each from its own row, drawing nothing when there
    are none.
    """
    t_max, n = spec.horizon, spec.num_agents
    mediated = mediator is not None
    base = []
    status = np.empty((t_max, batch, n), dtype=np.int64)
    choice = np.empty((t_max, batch, n), dtype=np.int64)
    member = np.zeros((t_max, batch, n), dtype=bool)
    med_action = np.full((t_max, batch, n), -1, dtype=np.int64)
    reward = np.empty((t_max, batch, n))

    endow = np.ones((batch, n)) if spec.kind is GameKind.ITERATIVE_PGG else None
    coalition = np.zeros((batch, n), dtype=bool)
    env_actions = np.asarray(spec.num_actions)
    med_steps: list[list[np.ndarray]] = []  # per step: forward cache, policy
    med_rows = None

    for t in range(t_max):
        base_t = base_obs_batch(spec, t, endow, batch)
        base.append(base_t)
        status[t] = window_statuses(coalition, t, k)
        probs, cache = agents.policy(base_t, status[t])
        rows = probs.shape[1]
        if t == 0:
            agent_acts = [np.empty((n, t_max * rows, a.shape[-1])) for a in cache]
            agent_probs = np.empty((n, t_max * rows, probs.shape[-1]))
        for stacked, layer in zip([*agent_acts, agent_probs], [*cache, probs]):
            stacked[:, t * rows:(t + 1) * rows] = layer
        # One row stands for every episode; a full policy skips the
        # broadcast, whose few microseconds a step multi-step games would pay.
        if rows != batch:
            probs = np.broadcast_to(probs, (n, batch, probs.shape[-1]))
        choice[t] = sample_categorical(probs, rng).T
        if mediated:
            coalition = next_coalition(coalition, choice[t], t, k, env_actions)
            member[t] = coalition
            # Only a one-shot game, one step long, returns a row index.
            row_probs, cache, med_rows = mediator.policy(base_t, coalition)
            med_steps.append([*cache, row_probs])
            med_action[t][coalition] = sample_categorical(
                row_probs if med_rows is None else row_probs[med_rows], rng)
        env_action = joint_env_actions(choice[t], med_action[t], coalition)
        reward[t], endow = step_batch(spec, t, endow, env_action)
    med_acts = med_probs = None
    if mediated:
        *med_acts, med_probs = [np.concatenate(blocks) for blocks in zip(*med_steps)]
    return TrajectoryBatch(base=np.stack(base), status=status, choice=choice,
                           member=member, med_action=med_action, reward=reward,
                           agent_acts=agent_acts, agent_probs=agent_probs,
                           med_acts=med_acts, med_probs=med_probs,
                           med_rows=med_rows)


# ---------------------------------------------------------------------------
# Training-batch assembly


def build_agent_batch(traj: TrajectoryBatch, k: int,
                      gamma: float) -> AgentBatch:
    """Every agent's records, over all steps: status 0 or -1 steps are
    trainable, and commit decisions (membership chosen at a window start)
    take their window's discounted return and bootstrap at its end, over the
    rollout's cached actor activations."""
    t_max, b, n = traj.reward.shape
    steps = np.arange(t_max)[:, None, None]
    committed = (traj.status == FREE) & traj.member
    window_return = np.repeat(window_sums(traj.reward, k, gamma), k, axis=0)
    reward_sum = np.where(committed, window_return[:t_max], traj.reward)
    boot_t = np.where(committed, np.minimum(steps + k, t_max), steps + 1)
    coef = np.where(boot_t < t_max, gamma ** (boot_t - steps), 0.0)
    # Targets ending at the horizon have coefficient 0; any step will do.
    boot_rows = np.minimum(boot_t, t_max - 1) * b + np.arange(b)[:, None]

    def agent_major(a):  # (T, B, N, ...) -> (N, T * B, ...)
        return a.reshape(t_max * b, n, *a.shape[3:]).swapaxes(0, 1)

    keep = agent_major(filter_trainable_steps(traj.status))
    boot_rows, coef = agent_major(boot_rows), agent_major(coef)
    # A trainable step's bootstrap step starts a window or is locked out, so
    # it is trainable and its value comes from the same critic pass.
    if not np.take_along_axis(keep, boot_rows, axis=1)[keep & (coef > 0)].all():
        raise ContractError("a bootstrap step is not a trainable step")
    return AgentBatch(
        critic_obs=agent_major(traj.base),
        actions=agent_major(traj.choice),
        reward_sum=agent_major(reward_sum),
        boot_rows=boot_rows,
        bootstrap_coef=coef,
        keep=keep,
        actor_acts=traj.agent_acts,
        probs=traj.agent_probs,
    )


def build_mediator_batch(traj: TrajectoryBatch,
                         mediator: MediatorLearner) -> MediatorBatch:
    """Flatten a trajectory batch into the mediator's training layout."""
    t_max, b, n = traj.reward.shape
    member = traj.member.reshape(t_max * b, n)
    critic_cur = mediator.critic_inputs(
        traj.base.reshape(t_max * b, n, -1), member)
    # np.nonzero on (T, B, N) lists samples t-major, as the rollout drew them.
    t_idx, b_idx, i_idx = np.nonzero(traj.member)
    return MediatorBatch(
        critic_cur=critic_cur,
        rewards=traj.reward.reshape(-1, n),
        member=member,
        actor_acts=traj.med_acts,
        actor_probs=traj.med_probs,
        actor_rows=traj.med_rows,
        actor_actions=traj.med_action[t_idx, b_idx, i_idx],
        actor_agent=i_idx,
        actor_step=t_idx * b + b_idx,
        horizon=t_max,
        batch=b,
    )

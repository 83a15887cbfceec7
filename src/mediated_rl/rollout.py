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
from .approx import Mlp, masked_softmax, sample_categorical
from .errors import ContractError
from .games import GameKind, PayoffSpec, base_obs_batch, obs_dim, step_batch
from .mediation import COMMITTED, FREE, commit_index, legal_action_mask_batch
from .mediator import MediatorBatch, MediatorLearner


@dataclass
class TrajectoryBatch:
    """Batch of episodes, time-major: leading axes are (horizon, batch, agents).

    The rollout also keeps what its policies computed, because training takes
    one gradient step on exactly this batch. An agent's actor runs only on
    its trainable steps (status 0 or -1; at +1 the commit is forced), and
    ``agent_acts`` holds its activations there, input first, in the order of
    ``np.nonzero(status[:, :, i] != 1)``. ``agent_probs`` holds every
    agent's masked policy at every step (flat row t * batch + b). The
    mediator's actor activations and policy cover its (step, member)
    samples, listed t-major like ``np.nonzero(member)``.
    """

    base: np.ndarray        # (T+1, B, N, obs_dim); row T is the terminal obs
    status: np.ndarray      # (T, B, N) in {-1, 0, 1}
    choice: np.ndarray      # (T, B, N) agent-head action ids (commit included)
    member: np.ndarray      # (T, B, N) coalition flags
    med_action: np.ndarray  # (T, B, N) mediator env actions, -1 outside coalition
    env_action: np.ndarray  # (T, B, N) executed env actions
    reward: np.ndarray      # (T, B, N)
    agent_acts: list[list[np.ndarray]]  # per agent, per layer: (M_i, width)
    agent_probs: np.ndarray  # (N, T*B, max actions), zero past an agent's actions
    med_acts: list[np.ndarray] | None  # per layer: (R, width)
    med_probs: np.ndarray | None       # (R, max env actions)

    @property
    def horizon(self) -> int:
        return self.reward.shape[0]

    @property
    def batch(self) -> int:
        return self.reward.shape[1]

    @property
    def num_agents(self) -> int:
        return self.reward.shape[2]


def _layer_buffers(net: Mlp, rows: int) -> list[np.ndarray]:
    """Uninitialized (rows, width) arrays for a network's input and layers."""
    return [np.empty((rows, width)) for width in net.sizes]


def sample_agent_actions(probs: np.ndarray, num_actions: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """One action per agent and episode from padded policies (N, B, A_max).

    Draws run agent-major, as if each agent sampled its batch in turn, and
    each agent's draw is capped at its own last action, so padding is never
    drawn even when rounding leaves a row's total below the uniform.
    """
    return np.minimum(sample_categorical(probs, rng), num_actions[:, None] - 1)


def sample_batch(spec: PayoffSpec, k: int, agents: list[AgentLearner],
                 mediator: MediatorLearner | None, batch: int,
                 rng: np.random.Generator) -> TrajectoryBatch:
    """Roll out ``batch`` complete episodes under the current policies.

    At each step every agent's actor runs once on its rows, and one masked
    softmax and one draw serve all agents. Policies with fewer actions are
    padded with illegal columns; draws stay agent-major (agent 0's batch
    first), as if each agent sampled in turn.
    """
    t_max, n, d = spec.horizon, spec.num_agents, obs_dim(spec)
    mediated = mediator is not None
    base = np.empty((t_max + 1, batch, n, d))
    status = np.zeros((t_max, batch, n), dtype=np.int64)
    choice = np.empty((t_max, batch, n), dtype=np.int64)
    member = np.zeros((t_max, batch, n), dtype=bool)
    med_action = np.full((t_max, batch, n), -1, dtype=np.int64)
    env_action = np.empty((t_max, batch, n), dtype=np.int64)
    reward = np.empty((t_max, batch, n))

    endow = np.ones((batch, n)) if spec.kind is GameKind.ITERATIVE_PGG else None
    coalition = np.zeros((batch, n), dtype=bool)
    env_actions = np.asarray(spec.num_actions)
    commit_ids = np.asarray([commit_index(a) for a in spec.num_actions])
    num_actions = np.asarray([agent.num_actions for agent in agents])
    a_max = num_actions.max()
    agent_acts = [_layer_buffers(agent.actor, t_max * batch) for agent in agents]
    agent_filled = [0] * n
    agent_probs = np.empty((n, t_max * batch, a_max))
    logits = np.zeros((n, batch, a_max))
    if mediated:
        med_acts = _layer_buffers(mediator.actor, t_max * batch * n)
        med_probs = np.empty((t_max * batch * n, mediator.max_env_actions))
        filled = 0
    else:
        med_acts = med_probs = None
        open_masks = np.broadcast_to(
            np.arange(a_max) < num_actions[:, None, None], logits.shape)

    for t in range(t_max):
        base[t] = base_obs_batch(spec, t, endow, batch)
        if t % k != 0:
            status[t] = np.where(coalition, 1, -1)
        rows = slice(t * batch, (t + 1) * batch)
        for i, agent in enumerate(agents):
            # Committed rows keep stale logits: their mask leaves only commit.
            active = np.flatnonzero(status[t, :, i] != COMMITTED)
            cached = slice(agent_filled[i], agent_filled[i] + active.size)
            agent_filled[i] += active.size
            layers = agent_acts[i]
            obs = layers[0][cached]
            obs[:, :d] = base[t, active, i]
            if agent.status_feature:
                obs[:, d] = status[t, active, i]
            out, _ = agent.actor.forward_cached(
                obs, [a[cached] for a in layers[1:]])
            logits[i, active, :agent.num_actions] = out
        if mediated:
            masks = legal_action_mask_batch(status[t].T, env_actions[:, None])
        else:
            masks = open_masks
        probs = masked_softmax(logits, masks)
        agent_probs[:, rows] = probs
        choice[t] = sample_agent_actions(probs, num_actions, rng).T
        if mediated:
            if t % k == 0:
                coalition = choice[t] == commit_ids[None, :]
            member[t] = coalition
            env_action[t] = np.where(coalition, 0, choice[t])
            rows_b, rows_i = np.nonzero(coalition)
            if rows_b.size:
                samples = slice(filled, filled + rows_b.size)
                filled += rows_b.size
                actor_in = med_acts[0][samples]
                actor_in[:] = mediator_actor_inputs(
                    mediator, base[t], coalition, rows_b, rows_i)
                med_probs[samples] = mediator.policy(
                    actor_in, rows_i, [a[samples] for a in med_acts[1:]])
                acts = sample_categorical(med_probs[samples], rng)
                med_action[t, rows_b, rows_i] = acts
                env_action[t, rows_b, rows_i] = acts
        else:
            env_action[t] = choice[t]
        reward[t], endow = step_batch(spec, t, endow, env_action[t])
    base[t_max] = base_obs_batch(spec, t_max, endow, batch)
    agent_acts = [[a[:m] for a in acts] for acts, m in zip(agent_acts, agent_filled)]
    if mediated:
        med_acts = [a[:filled] for a in med_acts]
        med_probs = med_probs[:filled]
    return TrajectoryBatch(base=base, status=status, choice=choice,
                           member=member, med_action=med_action,
                           env_action=env_action, reward=reward,
                           agent_acts=agent_acts, agent_probs=agent_probs,
                           med_acts=med_acts, med_probs=med_probs)


def mediator_actor_inputs(mediator: MediatorLearner, base_t: np.ndarray,
                          coalition: np.ndarray, rows_b: np.ndarray,
                          rows_i: np.ndarray) -> np.ndarray:
    """Actor input rows for the given (episode, member) pairs."""
    obs = base_t[rows_b, rows_i]
    if mediator.symmetric:
        frac = coalition.mean(axis=1)[rows_b, None]
        return np.concatenate([obs, frac], axis=1)
    n = coalition.shape[1]
    coal = coalition[rows_b].astype(np.float64)
    ids = np.zeros((rows_i.size, n))
    ids[np.arange(rows_i.size), rows_i] = 1.0
    return np.concatenate([obs, coal, ids], axis=1)


def mediator_critic_inputs(mediator: MediatorLearner, base_t: np.ndarray,
                           coalition: np.ndarray) -> np.ndarray:
    """Critic input rows: all observations plus the coalition encoding."""
    b = base_t.shape[0]
    if mediator.symmetric:
        return coalition.mean(axis=1)[:, None]
    return np.concatenate([base_t.reshape(b, -1),
                           coalition.astype(np.float64)], axis=1)


# ---------------------------------------------------------------------------
# Training-batch assembly


def window_reward_sums(reward_i: np.ndarray, k: int,
                       gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Discounted reward sums and end steps for the window starting at each t.

    Only rows at window boundaries are meaningful; windows truncate at the
    horizon. Returns (sums (T, B), end (T,)).
    """
    t_max = reward_i.shape[0]
    sums = np.empty_like(reward_i)
    ends = np.empty(t_max, dtype=np.int64)
    for t in range(0, t_max, k):
        end = min(t + k, t_max)
        ends[t:end] = end
        coefs = gamma ** np.arange(end - t)
        sums[t] = coefs @ reward_i[t:end]
    return sums, ends


def build_agent_batch(traj: TrajectoryBatch, agent: AgentLearner,
                      k: int, gamma: float) -> AgentBatch:
    """Trainable records for one agent: status 0 or -1 steps only, with
    k-step targets substituted on commit decisions, over the rollout's
    cached actor activations."""
    i = agent.index
    t_max, b = traj.horizon, traj.batch
    status_i = traj.status[:, :, i]
    reward_i = traj.reward[:, :, i]

    reward_sum = reward_i
    boot_t = np.broadcast_to(np.arange(1, t_max + 1)[:, None], (t_max, b))
    if agent.mediated:
        committed = (status_i == FREE) & (traj.choice[:, :, i]
                                          == commit_index(agent.num_env_actions))
        if k > 1 and committed.any():
            wsums, wends = window_reward_sums(reward_i, k, gamma)
            reward_sum = np.where(committed, wsums, reward_sum)
            boot_t = np.where(committed, wends[:, None], boot_t)
    coef = np.where(boot_t < t_max, gamma ** (boot_t - np.arange(t_max)[:, None]), 0.0)

    keep = filter_trainable_steps(status_i).ravel()
    steps = np.flatnonzero(keep)
    t_idx, b_idx = np.divmod(steps, b)
    bootstrap_coef = coef[t_idx, b_idx]
    # Targets ending at the horizon have coefficient 0; any step will do.
    boot_steps = np.minimum(boot_t[t_idx, b_idx], t_max - 1) * b + b_idx
    # A bootstrap step starts a window or is locked out, so it is trainable
    # and its value comes from the same critic pass.
    if not keep[boot_steps[bootstrap_coef > 0]].all():
        raise ContractError("a bootstrap step is not a trainable step")
    return AgentBatch(
        critic_obs=traj.base[t_idx, b_idx, i],
        actions=traj.choice[t_idx, b_idx, i],
        reward_sum=reward_sum[t_idx, b_idx],
        boot_rows=(np.cumsum(keep) - 1)[boot_steps],
        bootstrap_coef=bootstrap_coef,
        actor_acts=traj.agent_acts[i],
        probs=traj.agent_probs[i, steps, :agent.num_actions],
    )


def build_mediator_batch(traj: TrajectoryBatch,
                         mediator: MediatorLearner) -> MediatorBatch:
    """Flatten a trajectory batch into the mediator's training layout."""
    t_max, b, n = traj.horizon, traj.batch, traj.num_agents
    member = traj.member.reshape(t_max * b, n)
    critic_cur = mediator_critic_inputs(
        mediator, traj.base[:t_max].reshape(t_max * b, n, -1), member)
    # np.nonzero on (T, B, N) lists samples t-major, as the rollout drew them.
    t_idx, b_idx, i_idx = np.nonzero(traj.member)
    return MediatorBatch(
        critic_cur=critic_cur,
        rewards=traj.reward.reshape(-1, n),
        member=member,
        actor_acts=traj.med_acts,
        actor_probs=traj.med_probs,
        actor_actions=traj.med_action[t_idx, b_idx, i_idx],
        actor_agent=i_idx,
        actor_step=t_idx * b + b_idx,
        horizon=t_max,
        batch=b,
    )

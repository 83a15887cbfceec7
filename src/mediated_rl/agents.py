"""Independent per-agent actor-critic learners, trained as one stack.

Each agent owns a policy network over (env actions + commit) and a value
network, as slice i of one stacked actor and critic, and its own optimizer
state; nothing is shared across slices. Training is commit-aware:
when the commitment window k exceeds 1, the step on which an agent commits is
trained with the k-step temporal difference, and the mid-window steps where
the mediator acted for it carry weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import (Adam, EntropySchedule, Mlp, masked_softmax, policy_loss,
                     value_loss)
from .errors import TrainingDiverged
from .games import GameKind, PayoffSpec, obs_dim
from .mediation import COMMITTED, legal_action_mask_batch


@dataclass(frozen=True)
class LearnerParams:
    """Per-learner hyperparameters (one column of the hyperparameter table)."""

    lr_actor: float
    lr_critic: float
    hidden: int
    entropy: EntropySchedule
    lambda_lr: float = 1e-3  # used by the mediator only


@dataclass
class AgentBatch:
    """Every agent's records of one training iteration: one per step, R in
    all, in flat order t * batch + b; ``keep`` flags the trainable ones.

    ``reward_sum`` holds the plain reward for 1-step targets and the
    discounted return of its window for a commit decision;
    ``bootstrap_coef`` is the matching gamma power of the value at step
    ``boot_rows``, zero at episode end. The actor activations and policy are
    the ones the rollout sampled with.
    """

    critic_obs: np.ndarray      # (N, R, base_dim)
    actions: np.ndarray         # (N, R)
    reward_sum: np.ndarray      # (N, R)
    boot_rows: np.ndarray       # (N, R) step whose value bootstraps the target
    bootstrap_coef: np.ndarray  # (N, R)
    keep: np.ndarray            # (N, R) bool: trainable
    actor_acts: list[np.ndarray]  # per layer, input first: (N, R, width)
    probs: np.ndarray           # (N, R, max actions) masked policy

    def __len__(self) -> int:  # records per agent: R, trainable or not
        return self.keep.shape[1]


def td_targets(critic: Mlp, batch: AgentBatch,
               out: list[np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Current values, bootstrapped targets, and the critic forward cache,
    whose layer outputs are written into ``out`` when given.

    One forward pass gives both: every bootstrap step is itself a record.
    Targets carry no gradient: the bootstrap term is a constant.
    """
    values, cache = critic.forward_cached(batch.critic_obs, out)
    values = values[..., 0]
    targets = batch.reward_sum + batch.bootstrap_coef * np.take_along_axis(
        values, batch.boot_rows, axis=1)
    return values, targets, cache


def filter_trainable_steps(statuses: np.ndarray) -> np.ndarray:
    """Boolean mask of steps an agent trains on: where its status is 0 or -1.

    Mid-window steps with status +1 are off-policy for the agent (the
    mediator acted) and are excluded.
    """
    return np.asarray(statuses) != COMMITTED


def _check_finite(values: np.ndarray, what: str) -> None:
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise TrainingDiverged(f"agent {np.argmin(finite)} {what} non-finite")


class AgentLearner:
    """A seed's N self-interested actor-critic learners, stacked by agent.
    The critic sees the base observation; the actor also sees the commitment
    status where it varies."""

    def __init__(self, spec: PayoffSpec, params: LearnerParams,
                 rng: np.random.Generator, mediated: bool = True, k: int = 1):
        n = spec.num_agents
        self.num_env_actions = np.asarray(spec.num_actions)
        self.mediated = mediated
        self.base_dim = obs_dim(spec)
        self.status_feature = mediated and spec.horizon > 1 and (
            spec.kind is GameKind.MATRIX or k > 1)
        self.num_actions = self.num_env_actions + mediated
        h = params.hidden
        actor_dim = self.base_dim + self.status_feature
        self.actor = Mlp((actor_dim, h, h, self.num_actions.max()), stack=n)
        self.critic = Mlp((self.base_dim, h, h, 1), stack=n)
        for i in range(n):  # as separate networks draw, actor then critic
            self.actor.draw(i, rng, self.num_actions[i])
            self.critic.draw(i, rng)
        self.actor_opts = [Adam(p.size, params.lr_actor) for p in self.actor.theta]
        self.critic_opts = [Adam(p.size, params.lr_critic) for p in self.critic.theta]
        # Held across learn calls of one batch length R, so the heap keeps
        # their pages instead of trimming them and faulting them back in: the
        # critic's layer outputs (N, R, width) and the delta·Wᵀ work array
        # that the critic's and the actor's backward passes share (both
        # networks' hidden layers are h wide).
        self._critic_acts: list[np.ndarray] = []
        self._delta_work = np.empty((n, 0, h))

    def actor_inputs(self, base: np.ndarray,
                     status: np.ndarray | int) -> np.ndarray:
        """Actor rows (N, M, actor input width) from base observations
        (M, N, obs_dim) and statuses (scalar or (M, N))."""
        out = np.empty((base.shape[1], base.shape[0], self.actor.sizes[0]))
        out[..., :self.base_dim] = base.swapaxes(0, 1)
        if self.status_feature:
            out[..., self.base_dim] = np.transpose(status)
        return out

    def policy(self, base: np.ndarray, status: np.ndarray | int
               ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Masked policies (N, M, max actions, zero past an agent's own) at
        observations (M, N, obs_dim) under statuses (scalar or (M, N)), and
        the actor's forward cache, as ``Mlp.forward_cached`` returns it."""
        logits, cache = self.actor.forward_cached(self.actor_inputs(base, status))
        if self.mediated:
            masks = legal_action_mask_batch(np.transpose(status),
                                            self.num_env_actions[:, None])
        else:
            masks = np.arange(logits.shape[-1]) < self.num_actions[:, None, None]
        return masked_softmax(logits, masks), cache

    def learn(self, batch: AgentBatch, beta: float) -> dict[str, np.ndarray]:
        """One gradient step for every agent from a full batch, computed in one
        pass per stack; returns the per-agent losses."""
        if not batch.keep.any():
            return dict.fromkeys(("critic_loss", "actor_loss"),
                                 np.zeros(len(self.actor.theta)))
        n, rows = len(self.critic.theta), len(batch)
        if self._delta_work.shape[1] != rows:
            self._critic_acts = [np.empty((n, rows, d)) for d in self.critic.sizes[1:]]
            self._delta_work = np.empty((n, rows, self.critic.sizes[1]))
        values, targets, cache = td_targets(self.critic, batch, self._critic_acts)
        advantages = targets - values
        c_loss, upstream = value_loss(advantages[..., None], batch.keep)
        _check_finite(c_loss, "critic loss")
        c_grad = self.critic.backward(cache, upstream, self._delta_work)
        _check_finite(c_grad, "critic gradient")
        # Advantages are constants: no gradient flows through the critic.
        a_loss, a_grad = policy_loss(self.actor, batch.actor_acts, batch.probs,
                                     batch.actions, advantages, beta, batch.keep,
                                     self._delta_work)
        _check_finite(a_loss, "actor loss")
        _check_finite(a_grad, "actor gradient")
        for i in range(len(c_grad)):
            self.update(i, c_grad[i], a_grad[i])
        return {"critic_loss": c_loss, "actor_loss": a_loss}

    def update(self, i: int, critic_grad: np.ndarray, actor_grad: np.ndarray) -> None:
        """Agent i's optimizer steps on its own slices of the stack."""
        self.critic_opts[i].step(self.critic.theta[i], critic_grad)
        self.actor_opts[i].step(self.actor.theta[i], actor_grad)

"""Independent per-agent actor-critic learners.

Each agent owns a policy network over (env actions + commit), a value
network, and their optimizers; nothing is shared across agents. Training is
commit-aware: when the commitment window k exceeds 1, the step on which an
agent commits is trained with the k-step temporal difference, and the
mid-window steps where the mediator acted for it are excluded entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import (Adam, EntropySchedule, Mlp, masked_softmax, policy_loss,
                     value_grad)
from .errors import TrainingDiverged
from .mediation import COMMITTED


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
    """Trainable step records for one agent in one training iteration.

    ``reward_sum`` holds the plain reward for 1-step targets and the
    discounted within-window sum for commit decisions with k > 1;
    ``bootstrap_coef`` is the matching gamma power of the value at record
    ``boot_rows``, zero at episode end. The actor activations and policy are
    the ones the rollout sampled with at these steps.
    """

    critic_obs: np.ndarray      # (M, base_dim)
    actions: np.ndarray         # (M,)
    reward_sum: np.ndarray      # (M,)
    boot_rows: np.ndarray       # (M,) record whose value bootstraps the target
    bootstrap_coef: np.ndarray  # (M,)
    actor_acts: list[np.ndarray]  # per layer, input first: (M, width)
    probs: np.ndarray           # (M, num_actions) masked policy

    def __len__(self) -> int:
        return self.actions.shape[0]


def td_targets(critic: Mlp, batch: AgentBatch
               ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Current values, bootstrapped targets, and the critic forward cache.

    One forward pass gives both: every bootstrap step is itself a record.
    Targets carry no gradient: the bootstrap term is a constant.
    """
    out, cache = critic.forward_cached(batch.critic_obs)
    values = out[:, 0]
    targets = batch.reward_sum + batch.bootstrap_coef * values[batch.boot_rows]
    return values, targets, cache


def critic_loss(critic: Mlp, batch: AgentBatch) -> tuple[float, np.ndarray]:
    """Mean squared temporal difference and its gradient w.r.t. the critic."""
    values, targets, cache = td_targets(critic, batch)
    loss = float(np.mean((targets - values) ** 2))
    grad = critic.backward(cache, value_grad(values, targets)[:, None])
    return loss, grad


def actor_loss(actor: Mlp, batch: AgentBatch, advantages: np.ndarray,
               beta: float) -> tuple[float, np.ndarray]:
    """Negated policy gradient with entropy bonus, and its parameter gradient.

    ``advantages`` are treated as constants (no gradient flows through the
    critic); log-probabilities are taken under the legal-action mask the
    rollout sampled with, from its cached activations.
    """
    return policy_loss(actor, batch.actor_acts, batch.probs, batch.actions,
                       advantages, beta)


def filter_trainable_steps(statuses: np.ndarray) -> np.ndarray:
    """Boolean mask of steps an agent trains on: where its status is 0 or -1.

    Mid-window steps with status +1 are off-policy for the agent (the
    mediator acted) and are excluded.
    """
    return np.asarray(statuses) != COMMITTED


class AgentLearner:
    """One self-interested actor-critic learner."""

    def __init__(self, index: int, base_dim: int, num_env_actions: int,
                 params: LearnerParams, gamma: float,
                 rng: np.random.Generator, mediated: bool = True,
                 status_feature: bool = False):
        self.index = index
        self.num_env_actions = num_env_actions
        self.mediated = mediated
        self.status_feature = status_feature
        self.num_actions = num_env_actions + (1 if mediated else 0)
        self.gamma = gamma
        self.entropy = params.entropy
        h = params.hidden
        actor_dim = base_dim + (1 if status_feature else 0)
        self.actor = Mlp((actor_dim, h, h, self.num_actions), rng)
        self.critic = Mlp((base_dim, h, h, 1), rng)
        self.actor_opt = Adam(self.actor.num_params, params.lr_actor)
        self.critic_opt = Adam(self.critic.num_params, params.lr_critic)

    def policy(self, actor_obs: np.ndarray, masks: np.ndarray) -> np.ndarray:
        return masked_softmax(self.actor.forward(actor_obs), masks)

    def update(self, batch: AgentBatch, beta: float) -> dict[str, float]:
        """One gradient step on the critic and the actor from a full batch."""
        if len(batch) == 0:
            return {"critic_loss": 0.0, "actor_loss": 0.0}
        values, targets, cache = td_targets(self.critic, batch)
        advantages = targets - values
        c_loss = float(np.mean(advantages ** 2))
        if not np.isfinite(c_loss):
            raise TrainingDiverged(f"agent {self.index} critic loss non-finite")
        c_grad = self.critic.backward(cache, value_grad(values, targets)[:, None])
        self.critic_opt.step(self.critic.theta, c_grad)
        a_loss, a_grad = actor_loss(self.actor, batch, advantages, beta)
        if not np.isfinite(a_loss):
            raise TrainingDiverged(f"agent {self.index} actor loss non-finite")
        self.actor_opt.step(self.actor.theta, a_grad)
        return {"critic_loss": c_loss, "actor_loss": a_loss}

"""Independent per-agent actor-critic learners, trained as one stack.

Each agent owns a policy network over (env actions + commit) and a value
network, as slice i of one stacked actor and critic. Its parameters, actor
then critic, are row i of one array, and its one optimizer steps that row;
no parameter or optimizer state is shared across agents. Training is
commit-aware: when the commitment window k exceeds 1, the step on which an
agent commits is trained with the k-step temporal difference, and the
mid-window steps where the mediator acted for it carry weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import (Adam, EntropySchedule, Mlp, masked_softmax, policy_loss,
                     value_loss)
from .errors import ContractError, TrainingDiverged
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
    the ones the rollout sampled with: R rows, or in a one-shot game one row
    that stands for all R.
    """

    critic_obs: np.ndarray      # (N, R, base_dim)
    actions: np.ndarray         # (N, R)
    reward_sum: np.ndarray      # (N, R)
    boot_rows: np.ndarray       # (N, R) step whose value bootstraps the target
    bootstrap_coef: np.ndarray  # (N, R)
    keep: np.ndarray            # (N, R) bool: trainable
    actor_acts: list[np.ndarray]  # per layer, input first: (N, R or 1, width)
    probs: np.ndarray           # (N, R or 1, max actions) masked policy

    def __len__(self) -> int:  # records per agent: R, trainable or not
        return self.keep.shape[1]


def td_targets(critic: Mlp, batch: AgentBatch,
               out: list[np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Current values (N, R), bootstrapped targets, and the critic forward
    cache, whose layer outputs are written into ``out`` when given.

    One forward pass gives both: every bootstrap step is itself a record.
    The critic runs on the rows the actor cache holds, all R or the one row
    of a one-shot game, and its values are broadcast to every record.
    Targets carry no gradient: the bootstrap term is a constant.
    """
    rows = batch.actor_acts[0].shape[1]
    values, cache = critic.forward_cached(batch.critic_obs[:, :rows], out)
    values = np.broadcast_to(values[..., 0], batch.keep.shape)
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
    status where it varies. A one-shot game (horizon 1) has one state, so
    there each network runs on one row per agent, which stands for every
    episode of a batch.

    ``theta`` (N, P_actor + P_critic) holds every parameter; ``actor.theta``
    and ``critic.theta`` are views of its column blocks, so agent i's two
    networks are one contiguous row, which its own ``Adam`` steps with
    ``lr_actor`` on the actor block and ``lr_critic`` on the critic block.
    Adam is elementwise, so that is the step two optimizers would take."""

    def __init__(self, spec: PayoffSpec, params: LearnerParams,
                 rng: np.random.Generator, mediated: bool = True, k: int = 1):
        n = spec.num_agents
        self.num_env_actions = np.asarray(spec.num_actions)
        self.mediated = mediated
        self._one_state = spec.horizon == 1
        self.base_dim = obs_dim(spec)
        self.status_feature = mediated and spec.horizon > 1 and (
            spec.kind is GameKind.MATRIX or k > 1)
        self.num_actions = self.num_env_actions + mediated
        h = params.hidden
        actor_dim = self.base_dim + self.status_feature
        self.actor = Mlp((actor_dim, h, h, self.num_actions.max()), stack=n)
        self.critic = Mlp((self.base_dim, h, h, 1), stack=n)
        sizes = [self.actor.theta.shape[1], self.critic.theta.shape[1]]
        self._bind(np.zeros((n, sum(sizes))))
        for i in range(n):  # as separate networks draw, actor then critic
            self.actor.draw(i, rng, self.num_actions[i])
            self.critic.draw(i, rng)
        lr = np.repeat([params.lr_actor, params.lr_critic], sizes)
        lr.flags.writeable = False  # one vector for the N optimizers
        self.optimizers = [Adam(lr.size, lr) for _ in range(n)]
        # Held across learn calls over one row count, so the heap keeps their
        # pages instead of trimming them and faulting them back in: the
        # critic's layer outputs (N, rows, width) and the delta·Wᵀ work array
        # that the critic's and the actor's backward passes share (both
        # networks' hidden layers are h wide). They are no state: a copy
        # leaves them out.
        self._critic_acts: list[np.ndarray] = []
        self._delta_work = np.empty((n, 0, h))

    def __getstate__(self) -> dict:
        """Everything but ``theta``, whose blocks the networks hold, and the
        held work arrays, which ``__setstate__`` restores empty: the copy
        allocates its own on its first ``learn``."""
        return {key: value for key, value in vars(self).items()
                if key not in ("theta", "_critic_acts", "_delta_work")}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        # The copied networks hold arrays of their own: join them again.
        self._bind(np.concatenate((self.actor.theta, self.critic.theta), axis=1))
        self._critic_acts = []
        self._delta_work = np.empty((len(self.theta), 0, self.critic.sizes[1]))

    def _bind(self, theta: np.ndarray) -> None:
        """Hold every parameter in ``theta`` (N, P_actor + P_critic), whose
        column blocks, actor first, become the networks' parameters."""
        split = self.actor.theta.shape[1]
        self.theta = theta
        self.actor.bind(theta[:, :split])
        self.critic.bind(theta[:, split:])

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
        the actor's forward cache, as ``Mlp.forward_cached`` returns it.

        In a one-shot game every row is the one state: the actor runs on the
        first row alone, and the policies and cache have one row, (N, 1,
        ...), which stands for all M. Rows that differ there raise
        ``ContractError``."""
        if self._one_state:
            status = np.asarray(status)
            if ((base != base[:1]).any()
                    or (status.ndim and (status != status[:1]).any())):
                raise ContractError("the rows of a one-shot game's policy "
                                    "query differ")
            base, status = base[:1], status[:1] if status.ndim else status
        logits, cache = self.actor.forward_cached(self.actor_inputs(base, status))
        if self.mediated:
            masks = legal_action_mask_batch(np.transpose(status),
                                            self.num_env_actions[:, None])
        else:
            masks = np.arange(logits.shape[-1]) < self.num_actions[:, None, None]
        return masked_softmax(logits, masks), cache

    def learn(self, batch: AgentBatch, beta: float) -> dict[str, np.ndarray]:
        """One gradient step for every agent from a full batch, computed in one
        pass per stack; returns the per-agent losses.

        In a one-shot game both networks ran on one row per agent, which
        every record was taken on: the critic's upstream gradient is summed
        onto that row, and the policy loss sums the records onto it."""
        if not batch.keep.any():
            return dict.fromkeys(("critic_loss", "actor_loss"),
                                 np.zeros(len(self.theta)))
        n, rows = len(self.theta), batch.actor_acts[0].shape[1]
        if self._delta_work.shape[1] != rows:
            self._critic_acts = [np.empty((n, rows, d)) for d in self.critic.sizes[1:]]
            self._delta_work = np.empty((n, rows, self.critic.sizes[1]))
        values, targets, cache = td_targets(self.critic, batch, self._critic_acts)
        advantages = targets - values
        c_loss, upstream = value_loss(advantages[..., None], batch.keep)
        _check_finite(c_loss, "critic loss")
        one_row = rows != len(batch)
        if one_row:
            upstream = upstream.sum(axis=1, keepdims=True)
        c_grad = self.critic.backward(cache, upstream, self._delta_work)
        _check_finite(c_grad, "critic gradient")
        # Advantages are constants: no gradient flows through the critic.
        index = np.zeros(len(batch), np.intp) if one_row else None
        a_loss, a_grad = policy_loss(self.actor, batch.actor_acts, batch.probs,
                                     batch.actions, advantages, beta, batch.keep,
                                     index, self._delta_work)
        _check_finite(a_loss, "actor loss")
        _check_finite(a_grad, "actor gradient")
        grad = np.concatenate((a_grad, c_grad), axis=1)
        for i in range(n):
            self.update(i, grad[i])
        return {"critic_loss": c_loss, "actor_loss": a_loss}

    def update(self, i: int, grad: np.ndarray) -> None:
        """Agent i's optimizer step on its own row of ``theta``, along
        ``grad``, its actor's gradient and then its critic's."""
        self.optimizers[i].step(self.theta[i], grad)

"""The mediator learner.

One actor network produces an env-action policy for each coalition member
from (member observation, coalition encoding, member id); the joint coalition
policy is the product of these heads. One critic network maps (all agents'
observations, coalition encoding) to a value per agent, for agents both in
and out of the coalition, which makes counterfactual membership queries
possible. Those queries drive dual gradient descent on per-agent Lagrange
multipliers enforcing the incentive-compatibility (IC) constraint for
members and the encouragement (E) constraint that deters free-riding.

In symmetric mode (used for the one-shot public goods game) the coalition is
encoded as its size fraction |C|/N, one shared policy serves every member,
and the critic outputs a member value and a non-member value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import LearnerParams
from .approx import Adam, Mlp, masked_softmax, policy_loss
from .errors import ContractError, TrainingDiverged

MODES = ("naive", "ic", "e", "constrained")


@dataclass
class LagrangeState:
    """Per-agent multipliers, stored as bounded logs so lambda stays positive."""

    log_ic: np.ndarray
    log_e: np.ndarray
    lr: float
    log_bounds: tuple[float, float] = (-4.0, 4.0)

    @classmethod
    def fresh(cls, num_agents: int, lr: float,
              log_bounds: tuple[float, float] = (-4.0, 4.0)) -> "LagrangeState":
        return cls(log_ic=np.zeros(num_agents), log_e=np.zeros(num_agents),
                   lr=lr, log_bounds=log_bounds)

    @property
    def lambda_ic(self) -> np.ndarray:
        return np.exp(self.log_ic)

    @property
    def lambda_e(self) -> np.ndarray:
        return np.exp(self.log_e)

    def apply(self, ic_gaps: np.ndarray, ic_valid: np.ndarray,
              e_gaps: np.ndarray, e_valid: np.ndarray) -> None:
        """Dual-descent step from batch-averaged constraint gaps.

        ``ic_gaps[i]`` is the mean of V_i(in coalition) - V_i(left out);
        ``e_gaps[j]`` the mean of V_j(joined) - V_j(stayed out). A negative
        gap is a violated constraint and raises the multiplier. Agents with
        no relevant samples this iteration (``valid`` false) are skipped.
        """
        lo, hi = self.log_bounds
        self.log_ic = np.clip(
            np.where(ic_valid, self.log_ic - self.lr * ic_gaps, self.log_ic), lo, hi)
        self.log_e = np.clip(
            np.where(e_valid, self.log_e - self.lr * e_gaps, self.log_e), lo, hi)


def lambda_update(log_lam: np.ndarray, gaps: np.ndarray, lr: float,
                  log_bounds: tuple[float, float] = (-4.0, 4.0)) -> np.ndarray:
    """One bounded dual-descent step on log lambda (pure form of the update)."""
    lo, hi = log_bounds
    return np.clip(log_lam - lr * np.asarray(gaps), lo, hi)


def actor_head_weights(deltas: np.ndarray, member: np.ndarray,
                       lambda_ic: np.ndarray, lambda_e: np.ndarray,
                       mode: str, step_rows: np.ndarray,
                       agent_rows: np.ndarray) -> np.ndarray:
    """Advantage weight on log pi for each (step, member) actor sample.

    The base weight is the coalition's summed TD residual; the IC mode adds
    lambda_ic_i * delta_i for the acted-for agent, and the E mode subtracts
    sum_j lambda_e_j * delta_j over agents outside the coalition.
    """
    if mode not in MODES:
        raise ContractError(f"unknown mediator mode {mode!r}")
    social = (deltas * member).sum(axis=1)
    w = social[step_rows]
    if mode in ("ic", "constrained"):
        w = w + lambda_ic[agent_rows] * deltas[step_rows, agent_rows]
    if mode in ("e", "constrained"):
        outside_pen = (deltas * ~member * lambda_e[None, :]).sum(axis=1)
        w = w - outside_pen[step_rows]
    return w


@dataclass
class MediatorBatch:
    """Stacked transition data for one training iteration.

    Steps are flattened time-major: flat index = t * batch + b, so windowed
    reductions can slice along t, and step s bootstraps from step s + batch
    except on the last step of an episode. Actor samples are the rollout's
    (step, member) draws with the activations and policy it sampled with.
    """

    critic_cur: np.ndarray    # (S, critic_dim)
    rewards: np.ndarray       # (S, N)
    member: np.ndarray        # (S, N) bool
    actor_acts: list[np.ndarray]  # per layer, input first: (R, width)
    actor_probs: np.ndarray   # (R, max_env_actions) masked policy
    actor_actions: np.ndarray  # (R,)
    actor_agent: np.ndarray   # (R,) agent index per sample
    actor_step: np.ndarray    # (R,) flat step index per sample
    horizon: int
    batch: int


class MediatorLearner:
    """Coalition policy and multi-head value learner for the mediator."""

    def __init__(self, spec, params: LearnerParams, gamma: float,
                 rng: np.random.Generator, base_dim: int,
                 symmetric: bool = False, constrained: bool = False,
                 log_lambda_bounds: tuple[float, float] = (-4.0, 4.0)):
        n = spec.num_agents
        self.num_agents = n
        self.num_env_actions = np.asarray(spec.num_actions)
        self.max_env_actions = spec.max_actions
        self.base_dim = base_dim
        self.symmetric = symmetric
        self.gamma = gamma
        self.entropy = params.entropy
        h = params.hidden
        if symmetric:
            actor_dim = base_dim + 1          # (o_i, |C|/N)
            critic_dim = 1                    # |C|/N
            critic_out = 2                    # member value, non-member value
        else:
            actor_dim = base_dim + 2 * n      # (o_i, C one-hot, agent one-hot)
            critic_dim = n * base_dim + n     # (all observations, C one-hot)
            critic_out = n
        self.actor = Mlp((actor_dim, h, h, self.max_env_actions), rng)
        self.critic = Mlp((critic_dim, h, h, critic_out), rng)
        self.actor_opt = Adam(self.actor.num_params, params.lr_actor)
        self.critic_opt = Adam(self.critic.num_params, params.lr_critic)
        self.lagrange = (LagrangeState.fresh(n, params.lambda_lr, log_lambda_bounds)
                         if constrained else None)

    # -- policy ------------------------------------------------------------

    def action_masks(self, agent_rows: np.ndarray) -> np.ndarray:
        """Legal env actions per sample (agents may have unequal action sets)."""
        return (np.arange(self.max_env_actions)[None, :]
                < self.num_env_actions[agent_rows][:, None])

    def policy(self, actor_in: np.ndarray, agent_rows: np.ndarray,
               out: list[np.ndarray] | None = None) -> np.ndarray:
        """Masked policy per sample; ``out`` receives the actor's layer
        outputs (see ``Mlp.forward_cached``)."""
        logits, _ = self.actor.forward_cached(actor_in, out)
        return masked_softmax(logits, self.action_masks(agent_rows))

    # -- values ------------------------------------------------------------

    def agent_values(self, critic_out: np.ndarray,
                     member: np.ndarray) -> np.ndarray:
        """Per-agent values (S, N) from raw critic outputs."""
        if self.symmetric:
            return np.where(member, critic_out[:, :1], critic_out[:, 1:])
        return critic_out

    def counterfactual_values(self, critic_cur: np.ndarray, member: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Actual values and values with each agent's membership flipped.

        Returns (actual, flipped), both (S, N): ``actual[s, i]`` is
        V_i(o, C) and ``flipped[s, i]`` is V_i(o, C xor {i}), so a member is
        evaluated as if it had stayed out (IC) and an outsider as if it had
        joined (E). Observations are identical; only the coalition encoding
        differs. One forward pass serves the actual coalitions and one every
        flip.
        """
        actual = self.agent_values(self.critic.forward(critic_cur), member)
        s, n = member.shape
        if self.symmetric:
            # Members all see |C|-1 agents, outsiders all |C|+1.
            frac = critic_cur[:, 0]
            inputs = np.stack([frac - 1.0 / n, frac + 1.0 / n], axis=1)
            out = self.critic.forward(inputs.reshape(2 * s, 1)).reshape(s, 2, 2)
            flipped = np.where(member, out[:, 0, 1:], out[:, 1, :1])
        else:
            inputs = np.repeat(critic_cur, n, axis=0)  # row s * n + i
            rows = np.arange(s * n)
            agents = np.tile(np.arange(n), s)
            inputs[rows, n * self.base_dim + agents] = ~member.reshape(-1)
            flipped = self.critic.forward(inputs)[rows, agents].reshape(s, n)
        return actual, flipped

    # -- training ----------------------------------------------------------

    def td_residuals(self, batch: MediatorBatch
                     ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-agent TD residuals (S, N) plus the critic cache for backprop.

        The bootstrap value of step s is this pass's value at step s + batch
        under that step's coalition; the last step of an episode has none.
        """
        out_cur, cache = self.critic.forward_cached(batch.critic_cur)
        v_cur = self.agent_values(out_cur, batch.member)
        v_next = np.zeros_like(v_cur)
        v_next[:-batch.batch] = v_cur[batch.batch:]
        deltas = batch.rewards + self.gamma * v_next - v_cur
        return deltas, cache

    def update(self, batch: MediatorBatch, beta: float, mode: str,
               k: int) -> dict[str, float]:
        """Critic step, actor step for every coalition head, then the dual step.

        The TD residuals act as constants in the actor loss and as the error
        signal in the critic loss. Lagrange multipliers update once per call,
        from window-aggregated counterfactual value gaps averaged over the
        batch, only for agents observed on the relevant side of the coalition.
        """
        deltas, cache = self.td_residuals(batch)
        s = deltas.shape[0]
        critic_loss = float((deltas ** 2).sum(axis=1).mean())
        if not np.isfinite(critic_loss):
            raise TrainingDiverged("mediator critic loss non-finite")
        upstream = self._critic_upstream(deltas, batch.member, s)
        grad = self.critic.backward(cache, upstream)
        del cache  # not needed by the passes below
        self.critic_opt.step(self.critic.theta, grad)

        stats = {"critic_loss": critic_loss, "actor_loss": 0.0}
        r = batch.actor_actions.shape[0]
        if r > 0:
            lam_ic, lam_e = self._lambdas(mode)
            weights = actor_head_weights(deltas, batch.member, lam_ic, lam_e,
                                         mode, batch.actor_step, batch.actor_agent)
            actor_loss, grad = policy_loss(
                self.actor, batch.actor_acts, batch.actor_probs,
                batch.actor_actions, weights, beta)
            if not np.isfinite(actor_loss):
                raise TrainingDiverged("mediator actor loss non-finite")
            self.actor_opt.step(self.actor.theta, grad)
            stats["actor_loss"] = actor_loss

        if self.lagrange is not None and mode in ("ic", "e", "constrained"):
            self._dual_step(batch, k, mode)
        return stats

    def _lambdas(self, mode: str) -> tuple[np.ndarray, np.ndarray]:
        if self.lagrange is not None:
            return self.lagrange.lambda_ic, self.lagrange.lambda_e
        zeros = np.zeros(self.num_agents)
        if mode in ("ic", "e", "constrained"):
            raise ContractError("constrained mode requires a LagrangeState")
        return zeros, zeros

    def _critic_upstream(self, deltas: np.ndarray, member: np.ndarray,
                         s: int) -> np.ndarray:
        scaled = (-2.0 / s) * deltas
        if not self.symmetric:
            return scaled
        up = np.empty((s, 2))
        up[:, 0] = (scaled * member).sum(axis=1)
        up[:, 1] = (scaled * ~member).sum(axis=1)
        return up

    def _dual_step(self, batch: MediatorBatch, k: int, mode: str) -> None:
        ic_gaps, ic_valid, e_gaps, e_valid = self._constraint_gaps(batch, k)
        if mode == "ic":
            e_valid = np.zeros_like(e_valid)
        elif mode == "e":
            ic_valid = np.zeros_like(ic_valid)
        self.lagrange.apply(ic_gaps, ic_valid, e_gaps, e_valid)

    def _constraint_gaps(self, batch: MediatorBatch, k: int
                         ) -> tuple[np.ndarray, ...]:
        """(ic_gaps, ic_valid, e_gaps, e_valid) from the current critic.

        The IC gap per step is V_i(o, C) - V_i(o, C \\ {i}) at coalition
        members; the E gap is V_j(o, C u {j}) - V_j(o, C) at outsiders.
        """
        actual, flipped = self.counterfactual_values(batch.critic_cur,
                                                     batch.member)
        member = batch.member
        ic_gaps, ic_valid = self._window_gaps(
            np.where(member, actual - flipped, 0.0), member, batch, k)
        e_gaps, e_valid = self._window_gaps(
            np.where(member, 0.0, flipped - actual), ~member, batch, k)
        return ic_gaps, ic_valid, e_gaps, e_valid

    def _window_gaps(self, gap_step: np.ndarray, side: np.ndarray,
                     batch: MediatorBatch, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Batch-mean discounted window sums of per-step gaps (S, N).

        ``side`` flags the (step, agent) pairs the constraint concerns; gaps
        elsewhere are zero. Sums run over each commitment window with weights
        gamma^(t mod k); means run over window occurrences per agent.
        """
        n = self.num_agents
        gap_tb = gap_step.reshape(batch.horizon, batch.batch, n)
        phase_w = self.gamma ** (np.arange(batch.horizon) % k)
        weighted = gap_tb * phase_w[:, None, None]
        starts = np.arange(0, batch.horizon, k)
        window_sums = np.add.reduceat(weighted, starts, axis=0)
        side_tb = side.reshape(batch.horizon, batch.batch, n)
        side_w = side_tb[starts]  # membership is constant within a window
        counts = side_w.sum(axis=(0, 1))
        valid = counts > 0
        totals = (window_sums * side_w).sum(axis=(0, 1))
        gaps = np.divide(totals, counts, out=np.zeros(n), where=valid)
        return gaps, valid

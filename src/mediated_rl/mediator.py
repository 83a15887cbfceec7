"""The mediator learner.

One actor network produces an env-action policy for each coalition member
from (member observation, coalition encoding, member id); the joint coalition
policy is the product of these heads. One critic network maps (all agents'
observations, coalition encoding) to a value per agent, for agents both in
and out of the coalition, which makes counterfactual membership queries
possible. Those queries drive dual gradient descent on per-agent Lagrange
multipliers enforcing the incentive-compatibility (IC) constraint for
members and the encouragement (E) constraint that deters free-riding.

In the one-shot public goods game the mediator is symmetric: the coalition is
encoded as its size fraction |C|/N, one shared policy serves every member,
and the critic outputs a member value and a non-member value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import LearnerParams
from .approx import Adam, Mlp, masked_softmax, policy_loss, value_loss
from .errors import ContractError, TrainingDiverged
from .games import GameKind, PayoffSpec, base_obs_batch, obs_dim
from .mediation import coalition_codes, window_sums

# Every published run clips log lambda to this range.
LOG_LAMBDA_BOUNDS = (-4.0, 4.0)


@dataclass
class LagrangeState:
    """Per-agent multipliers, stored as logs clipped to ``LOG_LAMBDA_BOUNDS``
    so lambda stays positive and bounded."""

    log_ic: np.ndarray
    log_e: np.ndarray
    lr: float

    @classmethod
    def fresh(cls, num_agents: int, lr: float) -> "LagrangeState":
        return cls(log_ic=np.zeros(num_agents), log_e=np.zeros(num_agents),
                   lr=lr)

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
        lo, hi = LOG_LAMBDA_BOUNDS
        self.log_ic = np.clip(
            np.where(ic_valid, self.log_ic - self.lr * ic_gaps, self.log_ic), lo, hi)
        self.log_e = np.clip(
            np.where(e_valid, self.log_e - self.lr * e_gaps, self.log_e), lo, hi)


def actor_head_weights(deltas: np.ndarray, member: np.ndarray,
                       step_rows: np.ndarray, agent_rows: np.ndarray,
                       lagrange: LagrangeState | None) -> np.ndarray:
    """Advantage weight on log pi for each (step, member) actor sample.

    The base weight is the coalition's summed TD residual. A constrained
    mediator (one holding a ``LagrangeState``) adds lambda_ic_i * delta_i
    for the acted-for agent (IC) and subtracts sum_j lambda_e_j * delta_j
    over agents outside the coalition (E).
    """
    social = (deltas * member).sum(axis=1)
    w = social[step_rows]
    if lagrange is not None:
        w = w + lagrange.lambda_ic[agent_rows] * deltas[step_rows, agent_rows]
        outside_pen = (deltas * ~member * lagrange.lambda_e[None, :]).sum(axis=1)
        w = w - outside_pen[step_rows]
    return w


@dataclass
class MediatorBatch:
    """Stacked transition data for one training iteration.

    Steps are flattened time-major: flat index = t * batch + b, so windowed
    reductions can slice along t, and step s bootstraps from step s + batch
    except on the last step of an episode. Actor samples are the rollout's
    (step, member) draws. The actor activations and policy are the ones it
    sampled with: one row per sample, or in a one-shot game the rows of the
    game's state table, where ``actor_rows`` gives each sample's row.
    """

    critic_cur: np.ndarray    # (S, critic_dim)
    rewards: np.ndarray       # (S, N)
    member: np.ndarray        # (S, N) bool
    actor_acts: list[np.ndarray]  # per layer, input first: (U, width)
    actor_probs: np.ndarray   # (U, max_env_actions) masked policy
    actor_rows: np.ndarray | None  # (R,) row per sample; None: row r, U = R
    actor_actions: np.ndarray  # (R,)
    actor_agent: np.ndarray   # (R,) agent index per sample
    actor_step: np.ndarray    # (R,) flat step index per sample
    horizon: int
    batch: int


class MediatorLearner:
    """Coalition policy and multi-head value learner for the mediator."""

    def __init__(self, spec: PayoffSpec, params: LearnerParams, gamma: float,
                 rng: np.random.Generator, constrained: bool = False):
        n = spec.num_agents
        self.num_agents = n
        self.num_env_actions = np.asarray(spec.num_actions)
        self.max_env_actions = spec.max_actions
        self.symmetric = spec.kind is GameKind.ONE_SHOT_PGG
        self.gamma = gamma
        h = params.hidden
        base_dim = obs_dim(spec)
        if self.symmetric:
            actor_dim = base_dim + 1          # (o_i, |C|/N)
            critic_dim = 1                    # |C|/N
            critic_out = 2                    # member value, non-member value
        else:
            actor_dim = base_dim + 2 * n      # (o_i, C one-hot, agent one-hot)
            critic_dim = n * base_dim + n     # (all observations, C one-hot)
            critic_out = n
        self.actor = Mlp((actor_dim, h, h, self.max_env_actions), rng)
        self.critic = Mlp((critic_dim, h, h, critic_out), rng)
        self.actor_opt = Adam(self.actor.theta.shape, params.lr_actor)
        self.critic_opt = Adam(self.critic.theta.shape, params.lr_critic)
        self.lagrange = (LagrangeState.fresh(n, params.lambda_lr)
                         if constrained else None)
        # A one-shot game's state table, as the exact oracle lays it out:
        # every coalition size, member 0 standing for all members, in the
        # symmetric PGG; elsewhere row code * N + i for agent i and each of
        # the 2^N coalitions, in ``coalition_codes`` order. The iterative PGG,
        # which the oracle does not solve, runs a row per member at any
        # horizon: its 2^N coalitions would outgrow the members of a batch.
        self._table = None
        if spec.horizon == 1 and spec.kind is not GameKind.ITERATIVE_PGG:
            if self.symmetric:
                coalition = np.tri(n + 1, n, -1, dtype=bool)
                agent = np.zeros(n + 1, dtype=np.intp)
            else:
                code, agent = divmod(np.arange(n << n), n)
                coalition = (code[:, None] >> np.arange(n)[::-1] & 1).astype(bool)
            rows = np.arange(len(agent))
            obs = base_obs_batch(spec, 0, None, len(agent))
            self._table = (self.actor_inputs(obs, coalition, rows, agent),
                           self.action_masks(agent))
            for array in self._table:  # policy hands the inputs out in its cache
                array.flags.writeable = False

    # -- inputs ------------------------------------------------------------

    def actor_inputs(self, base_t: np.ndarray, coalition: np.ndarray,
                     rows_b: np.ndarray, rows_i: np.ndarray) -> np.ndarray:
        """Actor rows for the (episode, member) pairs of observations
        (B, N, obs_dim) and coalitions (B, N)."""
        obs = base_t[rows_b, rows_i]
        if self.symmetric:
            parts = [obs, coalition.mean(axis=1)[rows_b, None]]
        else:
            parts = [obs, coalition[rows_b], np.eye(self.num_agents)[rows_i]]
        return np.concatenate(parts, axis=1)

    def critic_inputs(self, base: np.ndarray,
                      coalition: np.ndarray) -> np.ndarray:
        """Critic rows from observations (S, N, obs_dim) and coalitions
        (S, N): |C|/N if symmetric, else all observations, then C one-hot."""
        if self.symmetric:
            return coalition.mean(axis=1)[:, None]
        return np.concatenate([base.reshape(len(base), -1), coalition], axis=1)

    # -- policy ------------------------------------------------------------

    def action_masks(self, agent_rows: np.ndarray) -> np.ndarray:
        """Legal env actions per sample (agents may have unequal action sets)."""
        return (np.arange(self.max_env_actions)[None, :]
                < self.num_env_actions[agent_rows][:, None])

    def policy(self, base_t: np.ndarray, coalition: np.ndarray
               ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None]:
        """Masked policy of the rows the actor ran on for every member of
        coalitions (B, N) over observations (B, N, obs_dim), the actor's
        forward cache over them (as ``Mlp.forward_cached`` returns it but
        without the stack axis), and each member's row. Members come in
        ``np.nonzero(coalition)`` order.

        In a one-shot game (pd, pds, pgg) the actor input is fixed by the
        coalition and the member (by |C| alone in the symmetric PGG), so the
        actor runs on the game's whole state table, in the oracle's layout,
        and a member's row is its key: |C| in the symmetric PGG, else
        ``coalition_codes(C) * N + i`` for member i. Observations other than
        the game's one raise ``ContractError`` there. Elsewhere the actor
        runs on every member's row, in member order, and the index is None.
        """
        rows_b, rows_i = np.nonzero(coalition)
        if self._table is None:
            inputs = self.actor_inputs(base_t, coalition, rows_b, rows_i)
            masks, index = self.action_masks(rows_i), None
        else:
            inputs, masks = self._table
            # Every row of the table starts with the game's one observation.
            if (base_t != inputs[0, :base_t.shape[-1]]).any():
                raise ContractError("the observations of a one-shot game's "
                                    "policy query differ from its state's")
            index = (coalition.sum(axis=1)[rows_b] if self.symmetric else
                     coalition_codes(coalition)[rows_b] * self.num_agents + rows_i)
        logits, cache = self.actor.forward_cached(inputs[None])
        probs = masked_softmax(logits[0], masks)
        return probs, [layer[0] for layer in cache], index

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
        actual = self.agent_values(self.critic.forward(critic_cur[None])[0],
                                   member)
        s, n = member.shape
        if self.symmetric:
            # Members all see |C|-1 agents, outsiders all |C|+1.
            frac = critic_cur[:, 0]
            inputs = np.stack([frac - 1.0 / n, frac + 1.0 / n], axis=1)
            out = self.critic.forward(inputs.reshape(1, 2 * s, 1)).reshape(s, 2, 2)
            flipped = np.where(member, out[:, 0, 1:], out[:, 1, :1])
        else:
            inputs = np.repeat(critic_cur, n, axis=0)  # row s * n + i
            rows = np.arange(s * n)
            agents = np.tile(np.arange(n), s)
            # critic_inputs puts the coalition one-hot in the last n columns.
            inputs[rows, inputs.shape[1] - n + agents] = ~member.reshape(-1)
            flipped = self.critic.forward(inputs[None])[0, rows, agents].reshape(s, n)
        return actual, flipped

    # -- training ----------------------------------------------------------

    def td_residuals(self, batch: MediatorBatch
                     ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-agent TD residuals (S, N) plus the critic cache for backprop.

        The bootstrap value of step s is this pass's value at step s + batch
        under that step's coalition; the last step of an episode has none.
        """
        out_cur, cache = self.critic.forward_cached(batch.critic_cur[None])
        v_cur = self.agent_values(out_cur[0], batch.member)
        v_next = np.zeros_like(v_cur)
        v_next[:-batch.batch] = v_cur[batch.batch:]
        deltas = batch.rewards + self.gamma * v_next - v_cur
        return deltas, cache

    def update(self, batch: MediatorBatch, beta: float,
               k: int) -> dict[str, float | list[float | None]]:
        """Critic step, actor step for every coalition head, then the dual
        step if the mediator is constrained.

        The TD residuals act as constants in the actor loss and as the error
        signal in the critic loss. Lagrange multipliers update once per call,
        from window-aggregated counterfactual value gaps averaged over the
        batch, only for agents observed on the relevant side of the coalition.

        Returns the losses; a constrained mediator adds per-agent lists of the
        gaps behind the dual step (``ic_gap``, ``e_gap``, None where it skipped
        an agent) and of the multipliers after it (``lambda_ic``, ``lambda_e``).
        """
        deltas, cache = self.td_residuals(batch)
        (critic_loss,), upstream = value_loss(
            deltas[None], np.ones((1, len(deltas)), dtype=bool))
        if not np.isfinite(critic_loss):
            raise TrainingDiverged("mediator critic loss non-finite")
        if self.symmetric:  # head 0 values the members, head 1 the rest
            up, member = upstream[0], batch.member
            upstream = np.stack([(up * member).sum(axis=1),
                                 (up * ~member).sum(axis=1)], axis=1)[None]
        grad = self.critic.backward(cache, upstream)
        del cache  # spent
        self.critic_opt.step(self.critic.theta, grad)

        stats = {"critic_loss": float(critic_loss), "actor_loss": 0.0}
        r = batch.actor_actions.shape[0]
        if r > 0:
            weights = actor_head_weights(deltas, batch.member, batch.actor_step,
                                         batch.actor_agent, self.lagrange)
            (actor_loss,), grad = policy_loss(
                self.actor, [layer[None] for layer in batch.actor_acts],
                batch.actor_probs[None], batch.actor_actions[None],
                weights[None], beta, np.ones((1, r), dtype=bool),
                batch.actor_rows)
            if not np.isfinite(actor_loss):
                raise TrainingDiverged("mediator actor loss non-finite")
            self.actor_opt.step(self.actor.theta, grad)
            stats["actor_loss"] = float(actor_loss)

        if self.lagrange is not None:
            ic_gaps, ic_valid, e_gaps, e_valid = self._constraint_gaps(batch, k)
            self.lagrange.apply(ic_gaps, ic_valid, e_gaps, e_valid)
            stats.update(ic_gap=np.where(ic_valid, ic_gaps, None).tolist(),
                         e_gap=np.where(e_valid, e_gaps, None).tolist(),
                         lambda_ic=self.lagrange.lambda_ic.tolist(),
                         lambda_e=self.lagrange.lambda_e.tolist())
        return stats

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
        elsewhere are zero. Sums run over each commitment window
        (``mediation.window_sums``); membership is constant within a window,
        so the window-start rows say which windows count, and means run over
        those windows per agent.
        """
        shape = (batch.horizon, batch.batch, self.num_agents)
        side_w = side.reshape(shape)[::k]
        counts = side_w.sum(axis=(0, 1))
        valid = counts > 0
        totals = (window_sums(gap_step.reshape(shape), k, self.gamma)
                  * side_w).sum(axis=(0, 1))
        gaps = np.divide(totals, counts, out=np.zeros(self.num_agents),
                         where=valid)
        return gaps, valid

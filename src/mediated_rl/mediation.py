"""The minimal-mediator protocol wrapped around any game.

Each agent gets one extra action, ``commit``, appended as the last index of
its action space. Committing cedes control to the mediator for the current
commitment window of ``k`` steps. Within a window the coalition is frozen:
committed agents are forced to keep committing (status +1) and the rest are
barred from joining (status -1); at window boundaries (t mod k == 0) the
status is 0 and every action is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

# Coalition status values.
LOCKED_OUT = -1   # mid-window, not committed: cannot join
FREE = 0          # window boundary: may choose anything
COMMITTED = 1     # mid-window, committed: the mediator acts


def commit_index(num_env_actions: int) -> int:
    """The commit action is appended after the environment actions."""
    return num_env_actions


@dataclass(frozen=True)
class CommitmentState:
    """Coalition membership plus the window bookkeeping that drives masking."""

    coalition: np.ndarray  # bool, one flag per agent
    k: int
    t: int

    @property
    def window_phase(self) -> int:
        return self.t % self.k

    def statuses(self) -> np.ndarray:
        """Per-agent status in {-1, 0, 1} for the decision at time t."""
        if self.window_phase == 0:
            return np.zeros(self.coalition.shape[0], dtype=np.int64)
        return np.where(self.coalition, COMMITTED, LOCKED_OUT)


def initial_commitment(num_agents: int, k: int) -> CommitmentState:
    if k < 1:
        raise ContractError("commitment window k must be >= 1")
    return CommitmentState(coalition=np.zeros(num_agents, dtype=bool), k=k, t=0)


def legal_action_mask(status: int, num_env_actions: int) -> np.ndarray:
    """Boolean mask over (env actions + commit) for one agent."""
    if status not in (LOCKED_OUT, FREE, COMMITTED):
        raise ContractError(f"invalid status {status}")
    mask = np.ones(num_env_actions + 1, dtype=bool)
    if status == LOCKED_OUT:
        mask[num_env_actions] = False
    elif status == COMMITTED:
        mask[:] = False
        mask[num_env_actions] = True
    return mask


def legal_action_mask_batch(statuses: np.ndarray,
                            num_env_actions: int | np.ndarray) -> np.ndarray:
    """Vectorized mask over a (...,) array of statuses -> (..., A+1) bools.

    ``num_env_actions`` may be an array broadcasting against ``statuses``
    (agents with unequal action sets); each row then has its commit action at
    its own index, A is the largest count, and the columns past a row's
    commit action are illegal padding.
    """
    s = np.asarray(statuses)
    a = np.asarray(num_env_actions)[..., None]
    cols = np.arange(a.max() + 1)
    env_ok = (cols < a) & (s != COMMITTED)[..., None]
    commit_ok = (cols == a) & (s != LOCKED_OUT)[..., None]
    return env_ok | commit_ok


def form_coalition(agent_choices: np.ndarray, prev: CommitmentState,
                   t: int, num_env_actions: np.ndarray) -> CommitmentState:
    """Update coalition membership after all agents chose at time t.

    At window boundaries the coalition becomes exactly the set of agents
    choosing commit; inside a window membership is carried over unchanged,
    and the choices of committed agents must be the forced commit action.
    """
    choices = np.asarray(agent_choices)
    commit_idx = np.asarray(num_env_actions)
    chose_commit = choices == commit_idx
    if t % prev.k == 0:
        coalition = chose_commit
    else:
        coalition = prev.coalition
        if np.any(coalition & ~chose_commit):
            raise ContractError("committed agent made a non-commit choice")
        if np.any(~coalition & chose_commit):
            raise ContractError("locked-out agent chose commit")
    return CommitmentState(coalition=coalition, k=prev.k, t=t)


def assemble_joint_action(agent_choices: np.ndarray,
                          mediator_actions: np.ndarray,
                          coalition: np.ndarray) -> np.ndarray:
    """Joint env action: the mediator's pick for members, own pick otherwise.

    ``mediator_actions`` may carry placeholders (< 0) outside the coalition.
    """
    choices = np.asarray(agent_choices)
    med = np.asarray(mediator_actions)
    member = np.asarray(coalition, dtype=bool)
    if np.any(member & (med < 0)):
        raise ContractError("missing mediator action for a coalition member")
    return np.where(member, med, choices)


def coalition_onehot(coalition: np.ndarray) -> np.ndarray:
    """Encode membership flags as a float vector (asymmetric mediator mode)."""
    return np.asarray(coalition, dtype=np.float64)


def coalition_fraction(coalition: np.ndarray) -> float:
    """Encode a coalition as |C|/N (symmetric mediator mode)."""
    member = np.asarray(coalition, dtype=bool)
    return member.sum() / member.shape[0]

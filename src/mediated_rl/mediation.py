"""The minimal-mediator protocol wrapped around any game.

Each agent gets one extra action, ``commit``: an agent with A env actions
(ids 0 to A - 1) commits with action A. Committing cedes control to the
mediator for the current commitment window of ``k`` steps. Within a window
the coalition is frozen: committed agents are forced to keep committing
(status +1) and the rest are barred from joining (status -1); at window
boundaries (t mod k == 0) the status is 0 and every action is legal.
``window_sums`` gives the discounted return of each window, on which an
agent's commit decision and the mediator's constraints are valued.

Every function here works on a batch of episodes advancing in lockstep, with
agents along the last axis; the rollout and the oracle's Monte-Carlo check
both step the protocol through them.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np

from .errors import ContractError

# Coalition status values.
LOCKED_OUT = -1   # mid-window, not committed: cannot join
FREE = 0          # window boundary: may choose anything
COMMITTED = 1     # mid-window, committed: the mediator acts


def legal_action_mask_batch(statuses: np.ndarray,
                            num_env_actions: int | np.ndarray) -> np.ndarray:
    """Vectorized mask over a (...,) array of statuses -> (..., A+1) bools.

    ``num_env_actions`` may be an array broadcasting against ``statuses``
    (agents with unequal action sets); each row then has its commit action at
    its own index, A is the largest count, and the columns past a row's
    commit action are illegal padding.
    """
    s = np.asarray(statuses)
    a = np.asarray(num_env_actions)
    env_ok, commit_ok = s != COMMITTED, s != LOCKED_OUT
    fewest, most = a.min(), a.max()
    out = np.empty((*np.broadcast(s, a).shape, most + 1), dtype=bool)
    # Column by column: broadcasts over the short action axis are slow.
    for col in range(most + 1):
        out[..., col] = (env_ok if col < fewest else commit_ok if fewest == most
                         else np.where(col < a, env_ok, (col == a) & commit_ok))
    return out


def coalition_codes(coalitions: np.ndarray) -> np.ndarray:
    """One integer per coalition row (..., N), agent 0 the highest bit: code
    c is the bit string ``f"{c:0{N}b}"`` of the members."""
    return coalitions @ (1 << np.arange(coalitions.shape[-1])[::-1])


@functools.lru_cache
def state_table(num_agents: int, horizon: int, by_size: bool = False) -> tuple:
    """Every (turn, coalition code, agent) row of a game shape, as read-only
    turns (R,), coalition bits (R, N) and agents (R,) in ``coalition_codes``
    order, the flat index of a dense (T, 2^N, N, ...) table (with ``by_size``,
    the one-shot PGG's, a row per coalition size 0..N, member 0 standing for
    all), then turn 0's coalitions as 0/1 tuples in order, each mapped to its
    members. The package's one decoder of codes into bits."""
    n = num_agents
    if by_size:
        turn = agent = np.zeros(n + 1, dtype=np.intp)
        coalition = np.tri(n + 1, n, -1, dtype=bool)
    else:
        turn, code, agent = np.indices((horizon, 2 ** n, n)).reshape(3, -1)
        coalition = (code[:, None] >> np.arange(n)[::-1] & 1).astype(bool)
    for array in (turn, coalition, agent):
        array.flags.writeable = False
    firsts = coalition[(turn == 0) & (agent == 0)].astype(int).tolist()
    return turn, coalition, agent, MappingProxyType(
        {tuple(bits): frozenset(np.flatnonzero(bits).tolist()) for bits in firsts})


def window_statuses(coalition: np.ndarray, t: int, k: int) -> np.ndarray:
    """Statuses in {-1, 0, 1} for the decisions at time t, shaped like
    ``coalition``, the membership carried into t."""
    if t % k == 0:
        return np.zeros(coalition.shape, dtype=np.int64)
    return np.where(coalition, COMMITTED, LOCKED_OUT)


def next_coalition(coalition: np.ndarray, choices: np.ndarray, t: int, k: int,
                   env_actions: np.ndarray) -> np.ndarray:
    """Membership after the choices at time t.

    At a window boundary the coalition becomes exactly the agents choosing
    their commit action (``env_actions``, the env action counts, broadcasts
    against ``choices``); inside a window it carries over unchanged, and
    members must have chosen commit and everyone else must not have.
    """
    chose_commit = choices == env_actions
    if t % k == 0:
        return chose_commit
    if (coalition != chose_commit).any():
        if (coalition & ~chose_commit).any():
            raise ContractError("committed agent made a non-commit choice")
        raise ContractError("locked-out agent chose commit")
    return coalition


def window_sums(values: np.ndarray, k: int, gamma: float) -> np.ndarray:
    """Discounted sums of ``values`` (T, ...) over each commitment window,
    (ceil(T / k), ...); the last window ends at the horizon."""
    flat = values.reshape(len(values), -1)
    sums = [gamma ** np.arange(len(rows)) @ rows
            for rows in (flat[t:t + k] for t in range(0, len(flat), k))]
    return np.reshape(sums, (len(sums), *values.shape[1:]))


def joint_env_actions(choices: np.ndarray, med_actions: np.ndarray,
                      coalition: np.ndarray) -> np.ndarray:
    """Executed env actions: the mediator's pick for members, each agent's
    own choice otherwise (``med_actions`` outside the coalition is ignored,
    and may hold placeholders < 0)."""
    if (coalition & (med_actions < 0)).any():
        raise ContractError("missing mediator action for a coalition member")
    return np.where(coalition, med_actions, choices)

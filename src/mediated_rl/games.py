"""Markov-game interface and the concrete social-dilemma environments.

Five environments: one-shot prisoner's dilemma, prisoner's dilemma with a
sacrifice action, a two-step asymmetric prisoner's dilemma, the one-shot
public goods game, and a 10-turn compounding public goods game. Matrix games
are pure table lookups; the public goods games are closed-form formulas.

Action index conventions: 0 = defect, 1 = cooperate/contribute, and for the
sacrifice variant 2 = sacrifice. Joint actions are index tuples in fixed
agent order; payoff tables are indexed ``table[a_0, a_1, ..., agent]``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConfigError, ContractError, is_integer, is_real

DEFECT = 0
COOPERATE = 1
SACRIFICE = 2

ITER_PGG_HORIZON = 10
ITER_PGG_CONTRIB_SHARE = 0.5


class GameKind(Enum):
    MATRIX = "matrix"
    ONE_SHOT_PGG = "pgg"
    ITERATIVE_PGG = "pgg_iter"


@dataclass(frozen=True, eq=False)
class PayoffSpec:
    """Immutable description of a game.

    ``payoff_tables`` is one array per state (matrix games only), each of
    shape ``num_actions + (num_agents,)``, kept as read-only float64 copies;
    ``num_actions`` is kept as a tuple. PGG variants instead carry the
    multiplier ``n`` with 1 < n < N. A spec equals only itself.
    """

    kind: GameKind
    num_agents: int
    num_actions: tuple[int, ...]
    horizon: int = 1
    payoff_tables: tuple[np.ndarray, ...] | None = None
    multiplier: float | None = None
    name: str = ""

    def __post_init__(self):
        _check_agent_count(self.num_agents)
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        object.__setattr__(self, "num_actions", tuple(self.num_actions))
        if self.payoff_tables is not None:
            object.__setattr__(self, "payoff_tables",
                               tuple(map(_read_only, self.payoff_tables)))
        if len(self.num_actions) != self.num_agents:
            raise ConfigError("num_actions must list one action count per agent")
        if self.kind is GameKind.MATRIX:
            if self.payoff_tables is None or len(self.payoff_tables) != self.horizon:
                raise ConfigError("matrix games need one payoff table per state")
            want = self.num_actions + (self.num_agents,)
            for table in self.payoff_tables:
                if table.shape != want:
                    raise ConfigError(
                        f"payoff table shape {table.shape} != expected {want}"
                    )
        else:
            if not is_real(self.multiplier):
                raise ConfigError(f"PGG games need a real multiplier, "
                                  f"got {self.multiplier!r}")
            if not 1.0 < self.multiplier < self.num_agents:
                raise ConfigError(
                    f"PGG multiplier must satisfy 1 < n < N, got n={self.multiplier}, "
                    f"N={self.num_agents}"
                )
            if any(a != 2 for a in self.num_actions):
                raise ConfigError("PGG agents have exactly two actions")

    @property
    def max_actions(self) -> int:
        return max(self.num_actions)

    def __reduce__(self):
        """Rebuild through the constructor, so copies and pickles keep
        read-only tables."""
        return PayoffSpec, tuple(getattr(self, f.name) for f in fields(self))


def _read_only(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


def _check_agent_count(num_agents) -> None:
    """Raise ConfigError unless ``num_agents`` is a positive integer."""
    if not is_integer(num_agents) or num_agents < 1:
        raise ConfigError(f"num_agents must be a positive integer, got {num_agents!r}")


# ---------------------------------------------------------------------------
# Environment constructors


def _matrix_spec(name: str, tables: list[list[list[tuple[float, ...]]]],
                 num_actions: tuple[int, ...]) -> PayoffSpec:
    return PayoffSpec(
        kind=GameKind.MATRIX,
        num_agents=len(num_actions),
        num_actions=num_actions,
        horizon=len(tables),
        payoff_tables=tables,
        name=name,
    )


def prisoners_dilemma() -> PayoffSpec:
    """One-shot PD: mutual defection nets 0, mutual cooperation 2, temptation 7."""
    table = [
        [(0.0, 0.0), (7.0, -5.0)],  # agent 0 defects
        [(-5.0, 7.0), (2.0, 2.0)],  # agent 0 cooperates
    ]
    return _matrix_spec("pd", [table], (2, 2))


def pd_with_sacrifice() -> PayoffSpec:
    """Asymmetric PD where agent 1 can sacrifice its payoff for welfare 5."""
    table = [
        [(1.0, 1.0), (3.0, 0.0), (5.0, 0.0)],
        [(0.0, 3.0), (2.0, 2.0), (5.0, 0.0)],
    ]
    return _matrix_spec("pds", [table], (2, 3))


def two_step_pd() -> PayoffSpec:
    """Two-step PD; in the first state mutual cooperation pays (-1, 4)."""
    state0 = [
        [(0.0, 0.0), (7.0, -5.0)],
        [(-5.0, 7.0), (-1.0, 4.0)],
    ]
    state1 = [
        [(0.0, 0.0), (7.0, -5.0)],
        [(-5.0, 7.0), (2.0, 2.0)],
    ]
    return _matrix_spec("pd2", [state0, state1], (2, 2))


def one_shot_pgg(num_agents: int, multiplier: float) -> PayoffSpec:
    _check_agent_count(num_agents)
    return PayoffSpec(
        kind=GameKind.ONE_SHOT_PGG,
        num_agents=num_agents,
        num_actions=(2,) * num_agents,
        horizon=1,
        multiplier=multiplier,
        name="pgg",
    )


def iterative_pgg(num_agents: int, multiplier: float,
                  horizon: int = ITER_PGG_HORIZON) -> PayoffSpec:
    _check_agent_count(num_agents)
    return PayoffSpec(
        kind=GameKind.ITERATIVE_PGG,
        num_agents=num_agents,
        num_actions=(2,) * num_agents,
        horizon=horizon,
        multiplier=multiplier,
        name="pgg_iter",
    )


_BUILTINS = {
    "pd": prisoners_dilemma,
    "pds": pd_with_sacrifice,
    "pd2": two_step_pd,
}


def make_spec(env: str, num_agents: int = 3, multiplier: float = 2.0) -> PayoffSpec:
    """Build a spec from an environment id: pd | pds | pd2 | pgg | pgg-iter."""
    env = env.replace("_", "-")
    if env in _BUILTINS:
        return _BUILTINS[env]()
    if env == "pgg":
        return one_shot_pgg(num_agents, multiplier)
    if env == "pgg-iter":
        return iterative_pgg(num_agents, multiplier)
    raise ConfigError(f"unknown environment {env!r}")


# ---------------------------------------------------------------------------
# Stepping


def step_batch(spec: PayoffSpec, turn: int, endowments: np.ndarray | None,
               actions: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance a batch of episodes in lockstep by one turn.

    ``actions`` has shape (B, N). Matrix games look the joint action up in
    the turn's payoff table. The one-shot PGG pays
    r_i = (n/N) * sum_j c_j - c_i. In the compounding PGG each contributor
    pays half its endowment into the pool, the pool is multiplied by n and
    split equally among all N agents, and the reward is the endowment delta,
    so undiscounted returns telescope to final minus initial endowment.
    Returns (rewards (B, N), new endowments or None).
    """
    if turn >= spec.horizon:
        raise ContractError("step on a terminal state")
    if spec.kind is GameKind.MATRIX:
        table = spec.payoff_tables[turn]
        rewards = table[tuple(actions[:, i] for i in range(spec.num_agents))]
        return rewards, None
    c = actions.astype(np.float64)
    if spec.kind is GameKind.ONE_SHOT_PGG:
        rewards = (spec.multiplier / spec.num_agents) * c.sum(
            axis=1, keepdims=True) - c
        return rewards, None
    paid = ITER_PGG_CONTRIB_SHARE * endowments * c
    share = spec.multiplier * paid.sum(axis=1, keepdims=True) / spec.num_agents
    new_e = endowments - paid + share
    return new_e - endowments, new_e


# ---------------------------------------------------------------------------
# Observations


def obs_dim(spec: PayoffSpec) -> int:
    """Length of the per-agent base observation (what critics see)."""
    if spec.kind is GameKind.ITERATIVE_PGG:
        return 2  # (endowment, normalized turn)
    return 1  # constant dummy, or normalized turn for multi-step matrix games


def base_obs_batch(spec: PayoffSpec, turn: int,
                   endowments: np.ndarray | None, batch: int) -> np.ndarray:
    """Per-agent base observations for a batch, shape (B, N, obs_dim)."""
    n = spec.num_agents
    if spec.kind is GameKind.ITERATIVE_PGG:
        obs = np.empty((batch, n, 2))
        obs[:, :, 0] = endowments
        obs[:, :, 1] = turn / spec.horizon
        return obs
    value = turn / spec.horizon if spec.horizon > 1 else 1.0
    return np.full((batch, n, 1), value)

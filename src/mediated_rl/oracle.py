"""Exact game-theoretic reference computations.

Expected payoffs of mixed strategy profiles under the mediation protocol,
best-response gaps, the analytically optimal constrained mediator for the
public goods game, welfare bounds used to normalize reported rewards, and a
Monte-Carlo sampler that cross-checks the exact expectations.

Every query reads the arrays ``MixedProfile.check`` returns. Matrix games
and the sampler step the commitment protocol of ``mediation``, with one
restriction of the profile to what each status allows and one index into a
dense mediator table; the exact evaluation enumerates every positive-weight
branch where the sampler draws. The one-shot public goods game exploits
agent symmetry (coalition sizes instead of subsets) to stay polynomial in N.
The exact evaluation takes a stack of agent policies against one mediator,
so a query evaluates the profile and all of its deviations in one pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import games
from .approx import sample_categorical
from .errors import ConfigError, ContractError, UnsupportedGameError
from .games import GameKind, PayoffSpec
from .mediation import (COMMITTED, LOCKED_OUT, joint_env_actions,
                        legal_action_mask_batch, next_coalition,
                        window_statuses)

DIST_TOL = 5e-12


def _is_distribution(p: np.ndarray) -> bool:
    """A 1-d vector of non-negative entries summing to 1, within DIST_TOL."""
    if p.ndim != 1:
        return False
    # Profile vectors are short, so Python's min and sum beat NumPy's calls.
    values = p.tolist()
    return (min(values, default=-1.0) >= -DIST_TOL
            and abs(sum(values) - 1.0) <= DIST_TOL)


@dataclass
class MixedProfile:
    """Stationary mixed strategies for agents and (optionally) the mediator.

    ``agent_policies[state][agent]`` is a distribution over that agent's env
    actions, plus a trailing commit entry when ``mediated``. The mediator's
    per-coalition policy is either explicit per coalition
    (``mediator_by_coalition[state][bits][agent]``, a float array; bits a
    0/1 tuple) or, for the symmetric PGG, a contribute probability per
    coalition size (``mediator_by_size[s]``). Construction only converts
    the policies and the size table to float arrays; ``check`` says whether
    the profile fits a game.
    """

    agent_policies: list[list[np.ndarray]]
    mediated: bool = False
    mediator_by_coalition: list[dict[tuple[int, ...], dict[int, np.ndarray]]] | None = None
    mediator_by_size: np.ndarray | None = None

    def __post_init__(self):
        self.agent_policies = [[np.asarray(p, dtype=np.float64) for p in state]
                               for state in self.agent_policies]
        if self.mediator_by_size is not None:
            self.mediator_by_size = np.asarray(self.mediator_by_size, dtype=np.float64)

    def check(self, spec: PayoffSpec) -> tuple[np.ndarray, np.ndarray]:
        """Raise ContractError unless the profile fits the game: a bool
        ``mediated``, a distribution per state and agent over its env actions
        (plus commit when mediated), and, only when mediated, the one table
        the game takes, with a distribution for every member of every
        coalition (by size in the one-shot PGG, N+1 of them). Returns, built
        afresh, the policies zero-padded to (T, N, A+1) and the mediator: the
        size table in the one-shot PGG, else a (T, 2^N, N, A) table indexed by
        ``_codes``, non-members (and all when unmediated) on action 0."""
        if not isinstance(self.mediated, bool):
            raise ContractError(
                f"mediated must be true or false, got {self.mediated!r}")
        arities = [a + self.mediated for a in spec.num_actions]
        if len(self.agent_policies) != spec.horizon or any(
                [p.shape for p in state] != [(a,) for a in arities]
                for state in self.agent_policies):
            raise ContractError(f"agent_policies needs {spec.horizon} state(s) "
                                f"of policies over {arities} actions")
        n = spec.num_agents
        policies = np.zeros((spec.horizon, n, spec.max_actions + 1))
        for t, state in enumerate(self.agent_policies):
            for i, pol in enumerate(state):
                if not _is_distribution(pol):
                    raise ContractError(f"agent_policies holds {pol}, not a "
                                        "probability vector")
                policies[t, i, :pol.size] = pol
        by_size, by_coal = self.mediator_by_size, self.mediator_by_coalition
        mediator = (np.zeros(n + 1) if spec.kind is GameKind.ONE_SHOT_PGG else
                    np.tile(np.eye(spec.max_actions)[0], (spec.horizon, 2 ** n, n, 1)))
        if not self.mediated:
            if by_size is not None or by_coal is not None:
                raise ContractError("an unmediated profile has no mediator table")
        elif spec.kind is GameKind.ONE_SHOT_PGG:
            if by_coal is not None:
                raise ContractError("the one-shot pgg takes mediator_by_size, "
                                    "not mediator_by_coalition")
            if by_size is None:
                raise ContractError("a mediated profile needs mediator_by_size")
            if (by_size.shape != (spec.num_agents + 1,)
                    or not np.all((by_size >= 0.0) & (by_size <= 1.0))):
                raise ContractError(
                    f"mediator_by_size needs {spec.num_agents + 1} "
                    "probabilities, one per coalition size 0..N")
            mediator = by_size
        else:
            if by_size is not None:
                raise ContractError("mediator_by_size is for the one-shot pgg only")
            if by_coal is None:
                raise ContractError("a mediated profile needs mediator_by_coalition")
            if len(by_coal) != spec.horizon:
                raise ContractError(f"mediator_by_coalition needs {spec.horizon} "
                                    "state(s)")
            for t, code in np.ndindex(spec.horizon, 2 ** n):
                bits = tuple(map(int, f"{code:0{n}b}"))  # as in _codes
                for agent in (i for i, b in enumerate(bits) if b):
                    dist = by_coal[t].get(bits, {}).get(agent)
                    if (dist is None or dist.shape != (spec.num_actions[agent],)
                            or not _is_distribution(dist)):
                        raise ContractError(
                            f"mediator_by_coalition needs, in every state, a "
                            f"probability vector over agent {agent}'s "
                            f"{spec.num_actions[agent]} actions for coalition "
                            + "".join(map(str, bits)))
                    mediator[t, code, agent, :dist.shape[0]] = dist
        return policies, mediator


def _check_int(name: str, value, low: int, high: float = np.inf) -> None:
    """Raise unless ``value`` is an integer in [low, high)."""
    if not isinstance(value, (int, np.integer)) or not low <= value < high:
        raise ContractError(f"{name} must be an integer in [{low}, {high}), "
                            f"got {value!r}")


def _check_query(spec: PayoffSpec, profile: MixedProfile, k: int,
                 agent: int | None = None,
                 gamma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless the game has exact expectations, the profile fits it,
    ``k`` is a window length, ``agent``, when given, is one of the game's
    agents and ``gamma`` a discount in [0, 1]; return ``check``'s arrays."""
    if spec.kind is GameKind.ITERATIVE_PGG:
        raise UnsupportedGameError(
            "exact expectations for the iterative PGG are not supported")
    arrays = profile.check(spec)
    _check_int("k", k, 1)
    if agent is not None:
        _check_int("agent", agent, 0, spec.num_agents)
    if not isinstance(gamma, (int, float, np.number)) or not 0 <= gamma <= 1:
        raise ContractError(f"gamma must be a number in [0, 1], got {gamma!r}")
    return arrays


def uniform_profile(spec: PayoffSpec, mediated: bool) -> MixedProfile:
    """Uniform play everywhere: a reference profile for the oracle tests."""
    policies = [[np.full(a + mediated, 1.0 / (a + mediated))
                 for a in spec.num_actions] for _ in range(spec.horizon)]
    if not mediated:
        return MixedProfile(agent_policies=policies)
    if spec.kind is GameKind.ONE_SHOT_PGG:
        return MixedProfile(agent_policies=policies, mediated=True,
                            mediator_by_size=np.full(spec.num_agents + 1, 0.5))
    return MixedProfile(agent_policies=policies, mediated=True,
                        mediator_by_coalition=_coalition_tables(
                            spec, lambda t, i: np.full(spec.num_actions[i],
                                                       1.0 / spec.num_actions[i])))


def _coalition_tables(spec: PayoffSpec, member_dist) -> list[dict]:
    """Per-state mediator tables in which member i of every coalition plays
    ``member_dist(t, i)`` in state t."""
    return [{bits: {i: member_dist(t, i) for i in range(spec.num_agents) if bits[i]}
             for bits in itertools.product((0, 1), repeat=spec.num_agents)}
            for t in range(spec.horizon)]


# ---------------------------------------------------------------------------
# Expected payoffs


def expected_payoffs(spec: PayoffSpec, profile: MixedProfile, k: int = 1,
                     gamma: float = 1.0) -> np.ndarray:
    """Exact per-agent expected return under the profile.

    Covers matrix games of any (small) horizon and the one-shot PGG; general
    policies in the iterative PGG have no closed form here.
    """
    policies, mediator = _check_query(spec, profile, k, gamma=gamma)
    return _expected(spec, mediator, policies[None], k, gamma)[0]


def _expected(spec: PayoffSpec, mediator: np.ndarray, policies: np.ndarray,
              k: int, gamma: float) -> np.ndarray:
    """Expected payoffs (P, N) of a stack of padded agent policies
    (P, T, N, A+1) against one mediator, both as ``check`` returns them."""
    if spec.kind is GameKind.ONE_SHOT_PGG:
        return _pgg_expected(spec, mediator, policies)
    return _matrix_expected(spec, mediator, policies, k, gamma)


def _restrict(policies: np.ndarray, statuses: np.ndarray,
              num_env_actions: int | np.ndarray) -> np.ndarray:
    """The one rule for what each status leaves a tabular policy: its mass
    on the legal actions, renormalized, or uniform over them if it has none
    there. ``policies`` broadcasts against the statuses' (..., A+1) masks."""
    masks = legal_action_mask_batch(statuses, num_env_actions)
    weights = np.where(masks, policies, 0.0)
    np.copyto(weights, masks, where=weights.sum(axis=-1, keepdims=True) == 0.0)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _member_dists(mediator: np.ndarray, t: int, coalitions: np.ndarray) -> np.ndarray:
    """The mediator's (C, N, A) distributions over env actions for coalitions
    (C, N) in state t, read from its dense table or, in the one-shot PGG,
    by size. Non-members get the placeholder point mass on action 0."""
    if mediator.ndim == 1:
        contribute = np.where(coalitions,
                              mediator[coalitions.sum(axis=1)][:, None], 0.0)
        return np.stack([1.0 - contribute, contribute], axis=-1)
    return mediator[t, _codes(coalitions)]


def _codes(coalitions: np.ndarray) -> np.ndarray:
    """One integer per coalition row; agent 0 is the highest bit."""
    return coalitions @ (1 << np.arange(coalitions.shape[-1])[::-1])


@functools.lru_cache
def _joint_grid(n: int, width: int) -> np.ndarray:
    """Every joint action of n agents of ``width`` actions, read-only."""
    grid = np.array(list(itertools.product(range(width), repeat=n)))
    grid.flags.writeable = False
    return grid


def _branches(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-probability joint outcomes of independent per-agent draws
    (R, N, W): the row each comes from, its joint action and probability."""
    n, width = dists.shape[1:]
    grid = _joint_grid(n, width)
    probs = dists[:, np.arange(n), grid].prod(axis=-1)
    rows, cols = np.nonzero(probs)
    return rows, grid[cols], probs[rows, cols]


def _matrix_expected(spec: PayoffSpec, mediator: np.ndarray,
                     policies: np.ndarray, k: int, gamma: float) -> np.ndarray:
    """Walk the horizon forward over a distribution of (stack index,
    coalition) rows, running the rollout's protocol steps on every
    positive-weight branch of the agents' choices and then of the mediator's
    actions. Branches merge by index and coalition after each step, because
    the future depends on them alone."""
    n = spec.num_agents
    env_actions = np.asarray(spec.num_actions)
    index = np.arange(policies.shape[0])
    coalitions = np.zeros((index.size, n), dtype=bool)
    weights = np.ones(index.size)
    total = np.zeros((index.size, n))
    for t in range(spec.horizon):
        rows, choices, probs = _branches(_restrict(
            policies[index, t], window_statuses(coalitions, t, k), env_actions))
        coalition = next_coalition(coalitions[rows], choices, t, k, env_actions)
        weight, index = weights[rows] * probs, index[rows]
        rows, med_actions, probs = _branches(
            _member_dists(mediator, t, coalition))
        rewards, _ = games.step_batch(spec, t, None, joint_env_actions(
            choices[rows], med_actions, coalition[rows]))
        np.add.at(total, index[rows],
                  gamma ** t * (weight[rows] * probs)[:, None] * rewards)
        if t + 1 == spec.horizon:
            break
        # One key per (index, coalition): the index above the coalition bits.
        _, first, merged = np.unique(index << n | _codes(coalition),
                                     return_index=True, return_inverse=True)
        coalitions, index = coalition[first], index[first]
        weights = np.bincount(merged, weight)
    return total


def _pgg_expected(spec: PayoffSpec, by_size: np.ndarray,
                  policies: np.ndarray) -> np.ndarray:
    """Closed form over coalition sizes for every stacked profile and agent
    at once: an agent contributes directly, or commits and the mediator
    contributes with p_{1+K}, K the number of other agents committing.
    K's generating function, prod_{j != i} (1 - q_j + q_j z) over the others'
    commit chances q_j, has degree below N, so E[p_{1+K}] is its values at
    the N-th roots of unity dotted with the DFT of p_1..p_N, over N. Prefix
    and suffix products leave agent i out without dividing by a factor,
    which can vanish (q_j = 1/2 at z = -1)."""
    n_agents, mult = spec.num_agents, spec.multiplier
    direct, commit = policies[:, 0, :, games.COOPERATE], policies[:, 0, :, -1]
    powers = np.arange(n_agents)
    roots = np.exp(2j * np.pi * powers / n_agents)
    factors = 1.0 - commit[..., None] + commit[..., None] * roots
    ones = np.ones_like(factors[:, :1])
    before = np.cumprod(np.concatenate([ones, factors[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, factors[:, :0:-1]], axis=1),
                       axis=1)[:, ::-1]
    dft = roots[np.outer(powers, powers) % n_agents].conj() @ by_size[1:]
    contrib = direct + commit * ((before * after) @ dft).real / n_agents
    return (mult / n_agents) * contrib.sum(axis=1, keepdims=True) - contrib


# ---------------------------------------------------------------------------
# Best response


@functools.lru_cache
def _pure_plans(num_actions: int, mediated: bool, horizon: int, k: int,
                width: int) -> np.ndarray:
    """Every pure strategy of an agent with ``num_actions`` env actions, as
    read-only (P, T, width) point distributions padded like the policies
    ``check`` returns. A plan picks, in each state, an action legal outside
    the coalition: any head action at a window boundary, an env action
    mid-window (a committed agent's mid-window choice is forced)."""
    outside = np.zeros(1, dtype=bool)
    options = [np.flatnonzero(legal_action_mask_batch(
                   window_statuses(outside, t, k)[0],
                   num_actions)[:num_actions + mediated])
               for t in range(horizon)]
    plans = np.eye(width)[np.array(list(itertools.product(*options)))]
    plans.flags.writeable = False
    return plans


def best_response_gap(spec: PayoffSpec, profile: MixedProfile, agent: int,
                      k: int = 1, gamma: float = 1.0) -> float:
    """How much agent ``agent`` can gain by a pure deviation (>= 0). The
    profile and every plan are evaluated in one stacked pass."""
    policies, mediator = _check_query(spec, profile, k, agent, gamma)
    plans = _pure_plans(spec.num_actions[agent], profile.mediated,
                        spec.horizon, k, spec.max_actions + 1)
    stack = np.repeat(policies[None], len(plans) + 1, axis=0)
    stack[1:, :, agent] = plans
    values = _expected(spec, mediator, stack, k, gamma)[:, agent]
    return float(values[1:].max() - values[0])


# ---------------------------------------------------------------------------
# Optimal constrained mediator for the symmetric one-shot PGG


def optimal_constrained_mediator_pgg(num_agents: int,
                                     multiplier: float) -> np.ndarray:
    """Contribute probability per coalition size for the welfare-maximal
    incentive-compatible mediator.

    With everyone outside the coalition defecting, a member of a coalition
    of size s earns v_in(s) = (n/N) s p_s - p_s and an outsider earns
    v_out(s) = (n/N) s p_s. Maximizing welfare of the full coalition sets
    p_N = 1; walking down, each p_s is pushed as high as the encouragement
    constraint v_in(s+1) >= v_out(s) allows (leaving a coalition of s+1 and
    joining one of s are mirror comparisons, so this also settles
    incentive-compatibility). Sizes whose members would lose by contributing
    get p_s = 0.
    """
    if not 1.0 < multiplier < num_agents:
        raise ConfigError("PGG requires 1 < n < N")
    ratio = multiplier / num_agents
    p = np.zeros(num_agents + 1)
    p[num_agents] = 1.0
    for s in range(num_agents - 1, 0, -1):
        if ratio * s <= 1.0:
            p[s] = 0.0
        else:
            p[s] = min(1.0, (ratio * (s + 1) - 1.0) * p[s + 1] / (ratio * s))
    return p


def full_commit_pgg_profile(spec: PayoffSpec,
                            p_by_size: np.ndarray) -> MixedProfile:
    """Everyone commits; the mediator plays the given size-indexed policy."""
    point = np.array([0.0, 0.0, 1.0])
    return MixedProfile(
        agent_policies=[[point.copy() for _ in range(spec.num_agents)]],
        mediated=True, mediator_by_size=p_by_size)


# ---------------------------------------------------------------------------
# Reward normalization and welfare bounds


def normalization_constants(spec: PayoffSpec) -> tuple[float, float]:
    """(all-defect per-agent return, full-cooperation per-agent return).

    Reported rewards are affinely mapped so these land on 0 and 1.
    """
    if spec.kind is GameKind.ONE_SHOT_PGG:
        return 0.0, spec.multiplier - 1.0
    if spec.kind is GameKind.ITERATIVE_PGG:
        endow = np.ones((1, spec.num_agents))
        total = np.zeros(spec.num_agents)
        for t in range(spec.horizon):
            rewards, endow = games.step_batch(
                spec, t, endow, np.ones((1, spec.num_agents), dtype=np.int64))
            total += rewards[0]
        return 0.0, float(total.mean())
    low = 0.0
    high = 0.0
    for table in spec.payoff_tables:
        low += float(table[(0,) * spec.num_agents].mean())
        high += float(table.sum(axis=-1).max()) / spec.num_agents
    return low, high


def normalized_reward(spec: PayoffSpec, mean_return: float) -> float:
    low, high = normalization_constants(spec)
    return (mean_return - low) / (high - low)


def pure_nash_payoffs(spec: PayoffSpec) -> list[np.ndarray]:
    """Payoff vectors of all pure Nash equilibria of a one-shot matrix game,
    in row-major order of the joint actions. A profile is stable when no
    agent's best reply along its own action axis beats it by over 1e-12."""
    if spec.kind is not GameKind.MATRIX or spec.horizon != 1:
        raise UnsupportedGameError("pure Nash enumeration is for one-shot matrix games")
    table = spec.payoff_tables[0]
    stable = np.logical_and.reduce([
        table[..., i].max(axis=i, keepdims=True) <= table[..., i] + 1e-12
        for i in range(spec.num_agents)])
    return [table[tuple(joint)].copy() for joint in np.argwhere(stable)]


def max_mediated_welfare(spec: PayoffSpec) -> tuple[float, np.ndarray]:
    """Best social welfare a full-coalition mediator can reach while keeping
    every agent at least as well off as at a pure Nash fallback.

    Solved as a small LP over joint-outcome distributions. Returns the
    optimum and the optimal joint distribution (shaped like the payoff
    table without its reward axis).
    """
    nash = pure_nash_payoffs(spec)
    if not nash:
        raise UnsupportedGameError("no pure Nash fallback to anchor deviations")
    from scipy.optimize import linprog  # a slow import, used only here

    fallback = np.max(np.stack(nash), axis=0)
    table = spec.payoff_tables[0]
    flat = table.reshape(-1, spec.num_agents)
    welfare = flat.sum(axis=1)
    res = linprog(
        c=-welfare,
        A_ub=-flat.T,
        b_ub=-fallback,
        A_eq=np.ones((1, flat.shape[0])),
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * flat.shape[0],
        method="highs")
    if not res.success:
        raise UnsupportedGameError(f"welfare LP failed: {res.message}")
    return float(-res.fun), res.x.reshape(table.shape[:-1])


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check


def sample_profile_payoffs(spec: PayoffSpec, profile: MixedProfile,
                           episodes: int, rng: np.random.Generator,
                           k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean and standard error of per-agent returns under a profile.

    Episodes run the steps the exact evaluation enumerates, drawing where it
    branches: statuses, the profile restricted to what each status allows,
    one padded draw for all agents, coalition update, the mediator's draws,
    and joint-action assembly.
    """
    policies, mediator = _check_query(spec, profile, k)
    _check_int("episodes", episodes, 2)
    n = spec.num_agents
    env_actions = np.asarray(spec.num_actions)
    totals = np.zeros((episodes, n))
    coalition = np.zeros((episodes, n), dtype=bool)
    for t in range(spec.horizon):
        probs = _restrict(policies[t, :, None, :],
                          window_statuses(coalition, t, k).T, env_actions[:, None])
        choices = sample_categorical(probs, rng).T
        coalition = next_coalition(coalition, choices, t, k, env_actions)
        med_actions = _sample_mediator(mediator, t, coalition, rng)
        rewards, _ = games.step_batch(
            spec, t, None, joint_env_actions(choices, med_actions, coalition))
        totals += rewards
    mean = totals.mean(axis=0)
    stderr = totals.std(axis=0, ddof=1) / np.sqrt(episodes)
    return mean, stderr


def _sample_mediator(mediator: np.ndarray, t: int, coalition: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """The mediator's env actions for coalitions (E, N) in state t, -1 outside
    them. One draw serves every member of every coalition present, ordered by
    coalition (bit-row order), member and row; each uses its own coalition."""
    rows, members = np.nonzero(coalition)
    order = np.lexsort((rows, members, _codes(coalition)[rows]))
    rows, members = rows[order], members[order]
    dists = _member_dists(mediator, t, coalition)
    med_actions = np.full(coalition.shape, -1, dtype=np.int64)
    med_actions[rows, members] = sample_categorical(dists[rows, members], rng)
    return med_actions


def mediator_copy_profile(spec: PayoffSpec,
                          profile: MixedProfile) -> MixedProfile:
    """Mediator that replays each member's own (commit-renormalized) policy.

    Under this mediator, membership has no effect on anyone's action
    distribution, so it satisfies both constraints with equality. It is per
    member, so the one-shot PGG, whose mediator is by coalition size, has no
    copy mediator.
    """
    policies, _ = profile.check(spec)
    if spec.kind is GameKind.ONE_SHOT_PGG:
        raise ContractError("the copy mediator is per member and has no "
                            "by-size form for the one-shot pgg")
    if not profile.mediated:
        raise ContractError("copy profile needs a mediated agent profile")
    own = _restrict(policies, LOCKED_OUT, np.asarray(spec.num_actions))
    return MixedProfile(
        agent_policies=profile.agent_policies, mediated=True,
        mediator_by_coalition=_coalition_tables(
            spec, lambda t, i: own[t, i, :spec.num_actions[i]]))


def conditional_commit_values(spec: PayoffSpec, profile: MixedProfile,
                              agent: int, k: int = 1,
                              gamma: float = 1.0) -> tuple[float, float]:
    """Agent's expected return conditioned on committing vs. acting itself.

    Both branches keep every other agent on the original profile and
    restrict the agent's first-state policy to one status: committed
    (it commits) or locked out (it plays the commit-renormalized env part).
    """
    policies, mediator = _check_query(spec, profile, k, agent, gamma)
    if not profile.mediated:
        raise ContractError("conditional commit values need a mediated profile")
    a = spec.num_actions[agent]
    stack = np.repeat(policies[None], 2, axis=0)
    stack[:, 0, agent, :a + 1] = _restrict(
        stack[0, 0, agent, :a + 1], np.array([COMMITTED, LOCKED_OUT]), a)
    commit, own = _expected(spec, mediator, stack, k, gamma)[:, agent]
    return float(commit), float(own)

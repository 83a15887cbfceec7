"""Exact game-theoretic reference computations.

Expected payoffs of mixed strategy profiles under the mediation protocol,
best-response gaps, the analytically optimal constrained mediator for the
public goods game, welfare bounds used to normalize reported rewards, and a
Monte-Carlo sampler that runs the rollout's protocol steps over tabular
profiles to cross-check the exact expectations.

Matrix games are evaluated by full enumeration over choices, coalitions, and
mediator actions; the public goods game exploits agent symmetry (coalition
sizes instead of subsets) to stay polynomial in N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog

from . import games
from .approx import sample_categorical
from .errors import ConfigError, ContractError, UnsupportedGameError
from .games import GameKind, PayoffSpec
from .mediation import (joint_env_actions, legal_action_mask_batch,
                        next_coalition, window_statuses)
from .rollout import sample_agent_actions

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

    def check(self, spec: PayoffSpec) -> None:
        """Raise ContractError unless the profile fits the game: a bool
        ``mediated``, a distribution per state and agent over its env actions
        (plus commit when mediated), and, only when mediated, the one table
        the game takes, with a distribution for every member of every
        coalition (by size in the one-shot PGG, N+1 of them)."""
        if not isinstance(self.mediated, bool):
            raise ContractError(
                f"mediated must be true or false, got {self.mediated!r}")
        arities = [a + self.mediated for a in spec.num_actions]
        if len(self.agent_policies) != spec.horizon or any(
                [p.shape for p in state] != [(a,) for a in arities]
                for state in self.agent_policies):
            raise ContractError(f"agent_policies needs {spec.horizon} state(s) "
                                f"of policies over {arities} actions")
        bad = [p for state in self.agent_policies for p in state
               if not _is_distribution(p)]
        if bad:
            raise ContractError(f"agent_policies holds {bad[0]}, not a "
                                "probability vector")
        by_size, by_coal = self.mediator_by_size, self.mediator_by_coalition
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
        else:
            if by_size is not None:
                raise ContractError("mediator_by_size is for the one-shot pgg only")
            if by_coal is None:
                raise ContractError("a mediated profile needs mediator_by_coalition")
            if len(by_coal) != spec.horizon:
                raise ContractError(f"mediator_by_coalition needs {spec.horizon} "
                                    "state(s)")
            for table, bits in itertools.product(
                    by_coal, itertools.product((0, 1), repeat=spec.num_agents)):
                for agent in (i for i, b in enumerate(bits) if b):
                    dist = table.get(bits, {}).get(agent)
                    if (dist is None or dist.shape != (spec.num_actions[agent],)
                            or not _is_distribution(dist)):
                        raise ContractError(
                            f"mediator_by_coalition needs, in every state, a "
                            f"probability vector over agent {agent}'s "
                            f"{spec.num_actions[agent]} actions for coalition "
                            + "".join(map(str, bits)))


def _with_policy(profile: MixedProfile, agent: int,
                 plan: list[np.ndarray]) -> MixedProfile:
    """The profile with ``agent`` playing ``plan[t]`` in state t; ``plan``
    may be shorter than the horizon, leaving later states as they were."""
    return replace(profile, agent_policies=[
        [plan[t] if (i == agent and t < len(plan)) else p
         for i, p in enumerate(state)]
        for t, state in enumerate(profile.agent_policies)])


def _check_exact(spec: PayoffSpec, profile: MixedProfile) -> None:
    """Raise unless the game has exact expectations and the profile fits it."""
    if spec.kind is GameKind.ITERATIVE_PGG:
        raise UnsupportedGameError(
            "exact expectations for the iterative PGG are not supported")
    profile.check(spec)


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
    _check_exact(spec, profile)
    return _expected(spec, profile, k, gamma)


def _expected(spec: PayoffSpec, profile: MixedProfile, k: int,
              gamma: float) -> np.ndarray:
    """``expected_payoffs`` of a profile already checked against the game."""
    if spec.kind is GameKind.ONE_SHOT_PGG:
        return _pgg_expected(spec, profile)
    return _matrix_expected(spec, profile, k, gamma)


def _env_part(policy: np.ndarray, num_env_actions: int) -> np.ndarray:
    """Policy renormalized over env actions (commit masked out)."""
    env = policy[:num_env_actions]
    mass = env.sum()
    if mass <= 0.0:
        return np.full(num_env_actions, 1.0 / num_env_actions)
    return env / mass


def _expected_table(table: np.ndarray, dists: list[np.ndarray]) -> np.ndarray:
    out = table
    for d in dists:
        out = np.tensordot(d, out, axes=(0, 0))
    return out


def _matrix_expected(spec: PayoffSpec, profile: MixedProfile, k: int,
                     gamma: float) -> np.ndarray:
    n = spec.num_agents

    def recurse(t: int, coalition: tuple[int, ...]) -> np.ndarray:
        if t == spec.horizon:
            return np.zeros(n)
        boundary = t % k == 0
        choice_dists = []
        for i in range(n):
            pol = profile.agent_policies[t][i]
            if not profile.mediated or boundary:
                choice_dists.append(pol)
            elif coalition[i]:
                forced = np.zeros(spec.num_actions[i] + 1)
                forced[-1] = 1.0
                choice_dists.append(forced)
            else:
                locked = np.zeros(spec.num_actions[i] + 1)
                locked[:-1] = _env_part(pol, spec.num_actions[i])
                choice_dists.append(locked)
        total = np.zeros(n)
        for joint in itertools.product(*(range(len(d)) for d in choice_dists)):
            prob = float(np.prod([choice_dists[i][joint[i]] for i in range(n)]))
            if prob == 0.0:
                continue
            if profile.mediated:
                committed = tuple(int(joint[i] == spec.num_actions[i])
                                  for i in range(n))
                new_coal = committed if boundary else coalition
            else:
                new_coal = (0,) * n
            env_dists = []
            for i in range(n):
                if profile.mediated and new_coal[i]:
                    env_dists.append(profile.mediator_by_coalition[t][new_coal][i])
                else:
                    point = np.zeros(spec.num_actions[i])
                    point[joint[i]] = 1.0
                    env_dists.append(point)
            rewards = _expected_table(spec.payoff_tables[t], env_dists)
            total += prob * (rewards + gamma * recurse(t + 1, new_coal))
        return total

    return recurse(0, (0,) * n)


def _poisson_binomial(probs: np.ndarray) -> np.ndarray:
    """Distribution of the number of successes among independent Bernoullis."""
    dist = np.array([1.0])
    for p in probs:
        dist = np.convolve(dist, [1.0 - p, p])
    return dist


def _pgg_expected(spec: PayoffSpec, profile: MixedProfile) -> np.ndarray:
    n_agents, mult = spec.num_agents, spec.multiplier
    pols = profile.agent_policies[0]
    direct = np.array([pol[games.COOPERATE] for pol in pols])
    if not profile.mediated:
        contrib = direct
    else:
        commit = np.array([pol[-1] for pol in pols])
        contrib = np.empty(n_agents)
        for j in range(n_agents):
            others = _poisson_binomial(np.delete(commit, j))
            contrib[j] = direct[j] + commit[j] * float(
                others @ profile.mediator_by_size[1:])
    return (mult / n_agents) * contrib.sum() - contrib


# ---------------------------------------------------------------------------
# Best response


def _pure_plans(spec: PayoffSpec, profile: MixedProfile, agent: int,
                k: int) -> list[list[np.ndarray]]:
    """All pure strategies of one agent as per-state point distributions.

    A plan fixes the choice at every (state, status) the agent can face:
    at window boundaries any head action, mid-window env actions only
    (committed agents are forced, so their mid-window entry is irrelevant
    and the original distribution is kept).
    """
    options = []
    for t in range(spec.horizon):
        arity = len(profile.agent_policies[t][agent])
        free = not profile.mediated or t % k == 0
        options.append(np.eye(arity)[:arity if free else spec.num_actions[agent]])
    return [list(plan) for plan in itertools.product(*options)]


def best_response_gap(spec: PayoffSpec, profile: MixedProfile, agent: int,
                      k: int = 1, gamma: float = 1.0) -> float:
    """How much agent ``agent`` can gain by a pure deviation (>= 0)."""
    _check_exact(spec, profile)
    current = _expected(spec, profile, k, gamma)[agent]
    best = -np.inf
    for plan in _pure_plans(spec, profile, agent, k):
        dev = _with_policy(profile, agent, plan)
        best = max(best, _expected(spec, dev, k, gamma)[agent])
    return float(best - current)


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
    """Payoff vectors of all pure Nash equilibria of a one-shot matrix game."""
    if spec.kind is not GameKind.MATRIX or spec.horizon != 1:
        raise UnsupportedGameError("pure Nash enumeration is for one-shot matrix games")
    table = spec.payoff_tables[0]
    out = []
    for joint in itertools.product(*(range(a) for a in spec.num_actions)):
        stable = True
        for i in range(spec.num_agents):
            for alt in range(spec.num_actions[i]):
                dev = list(joint)
                dev[i] = alt
                if table[tuple(dev)][i] > table[joint][i] + 1e-12:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(table[joint].copy())
    return out


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

    Episodes run through the rollout's protocol steps: statuses, legal-action
    masks, one padded draw for all agents, coalition update and joint-action
    assembly. The tabular policies are restricted to the legal actions; where
    a profile gives them no mass, the agent plays them uniformly, as the
    exact oracle does (a committed agent commits, a locked-out agent with no
    env mass picks uniformly among its env actions).
    """
    if spec.kind is GameKind.ITERATIVE_PGG:
        raise UnsupportedGameError("profile sampling targets the exact-oracle games")
    profile.check(spec)
    n = spec.num_agents
    env_actions = np.asarray(spec.num_actions)
    num_actions = env_actions + profile.mediated
    policies = np.zeros((spec.horizon, n, num_actions.max()))
    for t, state in enumerate(profile.agent_policies):
        for i, pol in enumerate(state):
            policies[t, i, :pol.shape[0]] = pol
    totals = np.zeros((episodes, n))
    coalition = np.zeros((episodes, n), dtype=bool)
    med_actions = np.full((episodes, n), -1, dtype=np.int64)
    for t in range(spec.horizon):
        probs = np.broadcast_to(policies[t, :, None, :],
                                (n, episodes, policies.shape[-1]))
        if profile.mediated:
            status = window_statuses(coalition, t, k)
            masks = legal_action_mask_batch(status.T, env_actions[:, None])
            weights = np.where(masks, probs, 0.0)
            np.copyto(weights, masks,
                      where=weights.sum(axis=-1, keepdims=True) == 0.0)
            probs = weights / weights.sum(axis=-1, keepdims=True)
        choices = sample_agent_actions(probs, num_actions, rng).T
        if profile.mediated:
            coalition = next_coalition(coalition, choices, t, k, env_actions)
            med_actions = _sample_mediator_actions(profile, t, coalition, rng)
        rewards, _ = games.step_batch(
            spec, t, None, joint_env_actions(choices, med_actions, coalition))
        totals += rewards
    mean = totals.mean(axis=0)
    stderr = totals.std(axis=0, ddof=1) / np.sqrt(episodes)
    return mean, stderr


def _sample_mediator_actions(profile: MixedProfile, t: int,
                             coalition: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """Mediator env actions drawn from the profile's tables, -1 outside the
    coalition."""
    out = np.full(coalition.shape, -1, dtype=np.int64)
    if profile.mediator_by_size is not None:
        p = profile.mediator_by_size[coalition.sum(axis=1)]
        draws = (rng.random(coalition.shape) < p[:, None]).astype(np.int64)
        return np.where(coalition, draws, out)
    for bits in np.unique(coalition[coalition.any(axis=1)], axis=0):
        rows = np.flatnonzero((coalition == bits).all(axis=1))
        key = tuple(int(b) for b in bits)
        for i in np.flatnonzero(bits):
            dist = profile.mediator_by_coalition[t][key][i]
            out[rows, i] = sample_categorical(
                np.broadcast_to(dist, (rows.size, dist.shape[0])), rng)
    return out


def mediator_copy_profile(spec: PayoffSpec,
                          profile: MixedProfile) -> MixedProfile:
    """Mediator that replays each member's own (commit-renormalized) policy.

    Under this mediator, membership has no effect on anyone's action
    distribution, so it satisfies both constraints with equality.
    """
    profile.check(spec)
    if not profile.mediated:
        raise ContractError("copy profile needs a mediated agent profile")
    return MixedProfile(
        agent_policies=profile.agent_policies, mediated=True,
        mediator_by_coalition=_coalition_tables(spec, lambda t, i: _env_part(
            profile.agent_policies[t][i], spec.num_actions[i])))


def conditional_commit_values(spec: PayoffSpec, profile: MixedProfile,
                              agent: int, k: int = 1,
                              gamma: float = 1.0) -> tuple[float, float]:
    """Agent's expected return conditioned on committing vs. acting itself.

    Both branches keep every other agent on the original profile; "acting
    itself" plays the commit-renormalized env part of its own policy.
    """
    _check_exact(spec, profile)
    if not profile.mediated:
        raise ContractError("conditional commit values need a mediated profile")
    num_env = spec.num_actions[agent]
    commit_point = np.eye(num_env + 1)[-1]
    solo = np.append(_env_part(profile.agent_policies[0][agent], num_env), 0.0)
    commit, own = (float(_expected(spec, _with_policy(profile, agent, [branch]),
                                   k, gamma)[agent])
                   for branch in (commit_point, solo))
    return commit, own

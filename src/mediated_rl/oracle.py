"""Exact game-theoretic reference computations.

Expected payoffs of mixed strategy profiles under the mediation protocol,
best-response gaps, the analytically optimal constrained mediator for the
public goods game, welfare bounds used to normalize reported rewards, and a
Monte-Carlo sampler that cross-checks the exact expectations.

Every query reads the arrays ``MixedProfile.check`` returns. The exact
evaluation takes a stack of agent policies against one mediator, so a round
of queries about one profile is one evaluation of the profile and every
agent's pure plans and commit branches. In matrix games it runs a chain over
coalition states: every legal branch of the protocol, found by the steps of
``mediation`` once per game shape and cached as read-only index arrays,
along which each evaluation multiplies the restricted policies and the
mediator table; the Monte-Carlo sampler draws where the chain branches. The
one-shot public goods game exploits agent symmetry (coalition sizes instead
of subsets) to stay polynomial in N. Profiles and games are immutable and
hash by identity, so a query checks its arguments, then reads a one-entry
``lru_cache`` of the last game and profile objects, ``k`` and ``gamma``; a
hit skips the profile check, which would pass again.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import games
from .approx import sample_categorical
from .errors import (ConfigError, ContractError, UnsupportedGameError,
                     is_integer, is_real)
from .games import GameKind, PayoffSpec, _check_agent_count, _read_only
from .mediation import (COMMITTED, LOCKED_OUT, coalition_codes,
                        joint_env_actions, legal_action_mask_batch,
                        next_coalition, window_statuses)

DIST_TOL = 5e-12


def _first_non_distribution(table: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first row of ``table`` (row-major order) that is not a
    probability vector within DIST_TOL, or None if every row is one."""
    bad = (table < -DIST_TOL).any(axis=-1) | ~(np.abs(table.sum(axis=-1) - 1) <= DIST_TOL)
    return tuple(np.argwhere(bad)[0]) if bad.any() else None


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """Stationary mixed strategies for agents and (optionally) the mediator.

    ``agent_policies[state][agent]`` is a distribution over that agent's env
    actions, plus a trailing commit entry when ``mediated``. The mediator's
    per-coalition policy is either explicit per coalition
    (``mediator_by_coalition[state][bits][agent]``; bits a 0/1 tuple) or,
    for the symmetric PGG, a contribute probability per coalition size
    (``mediator_by_size[s]``). A profile is an immutable value: construction
    copies every policy, mediator entry and the size table into read-only
    float64 arrays, held in tuples and read-only mappings (keys as given).
    ``check`` says whether the profile fits a game.
    """

    agent_policies: tuple[tuple[np.ndarray, ...], ...]
    mediated: bool = False
    mediator_by_coalition: tuple[MappingProxyType, ...] | None = None
    mediator_by_size: np.ndarray | None = None

    def __post_init__(self):
        tables, by_size = self.mediator_by_coalition, self.mediator_by_size
        object.__setattr__(self, "agent_policies", tuple(
            tuple(map(_read_only, state)) for state in self.agent_policies))
        if tables is not None:
            object.__setattr__(self, "mediator_by_coalition", tuple(
                MappingProxyType({bits: MappingProxyType(
                    {agent: _read_only(dist) for agent, dist in dists.items()})
                    for bits, dists in table.items()}) for table in tables))
        if by_size is not None:
            object.__setattr__(self, "mediator_by_size", _read_only(by_size))

    def __reduce__(self):
        """Rebuild from plain dicts: a read-only mapping neither copies nor pickles."""
        tables = self.mediator_by_coalition and [
            {bits: dict(dists) for bits, dists in table.items()}
            for table in self.mediator_by_coalition]
        return MixedProfile, (self.agent_policies, self.mediated, tables,
                              self.mediator_by_size)

    def check(self, spec: PayoffSpec) -> tuple[np.ndarray, np.ndarray]:
        """Raise ContractError unless the profile fits the game: a bool
        ``mediated``, a distribution per state and agent over its env actions
        (plus commit when mediated), and, only when mediated, the one table
        the game takes, with a distribution for every member of every
        coalition (by size in the one-shot PGG, N+1 of them) and no entry for
        a coalition the game lacks or an agent outside its coalition. Returns,
        built afresh, the policies zero-padded to (T, N, A+1) and the
        mediator: the size table in the one-shot PGG, else a (T, 2^N, N, A)
        table indexed by ``coalition_codes``, non-members (and all when
        unmediated) on action 0."""
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
        filled = np.arange(spec.max_actions + 1) < np.array(arities)[:, None]
        policies[:, filled] = np.concatenate(
            [p for state in self.agent_policies for p in state]).reshape(spec.horizon, -1)
        if (bad := _first_non_distribution(policies)) is not None:
            t, i = bad
            raise ContractError(f"agent_policies holds {self.agent_policies[t][i]}, "
                                "not a probability vector")
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
            if by_size.shape != (n + 1,) or not np.all((0.0 <= by_size) & (by_size <= 1)):
                raise ContractError(f"mediator_by_size needs {n + 1} probabilities, "
                                    "one per coalition size 0..N")
            mediator = by_size
        else:
            if by_size is not None:
                raise ContractError("mediator_by_size is for the one-shot pgg only")
            if by_coal is None:
                raise ContractError("a mediated profile needs mediator_by_coalition")
            if len(by_coal) != spec.horizon:
                raise ContractError(f"mediator_by_coalition needs {spec.horizon} state(s)")
            grid = list(itertools.product((0, 1), repeat=n))
            members = {bits: {i for i, b in enumerate(bits) if b} for bits in grid}
            for t, table in enumerate(by_coal):
                if not table.keys() <= members.keys():
                    bits = next(bits for bits in table if bits not in members)
                    raise ContractError(f"mediator_by_coalition names {bits!r} in "
                                        f"state {t}, not a coalition of {n} agents")
                for bits, dists in table.items():
                    if not dists.keys() <= members[bits]:
                        agent = next(a for a in dists if a not in members[bits])
                        raise ContractError(
                            f"mediator_by_coalition has an entry for agent {agent!r} "
                            f"under coalition {''.join(str(int(b)) for b in bits)} "
                            f"in state {t}, which is not a member of it")
            for t, (bits, code) in itertools.product(
                    range(spec.horizon), zip(grid, coalition_codes(np.array(grid)))):
                for agent in (i for i, b in enumerate(bits) if b):
                    dist, a = by_coal[t].get(bits, {}).get(agent), spec.num_actions[agent]
                    # A missing or misshapen entry fails the test below.
                    ok = getattr(dist, "shape", None) == (a,)
                    mediator[t, code, agent, :a] = dist if ok else np.nan
            if (bad := _first_non_distribution(mediator)) is not None:
                _, code, agent = bad
                raise ContractError(
                    "mediator_by_coalition needs, in every state, a probability vector "
                    f"over agent {agent}'s {spec.num_actions[agent]} actions for "
                    f"coalition {code:0{n}b}")
        return policies, mediator


def _check_int(name: str, value, low: int, high: float = np.inf) -> None:
    """Raise unless ``value`` is an integer in [low, high)."""
    if not is_integer(value) or not low <= value < high:
        raise ContractError(f"{name} must be an integer in [{low}, {high}), "
                            f"got {value!r}")


def _check_query(spec: PayoffSpec, profile: MixedProfile) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless the game has exact expectations and the profile fits it;
    return ``check``'s arrays. Callers check their arguments first."""
    if spec.kind is GameKind.ITERATIVE_PGG:
        raise UnsupportedGameError(
            "exact expectations for the iterative PGG are not supported")
    return profile.check(spec)


def _check_arguments(spec: PayoffSpec, k: int, agent: int | None,
                     gamma: float) -> None:
    """Raise unless ``k`` is a window length, ``agent``, when given, is one
    of the game's agents and ``gamma`` a real discount in [0, 1]."""
    _check_int("k", k, 1)
    if agent is not None:
        _check_int("agent", agent, 0, spec.num_agents)
    if not is_real(gamma) or not 0 <= gamma <= 1:
        raise ContractError(f"gamma must be a number in [0, 1], got {gamma!r}")


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
    """Exact per-agent expected return, copied from the round's one evaluation
    (``exploitability``): matrix games and the one-shot PGG, not pgg-iter."""
    return _answer(spec, profile, k, gamma).payoffs.copy()


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
    return mediator[t, coalition_codes(coalitions)]


@functools.lru_cache
def _chain(num_actions: tuple[int, ...], horizon: int, k: int) -> tuple:
    """The protocol's legal branches, found once per game shape by running
    ``mediation``'s steps from every reachable coalition, as read-only arrays.
    State t's branches, ``spans[t]``, pair an entering coalition (``sources[t]``
    of the last state's next ones) with a legal joint choice, whose entries in
    the flattened (T, status, N, A+1) restricted policies are ``picks`` (N, B),
    and are grouped by their next coalition from ``starts[t]`` on. For every
    joint mediator action, ``members`` (B, M, N) indexes the flattened mediator
    table and ``joints[t]`` holds the executed joint actions."""
    n, env_actions, most = len(num_actions), np.asarray(num_actions), max(num_actions)
    choice_grid = np.array(list(itertools.product(range(most + 1), repeat=n)))
    med_grid = np.array(list(itertools.product(*map(range, num_actions))))
    slots, coalitions = np.arange(n), np.zeros((1, n), dtype=bool)
    picks, sources, starts, members, joints = [], [], [], [], []
    for t in range(horizon):
        statuses = window_statuses(coalitions, t, k)
        legal = legal_action_mask_batch(statuses, env_actions)[:, slots, choice_grid]
        source, rows = np.nonzero(legal.all(axis=-1))
        after = next_coalition(coalitions[source], choice_grid[rows], t, k, env_actions)
        order = np.argsort(coalition_codes(after), kind="stable")
        source, choices, after = source[order], choice_grid[rows[order]], after[order]
        codes, status = coalition_codes(after)[:, None, None], statuses[source] - LOCKED_OUT
        picks.append(((t * 3 + status) * n + slots) * (most + 1) + choices)
        sources.append(source)
        starts.append(np.unique(codes, return_index=True)[1])
        members.append(((t << n | codes) * n + slots) * most + med_grid)
        joints.append(joint_env_actions(choices[:, None], med_grid, after[:, None]).reshape(-1, n))
        coalitions = after[starts[t]]
    bounds = np.cumsum([0, *map(len, sources)])
    picks, members = np.concatenate(picks).T.copy(), np.concatenate(members)
    for array in (picks, members, *sources, *starts, *joints):
        array.flags.writeable = False
    return (picks, tuple(map(slice, bounds[:-1], bounds[1:])), tuple(sources),
            tuple(starts), members, tuple(joints))


def _matrix_expected(spec: PayoffSpec, mediator: np.ndarray,
                     policies: np.ndarray, k: int, gamma: float) -> np.ndarray:
    """Run the game shape's cached ``_chain`` forward. Every (state, status,
    agent) policy is restricted once; an agent branch weighs its coalition's
    weight times its agents' gathered probabilities, passes that on to the
    coalition it leads to and earns the discounted rewards of the mediator's
    joint actions times their gathered probabilities."""
    picks, spans, sources, starts, members, joints = _chain(
        spec.num_actions, spec.horizon, k)
    restricted = _restrict(policies[:, :, None], np.arange(LOCKED_OUT, COMMITTED + 1)[:, None],
                           np.asarray(spec.num_actions))
    weights = np.take(restricted.reshape(len(policies), -1), picks, axis=1).prod(axis=1)
    for t in range(1, spec.horizon):
        entering = np.add.reduceat(weights[:, spans[t - 1]], starts[t - 1], axis=1)
        weights[:, spans[t]] *= entering[:, sources[t]]
    rewards = np.concatenate([gamma ** t * games.step_batch(spec, t, None, joint)[0]
                              for t, joint in enumerate(joints)]).reshape(members.shape)
    rewards *= mediator.reshape(-1)[members].prod(axis=-1, keepdims=True)
    # Rows summed in C order: neither BLAS nor a strided sum adds a lone row
    # as it adds the rows of a stack.
    values = np.ascontiguousarray(rewards.sum(axis=1).T)
    return (weights[:, None] * values).sum(axis=-1)


def _pgg_expected(spec: PayoffSpec, by_size: np.ndarray,
                  policies: np.ndarray) -> np.ndarray:
    """Closed form over coalition sizes for every stacked profile and agent
    at once: an agent contributes directly, or commits and the mediator
    contributes with p_{1+K}, K the number of other agents committing.
    K's generating function, prod_{j != i} (1 - q_j + q_j z) over the others'
    commit chances q_j, has degree below N, so E[p_{1+K}] is the real part of
    its values at the N-th roots of unity (conjugate roots give conjugate
    terms: those up to z = -1 suffice) dotted with the DFT of p_1..p_N, over
    N. Prefix and suffix products leave agent i out without dividing by a
    factor, which can vanish (q_j = 1/2 at z = -1)."""
    n_agents, mult = spec.num_agents, spec.multiplier
    direct, commit = policies[:, 0, :, games.COOPERATE], policies[:, 0, :, -1]
    roots, dft = _roots_of_unity(n_agents)
    # The factors sit between two ones, so both cumulative products start
    # from a 1 (1, f_0, .. and 1, f_{N-1}, ..): started at a factor, a short
    # product takes another NumPy loop, which rounds differently at N = 3.
    padded = np.empty((len(commit), n_agents + 2, len(roots)), dtype=complex)
    padded[:, 0] = padded[:, -1] = 1.0
    factors = np.multiply(commit[..., None], roots - 1.0, out=padded[:, 1:-1])
    factors += 1.0  # no slow real + complex broadcast
    before, after = np.empty_like(factors), np.empty_like(factors)
    np.cumprod(padded[:, :-2], axis=1, out=before)
    np.cumprod(padded[:, :1:-1], axis=1, out=after[:, ::-1])
    before *= after
    contrib = direct + commit * (before @ (dft @ by_size[1:])).real / n_agents
    return (mult / n_agents) * contrib.sum(axis=1, keepdims=True) - contrib


@functools.lru_cache
def _roots_of_unity(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-th roots of unity z^k for k <= n/2 and their conjugate DFT rows,
    read-only. Each row whose conjugate root z^(n-k) is left out is doubled."""
    k = np.arange(n // 2 + 1)
    roots = np.exp(2j * np.pi * k / n)
    dft = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    dft[1:(n + 1) // 2] *= 2.0
    roots.flags.writeable = dft.flags.writeable = False
    return roots, dft


# ---------------------------------------------------------------------------
# Best responses and commit values: every agent's answer from one evaluation


@functools.lru_cache
def _all_plans(num_actions: tuple[int, ...], mediated: bool, horizon: int,
               k: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pure strategy of every agent, as (P, T, width) point
    distributions padded like the policies ``check`` returns, each row's
    agent and each agent's first row; read-only. A plan picks, in each state,
    an action legal outside the coalition: any head action at a window
    boundary, an env action mid-window (a committed agent's is forced)."""
    outside, blocks = np.zeros(1, dtype=bool), []
    for a in num_actions:
        options = [np.flatnonzero(legal_action_mask_batch(
            window_statuses(outside, t, k)[0], a)[:a + mediated]) for t in range(horizon)]
        blocks.append(np.eye(width)[np.array(list(itertools.product(*options)))])
    owners = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    arrays = np.concatenate(blocks), owners, np.flatnonzero(np.diff(owners, prepend=-1))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def best_response_gap(spec: PayoffSpec, profile: MixedProfile, agent: int,
                      k: int = 1, gamma: float = 1.0) -> float:
    """How much agent ``agent`` can gain by a pure deviation (>= 0), read
    from the round's one evaluation (``exploitability``)."""
    return float(_answer(spec, profile, k, gamma, agent).gaps[agent])


@dataclass(frozen=True, eq=False)
class Exploitability:
    """Read-only ``payoffs`` (N,), best-response ``gaps`` (N,), ``commit_values``
    (N, 2), committed then locked out (None when unmediated), and ``nash_conv``."""

    payoffs: np.ndarray
    gaps: np.ndarray
    commit_values: np.ndarray | None
    nash_conv: float


def exploitability(spec: PayoffSpec, profile: MixedProfile, k: int = 1,
                   gamma: float = 1.0) -> Exploitability:
    """Every agent's payoff, best-response gap (their sum is NashConv,
    Lanctot et al. 2017) and commit values from one check and evaluation."""
    return _answer(spec, profile, k, gamma)


def _answer(spec: PayoffSpec, profile: MixedProfile, k: int, gamma: float,
            agent: int | None = None) -> Exploitability:
    """The answer about these game and profile objects at ``k`` and
    ``gamma``, after the per-call argument checks."""
    _check_arguments(spec, k, agent, gamma)
    return _evaluated(spec, profile, k, gamma)


@functools.lru_cache(maxsize=1)
def _evaluated(spec: PayoffSpec, profile: MixedProfile, k: int,
               gamma: float) -> Exploitability:
    """The checked profile's evaluation, kept for the next query."""
    return _evaluate(spec, profile.mediated, *_check_query(spec, profile),
                     k, gamma)


def _evaluate(spec: PayoffSpec, mediated: bool, policies: np.ndarray,
              mediator: np.ndarray, k: int, gamma: float) -> Exploitability:
    """One ``_expected`` call over a stack of the profile, every agent's pure
    plans, then, when mediated, each agent's first-state policy restricted to
    committed (it commits) and to locked out (its env part, renormalized)."""
    n, agents = spec.num_agents, np.arange(spec.num_agents)
    plans, owners, starts = _all_plans(spec.num_actions, mediated,
                                       spec.horizon, k, spec.max_actions + 1)
    plan_rows = 1 + np.arange(len(plans))
    branch_rows = 1 + len(plans) + np.arange(2 * n).reshape(2, n)
    stack = np.repeat(policies[None], 1 + len(plans) + 2 * n * mediated, axis=0)
    stack[plan_rows, :, owners] = plans
    if mediated:
        stack[branch_rows, 0, agents] = _restrict(
            policies[0], np.array([[COMMITTED], [LOCKED_OUT]]), spec.num_actions)
    values = _expected(spec, mediator, stack, k, gamma)
    payoffs = values[0]
    gaps = np.maximum.reduceat(values[plan_rows, owners], starts) - payoffs
    commit = values[branch_rows, agents].T if mediated else None
    for array in (payoffs, gaps, commit)[:2 + mediated]:
        array.flags.writeable = False
    return Exploitability(payoffs, gaps, commit, float(gaps.sum()))


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
    _check_agent_count(num_agents)
    if not is_real(multiplier) or not 1.0 < multiplier < num_agents:
        raise ConfigError(f"PGG requires a real n with 1 < n < N, got n={multiplier!r}")
    ratio = multiplier / num_agents
    p = np.zeros(num_agents + 1)
    p[num_agents] = 1.0
    for s in range(num_agents - 1, 0, -1):
        if ratio * s > 1.0:
            p[s] = min(1.0, (ratio * (s + 1) - 1.0) * p[s + 1] / (ratio * s))
    return p


def full_commit_pgg_profile(spec: PayoffSpec,
                            p_by_size: np.ndarray) -> MixedProfile:
    """Everyone commits; the mediator plays the given size-indexed policy."""
    return MixedProfile(
        agent_policies=[[[0.0, 0.0, 1.0]] * spec.num_agents],
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
    low = high = 0.0
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
    res = linprog(c=-welfare, A_ub=-flat.T, b_ub=-fallback,
                  A_eq=np.ones((1, flat.shape[0])), b_eq=np.array([1.0]),
                  bounds=[(0.0, 1.0)] * flat.shape[0], method="highs")
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
    _check_int("k", k, 1)
    _check_int("episodes", episodes, 2)
    policies, mediator = _check_query(spec, profile)
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
    order = np.lexsort((rows, members, coalition_codes(coalition)[rows]))
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
    """Agent's expected return conditioned on committing vs. acting itself,
    the others on the profile, read from the round's one evaluation."""
    commit_values = _answer(spec, profile, k, gamma, agent).commit_values
    if commit_values is None:
        raise ContractError("conditional commit values need a mediated profile")
    commit, own = commit_values[agent]
    return float(commit), float(own)

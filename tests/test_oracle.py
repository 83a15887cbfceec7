"""Exact-oracle checks: payoffs, best responses, optimal mediators."""

import copy
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import mediated_rl
from mediated_rl import games, oracle
from mediated_rl.errors import ConfigError, ContractError, UnsupportedGameError
from mediated_rl.games import (iterative_pgg, one_shot_pgg, pd_with_sacrifice,
                               prisoners_dilemma, two_step_pd)
from mediated_rl.mediation import (coalition_codes, joint_env_actions,
                                  next_coalition, window_statuses)
from mediated_rl.oracle import (MixedProfile, best_response_gap,
                                expected_payoffs, full_commit_pgg_profile,
                                max_mediated_welfare, mediator_copy_profile,
                                normalization_constants,
                                optimal_constrained_mediator_pgg,
                                pure_nash_payoffs, sample_profile_payoffs,
                                uniform_profile)


def pd_mediator_table():
    """Cooperate iff the coalition is full, defect otherwise."""
    defect = np.array([1.0, 0.0])
    coop = np.array([0.0, 1.0])
    return [{
        (0, 0): {},
        (1, 0): {0: defect},
        (0, 1): {1: defect},
        (1, 1): {0: coop, 1: coop},
    }]


def all_commit_pd_profile():
    return MixedProfile(
        agent_policies=[[np.array([0.0, 0.0, 1.0])] * 2],
        mediated=True, mediator_by_coalition=pd_mediator_table())


# ---------------------------------------------------------------------------
# Expected payoffs


def test_pd_always_defect_payoffs():
    profile = MixedProfile(agent_policies=[[np.array([1.0, 0.0])] * 2])
    np.testing.assert_allclose(
        expected_payoffs(prisoners_dilemma(), profile), (0.0, 0.0))


def test_mediated_pd_all_commit_payoffs():
    np.testing.assert_allclose(
        expected_payoffs(prisoners_dilemma(), all_commit_pd_profile()),
        (2.0, 2.0))


def test_pgg_two_committers_and_free_rider():
    spec = one_shot_pgg(3, 2.0)
    profile = MixedProfile(
        agent_policies=[[np.array([0.0, 0.0, 1.0]),
                         np.array([0.0, 0.0, 1.0]),
                         np.array([1.0, 0.0, 0.0])]],
        mediated=True,
        mediator_by_size=np.array([0.0, 0.0, 0.75, 1.0]))
    np.testing.assert_allclose(expected_payoffs(spec, profile),
                               (0.25, 0.25, 1.0))


def brute_force_pgg_payoffs(spec, profile):
    """Expected pgg payoffs by enumerating every joint choice of defect,
    contribute and (when mediated) commit: a member of a coalition of size
    s contributes with the mediator's probability for s."""
    pols = profile.agent_policies[0]
    total = np.zeros(spec.num_agents)
    for joint in itertools.product(range(pols[0].size), repeat=spec.num_agents):
        chance = np.prod([pol[c] for pol, c in zip(pols, joint)])
        committed = [c == 2 for c in joint]
        contrib = np.array([float(c == games.COOPERATE) for c in joint])
        if profile.mediated:
            contrib[committed] = profile.mediator_by_size[sum(committed)]
        total += chance * (spec.multiplier / spec.num_agents * contrib.sum()
                           - contrib)
    return total


@pytest.mark.parametrize("n_agents,mult", [(2, 1.5), (3, 2.0), (4, 3.0), (5, 2.0)])
@pytest.mark.parametrize("mediated", [True, False])
def test_pgg_payoffs_match_brute_force_enumeration(n_agents, mult, mediated):
    spec = one_shot_pgg(n_agents, mult)
    rng = np.random.default_rng(n_agents)
    for fill in ("dense", "no-commit-mass", "no-env-mass"):
        profile = random_profile(spec, mediated, rng, fill)
        np.testing.assert_allclose(expected_payoffs(spec, profile),
                                   brute_force_pgg_payoffs(spec, profile),
                                   rtol=0, atol=1e-12)


def committer_count_pgg_payoffs(spec, by_size, policies):
    """Expected pgg payoffs of a stack of padded policies (P, 1, N, 3), with
    the distribution of the other committers built up one agent at a time:
    after step j, others[p, i, s] is the chance that s of agents 0..j other
    than i commit. The oracle used this N-step loop before its closed form."""
    n_agents, mult = spec.num_agents, spec.multiplier
    direct = policies[:, 0, :, games.COOPERATE]
    commit = policies[:, 0, :, -1]
    joins = (commit[:, None, :] * (1.0 - np.eye(n_agents)))[..., None]
    stays = 1.0 - joins
    others = np.zeros(commit.shape + (n_agents,))
    others[..., 0] = 1.0
    for j in range(n_agents):
        moved = others[..., :-1] * joins[:, :, j]
        others *= stays[:, :, j]
        others[..., 1:] += moved
    contrib = direct + commit * (others @ by_size[1:])
    return (mult / n_agents) * contrib.sum(axis=1, keepdims=True) - contrib


def concatenated_pgg_expected(spec, by_size, policies):
    """The closed form with prefix and suffix products over fresh
    concatenations of a column of ones and the factors: the construction the
    oracle's in-place one must equal bit for bit."""
    n_agents, mult = spec.num_agents, spec.multiplier
    direct, commit = policies[:, 0, :, games.COOPERATE], policies[:, 0, :, -1]
    roots, dft = oracle._roots_of_unity(n_agents)
    factors = 1.0 + commit[..., None] * (roots - 1.0)
    ones = np.ones_like(factors[:, :1])
    before = np.cumprod(np.concatenate([ones, factors[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, factors[:, :0:-1]], axis=1),
                       axis=1)[:, ::-1]
    contrib = direct + commit * ((before * after)
                                 @ (dft @ by_size[1:])).real / n_agents
    return (mult / n_agents) * contrib.sum(axis=1, keepdims=True) - contrib


@pytest.mark.parametrize("n_agents", [8, 16, 32, 3])
def test_pgg_closed_form_matches_the_committer_count_loop(n_agents):
    # Commit chances of exactly 0, 1/2 and 1 among random ones: at 1/2 a
    # factor of the generating function vanishes at the root z = -1. At
    # N = 3 a cumulative product over the two factors alone, not after a
    # one, takes another NumPy loop and rounds differently.
    spec = one_shot_pgg(n_agents, 2.0)
    rng = np.random.default_rng(n_agents)
    stack = 81  # the stack of a pgg N = 16 exploitability round
    commit = rng.random((stack, n_agents))
    commit[rng.random(commit.shape) < 0.6] = 0.5
    commit[rng.random(commit.shape) < 0.2] = 0.0
    commit[rng.random(commit.shape) < 0.2] = 1.0
    commit[:3] = [[0.0], [0.5], [1.0]]
    cooperate = rng.random((stack, n_agents)) * (1.0 - commit)
    policies = np.stack([1.0 - commit - cooperate, cooperate, commit],
                        axis=-1)[:, None]
    for by_size in (rng.random(n_agents + 1),
                    optimal_constrained_mediator_pgg(n_agents, 2.0)):
        payoffs = oracle._pgg_expected(spec, by_size, policies)
        np.testing.assert_allclose(
            payoffs, committer_count_pgg_payoffs(spec, by_size, policies),
            rtol=0, atol=1e-12)
        assert payoffs.tobytes() == concatenated_pgg_expected(
            spec, by_size, policies).tobytes()


def test_expected_payoffs_iterative_pgg_unsupported():
    profile = uniform_profile(one_shot_pgg(3, 2.0), mediated=False)
    with pytest.raises(UnsupportedGameError):
        expected_payoffs(iterative_pgg(3, 2.0), profile)


def test_profile_distribution_validation():
    # Construction only converts; the check against the game rejects.
    profile = MixedProfile(agent_policies=[[np.array([0.5, 0.2]),
                                            np.array([0.5, 0.5])]])
    with pytest.raises(ContractError, match="not a probability vector"):
        profile.check(prisoners_dilemma())
    with pytest.raises(ContractError):
        expected_payoffs(prisoners_dilemma(), profile)


def pd_table_without_full_coalition():
    table = pd_mediator_table()
    del table[0][(1, 1)]
    return table


MISFIT_PROFILES = {
    "policy-arity": lambda: (prisoners_dilemma(), MixedProfile(
        agent_policies=[[np.array([1.0]), np.array([0.5, 0.5])]])),
    "missing-agent": lambda: (one_shot_pgg(3, 2.0), MixedProfile(
        agent_policies=[[np.array([0.5, 0.5])] * 2])),
    "size-table-range": lambda: (one_shot_pgg(3, 2.0), MixedProfile(
        agent_policies=[[np.array([0.3, 0.2, 0.5])] * 3], mediated=True,
        mediator_by_size=[0.0, 0.5, 1.7, -3.0])),
    "size-table-short": lambda: (one_shot_pgg(3, 2.0), MixedProfile(
        agent_policies=[[np.array([0.3, 0.2, 0.5])] * 3], mediated=True,
        mediator_by_size=[0.0, 0.5])),
    "missing-coalition": lambda: (prisoners_dilemma(), MixedProfile(
        agent_policies=[[np.array([0.2, 0.3, 0.5])] * 2], mediated=True,
        mediator_by_coalition=pd_table_without_full_coalition())),
    "mediated-not-bool": lambda: (prisoners_dilemma(), MixedProfile(
        agent_policies=[[np.array([0.0, 0.0, 1.0])] * 2], mediated=1,
        mediator_by_coalition=pd_mediator_table())),
    "table-unmediated": lambda: (one_shot_pgg(3, 2.0), MixedProfile(
        agent_policies=[[np.array([0.5, 0.5])] * 3],
        mediator_by_size=[0.0, 0.0, 1.0, 1.0])),
}
PROFILE_QUERIES = {
    "expected_payoffs": lambda spec, p: expected_payoffs(spec, p),
    "best_response_gap": lambda spec, p: best_response_gap(spec, p, 0),
    "conditional_commit_values":
        lambda spec, p: oracle.conditional_commit_values(spec, p, 0),
    "exploitability": lambda spec, p: oracle.exploitability(spec, p),
    "sample_profile_payoffs": lambda spec, p: sample_profile_payoffs(
        spec, p, 10, np.random.default_rng(0)),
    "mediator_copy_profile": mediator_copy_profile,
}


@pytest.mark.parametrize("query", list(PROFILE_QUERIES))
@pytest.mark.parametrize("case", list(MISFIT_PROFILES))
def test_profile_that_misfits_its_game_is_rejected(case, query):
    # Each of these used to return numbers or fail deep inside the oracle.
    spec, profile = MISFIT_PROFILES[case]()
    with pytest.raises(ContractError):
        profile.check(spec)
    with pytest.raises(ContractError):
        PROFILE_QUERIES[query](spec, profile)


BAD_ARGUMENTS = {
    "expected_payoffs-k0": lambda spec, p: expected_payoffs(spec, p, k=0),
    "expected_payoffs-k-1": lambda spec, p: expected_payoffs(spec, p, k=-1),
    "expected_payoffs-k1.5": lambda spec, p: expected_payoffs(spec, p, k=1.5),
    "best_response_gap-k0": lambda spec, p: best_response_gap(spec, p, 0, k=0),
    "conditional_commit_values-k-1":
        lambda spec, p: oracle.conditional_commit_values(spec, p, 0, k=-1),
    "exploitability-k0": lambda spec, p: oracle.exploitability(spec, p, k=0),
    "sample_profile_payoffs-k0": lambda spec, p: sample_profile_payoffs(
        spec, p, 10, np.random.default_rng(0), k=0),
    "best_response_gap-agent-1": lambda spec, p: best_response_gap(spec, p, -1),
    "best_response_gap-agentN": lambda spec, p: best_response_gap(
        spec, p, spec.num_agents),
    "conditional_commit_values-agent-1":
        lambda spec, p: oracle.conditional_commit_values(spec, p, -1),
    "conditional_commit_values-agentN":
        lambda spec, p: oracle.conditional_commit_values(spec, p, spec.num_agents),
    "sample_profile_payoffs-episodes1": lambda spec, p: sample_profile_payoffs(
        spec, p, 1, np.random.default_rng(0)),
    "sample_profile_payoffs-episodes0": lambda spec, p: sample_profile_payoffs(
        spec, p, 0, np.random.default_rng(0)),
    **{f"{name}-gamma{gamma}": lambda spec, p, query=query, gamma=gamma:
       query(spec, p, gamma=gamma)
       for name, query in (
           ("expected_payoffs", expected_payoffs),
           ("best_response_gap", lambda spec, p, gamma: best_response_gap(
               spec, p, 0, gamma=gamma)),
           ("conditional_commit_values", lambda spec, p, gamma:
            oracle.conditional_commit_values(spec, p, 0, gamma=gamma)),
           ("exploitability", oracle.exploitability))
       for gamma in (np.nan, -0.5, 1.5)},
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
@pytest.mark.parametrize("spec", [prisoners_dilemma(), one_shot_pgg(3, 2.0)],
                         ids=lambda spec: spec.name)
def test_bad_query_argument_is_rejected(spec, case):
    with pytest.raises(ContractError):
        BAD_ARGUMENTS[case](spec, uniform_profile(spec, mediated=True))


def test_iterative_pgg_is_unsupported_before_the_profile_is_checked():
    misfit = MixedProfile(agent_policies=[[np.array([1.0])]])
    for query in ("expected_payoffs", "best_response_gap",
                  "conditional_commit_values", "exploitability",
                  "sample_profile_payoffs"):
        with pytest.raises(UnsupportedGameError):
            PROFILE_QUERIES[query](iterative_pgg(3, 2.0), misfit)


def test_commit_values_need_a_mediated_profile():
    profile = uniform_profile(prisoners_dilemma(), mediated=False)
    with pytest.raises(ContractError, match="mediated profile"):
        oracle.conditional_commit_values(prisoners_dilemma(), profile, 0)


# ---------------------------------------------------------------------------
# Best-response gaps


def test_mediated_pd_all_commit_is_equilibrium():
    spec = prisoners_dilemma()
    profile = all_commit_pd_profile()
    for agent in (0, 1):
        assert best_response_gap(spec, profile, agent) == pytest.approx(0.0, abs=1e-12)


def test_plain_pd_mutual_cooperation_gap_is_five():
    spec = prisoners_dilemma()
    profile = MixedProfile(agent_policies=[[np.array([0.0, 1.0])] * 2])
    for agent in (0, 1):
        assert best_response_gap(spec, profile, agent) == pytest.approx(5.0)


def test_gap_unchanged_on_repeat():
    spec = prisoners_dilemma()
    profile = all_commit_pd_profile()
    first = best_response_gap(spec, profile, 0)
    second = best_response_gap(spec, profile, 0)
    assert first == second


def test_gap_nonnegative_for_random_profiles():
    rng = np.random.default_rng(0)
    spec = prisoners_dilemma()
    for _ in range(10):
        raw = rng.random((2, 3)) + 0.05
        pols = [row / row.sum() for row in raw]
        profile = MixedProfile(agent_policies=[pols], mediated=True,
                               mediator_by_coalition=pd_mediator_table())
        for agent in (0, 1):
            assert best_response_gap(spec, profile, agent) >= -1e-12


# ---------------------------------------------------------------------------
# Stacked evaluation against one profile at a time


def random_profile(spec, mediated, rng, fill="dense"):
    """Dirichlet agent policies and mediator tables. ``fill`` "no-commit-mass"
    empties every commit entry; "no-env-mass" puts agent 0 on commit in every
    state; "dense" leaves both."""
    policies = []
    for _ in range(spec.horizon):
        state = [rng.dirichlet(np.ones(a + mediated)) for a in spec.num_actions]
        if mediated and fill == "no-commit-mass":
            state = [np.append(p[:-1], 0.0) / p[:-1].sum() for p in state]
        if mediated and fill == "no-env-mass":
            state[0] = np.eye(state[0].size)[-1]
        policies.append(state)
    if not mediated:
        return MixedProfile(agent_policies=policies)
    if spec.kind is games.GameKind.ONE_SHOT_PGG:
        return MixedProfile(agent_policies=policies, mediated=True,
                            mediator_by_size=rng.random(spec.num_agents + 1))
    return MixedProfile(agent_policies=policies, mediated=True,
                        mediator_by_coalition=oracle._coalition_tables(
                            spec, lambda t, i: rng.dirichlet(
                                np.ones(spec.num_actions[i]))))


def deviated(profile, agent, plan):
    """The profile with ``agent`` playing ``plan[t]`` in state t."""
    return MixedProfile(
        agent_policies=[[plan[t] if i == agent else p for i, p in enumerate(state)]
                        for t, state in enumerate(profile.agent_policies)],
        mediated=profile.mediated,
        mediator_by_coalition=profile.mediator_by_coalition,
        mediator_by_size=profile.mediator_by_size)


def one_at_a_time_gap(spec, profile, agent, k, gamma):
    """Best pure deviation minus the profile's value, one profile per plan:
    any action at a window boundary, an env action mid-window."""
    arity = spec.num_actions[agent] + profile.mediated
    options = [range(arity if t % k == 0 else spec.num_actions[agent])
               for t in range(spec.horizon)]
    best = max(expected_payoffs(spec, deviated(
                   profile, agent, [np.eye(arity)[c] for c in plan]),
                   k, gamma)[agent]
               for plan in itertools.product(*options))
    return best - expected_payoffs(spec, profile, k, gamma)[agent]


def one_at_a_time_commit_values(spec, profile, agent, k, gamma):
    """The agent's value when its first-state policy commits, and when it
    plays its env part renormalized (uniform if it has no env mass)."""
    first = profile.agent_policies[0][agent]
    env = first[:-1] if first[:-1].sum() > 0 else np.ones(first.size - 1)
    branches = (np.eye(first.size)[-1], np.append(env / env.sum(), 0.0))
    later = profile.agent_policies[1:]
    return [expected_payoffs(spec, deviated(
                profile, agent, [branch] + [state[agent] for state in later]),
                k, gamma)[agent]
            for branch in branches]


# name -> (spec, k, gamma)
STACKED_CASES = {
    "pd": (prisoners_dilemma(), 1, 1.0),
    "pds": (pd_with_sacrifice(), 1, 1.0),
    "pd2-k1": (two_step_pd(), 1, 0.99),
    "pd2-k2": (two_step_pd(), 2, 0.99),
    "pgg-n3": (one_shot_pgg(3, 2.0), 1, 1.0),
    "pgg-n5": (one_shot_pgg(5, 2.0), 1, 1.0),
    "pgg-n8": (one_shot_pgg(8, 3.0), 1, 1.0),
}


@pytest.mark.parametrize("fill", ["dense", "no-commit-mass", "no-env-mass",
                                  "unmediated"])
@pytest.mark.parametrize("case", list(STACKED_CASES))
def test_stacked_queries_match_one_profile_at_a_time(case, fill):
    spec, k, gamma = STACKED_CASES[case]
    mediated = fill != "unmediated"
    rng = np.random.default_rng(list(STACKED_CASES).index(case))
    for _ in range(3):
        profile = random_profile(spec, mediated, rng, fill)
        answer = oracle.exploitability(spec, profile, k, gamma)
        gaps = [one_at_a_time_gap(spec, profile, agent, k, gamma)
                for agent in range(spec.num_agents)]
        np.testing.assert_allclose(answer.gaps, gaps, rtol=0, atol=1e-12)
        assert answer.nash_conv == pytest.approx(sum(gaps), rel=0, abs=1e-11)
        np.testing.assert_allclose(
            answer.payoffs, expected_payoffs(spec, rebuilt(profile), k, gamma),
            rtol=0, atol=1e-12)
        for agent in range(spec.num_agents):
            assert best_response_gap(spec, profile, agent, k, gamma) == \
                pytest.approx(gaps[agent], rel=0, abs=1e-12)
            if mediated:
                commit = one_at_a_time_commit_values(spec, profile, agent, k, gamma)
                np.testing.assert_allclose(
                    oracle.conditional_commit_values(spec, profile, agent, k, gamma),
                    commit, rtol=0, atol=1e-12)
                np.testing.assert_allclose(answer.commit_values[agent], commit,
                                           rtol=0, atol=1e-12)
        assert (answer.commit_values is None) == (not mediated)


# ---------------------------------------------------------------------------
# The matrix-game chain against the walk it replaced


def walk_branches(dists):
    """Positive-probability joint outcomes of independent per-agent draws
    (R, N, W): the row each comes from, its joint action and probability."""
    n, width = dists.shape[1:]
    grid = np.array(list(itertools.product(range(width), repeat=n)))
    probs = dists[:, np.arange(n), grid].prod(axis=-1)
    rows, cols = np.nonzero(probs)
    return rows, grid[cols], probs[rows, cols]


def walk_matrix_expected(spec, mediator, policies, k, gamma):
    """The oracle's matrix-game evaluation before its protocol chain: walk
    the horizon forward over a distribution of (stack index, coalition)
    rows, running the protocol's steps on every positive-weight branch of
    the agents' choices and then of the mediator's actions, and merge
    branches by index and coalition after each step."""
    n = spec.num_agents
    env_actions = np.asarray(spec.num_actions)
    index = np.arange(policies.shape[0])
    coalitions = np.zeros((index.size, n), dtype=bool)
    weights = np.ones(index.size)
    total = np.zeros((index.size, n))
    for t in range(spec.horizon):
        rows, choices, probs = walk_branches(oracle._restrict(
            policies[index, t], window_statuses(coalitions, t, k), env_actions))
        coalition = next_coalition(coalitions[rows], choices, t, k, env_actions)
        weight, index = weights[rows] * probs, index[rows]
        rows, med_actions, probs = walk_branches(
            oracle._member_dists(mediator, t, coalition))
        rewards, _ = games.step_batch(spec, t, None, joint_env_actions(
            choices[rows], med_actions, coalition[rows]))
        np.add.at(total, index[rows],
                  gamma ** t * (weight[rows] * probs)[:, None] * rewards)
        if t + 1 == spec.horizon:
            break
        _, first, merged = np.unique(index << n | coalition_codes(coalition),
                                     return_index=True, return_inverse=True)
        coalitions, index = coalition[first], index[first]
        weights = np.bincount(merged, weight)
    return total


def three_agent_game():
    """Three agents of 2, 3 and 2 actions over three states of seeded
    payoffs: a matrix game beyond the two-agent builtins."""
    rng = np.random.default_rng(33)
    tables = tuple(rng.integers(-5, 8, size=(2, 3, 2, 3)).astype(float)
                   for _ in range(3))
    return games.PayoffSpec(kind=games.GameKind.MATRIX, num_agents=3,
                            num_actions=(2, 3, 2), horizon=3,
                            payoff_tables=tables, name="three-agent")


def random_stack(spec, mediated, fill, rng, size=8):
    """The padded policies of ``size`` random profiles and the mediator
    table of the first, as ``MixedProfile.check`` returns them."""
    arrays = [random_profile(spec, mediated, rng, fill).check(spec)
              for _ in range(size)]
    return arrays[0][1], np.stack([policies for policies, _ in arrays])


CHAIN_GAMES = {"pd": prisoners_dilemma, "pds": pd_with_sacrifice,
               "pd2": two_step_pd, "three-agent": three_agent_game}


@pytest.mark.parametrize("fill", ["dense", "no-commit-mass", "no-env-mass",
                                  "unmediated"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("game", list(CHAIN_GAMES))
def test_chain_matches_the_walk(game, k, fill):
    spec = CHAIN_GAMES[game]()
    rng = np.random.default_rng([k, len(game)])
    for gamma in (1.0, 0.9):
        mediator, stack = random_stack(spec, fill != "unmediated", fill, rng)
        np.testing.assert_allclose(
            oracle._matrix_expected(spec, mediator, stack, k, gamma),
            walk_matrix_expected(spec, mediator, stack, k, gamma),
            rtol=0, atol=1e-13)


def test_three_agent_game_matches_the_walk_and_the_sampler():
    spec, k = three_agent_game(), 2
    profile = random_profile(spec, True, np.random.default_rng(5))
    policies, mediator = profile.check(spec)
    exact = expected_payoffs(spec, profile, k)
    np.testing.assert_allclose(
        exact, walk_matrix_expected(spec, mediator, policies[None], k, 1.0)[0],
        rtol=0, atol=1e-13)
    mean, stderr = sample_profile_payoffs(spec, profile, 50_000,
                                          np.random.default_rng(8), k)
    np.testing.assert_array_less(np.abs(mean - exact), 5.0 * stderr)


@pytest.mark.parametrize("game", list(CHAIN_GAMES))
def test_identical_stack_rows_give_identical_bytes(game):
    # At every position of stacks of every size, and alone.
    spec = CHAIN_GAMES[game]()
    rng = np.random.default_rng(len(game))
    mediator, stack = random_stack(spec, True, "dense", rng, size=40)
    lone = oracle._matrix_expected(spec, mediator, stack[:1], 2, 0.9)[0]
    for size in (2, 3, 8, 17, 40):
        rows = stack[:size].copy()
        rows[rng.permutation(size)[:size // 2 + 1]] = stack[0]
        values = oracle._matrix_expected(spec, mediator, rows, 2, 0.9)
        for row, value in zip(rows, values):
            if np.array_equal(row, stack[0]):
                assert value.tobytes() == lone.tobytes()


@pytest.mark.parametrize("spec", [prisoners_dilemma(), pd_with_sacrifice(),
                                  two_step_pd()], ids=lambda spec: spec.name)
def test_a_pure_equilibrium_has_gaps_of_exactly_zero(spec):
    # Each agent's own plan is a row of the stack equal to the profile's, so
    # it ties the profile's value to the bit.
    defect = MixedProfile(agent_policies=[
        [np.eye(a)[0] for a in spec.num_actions] for _ in range(spec.horizon)])
    assert oracle.exploitability(spec, defect, 2, 0.9).gaps.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# The arrays the check returns, built afresh on every query


@pytest.mark.parametrize("mediated", [True, False])
@pytest.mark.parametrize("spec", [prisoners_dilemma(), pd_with_sacrifice(),
                                  two_step_pd()], ids=lambda spec: spec.name)
def test_check_returns_padded_policies_and_a_dense_mediator_table(spec, mediated):
    n, width = spec.num_agents, spec.max_actions
    placeholder = np.eye(width)[0]
    rng = np.random.default_rng(len(spec.name))
    for _ in range(3):
        profile = random_profile(spec, mediated, rng)
        policies, table = profile.check(spec)
        assert policies.shape == (spec.horizon, n, width + 1)
        assert table.shape == (spec.horizon, 2 ** n, n, width)
        for t, state in enumerate(profile.agent_policies):
            for i, pol in enumerate(state):
                np.testing.assert_array_equal(policies[t, i, :pol.size], pol)
                assert not policies[t, i, pol.size:].any()
        for t, (code, bits) in itertools.product(
                range(spec.horizon),
                enumerate(itertools.product((0, 1), repeat=n))):
            # The one code: agent 0 is the highest bit of the members' bit string.
            assert coalition_codes(np.array(bits, dtype=bool)) == code
            assert f"{code:0{n}b}" == "".join(map(str, bits))
            for i in range(n):
                if not (mediated and bits[i]):
                    np.testing.assert_array_equal(table[t, code, i], placeholder)
                    continue
                dist = profile.mediator_by_coalition[t][bits][i]
                np.testing.assert_array_equal(table[t, code, i, :dist.size], dist)
                assert not table[t, code, i, dist.size:].any()


def test_check_returns_the_size_table_of_a_pgg_profile():
    spec = one_shot_pgg(5, 2.0)
    rng = np.random.default_rng(5)
    profile = random_profile(spec, True, rng)
    policies, by_size = profile.check(spec)
    np.testing.assert_array_equal(by_size, profile.mediator_by_size)
    np.testing.assert_array_equal(
        policies, np.stack(profile.agent_policies[0])[None])
    policies, by_size = random_profile(spec, False, rng).check(spec)
    assert policies.shape == (1, 5, 3) and not policies[..., -1].any()
    np.testing.assert_array_equal(by_size, np.zeros(6))


def pgg_answers(spec, profile):
    return [expected_payoffs(spec, profile),
            [best_response_gap(spec, profile, i) for i in range(spec.num_agents)],
            [oracle.conditional_commit_values(spec, profile, i)
             for i in range(spec.num_agents)]]


def pd2_answers(spec, profile):
    return [expected_payoffs(spec, profile, 2, 0.99),
            [best_response_gap(spec, profile, i, 2, 0.99) for i in (0, 1)],
            [oracle.conditional_commit_values(spec, profile, i, 2, 0.99)
             for i in (0, 1)],
            sample_profile_payoffs(spec, profile, 50, np.random.default_rng(0), 2),
            mediator_copy_profile(spec, profile).check(spec)[1]]


def plain_values(profile):
    """A profile's values as keyword arguments of plain lists, dicts and
    writable arrays, shared with nothing."""
    tables = profile.mediator_by_coalition
    return dict(
        agent_policies=[[p.copy() for p in state]
                        for state in profile.agent_policies],
        mediated=profile.mediated,
        mediator_by_coalition=None if tables is None else [
            {bits: {i: d.copy() for i, d in dists.items()}
             for bits, dists in table.items()} for table in tables],
        mediator_by_size=None if profile.mediator_by_size is None
        else profile.mediator_by_size.copy())


def rebuilt(profile):
    """A fresh profile with the same values and no shared arrays."""
    return MixedProfile(**plain_values(profile))


def assert_same_answers(first, second):
    for a, b in zip(first, second, strict=True):
        for x, y in zip(a, b, strict=True) if isinstance(a, list) else [(a, b)]:
            np.testing.assert_array_equal(x, y)


def test_no_profile_data_outlives_a_query():
    # A profile holds copies of the values it is built from: editing them
    # changes no answer about it, and a profile built from the edited values
    # is read afresh by its first query.
    rng = np.random.default_rng(11)
    pd2, pgg = two_step_pd(), one_shot_pgg(4, 2.0)
    matrix_values = plain_values(random_profile(pd2, True, rng))
    pgg_values = plain_values(random_profile(pgg, True, rng))
    matrix, by_size = MixedProfile(**matrix_values), MixedProfile(**pgg_values)
    before = pd2_answers(pd2, matrix), pgg_answers(pgg, by_size)
    matrix_values["agent_policies"][1][0][:] = rng.dirichlet(np.ones(3))
    matrix_values["mediator_by_coalition"][0][(1, 1)][1][:] = rng.dirichlet(np.ones(2))
    pgg_values["agent_policies"][0][2][:] = rng.dirichlet(np.ones(3))
    pgg_values["mediator_by_size"][3] = 1.0 - pgg_values["mediator_by_size"][3]
    assert_same_answers(pd2_answers(pd2, matrix), before[0])
    assert_same_answers(pgg_answers(pgg, by_size), before[1])
    matrix, by_size = MixedProfile(**matrix_values), MixedProfile(**pgg_values)
    after = pd2_answers(pd2, matrix), pgg_answers(pgg, by_size)
    assert_same_answers(after[0], pd2_answers(pd2, rebuilt(matrix)))
    assert_same_answers(after[1], pgg_answers(pgg, rebuilt(by_size)))
    for old, new in zip(before, after):
        assert not np.array_equal(old[0], new[0])
    # A profile built with a broken distribution fails its first query.
    matrix_values["mediator_by_coalition"][1][(1, 0)][0][0] += 0.5
    with pytest.raises(ContractError, match="coalition 10"):
        best_response_gap(pd2, MixedProfile(**matrix_values), 0, 2)
    pgg_values["agent_policies"][0][1][0] = -0.25
    with pytest.raises(ContractError, match="not a probability vector"):
        expected_payoffs(pgg, MixedProfile(**pgg_values))


def test_cached_plans_and_joint_grids_are_read_only():
    every_plan = oracle._all_plans((2, 3), True, 2, 2, 4)
    assert every_plan is oracle._all_plans((2, 3), True, 2, 2, 4)
    chain = oracle._chain((2, 3), 2, 2)
    assert chain is oracle._chain((2, 3), 2, 2)
    picks, _, sources, starts, members, joints = chain
    for cached in (*every_plan, picks, *sources, *starts, members, *joints,
                   *oracle._roots_of_unity(5)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0


# ---------------------------------------------------------------------------
# The all-agents query and its one-entry memo


def fresh_answer(spec, profile, k=1, gamma=1.0):
    """The exploitability of a rebuilt profile, after a query of another
    game has replaced the memo's entry."""
    oracle.exploitability(prisoners_dilemma(), uniform_profile(
        prisoners_dilemma(), mediated=False))
    return oracle.exploitability(spec, rebuilt(profile), k, gamma)


def assert_same_exploitability(first, second):
    for name in ("payoffs", "gaps", "commit_values", "nash_conv"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


def test_memo_keys_on_the_game_k_and_gamma():
    profile = random_profile(one_shot_pgg(3, 2.0), True, np.random.default_rng(3))
    answers = [oracle.exploitability(spec, profile)
               for spec in (one_shot_pgg(3, 2.0), one_shot_pgg(3, 1.5))]
    assert not np.array_equal(answers[0].payoffs, answers[1].payoffs)
    for spec, answer in zip((one_shot_pgg(3, 2.0), one_shot_pgg(3, 1.5)), answers):
        assert_same_exploitability(answer, fresh_answer(spec, profile))
    pd2 = two_step_pd()
    profile = random_profile(pd2, True, np.random.default_rng(4))
    for first, second in (((1, 1.0), (2, 1.0)), ((1, 1.0), (1, 0.99))):
        answers = [oracle.exploitability(pd2, profile, *args)
                   for args in (first, second)]
        assert not np.array_equal(answers[0].payoffs, answers[1].payoffs)
        for args, answer in zip((first, second), answers):
            assert_same_exploitability(answer, fresh_answer(pd2, profile, *args))
    # A game built from an edited payoff table is another object, which
    # misses the memo too.
    before = oracle.exploitability(pd2, profile)
    tables = [table.copy() for table in pd2.payoff_tables]
    tables[1][1, 1] += 1.0
    edited = dataclasses.replace(pd2, payoff_tables=tables)
    after = oracle.exploitability(edited, profile)
    assert not np.array_equal(before.payoffs, after.payoffs)
    assert_same_exploitability(after, fresh_answer(edited, profile))
    assert_same_exploitability(before, fresh_answer(pd2, profile))


def test_memo_misses_a_profile_edited_in_place():
    # A profile refuses edits in place; a profile built from edited values
    # is another object, and its first query misses the memo.
    rng = np.random.default_rng(12)
    for spec in (two_step_pd(), one_shot_pgg(5, 2.0)):
        values = plain_values(random_profile(spec, True, rng))
        profile = MixedProfile(**values)
        answers = [oracle.exploitability(spec, profile)]
        with pytest.raises(ValueError):
            profile.agent_policies[0][1][:] = rng.dirichlet(np.ones(3))
        values["agent_policies"][0][1][:] = rng.dirichlet(np.ones(3))
        profile = MixedProfile(**values)
        answers.append(oracle.exploitability(spec, profile))
        if values["mediator_by_size"] is None:
            values["mediator_by_coalition"][0][(1, 1)][0][:] = [0.25, 0.75]
        else:
            values["mediator_by_size"][2] = 1.0 - values["mediator_by_size"][2]
        profile = MixedProfile(**values)
        answers.append(oracle.exploitability(spec, profile))
        for old, new in zip(answers, answers[1:]):
            assert not np.array_equal(old.payoffs, new.payoffs)
        assert_same_exploitability(answers[-1], fresh_answer(spec, profile))


def test_threads_sharing_the_memo_get_their_own_answers():
    # Each thread asks about its own profile, so a thread's hit can race
    # another thread's replacement of the memo.
    cases = [(spec, random_profile(spec, True, np.random.default_rng(i)))
             for i, spec in enumerate((prisoners_dilemma(), pd_with_sacrifice(),
                                       one_shot_pgg(3, 2.0), two_step_pd()))]
    expected = [expected_payoffs(spec, profile) for spec, profile in cases]
    wrong = []

    def ask(index):
        for _ in range(300):
            if not np.array_equal(expected_payoffs(*cases[index]), expected[index]):
                wrong.append(index)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_a_caller_cannot_change_the_next_answer():
    spec = pd_with_sacrifice()
    profile = random_profile(spec, True, np.random.default_rng(6))
    payoffs = expected_payoffs(spec, profile)
    payoffs[:] = 99.0
    answer = oracle.exploitability(spec, profile)
    assert not (answer.payoffs == 99.0).any()
    np.testing.assert_array_equal(expected_payoffs(spec, profile), answer.payoffs)
    for array in (answer.payoffs, answer.gaps, answer.commit_values):
        with pytest.raises(ValueError):
            array[0] = 99.0
    assert_same_exploitability(oracle.exploitability(spec, profile),
                               fresh_answer(spec, profile))


def test_every_query_is_checked_before_the_memo_is_read():
    spec = prisoners_dilemma()
    profile = all_commit_pd_profile()
    oracle.exploitability(spec, profile)
    for query, message in (
            (lambda: best_response_gap(spec, profile, 2), "agent must be"),
            (lambda: oracle.conditional_commit_values(spec, profile, 0, gamma=2.0),
             "gamma must be"),
            (lambda: expected_payoffs(spec, profile, k=0), "k must be")):
        with pytest.raises(ContractError, match=message):
            query()
    # The arguments are checked in a fixed order: k, then agent, then gamma.
    with pytest.raises(ContractError, match="k must be"):
        best_response_gap(spec, profile, -1, k=0, gamma=2.0)
    with pytest.raises(ContractError, match="agent must be"):
        oracle.conditional_commit_values(spec, profile, -1, gamma=2.0)
    values = plain_values(profile)
    values["agent_policies"][0][1][:] = [0.5, 0.5, 0.5]
    with pytest.raises(ContractError, match="not a probability vector"):
        oracle.exploitability(spec, MixedProfile(**values))


def test_a_bool_is_neither_a_count_nor_a_discount():
    spec = prisoners_dilemma()
    profile = all_commit_pd_profile()
    for query, message in (
            (lambda: expected_payoffs(spec, profile, k=True), "k must be"),
            (lambda: best_response_gap(spec, profile, True), "agent must be"),
            (lambda: expected_payoffs(spec, profile, gamma=True), "gamma must be")):
        with pytest.raises(ContractError, match=message):
            query()


def test_the_check_names_the_first_bad_entry():
    spec = two_step_pd()
    values = plain_values(random_profile(spec, True, np.random.default_rng(8)))
    values["agent_policies"][1][0][:] = [0.5, 0.5, 0.5]
    values["agent_policies"][0][1][:] = [-0.5, 1.0, 0.5]
    with pytest.raises(ContractError, match=r"holds \[-0\.5"):
        MixedProfile(**values).check(spec)
    values = plain_values(random_profile(spec, True, np.random.default_rng(8)))
    tables = values["mediator_by_coalition"]
    del tables[1][(1, 1)][0]
    tables[1][(1, 0)][0][:] = [0.7, 0.7]
    tables[1][(0, 1)][1] = [0.5, 0.25, 0.25]  # one entry too many
    with pytest.raises(ContractError, match="agent 1's 2 actions for coalition 01"):
        MixedProfile(**values).check(spec)
    tables[1][(0, 1)][1] = [0.5, 0.5]  # a list entry is converted
    with pytest.raises(ContractError, match="agent 0's 2 actions for coalition 10"):
        MixedProfile(**values).check(spec)
    tables[1][(1, 0)][0][:] = [0.3, 0.7]
    with pytest.raises(ContractError, match="agent 0's 2 actions for coalition 11"):
        MixedProfile(**values).check(spec)
    # An entry that is not numbers fails at construction.
    tables[1][(0, 1)][1] = ["a", "b"]
    with pytest.raises(ValueError):
        MixedProfile(**values)


# Entries a complete pd2 table must not hold: coalitions the game lacks and
# agents outside the coalition they are filed under.
STRAY_ENTRIES = {
    "three-agents": ((1, 1, 1), {}, r"names \(1, 1, 1\) in state 1"),
    "one-agent": ((2,), {}, r"names \(2,\) in state 1"),
    "string-key": ("11", {}, "names '11' in state 1"),
    "empty-coalition-member": ((0, 0), {0: [1.0, 0.0]},
                               "agent 0 under coalition 00 in state 1"),
    "non-member": ((0, 1), {0: [1.0, 0.0], 1: [1.0, 0.0]},
                   "agent 0 under coalition 01 in state 1"),
    "agent-id-past-n": ((1, 1), {0: [1.0, 0.0], 1: [1.0, 0.0], 2: [1.0, 0.0]},
                        "agent 2 under coalition 11"),
    "negative-agent-id": ((1, 0), {0: [1.0, 0.0], -1: [1.0, 0.0]},
                          "agent -1 under coalition 10"),
}


@pytest.mark.parametrize("stray", list(STRAY_ENTRIES))
def test_the_check_refuses_an_entry_outside_the_game(stray):
    spec = two_step_pd()
    values = plain_values(random_profile(spec, True, np.random.default_rng(8)))
    MixedProfile(**values).check(spec)
    bits, dists, message = STRAY_ENTRIES[stray]
    values["mediator_by_coalition"][1][bits] = dists
    with pytest.raises(ContractError, match=message):
        MixedProfile(**values).check(spec)


# ---------------------------------------------------------------------------
# A memo hit skips the profile check, not the argument checks


@pytest.fixture
def check_calls(monkeypatch):
    """The games of every ``MixedProfile.check`` call from here on."""
    calls = []
    check = MixedProfile.check

    def counted(profile, spec):
        calls.append(spec.name)
        return check(profile, spec)

    monkeypatch.setattr(MixedProfile, "check", counted)
    return calls


def forget():
    """Replace the memo's entry with an answer about another game."""
    oracle.exploitability(prisoners_dilemma(),
                          uniform_profile(prisoners_dilemma(), mediated=False))


def outcome(query):
    """What a query returns, or the message of the ContractError it raises."""
    try:
        return query()
    except ContractError as exc:
        return str(exc)


def assert_same_outcome(first, second):
    if isinstance(first, str) or isinstance(second, str):
        assert first == second
    else:
        assert_same_exploitability(first, second)


# name -> (game, k)
ROUND_CASES = {
    **{f"{make.__name__}-k{k}": (make, k)
       for make in (prisoners_dilemma, pd_with_sacrifice, two_step_pd)
       for k in (1, 2)},
    **{f"pgg-n{n}": (lambda n=n: one_shot_pgg(n, 2.0), 1) for n in (3, 8, 16)},
}


@pytest.mark.parametrize("case", list(ROUND_CASES))
def test_a_round_of_per_agent_queries_checks_the_profile_once(case, check_calls):
    make, k = ROUND_CASES[case]
    spec = make()
    profile = random_profile(spec, True, np.random.default_rng(len(case)))
    forget()
    check_calls.clear()
    payoffs = expected_payoffs(spec, profile, k)
    agents = range(spec.num_agents)
    gaps = [best_response_gap(spec, profile, i, k) for i in agents]
    commit = [oracle.conditional_commit_values(spec, profile, i, k) for i in agents]
    assert check_calls == [spec.name]
    fresh = fresh_answer(spec, profile, k)
    assert payoffs.tobytes() == fresh.payoffs.tobytes()
    assert np.array(gaps).tobytes() == fresh.gaps.tobytes()
    assert np.array(commit).tobytes() == fresh.commit_values.tobytes()


def test_a_hit_still_checks_every_argument_in_order(check_calls):
    spec = two_step_pd()
    profile = random_profile(spec, True, np.random.default_rng(13))
    oracle.exploitability(spec, profile, 2)
    complex_gamma = np.complex128(0.5)
    for query, message in (
            (lambda: expected_payoffs(spec, profile, k=True), "k must be"),
            (lambda: best_response_gap(spec, profile, True, 2), "agent must be"),
            (lambda: oracle.conditional_commit_values(spec, profile, 2, 2),
             "agent must be"),
            (lambda: best_response_gap(spec, profile, -1, 2), "agent must be"),
            (lambda: expected_payoffs(spec, profile, 2, gamma=True), "gamma must be"),
            (lambda: expected_payoffs(spec, profile, 2, gamma=complex_gamma),
             "gamma must be"),
            # k, then agent, then gamma
            (lambda: best_response_gap(spec, profile, True, k=True, gamma=True),
             "k must be"),
            (lambda: oracle.conditional_commit_values(
                spec, profile, 2, 2, gamma=complex_gamma), "agent must be")):
        with pytest.raises(ContractError, match=message):
            query()
    # None of them replaced the memo's entry, so the next query hits.
    calls = len(check_calls)
    best_response_gap(spec, profile, 1, 2)
    assert len(check_calls) == calls


def entry_as_list(values):
    table = values["mediator_by_coalition"][1][(1, 0)]
    table[0] = table[0].tolist()


def dist_as_float32(values):
    table = values["mediator_by_coalition"][0][(1, 1)]
    table[0] = table[0].astype(np.float32)


# Edits of a profile's plain values, each built into a new profile.
MEMO_EDITS = {
    "entry-as-list": entry_as_list,
    "coalition-added": lambda v: v["mediator_by_coalition"][0].update({(1, 1, 1): {}}),
    "empty-coalition-deleted": lambda v: v["mediator_by_coalition"][1].pop((0, 0)),
    "coalition-deleted": lambda v: v["mediator_by_coalition"][1].pop((1, 1)),
    "mediated-one": lambda v: v.update(mediated=1),
    "dist-as-float32": dist_as_float32,
    "policies-as-tuples": lambda v: v.update(
        agent_policies=tuple(map(tuple, v["agent_policies"]))),
}


@pytest.mark.parametrize("edit", list(MEMO_EDITS))
def test_an_edit_the_check_reads_misses_the_memo(edit, check_calls):
    spec = two_step_pd()
    values = plain_values(random_profile(spec, True, np.random.default_rng(14)))
    values["mediator_by_coalition"][0][(1, 1)][0] = np.array([0.25, 0.75])
    oracle.exploitability(spec, MixedProfile(**values), 2)
    MEMO_EDITS[edit](values)
    profile = MixedProfile(**values)
    check_calls.clear()
    answer = outcome(lambda: oracle.exploitability(spec, profile, 2))
    assert check_calls == [spec.name]
    assert isinstance(answer, str) == (
        edit in ("coalition-added", "coalition-deleted", "mediated-one"))
    assert_same_outcome(answer, outcome(lambda: fresh_answer(spec, profile, 2)))


class Table(dict):
    """A dict subclass, which may answer lookups its own way."""


def coalition_tables_as(values, wrap):
    values["mediator_by_coalition"] = [wrap(table)
                                       for table in values["mediator_by_coalition"]]


# Parts that construction normalizes: containers become tuples and read-only
# mappings, arrays read-only float64 copies; keys stay as given.
UNKEYED_PARTS = {
    "dict-subclass": lambda v: coalition_tables_as(v, Table),
    "numpy-coalition-keys": lambda v: coalition_tables_as(v, lambda table: {
        tuple(map(np.int64, bits)): dists for bits, dists in table.items()}),
    "object-array": lambda v: v["agent_policies"][0].__setitem__(
        1, v["agent_policies"][0][1].astype(object)),
    "list-subclass": lambda v: v.update(
        agent_policies=type("States", (list,), {})(v["agent_policies"])),
}


def round_answers(spec, profile, k):
    """A round of per-agent queries: payoffs, then every gap and commit value."""
    agents = range(spec.num_agents)
    return [expected_payoffs(spec, profile, k),
            [best_response_gap(spec, profile, i, k) for i in agents],
            [oracle.conditional_commit_values(spec, profile, i, k) for i in agents]]


@pytest.mark.parametrize("part", list(UNKEYED_PARTS))
def test_a_profile_the_key_cannot_hold_skips_the_memo(part, check_calls):
    # Construction normalizes each part, so the memo holds such a profile
    # like any other.
    spec = two_step_pd()
    plain = random_profile(spec, True, np.random.default_rng(15))
    values = plain_values(plain)
    UNKEYED_PARTS[part](values)
    profile = MixedProfile(**values)
    assert_read_only(profile)
    forget()
    check_calls.clear()
    answers = round_answers(spec, profile, 2)
    assert check_calls == [spec.name]
    assert_same_answers(answers, round_answers(spec, plain, 2))
    assert_same_answers(pd2_answers(spec, profile), pd2_answers(spec, plain))


def assert_read_only(profile):
    """Every field, container and array of ``profile`` refuses a write."""
    for name in ("agent_policies", "mediated", "mediator_by_coalition",
                 "mediator_by_size"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(profile, name, None)
    arrays = [p for state in profile.agent_policies for p in state]
    assert type(profile.agent_policies) is tuple
    for state in profile.agent_policies:
        assert type(state) is tuple
        with pytest.raises(TypeError):
            state[0] = state[0]
    for table in profile.mediator_by_coalition or ():
        assert type(table) is MappingProxyType
        for bits, dists in table.items():
            assert type(dists) is MappingProxyType
            with pytest.raises(TypeError):
                table[bits] = {}
            with pytest.raises(TypeError):
                dists[0] = np.ones(2)
            arrays += dists.values()
    if profile.mediator_by_size is not None:
        arrays.append(profile.mediator_by_size)
    for array in arrays:
        assert type(array) is np.ndarray and array.dtype == np.float64
        with pytest.raises(ValueError):
            array[0] = 0.5


@pytest.mark.parametrize("mediated", [True, False])
@pytest.mark.parametrize("spec", [two_step_pd(), one_shot_pgg(4, 2.0)],
                         ids=lambda spec: spec.name)
def test_a_profile_refuses_every_write(spec, mediated):
    profile = random_profile(spec, mediated, np.random.default_rng(16))
    before = oracle.exploitability(spec, profile)
    assert_read_only(profile)
    forget()
    assert_same_exploitability(oracle.exploitability(spec, profile), before)


@pytest.mark.parametrize("spec", [two_step_pd(), pd_with_sacrifice(),
                                  one_shot_pgg(4, 2.0)], ids=lambda spec: spec.name)
def test_copied_and_pickled_profiles_answer_as_the_original(spec):
    profile = random_profile(spec, True, np.random.default_rng(17))
    answer = oracle.exploitability(spec, profile, 2, 0.9)
    for twin in (copy.copy(profile), copy.deepcopy(profile),
                 pickle.loads(pickle.dumps(profile))):
        assert type(twin) is MixedProfile and twin is not profile
        assert_read_only(twin)
        assert_same_exploitability(oracle.exploitability(spec, twin, 2, 0.9), answer)
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert_same_exploitability(oracle.exploitability(twin, profile, 2, 0.9), answer)


# ---------------------------------------------------------------------------
# Optimal constrained PGG mediator


def test_optimal_pgg_mediator_matches_published_values():
    probs = optimal_constrained_mediator_pgg(3, 2.0)
    assert probs[1] == pytest.approx(0.0, abs=1e-3)
    assert probs[2] == pytest.approx(0.75, abs=1e-3)
    assert probs[3] == pytest.approx(1.0, abs=1e-3)


def test_optimal_pgg_mediator_near_n_equals_big_n():
    # As the multiplier approaches N, contributing becomes individually
    # rational and every policy entry with at least two members tends to 1.
    probs = optimal_constrained_mediator_pgg(3, 2.999)
    assert probs[2] > 0.99
    assert probs[3] == 1.0


def test_optimal_pgg_mediator_brute_force_cross_check():
    # Independent grid search over (p2, p3) maximizing full-coalition welfare
    # subject to the same boundary constraints, at resolution 1e-3.
    n_agents, mult = 3, 2.0
    ratio = mult / n_agents
    best = None
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    for p3 in (1.0,):  # welfare of the full coalition is increasing in p3
        for p2 in grid:
            v_in3 = (ratio * 3 - 1) * p3
            v_out2 = ratio * 2 * p2
            v_in2 = (ratio * 2 - 1) * p2
            v_out1 = 0.0
            if v_in3 + 1e-12 >= v_out2 and v_in2 + 1e-12 >= v_out1:
                welfare = 3 * v_in3
                if best is None or (welfare, p2) > best[:2]:
                    best = (welfare, p2, p3)
    probs = optimal_constrained_mediator_pgg(n_agents, mult)
    assert probs[2] == pytest.approx(best[1], abs=1e-3)


@pytest.mark.parametrize("n_agents,mult", [(3, 2.0), (10, 2.0), (25, 5.0)])
def test_optimal_pgg_mediator_full_commit_has_no_gap(n_agents, mult):
    spec = one_shot_pgg(n_agents, mult)
    probs = optimal_constrained_mediator_pgg(n_agents, mult)
    profile = full_commit_pgg_profile(spec, probs)
    for agent in range(min(n_agents, 3)):
        assert best_response_gap(spec, profile, agent) <= 1e-6


def test_optimal_pgg_mediator_rejects_bad_multiplier():
    with pytest.raises(ConfigError):
        optimal_constrained_mediator_pgg(3, 3.0)


@pytest.mark.parametrize("multiplier", ["2", 2j, None])
def test_optimal_pgg_mediator_needs_a_real_multiplier(multiplier):
    # These used to end in a bare TypeError.
    with pytest.raises(ConfigError, match="real n"):
        optimal_constrained_mediator_pgg(3, multiplier)


# ---------------------------------------------------------------------------
# Normalization constants


def test_normalization_pgg3():
    assert normalization_constants(one_shot_pgg(3, 2.0)) == (0.0, 1.0)


def test_normalization_pgg25():
    assert normalization_constants(one_shot_pgg(25, 5.0)) == (0.0, 4.0)


def test_normalization_iterative_pgg_full_cooperation():
    low, high = normalization_constants(iterative_pgg(3, 2.0))
    assert low == 0.0
    assert high == pytest.approx(1.5 ** 10 - 1.0)


def test_normalization_maps_extremes_to_unit_interval():
    spec = one_shot_pgg(3, 2.0)
    assert oracle.normalized_reward(spec, 0.0) == 0.0
    assert oracle.normalized_reward(spec, 1.0) == 1.0


def test_normalization_pd():
    assert normalization_constants(prisoners_dilemma()) == (0.0, 2.0)


def test_naive_pgg_equilibrium_reward_matches_published_scale():
    # Two committers, mediator contributes, one free-rider: mean reward 2/3.
    spec = one_shot_pgg(3, 2.0)
    profile = MixedProfile(
        agent_policies=[[np.array([0.0, 0.0, 1.0]),
                         np.array([0.0, 0.0, 1.0]),
                         np.array([1.0, 0.0, 0.0])]],
        mediated=True, mediator_by_size=np.array([0.0, 0.0, 1.0, 1.0]))
    mean = expected_payoffs(spec, profile).mean()
    assert oracle.normalized_reward(spec, mean) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# Welfare bounds (mediated maxima)


def test_pure_nash_pd_is_mutual_defection():
    payoffs = pure_nash_payoffs(prisoners_dilemma())
    assert len(payoffs) == 1
    np.testing.assert_array_equal(payoffs[0], (0.0, 0.0))


def test_pure_nash_matches_enumeration_within_tolerance():
    # A coordination game with equilibria (0, 0) and (1, 1). At (2, 2) agent
    # 0 gains less than the 1e-12 tolerance by moving to row 0, so it counts;
    # at (3, 3) agent 1 gains more by moving to column 0, so it does not.
    table = np.zeros((4, 4, 2))
    table[0, 0] = table[1, 1] = (2.0, 2.0)
    table[2, 2] = table[3, 3] = (1.0, 1.0)
    table[0, 2, 0] = 1.0 + 5e-13
    table[3, 0, 1] = 1.0 + 5e-12
    spec = games.PayoffSpec(games.GameKind.MATRIX, 2, (4, 4), 1, (table,))
    expected = [table[joint] for joint in itertools.product(range(4), repeat=2)
                if all(table[joint[:i] + (alt,) + joint[i + 1:]][i]
                       <= table[joint][i] + 1e-12
                       for i in range(2) for alt in range(4))]
    payoffs = pure_nash_payoffs(spec)
    np.testing.assert_array_equal(payoffs, expected)
    np.testing.assert_array_equal(payoffs, [(2.0, 2.0), (2.0, 2.0), (1.0, 1.0)])


def test_max_mediated_welfare_pd():
    welfare, dist = max_mediated_welfare(prisoners_dilemma())
    assert welfare == pytest.approx(4.0)
    assert dist[1, 1] == pytest.approx(1.0)


def loaded_after_importing_the_package(*modules):
    """Which of ``modules`` a fresh interpreter holds after ``import mediated_rl``."""
    src = str(Path(mediated_rl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, mediated_rl; print(sorted({set(modules)!r} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes most of the package's import time; only the
    # welfare LP needs it, and imports it when called.
    assert loaded_after_importing_the_package("scipy.optimize") == "[]"


def test_importing_the_package_leaves_multiprocessing_unloaded():
    # Only a sweep over worker processes needs the process pool, and
    # imports it when it runs one.
    assert loaded_after_importing_the_package(
        "multiprocessing", "concurrent.futures.process") == "[]"


def test_max_mediated_welfare_pds_mixes_cooperation_and_sacrifice():
    welfare, dist = max_mediated_welfare(pd_with_sacrifice())
    assert welfare == pytest.approx(4.5)
    assert dist[1, 1] == pytest.approx(0.5, abs=1e-6)
    assert dist[:, 2].sum() == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# Two-step games


def test_two_step_all_defect():
    spec = two_step_pd()
    profile = MixedProfile(
        agent_policies=[[np.array([1.0, 0.0])] * 2] * 2)
    np.testing.assert_allclose(expected_payoffs(spec, profile, gamma=0.99),
                               (0.0, 0.0))


def test_two_step_ex_ante_commit_value():
    # Full commitment with a mediator playing mutual cooperation in both
    # states: returns are (-1 + 0.99 * 2, 4 + 0.99 * 2).
    spec = two_step_pd()
    coop = np.array([0.0, 1.0])
    defect = np.array([1.0, 0.0])
    table = {
        (0, 0): {},
        (1, 0): {0: defect},
        (0, 1): {1: defect},
        (1, 1): {0: coop, 1: coop},
    }
    profile = MixedProfile(
        agent_policies=[[np.array([0.0, 0.0, 1.0])] * 2] * 2,
        mediated=True, mediator_by_coalition=[table, table])
    values = expected_payoffs(spec, profile, k=2, gamma=0.99)
    np.testing.assert_allclose(values, (-1.0 + 0.99 * 2.0, 4.0 + 0.99 * 2.0))
    # Ex-ante commitment is an equilibrium here; ex-post it is not for agent 0.
    assert best_response_gap(spec, profile, 0, k=2, gamma=0.99) == pytest.approx(0.0)
    assert best_response_gap(spec, profile, 0, k=1, gamma=0.99) > 0.5


# ---------------------------------------------------------------------------
# Monte-Carlo consistency and feasibility


def test_monte_carlo_matches_exact_expectations():
    rng = np.random.default_rng(123)
    spec = prisoners_dilemma()
    profile = MixedProfile(
        agent_policies=[[np.array([0.2, 0.3, 0.5]),
                         np.array([0.4, 0.1, 0.5])]],
        mediated=True, mediator_by_coalition=pd_mediator_table())
    exact = expected_payoffs(spec, profile)
    mean, stderr = sample_profile_payoffs(spec, profile, 100_000, rng)
    np.testing.assert_array_less(np.abs(mean - exact), 3.0 * stderr + 1e-12)


def asymmetric_pgg_profile():
    """Eight agents that each commit and contribute at their own rates,
    under a mediator whose contribute probability rises with the size."""
    commit = np.linspace(0.1, 0.8, 8)
    coop = (1.0 - commit) * np.linspace(0.9, 0.2, 8)
    return one_shot_pgg(8, 3.0), MixedProfile(
        agent_policies=[[np.array([1.0 - c - m, c, m])
                         for c, m in zip(coop, commit)]],
        mediated=True, mediator_by_size=np.linspace(0.0, 1.0, 9) ** 2)


PGG_MONTE_CARLO_CASES = {
    "n3": lambda: (one_shot_pgg(3, 2.0), MixedProfile(
        agent_policies=[[np.array([0.3, 0.2, 0.5])] * 3],
        mediated=True, mediator_by_size=np.array([0.0, 0.1, 0.75, 1.0]))),
    # Rows of one coalition size have different members.
    "n8-asymmetric": asymmetric_pgg_profile,
}


@pytest.mark.parametrize("case", list(PGG_MONTE_CARLO_CASES))
def test_monte_carlo_pgg_matches_exact(case):
    rng = np.random.default_rng(7)
    spec, profile = PGG_MONTE_CARLO_CASES[case]()
    exact = expected_payoffs(spec, profile)
    mean, stderr = sample_profile_payoffs(spec, profile, 100_000, rng)
    np.testing.assert_array_less(np.abs(mean - exact), 3.0 * stderr + 1e-12)


def pd2_mediator_tables():
    """Member distributions that depend on the coalition and the state."""
    return [{
        (0, 0): {},
        (1, 0): {0: np.array([0.6, 0.4])},
        (0, 1): {1: np.array([0.9, 0.1])},
        (1, 1): {0: np.array([0.3, 0.7]), 1: np.array([0.2, 0.8])},
    }, {
        (0, 0): {},
        (1, 0): {0: np.array([0.1, 0.9])},
        (0, 1): {1: np.array([0.5, 0.5])},
        (1, 1): {0: np.array([0.8, 0.2]), 1: np.array([0.4, 0.6])},
    }]


def pd2_profile(state1):
    return two_step_pd(), MixedProfile(
        agent_policies=[[np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.2, 0.4])],
                        state1],
        mediated=True, mediator_by_coalition=pd2_mediator_tables())


def pds_profile():
    return pd_with_sacrifice(), MixedProfile(
        agent_policies=[[np.array([0.3, 0.3, 0.4]),
                         np.array([0.2, 0.3, 0.1, 0.4])]],
        mediated=True, mediator_by_coalition=[{
            (0, 0): {},
            (1, 0): {0: np.array([0.5, 0.5])},
            (0, 1): {1: np.array([0.2, 0.3, 0.5])},
            (1, 1): {0: np.array([0.1, 0.9]), 1: np.array([0.3, 0.3, 0.4])},
        }])


MIXED_STATE1 = [np.array([0.5, 0.2, 0.3]), np.array([0.1, 0.6, 0.3])]
MONTE_CARLO_CASES = {
    "pd2-k1": (1, lambda: pd2_profile(MIXED_STATE1)),
    "pd2-k2": (2, lambda: pd2_profile(MIXED_STATE1)),
    "pds": (1, pds_profile),
    # Mid-window, committed agents commit although their policy never does.
    "pd2-k2-no-commit-mass": (2, lambda: pd2_profile(
        [np.array([0.4, 0.6, 0.0]), np.array([0.7, 0.3, 0.0])])),
    # Mid-window, locked-out agent 0 has no env mass and plays uniformly.
    "pd2-k2-no-env-mass": (2, lambda: pd2_profile(
        [np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.6, 0.3])])),
    # Unmediated: no coalition forms, and mid-window nobody may commit.
    "pds-unmediated": (1, lambda: (pd_with_sacrifice(), MixedProfile(
        agent_policies=[[np.array([0.6, 0.4]), np.array([0.2, 0.5, 0.3])]]))),
    "pd2-k2-unmediated": (2, lambda: (two_step_pd(), MixedProfile(
        agent_policies=[[np.array([0.3, 0.7]), np.array([0.8, 0.2])],
                        [np.array([0.5, 0.5]), np.array([0.1, 0.9])]]))),
}


@pytest.mark.parametrize("case", list(MONTE_CARLO_CASES))
def test_monte_carlo_windowed_protocol_matches_exact(case):
    # The sampler runs the rollout's protocol steps; the exact oracle
    # enumerates the same protocol.
    k, make = MONTE_CARLO_CASES[case]
    spec, profile = make()
    rng = np.random.default_rng(2306)
    exact = expected_payoffs(spec, profile, k)
    mean, stderr = sample_profile_payoffs(spec, profile, 100_000, rng, k)
    np.testing.assert_array_less(np.abs(mean - exact), 4.0 * stderr + 1e-12)


def test_copy_mediator_refuses_the_one_shot_pgg():
    # Its mediator is by coalition size; the copy mediator is per member.
    spec = one_shot_pgg(3, 2.0)
    with pytest.raises(ContractError, match="by-size"):
        mediator_copy_profile(spec, uniform_profile(spec, mediated=True))


def test_copy_mediator_is_value_neutral():
    # A mediator that replays each agent's own policy leaves every agent's
    # conditional value unchanged by membership (constraint feasibility).
    spec = prisoners_dilemma()
    profile = MixedProfile(
        agent_policies=[[np.array([0.25, 0.35, 0.4]),
                         np.array([0.1, 0.45, 0.45])]],
        mediated=True, mediator_by_coalition=pd_mediator_table())
    copy = mediator_copy_profile(spec, profile)
    for agent in (0, 1):
        v_in, v_out = oracle.conditional_commit_values(spec, copy, agent)
        assert v_in == pytest.approx(v_out, abs=1e-9)

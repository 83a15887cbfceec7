"""Exact-oracle checks: payoffs, best responses, optimal mediators."""

import numpy as np
import pytest

from mediated_rl import games, oracle
from mediated_rl.errors import ConfigError, ContractError, UnsupportedGameError
from mediated_rl.games import (iterative_pgg, one_shot_pgg, pd_with_sacrifice,
                               prisoners_dilemma, two_step_pd)
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
                  "conditional_commit_values", "sample_profile_payoffs"):
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


def test_max_mediated_welfare_pd():
    welfare, dist = max_mediated_welfare(prisoners_dilemma())
    assert welfare == pytest.approx(4.0)
    assert dist[1, 1] == pytest.approx(1.0)


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


def test_monte_carlo_pgg_matches_exact():
    rng = np.random.default_rng(7)
    spec = one_shot_pgg(3, 2.0)
    profile = MixedProfile(
        agent_policies=[[np.array([0.3, 0.2, 0.5])] * 3],
        mediated=True, mediator_by_size=np.array([0.0, 0.1, 0.75, 1.0]))
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

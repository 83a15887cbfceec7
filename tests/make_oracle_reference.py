"""Write the exact-oracle pins that test_oracle_reference.py checks.

Run from the repository root:

    PYTHONPATH=src python tests/make_oracle_reference.py

Each reference case is a seeded random profile of pd, pds or pd2, mediated
or not, with a window length k and a discount gamma. Some cases zero out
random policy entries, so that committed agents with no commit mass and
locked-out agents with no env mass are covered. The fixture keeps each
profile in the CLI's JSON format next to the oracle's answers: expected
payoffs, every agent's best-response gap and, for mediated profiles, every
agent's conditional commit values.

A refactor of the oracle leaves the fixture unchanged. A change that alters
the oracle's answers on purpose regenerates it and says why.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from mediated_rl import oracle
from mediated_rl.cli import _profile_from_json
from mediated_rl.games import make_spec

FIXTURE = Path(__file__).resolve().parent / "data" / "oracle_reference.json"

# name -> (env, mediated, k, gamma, seed, share of policy entries zeroed)
REFERENCE_CASES = {
    "pd-mediated": ("pd", True, 1, 1.0, 0, 0.0),
    "pd-mediated-sparse": ("pd", True, 1, 1.0, 1, 0.4),
    "pd-unmediated": ("pd", False, 1, 1.0, 2, 0.0),
    "pds-mediated": ("pds", True, 1, 1.0, 3, 0.0),
    "pds-mediated-k2": ("pds", True, 2, 0.99, 4, 0.3),
    "pds-unmediated": ("pds", False, 1, 0.99, 5, 0.0),
    "pd2-mediated-k1": ("pd2", True, 1, 1.0, 6, 0.0),
    "pd2-mediated-k1-discounted": ("pd2", True, 1, 0.99, 7, 0.3),
    "pd2-mediated-k2": ("pd2", True, 2, 1.0, 8, 0.0),
    "pd2-mediated-k2-sparse": ("pd2", True, 2, 0.99, 16, 0.5),
    "pd2-unmediated-k1": ("pd2", False, 1, 0.99, 10, 0.0),
    "pd2-unmediated-k2": ("pd2", False, 2, 1.0, 11, 0.3),
}


def _random_dist(size: int, rng: np.random.Generator, sparse: float) -> list:
    """A Dirichlet draw with a random share of entries zeroed, keeping one."""
    dist = rng.dirichlet(np.ones(size))
    zero = rng.random(size) < sparse
    zero[rng.integers(size)] = False
    dist[zero] = 0.0
    return (dist / dist.sum()).tolist()


def reference_profile(name: str) -> dict:
    """The case's profile in the JSON format ``mediated-rl oracle`` reads."""
    env, mediated, _, _, seed, sparse = REFERENCE_CASES[name]
    spec = make_spec(env)
    rng = np.random.default_rng(seed)
    data = {"mediated": mediated, "agent_policies": [
        [_random_dist(a + mediated, rng, sparse) for a in spec.num_actions]
        for _ in range(spec.horizon)]}
    if mediated:
        data["mediator_by_coalition"] = [
            {"".join(map(str, bits)): {
                str(i): _random_dist(spec.num_actions[i], rng, sparse)
                for i in range(spec.num_agents) if bits[i]}
             for bits in itertools.product((0, 1), repeat=spec.num_agents)}
            for _ in range(spec.horizon)]
    return data


def oracle_answers(name: str, data: dict) -> dict:
    """The exact oracle's answers on one case's profile."""
    env, mediated, k, gamma, _, _ = REFERENCE_CASES[name]
    spec = make_spec(env)
    profile = _profile_from_json(spec, data)
    agents = range(spec.num_agents)
    return {
        "expected_payoffs": oracle.expected_payoffs(
            spec, profile, k, gamma).tolist(),
        "best_response_gap": [oracle.best_response_gap(
            spec, profile, i, k, gamma) for i in agents],
        "conditional_commit_values": [list(oracle.conditional_commit_values(
            spec, profile, i, k, gamma)) for i in agents] if mediated else None,
    }


def main() -> None:
    pins = {}
    for name in REFERENCE_CASES:
        data = reference_profile(name)
        pins[name] = {"profile": data, **oracle_answers(name, data)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(pins)} cases)")


if __name__ == "__main__":
    main()

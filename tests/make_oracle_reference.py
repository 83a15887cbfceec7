"""Write the exact-oracle pins that test_oracle_reference.py checks.

Run from the repository root:

    PYTHONPATH=src python tests/make_oracle_reference.py [--check]

Each reference case is a seeded random profile of pd, pds, pd2 or the
one-shot pgg (N = 3, 8 or 16), mediated or not, with a window length k and
a discount gamma. A mediated pgg profile has a random contribute probability
per coalition size. Some cases zero out random policy entries, so that
committed agents with no commit mass and locked-out agents with no env mass
are covered (and, in the pgg, sizes at which the mediator never
contributes). The fixture keeps each profile in the CLI's JSON format next
to the oracle's answers: expected payoffs, every agent's best-response gap
and, for mediated profiles, every agent's conditional commit values.

A refactor of the oracle leaves the fixture unchanged. A change that alters
the oracle's answers on purpose regenerates it and says why; the script
prints, for each case, the largest absolute change of each answer against
the fixture it replaces. With ``--check`` it prints the same changes,
writes nothing and exits 1 if the fixture would change.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from mediated_rl import oracle
from mediated_rl.cli import _profile_from_json
from mediated_rl.games import GameKind, make_spec

FIXTURE = Path(__file__).resolve().parent / "data" / "oracle_reference.json"

PGG_MULTIPLIER = 2.0

# name -> (env, num_agents or None for the env's default, mediated, k,
#          gamma, seed, share of policy entries zeroed)
REFERENCE_CASES = {
    "pd-mediated": ("pd", None, True, 1, 1.0, 0, 0.0),
    "pd-mediated-sparse": ("pd", None, True, 1, 1.0, 1, 0.4),
    "pd-unmediated": ("pd", None, False, 1, 1.0, 2, 0.0),
    "pds-mediated": ("pds", None, True, 1, 1.0, 3, 0.0),
    "pds-mediated-k2": ("pds", None, True, 2, 0.99, 4, 0.3),
    "pds-unmediated": ("pds", None, False, 1, 0.99, 5, 0.0),
    "pd2-mediated-k1": ("pd2", None, True, 1, 1.0, 6, 0.0),
    "pd2-mediated-k1-discounted": ("pd2", None, True, 1, 0.99, 7, 0.3),
    "pd2-mediated-k2": ("pd2", None, True, 2, 1.0, 8, 0.0),
    "pd2-mediated-k2-sparse": ("pd2", None, True, 2, 0.99, 16, 0.5),
    "pd2-unmediated-k1": ("pd2", None, False, 1, 0.99, 10, 0.0),
    "pd2-unmediated-k2": ("pd2", None, False, 2, 1.0, 11, 0.3),
    "pgg-n3-mediated": ("pgg", 3, True, 1, 1.0, 20, 0.0),
    "pgg-n3-unmediated": ("pgg", 3, False, 1, 1.0, 21, 0.0),
    "pgg-n8-mediated-sparse": ("pgg", 8, True, 1, 1.0, 22, 0.4),
    "pgg-n8-unmediated-sparse": ("pgg", 8, False, 1, 1.0, 23, 0.4),
    "pgg-n16-mediated": ("pgg", 16, True, 1, 1.0, 24, 0.0),
    "pgg-n16-mediated-sparse": ("pgg", 16, True, 1, 1.0, 25, 0.4),
    "pgg-n16-unmediated": ("pgg", 16, False, 1, 1.0, 26, 0.0),
}


def reference_spec(name: str):
    env, num_agents = REFERENCE_CASES[name][:2]
    if num_agents is None:
        return make_spec(env)
    return make_spec(env, num_agents, PGG_MULTIPLIER)


def _random_dist(size: int, rng: np.random.Generator, sparse: float) -> list:
    """A Dirichlet draw with a random share of entries zeroed, keeping one."""
    dist = rng.dirichlet(np.ones(size))
    zero = rng.random(size) < sparse
    zero[rng.integers(size)] = False
    dist[zero] = 0.0
    return (dist / dist.sum()).tolist()


def reference_profile(name: str) -> dict:
    """The case's profile in the JSON format ``mediated-rl oracle`` reads."""
    _, _, mediated, _, _, seed, sparse = REFERENCE_CASES[name]
    spec = reference_spec(name)
    rng = np.random.default_rng(seed)
    data = {"mediated": mediated, "agent_policies": [
        [_random_dist(a + mediated, rng, sparse) for a in spec.num_actions]
        for _ in range(spec.horizon)]}
    if mediated and spec.kind is GameKind.ONE_SHOT_PGG:
        by_size = rng.random(spec.num_agents + 1)
        by_size[rng.random(by_size.size) < sparse] = 0.0
        data["mediator_by_size"] = by_size.tolist()
    elif mediated:
        data["mediator_by_coalition"] = [
            {"".join(map(str, bits)): {
                str(i): _random_dist(spec.num_actions[i], rng, sparse)
                for i in range(spec.num_agents) if bits[i]}
             for bits in itertools.product((0, 1), repeat=spec.num_agents)}
            for _ in range(spec.horizon)]
    return data


def oracle_answers(name: str, data: dict) -> dict:
    """The exact oracle's answers on one case's profile."""
    _, _, mediated, k, gamma, _, _ = REFERENCE_CASES[name]
    spec = reference_spec(name)
    profile = _profile_from_json(data)
    agents = range(spec.num_agents)
    return {
        "expected_payoffs": oracle.expected_payoffs(
            spec, profile, k, gamma).tolist(),
        "best_response_gap": [oracle.best_response_gap(
            spec, profile, i, k, gamma) for i in agents],
        "conditional_commit_values": [list(oracle.conditional_commit_values(
            spec, profile, i, k, gamma)) for i in agents] if mediated else None,
    }


def largest_change(old, new) -> str:
    """The largest absolute difference between two answers, "-" when
    neither has numbers and "reshaped" when they do not line up."""
    if old is None and new is None:
        return "-"
    if old is None or new is None or np.shape(old) != np.shape(new):
        return "reshaped"
    return f"{np.max(np.abs(np.subtract(new, old)), initial=0.0):.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the exact-oracle pins.")
    parser.add_argument("--check", action="store_true",
                        help="print the changes, write nothing, exit 1 if any")
    check = parser.parse_args(argv).check
    text = FIXTURE.read_text() if FIXTURE.exists() else "{}"
    old = json.loads(text)
    pins = {}
    for name in REFERENCE_CASES:
        data = reference_profile(name)
        pins[name] = {"profile": data, **oracle_answers(name, data)}
    new_text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    if not check:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(new_text)
        print(f"wrote {FIXTURE} ({len(pins)} cases)")
    for name, pin in pins.items():
        before = old.get(name)
        if before is None:
            print(f"  {name}: new")
        elif before["profile"] != pin["profile"]:
            print(f"  {name}: new profile")
        else:
            print(f"  {name}: " + ", ".join(
                f"{query} {largest_change(before[query], answer)}"
                for query, answer in pin.items() if query != "profile"))
    return int(check and new_text != text)


if __name__ == "__main__":
    sys.exit(main())

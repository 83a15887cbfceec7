"""The benchmark's workloads.

Kept free of heavy imports: the set-up probe loads this module before it
starts its clock. Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import random
from dataclasses import replace

# name -> (default_config positional args, keyword args, iterations per timed call)
TRAINING = {
    "pd-naive": (("pd", "naive"), {}, 100),
    "pgg-iter-k10": (("pgg-iter", "constrained"), {"k": 10}, 20),
    "pgg-n16": (("pgg", "constrained"), {"num_agents": 16}, 30),
}
# Workloads whose published schedule converges: each run also trains one seed
# on it, for time to solution and the learned quality.
SOLVED = ("pd-naive",)
ORACLE = "oracle-exploit"
NAMES = (*TRAINING, ORACLE)

# (env, num_agents, k) of the exploitability queries, one of each per round.
ORACLE_CASES = (
    ("pd", 2, 1), ("pds", 2, 1), ("pd2", 2, 1), ("pd2", 2, 2),
    ("pgg", 3, 1), ("pgg", 8, 1), ("pgg", 16, 1),
)
PGG_MULTIPLIER = 2.0

# Reference kernel per workload (see reference.py). Under neighbour load the
# NumPy kernel tracked the training workloads best and the pure-Python one
# the oracle's enumerations, which are mostly interpreter work.
REFERENCE = {**{name: "numpy" for name in TRAINING}, ORACLE: "python"}


def training_config(harness, name: str, iterations: int | None):
    """The workload's RunConfig at ``iterations``; None keeps the published
    schedule."""
    args, kwargs, _ = TRAINING[name]
    config = harness.default_config(*args, **kwargs)
    return config if iterations is None else replace(config, iterations=iterations)


def timed_config(harness, name: str):
    """The workload's RunConfig at the iteration count of one timed call."""
    return training_config(harness, name, TRAINING[name][2])


def training_seeds(seed: int):
    """Endless stream of training seeds derived from the workload seed."""
    rnd = random.Random(seed)
    while True:
        yield rnd.getrandbits(31)

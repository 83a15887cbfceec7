"""Set-up time of one workload, measured in a fresh interpreter.

Times ``import mediated_rl`` plus, for training workloads, one
``harness.train`` call at zero iterations (build the learners and evaluate
once). Then runs the NumPy reference kernel once untimed and times it
twice.
Prints the set-up seconds at reference speed, the raw set-up seconds and
the imported package file on one line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import workloads

start = time.perf_counter()
import mediated_rl  # noqa: E402
from mediated_rl import harness  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
if name in workloads.TRAINING:
    harness.train(workloads.training_config(harness, name, iterations=0),
                  next(workloads.training_seeds(seed)))
elapsed = time.perf_counter() - start

from reference import at_reference_speed, reference_s  # noqa: E402

# Set-up, mostly imports, is rescaled with the NumPy kernel on every workload.
# The first kernel call may be the process's first BLAS and ufunc use, so
# its one-time start-up cost is left out of the references.
reference_s("numpy")
refs = [reference_s("numpy"), reference_s("numpy")]
scaled = at_reference_speed([elapsed], refs, "numpy")[0]
print(f"{scaled!r} {elapsed!r} {mediated_rl.__file__}")

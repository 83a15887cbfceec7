"""Machine speed at the moment of a measurement.

On shared cores, load from neighbours slows all code for stretches of
seconds to minutes. A fixed kernel that does not use the package, timed
next to each measurement, tracks that speed, and times are rescaled to the
speed at which the kernel takes its time on an idle host.
"""

from __future__ import annotations

import itertools
import time

REFERENCE_STEPS = 40


def numpy_reference_s() -> float:
    """Seconds taken by a fixed kernel of small NumPy calls, like training."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 128 * 8).reshape(128, 8)
    w1, w2 = np.full((8, 16), 0.1), np.full((16, 3), 0.1)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        h = np.tanh(x @ w1)
        logits = h @ w2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        g = (e / e.sum(axis=1, keepdims=True) - 1.0 / 3.0) / 128
        w1 -= 1e-3 * (x.T @ ((g @ w2.T) * (1.0 - h * h)))
        w2 -= 1e-3 * (h.T @ g)
    return time.perf_counter() - start


def python_reference_s() -> float:
    """Seconds taken by a fixed kernel of dict, tuple and loop work in pure
    Python, like the oracle's enumerations."""
    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(3000):
        key = (i % 7, i % 3)
        table[key] = table.get(key, 0.0) + i * 0.5
    sum(x * y for x, y in itertools.product(range(30), range(30)))
    return time.perf_counter() - start


# kind -> (kernel, its time in ms on an idle host of the machine the
# benchmark was tuned on, 2 shared x86 cores). Each workload uses the kernel
# that slows down the way its own code does (see workloads.REFERENCE).
KERNELS = {"numpy": (numpy_reference_s, 2.0), "python": (python_reference_s, 1.3)}


def reference_s(kind: str) -> float:
    return KERNELS[kind][0]()


def at_reference_speed(times: list[float], refs: list[float], kind: str) -> list[float]:
    """Times rescaled to the speed at which the kernel takes its idle time;
    time i was measured between reference timings i and i + 1 (seconds)."""
    nominal_ms = KERNELS[kind][1]
    return [t * nominal_ms / (500.0 * (before + after))
            for t, before, after in zip(times, refs, refs[1:])]

"""Summaries of timing samples."""

from __future__ import annotations

import statistics

# Tail candidates in per mille: p90, p99, p99.9.
TAIL_PER_MILLE = (900, 990, 999)
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], per_mille: int) -> tuple[int, float]:
    """1-based nearest rank of a percentile in sorted samples, and its value."""
    rank = -(-len(ordered) * per_mille // 1000)
    return rank, ordered[rank - 1]


def summarize(samples: list[float]) -> dict:
    """Sample count, median, and the highest tail percentile that has at
    least ``MIN_BEYOND`` samples above it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "tail": None}
    for per_mille in TAIL_PER_MILLE:
        rank, value = nearest_rank(ordered, per_mille)
        if n - rank >= MIN_BEYOND:
            out["tail"] = (f"p{per_mille / 10:g}", value)
    return out


def describe(summary: dict, unit: str) -> str:
    """One line: median, tail if the sample count supports one, and n."""
    text = f"median {summary['median']:.4f} {unit}"
    if summary["tail"] is not None:
        label, value = summary["tail"]
        text += f", {label} {value:.4f} {unit}"
    else:
        text += f", no tail (p90 needs n >= {MIN_BEYOND * 1000 // (1000 - TAIL_PER_MILLE[0])})"
    return text + f" (n={summary['n']})"

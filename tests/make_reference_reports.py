"""Write the reference RunReport pins that test_reference_reports.py checks.

Run from the repository root:

    PYTHONPATH=src python tests/make_reference_reports.py [--check]

Each reference config trains seed 0 for a short schedule. The fixture keeps
a sha256 digest of each RunReport (wall clock excluded), its final metrics
and its history, which name what moved when a digest changes.

A refactor leaves the fixture unchanged. A change that alters training on
purpose regenerates it and names every config that moved, with the reason;
the script prints the configs whose digests moved, the final metrics that
changed in each, and the largest absolute change of its final metrics and
of its history values against the fixture it replaces. With ``--check`` it
prints the same changes, writes nothing and exits 1 if the fixture would
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from mediated_rl.harness import RunConfig, RunReport, default_config, train

FIXTURE = Path(__file__).resolve().parent / "data" / "reference_reports.json"
ITERATIONS = 40
LOG_EVERY = 10
SEED = 0

# name -> (env, mediator mode, k, num_agents or None for the env's default)
REFERENCE_CONFIGS = {
    "pd-naive": ("pd", "naive", 1, None),
    "pd-constrained": ("pd", "constrained", 1, None),
    "pd-none": ("pd", "none", 1, None),
    "pd2-none": ("pd2", "none", 1, None),
    "pd2-constrained-k1": ("pd2", "constrained", 1, None),
    "pd2-constrained-k2": ("pd2", "constrained", 2, None),
    "pd2-naive-k2": ("pd2", "naive", 2, None),
    "pds-naive": ("pds", "naive", 1, None),
    "pds-constrained": ("pds", "constrained", 1, None),
    "pds-none": ("pds", "none", 1, None),
    "pgg-constrained-n3": ("pgg", "constrained", 1, 3),
    "pgg-constrained-n16": ("pgg", "constrained", 1, 16),
    "pgg-none": ("pgg", "none", 1, 3),
    "pgg-iter-none": ("pgg-iter", "none", 1, 3),
    "pgg-iter-naive-k5": ("pgg-iter", "naive", 5, 3),
    "pgg-iter-constrained-k1": ("pgg-iter", "constrained", 1, 3),
    "pgg-iter-constrained-k10": ("pgg-iter", "constrained", 10, 3),
}


def reference_config(name: str) -> RunConfig:
    env, mode, k, num_agents = REFERENCE_CONFIGS[name]
    return replace(default_config(env, mode, k=k, num_agents=num_agents),
                   iterations=ITERATIONS, log_every=LOG_EVERY, seeds=(SEED,))


def report_digest(report: RunReport) -> str:
    payload = asdict(report)
    del payload["wall_clock_s"]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_pin(name: str) -> dict:
    """The digest, final metrics and history of one reference config's
    report."""
    report = train(reference_config(name), SEED)
    return {"digest": report_digest(report), "metrics": report.metrics,
            "history": report.history}


def moved_metrics(old: dict, new: dict) -> list[str]:
    """Metric names whose value changed, appeared or disappeared. Values
    compare as JSON text."""
    return sorted(key for key in old.keys() | new.keys()
                  if json.dumps(old.get(key)) != json.dumps(new.get(key)))


def leaves(value, path: str = "") -> dict:
    """Every scalar of a JSON value by its path."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in leaves(item, f"{path}/{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def largest_change(old, new) -> str:
    """The largest absolute difference between the numbers of two JSON
    values; "reshaped" when their scalars do not line up, and "not pinned"
    when the old fixture did not hold the value."""
    if old is None:
        return "not pinned"
    old, new = leaves(old), leaves(new)
    numbers = (int, float)
    if old.keys() != new.keys() or any(
            isinstance(old[k], numbers) != isinstance(new[k], numbers)
            or (not isinstance(old[k], numbers) and old[k] != new[k])
            for k in old):
        return "reshaped"
    changes = [abs(new[k] - old[k]) for k in old if isinstance(old[k], numbers)]
    return f"{max(changes, default=0.0):.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the RunReport pins.")
    parser.add_argument("--check", action="store_true",
                        help="print the changes, write nothing, exit 1 if any")
    check = parser.parse_args(argv).check
    text = FIXTURE.read_text() if FIXTURE.exists() else "{}"
    old = json.loads(text)
    pins = {name: reference_pin(name) for name in REFERENCE_CONFIGS}
    new_text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    if not check:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(new_text)
        print(f"wrote {FIXTURE} ({len(pins)} configs)")
    for name, pin in pins.items():
        before = old.get(name, {"digest": None, "metrics": {}})
        if pin["digest"] != before["digest"]:
            changed = moved_metrics(before["metrics"], pin["metrics"])
            print(f"  moved {name}: changed final metrics "
                  + (", ".join(changed) or "none")
                  + "; largest change of final metrics "
                  + largest_change(before["metrics"], pin["metrics"])
                  + ", of history values "
                  + largest_change(before.get("history"), pin["history"]))
    return int(check and new_text != text)


if __name__ == "__main__":
    sys.exit(main())

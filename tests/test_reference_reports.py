"""Training reproduces the committed reference RunReports bit for bit.

A regression pin, not a correctness claim: a refactor keeps every digest.
A change that alters training on purpose regenerates the fixture with
``tests/make_reference_reports.py`` and names the configs that moved.
"""

import json
import math

from make_reference_reports import (FIXTURE, REFERENCE_CONFIGS, leaves,
                                    moved_metrics, reference_pin)


def test_reference_reports_are_unchanged():
    pinned = json.loads(FIXTURE.read_text())
    assert sorted(pinned) == sorted(REFERENCE_CONFIGS)
    moved, non_finite = {}, {}
    for name, pin in pinned.items():
        now = reference_pin(name)
        if now["digest"] != pin["digest"]:
            moved[name] = moved_metrics(pin["metrics"], now["metrics"])
        # A report holds a finite number, or None where nothing was measured.
        non_finite |= {f"{name}{path}": value for path, value in leaves(
            {"metrics": now["metrics"], "history": now["history"]}).items()
            if not (value is None or math.isfinite(value))}
    assert not moved, (
        "RunReports moved (config -> changed final metrics; an empty list "
        f"means the final metrics held and only the history moved): {moved}")
    assert not non_finite, f"reports hold non-finite numbers: {non_finite}"

"""In-memory span tracing of the package, installed from outside it.

A ``Tracer`` replaces named functions on modules and classes with wrappers
that record one span per call: name, start, end, parent span and the unit of
work (training iteration or oracle query) that was current when the call
began. Hooks can attach counts, such as rows, to the current unit. Leaving
the ``with`` block restores every replaced name, so the package is
unchanged afterwards. The package source is never edited.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    """Wraps functions while active and keeps their spans in memory."""

    def __init__(self):
        # (name, start, end, parent span id or -1, unit); the span id is the index.
        self.spans: list[list] = []
        # (unit, key, value) records added by hooks through ``count``.
        self.counts: list[tuple[int, str, float]] = []
        self.unit = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until ``restore``.

        ``before(args)`` runs ahead of the span, so it can set ``unit``;
        ``after(args, result)`` runs once the call has returned.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count(self, key: str, value: float) -> None:
        self.counts.append((self.unit, key, value))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of a span never overlap.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(tracer: Tracer, keep) -> tuple[dict, dict, dict]:
    """Self seconds and calls per span name, and summed counts per key,
    over the units for which ``keep(unit)`` is true."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if keep(span[4]):
            seconds[span[0]] += own
            calls[span[0]] += 1
    for unit, key, value in tracer.counts:
        if keep(unit):
            counts[key] += value
    return seconds, calls, counts


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write every span as one JSON line, tagged with the index of its run."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
        for run, tracer in enumerate(tracers):
            for sid, (name, start, end, parent, unit) in enumerate(tracer.spans):
                handle.write(json.dumps({
                    "run": run, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent, "unit": unit}) + "\n")

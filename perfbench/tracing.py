"""Timing spans recorded from outside the program, around its public entry points.

A :class:`Tracer` replaces a callable attribute (a module function, a method
on one instance) by a wrapper that records a span: name, trace id, span id,
parent span id, start and end.  A wrapper installed with ``root=`` starts a
trace whose id it computes from the call's arguments (a request or a trial);
every span opened beneath it on the same thread shares that id.  Spans stay
in memory and are written out once, when the run ends.

Hot inner calls (the compiled plan's steps) are counted instead: calls and
seconds per key, without one record per call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, trace_id, span_id, parent_id, start, end)
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])  # key -> [calls, s]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []  # (owner, attr, original)

    def record(self, name: str, trace_id: Any, start: float, end: float) -> None:
        """Add a span with no parent, timed by the caller."""
        self.spans.append((name, trace_id, next(self._ids), None, start, end))

    def count(self, key: str, seconds: float) -> None:
        with self._lock:
            entry = self.totals[key]
            entry[0] += 1
            entry[1] += seconds

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def wrap(self, owner: Any, attr: str, name: str,
             root: Callable[..., Any] | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        local = self._local

        def traced(*args, **kwargs):
            outer = getattr(local, "ctx", None)
            if root is not None:
                trace_id, parent = root(*args, **kwargs), None
            elif outer is not None:
                trace_id, parent = outer
            else:
                trace_id, parent = None, None
            span_id = next(self._ids)
            local.ctx = (trace_id, span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                local.ctx = outer
                self.spans.append((name, trace_id, span_id, parent, start, end))

        self._patch(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only adds to ``totals[key]``."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self.count(key, clock() - start)

        self._patch(owner, attr, counted)

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, _, _, start, end in self.spans if n == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, trace_id, span_id, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "trace": trace_id, "span": span_id,
                                     "parent": parent, "start": start, "end": end}) + "\n")
            for key, (calls, seconds) in sorted(self.totals.items()):
                fh.write(json.dumps({"count": key, "calls": calls, "seconds": seconds}) + "\n")


def obs_snapshot() -> dict:
    """The program's own counters, gauges and histograms, keyed ``name{labels}``."""
    import repro.obs as obs

    snap = obs.registry().snapshot()
    out = {}
    for kind in ("counters", "gauges", "histograms"):
        for item in snap[kind]:
            out[obs.metric_key(item["name"], item["labels"])] = item
    return out


def obs_sum(snapshot: dict, name: str) -> float:
    """Sum the value of every instrument named ``name``, over all labels."""
    return float(sum(item["value"] for item in snapshot.values() if item["name"] == name))


def overhead(untraced, traced, **names: str) -> None:
    """``trace.overhead.<key>``: traced minus untraced, as a % of untraced.

    ``names`` maps each key to the end-to-end metric it compares.
    """
    for key, name in names.items():
        base = untraced.metrics[name][0]
        untraced.per_layer[f"trace.overhead.{key}"] = (
            100.0 * (traced.metrics[name][0] - base) / base if base else 0.0, "%")

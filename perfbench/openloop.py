"""Open-loop load from one generator thread, timed from each request's due time.

Request ``i`` of a phase is due at ``start + i / rate`` whatever happened
to the requests before it.  Latency runs from that due time to the moment
the result is set, so a stall that delays later sends is charged to them
(``repro.serve.loadgen.run_load`` starts its clock at the actual send and
would hide it).  How late the generator itself sent is kept separately.

:func:`saturate` is the closed-loop counterpart: a fixed number of
requests outstanding, to measure how many the server completes per second.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

clock = time.perf_counter
#: How long a phase waits for its last requests after the last send.
PHASE_TIMEOUT_S = 60.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * data.size))
    return float(data[rank - 1])


@dataclass
class Phase:
    """One fixed-rate phase: what was sent and when each request finished."""

    rate: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray  # nan where the request failed
    outcomes: list = field(default_factory=list)  # result or exception per request
    rejected: int = 0
    expired: int = 0
    errored: int = 0
    wrong: int = 0  # served, but the output check failed
    ended: float = 0.0  # when the last request resolved

    @property
    def count(self) -> int:
        return int(self.due.size)

    @property
    def duration_s(self) -> float:
        return self.count / self.rate

    @property
    def failed(self) -> int:
        return self.rejected + self.expired + self.errored + self.wrong

    def mark_wrong(self, i: int) -> None:
        """Count request ``i`` as failed: its output did not pass the check."""
        self.done[i] = np.nan
        self.wrong += 1

    def latencies_ms(self) -> np.ndarray:
        """Due-time latency per request.

        A failed request never completes; it reads as still waiting when the
        phase ended, so it lands in the tail without making it infinite.
        """
        return np.where(np.isnan(self.done), self.ended - self.due, self.done - self.due) * 1e3

    def within(self, limits_ms) -> int:
        """Requests that completed within their limit (scalar or per request)."""
        return int(np.sum(~np.isnan(self.done) & ((self.done - self.due) * 1e3 <= limits_ms)))

    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    def backlog_at_end(self) -> int:
        """Requests sent but not finished when the last one was sent."""
        last = self.sent[-1]
        return int(np.sum(~np.isnan(self.done) & (self.done > last)))

    def meets(self, limit_ms: float) -> bool:
        """p99 within the limit and no more queued than one limit of arrivals."""
        return (self.within(limit_ms) >= 0.99 * self.count
                and self.backlog_at_end() <= self.rate * limit_ms / 1e3)


def run_phase(
    submit: Callable[[Any], Future],
    make_request: Callable[[int], Any],
    rate: float,
    count: int,
    overload: tuple[type[BaseException], ...],
    expired: tuple[type[BaseException], ...],
) -> Phase:
    """Send ``count`` requests at ``rate`` per second and wait for all of them.

    ``submit`` raising one of ``overload`` counts as a rejection; a future
    failing with one of ``expired`` counts as expired, any other failure as
    an error.  Requests are built before their due time, outside the timing.
    """
    due = np.empty(count)
    sent = np.empty(count)
    done = np.full(count, np.nan)
    futures: list[Future | None] = [None] * count
    outcomes: list = [None] * count
    phase = Phase(rate=rate, due=due, sent=sent, done=done, outcomes=outcomes)

    def stamp(i: int, fut: Future) -> None:
        if fut.exception() is None:
            done[i] = clock()

    start = clock() + 0.005
    for i in range(count):
        request = make_request(i)
        due[i] = start + i / rate
        delay = due[i] - clock()
        if delay > 0:
            time.sleep(delay)
        sent[i] = clock()
        try:
            fut = submit(request)
        except overload as exc:
            phase.rejected += 1
            outcomes[i] = exc
            continue
        except Exception as exc:  # noqa: BLE001 - a refused request is a result, not a crash
            phase.errored += 1
            outcomes[i] = exc
            continue
        fut.add_done_callback(lambda f, i=i: stamp(i, f))
        futures[i] = fut
    pending = [f for f in futures if f is not None]
    _, not_done = wait(pending, timeout=PHASE_TIMEOUT_S)
    if not_done:
        raise TimeoutError(
            f"{len(not_done)} requests unfinished {PHASE_TIMEOUT_S}s after the phase")
    for i, fut in enumerate(futures):
        if fut is None:
            continue
        exc = fut.exception()
        if exc is None:
            outcomes[i] = fut.result()
        else:
            outcomes[i] = exc
            if isinstance(exc, expired):
                phase.expired += 1
            else:
                phase.errored += 1
    phase.ended = clock()
    return phase


def saturate(
    submit: Callable[[Any], Future],
    make_request: Callable[[int], Any],
    seconds: float,
    inflight: int,
    window_s: float,
) -> tuple[list[float], list]:
    """Closed loop: keep ``inflight`` requests outstanding for ``seconds``.

    Returns the completion rate of each ``window_s`` window (the server's
    capacity at this input, sampled) and ``(index, result or exception)``
    per request for the output checks.
    """
    slots = threading.Semaphore(inflight)
    outcomes: list = []
    stamps: list[float] = []

    def finished(i: int, fut: Future) -> None:
        exc = fut.exception()
        outcomes.append((i, exc if exc is not None else fut.result()))
        if exc is None:
            stamps.append(clock())
        slots.release()

    start = clock()
    i = 0
    while clock() - start < seconds:
        slots.acquire()
        request = make_request(i)
        try:
            fut = submit(request)
        except Exception as exc:  # noqa: BLE001 - a refused request is a result
            outcomes.append((i, exc))
            slots.release()
        else:
            fut.add_done_callback(lambda f, i=i: finished(i, f))
        i += 1
    for _ in range(inflight):  # wait for the stragglers
        slots.acquire()
    edges = np.arange(start, start + seconds + 1e-9, window_s)
    counts, _ = np.histogram(stamps, bins=edges)
    return [c / window_s for c in counts], outcomes

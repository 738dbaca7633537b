"""Batch-bucketed warm cache of plan replicas and pinned input buffers.

Compiled plans bind one execution frame per batch size, drawing its
buffers from an :class:`~repro.deploy.Arena`; every distinct partial-batch
size would cost a plan one more frame.  The cache fixes the shape set —
every batch runs in a power-of-two **bucket** (partial batches padded
up, results sliced back down), and each ``(model fingerprint, bucket)``
pair owns warm plan replicas that only ever run that one batch shape.
After :meth:`PlanCache.warm`, steady-state serving touches zero new
arena allocations.

The cache is a *checkout pool*, not a lookup table: :meth:`acquire`
hands a replica out exclusively and :meth:`release` returns it, so
concurrent workers can never run the same plan (whose
:meth:`~repro.deploy.InferencePlan.run` is single-threaded by design —
see :class:`~repro.deploy.ConcurrentPlanError`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

import repro.obs as obs

from repro.deploy.plan import InferencePlan
from repro.serve.policy import bucket_for, plan_buckets

__all__ = ["CachedPlan", "PlanCache"]

_HITS = obs.counter("repro_serve_plan_cache_hits_total")
_MISSES = obs.counter("repro_serve_plan_cache_misses_total")


@dataclass
class CachedPlan:
    """One checked-out cache entry: a plan replica pinned to a bucket.

    ``input_buf`` is a persistent ``(bucket, C, H, W)`` staging buffer —
    workers copy request images into its rows, run the plan on the whole
    buffer, and slice the first ``n`` result rows back out.  Rows past
    ``n`` are padding and hold zeros: :meth:`run_padded` re-zeroes the
    rows a larger earlier batch left behind (``filled`` counts them), so
    no request's image lingers under a later batch.  Keeping the buffer
    with the entry means batch assembly allocates nothing, and the
    replica only ever runs its bucket's execution frame.
    """

    fingerprint: str
    bucket: int
    plan: InferencePlan
    input_buf: np.ndarray
    #: Rows of ``input_buf`` that may hold request data (the rest are zero).
    filled: int = 0

    def run_padded(self, images: "list[np.ndarray] | np.ndarray") -> np.ndarray:
        """Run ``n <= bucket`` images through the bucket-padded plan.

        Returns only the first ``n`` output rows.  Per-request results
        are a pure function of ``(image, bucket, row)``: each sample's
        GEMM columns are its own, so padding rows (zeros) and
        co-batched neighbours never leak into real outputs (row
        position itself can shift results by +-1 ulp via BLAS panel
        alignment) — fuzzed per-request equivalence against the
        interpreted runtime is enforced by ``tests/test_serve.py``.
        """
        n = len(images)
        if n < 1 or n > self.bucket:
            raise ValueError(f"got {n} images for bucket {self.bucket}")
        for i in range(n):
            self.input_buf[i] = images[i]
        if self.filled > n:
            self.input_buf[n:self.filled] = 0.0
        self.filled = n
        out = self.plan.run(self.input_buf)
        return out[:n]


class PlanCache:
    """Checkout pool of warm plan replicas keyed by (fingerprint, bucket).

    Register a compiled template plan per model with :meth:`register`;
    workers then :meth:`acquire` an exclusive replica for a batch
    bucket, run it, and :meth:`release` it back.  Replicas share the
    template's weight arrays (see :meth:`~repro.deploy.InferencePlan.replicate`)
    and are created on first use (a cache *miss*) or pre-created by
    :meth:`warm`; subsequent acquires of the same key are *hits* that
    reuse both the replica and its warmed arena pool.
    """

    def __init__(self, max_batch_size: int = 8) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.max_batch_size = max_batch_size
        self._templates: dict[str, InferencePlan] = {}
        self._pool: dict[tuple[str, int], list[CachedPlan]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # -- registration ----------------------------------------------------------

    def register(self, plan: InferencePlan) -> str:
        """Register a compiled template plan; returns its fingerprint."""
        if not plan.fingerprint:
            raise ValueError(
                "plan has no fingerprint; compile it via compile_plan()/"
                "OnnxliteRuntime.compile() so the cache can key on model identity"
            )
        with self._lock:
            self._templates[plan.fingerprint] = plan
        return plan.fingerprint

    @property
    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._templates)

    def bucket_for(self, n: int) -> int:
        """The bucket a batch of ``n`` runs in (policy-clamped pow2)."""
        return bucket_for(n, self.max_batch_size)

    # -- checkout --------------------------------------------------------------

    def acquire(self, fingerprint: str, bucket: int) -> CachedPlan:
        """Check out an exclusive warm replica for ``(fingerprint, bucket)``."""
        with self._lock:
            template = self._templates.get(fingerprint)
            if template is None:
                raise KeyError(f"no plan registered for fingerprint {fingerprint!r}")
            entries = self._pool.get((fingerprint, bucket))
            if entries:
                self.hits += 1
                _HITS.inc()
                return entries.pop()
            self.misses += 1
            _MISSES.inc()
        # Replica construction happens outside the lock (it binds a full
        # kernel set); worst case a burst builds one extra replica that
        # simply joins the pool on release.
        replica = template.replicate()
        c, h, w = template.input_shape
        input_buf = np.zeros((bucket, c, h, w), dtype=np.float32)
        return CachedPlan(
            fingerprint=fingerprint, bucket=bucket, plan=replica, input_buf=input_buf
        )

    def release(self, entry: CachedPlan) -> None:
        """Return a checked-out replica to the warm pool."""
        with self._lock:
            self._pool.setdefault((entry.fingerprint, entry.bucket), []).append(entry)

    # -- warmup / stats --------------------------------------------------------

    def warm(self, fingerprint: str, replicas: int = 1, buckets: "list[int] | None" = None) -> int:
        """Pre-create and pre-run replicas so serving starts allocation-free.

        For every bucket (default: all buckets :func:`plan_buckets`
        yields under ``max_batch_size``) creates ``replicas`` entries
        and runs each once on its zeroed input buffer, which builds the
        replica's execution frame for that bucket: every buffer the
        steady state needs is allocated and bound to its kernel, so
        serving runs allocate and bind nothing.  Returns the number of
        entries warmed.
        """
        buckets = plan_buckets(self.max_batch_size) if buckets is None else buckets
        warmed = 0
        for bucket in buckets:
            entries = [self.acquire(fingerprint, bucket) for _ in range(replicas)]
            for entry in entries:
                entry.plan.run(entry.input_buf)
                warmed += 1
            for entry in entries:
                self.release(entry)
        return warmed

    def arena_allocations(self) -> int:
        """Total arena allocations across all pooled replicas.

        Flat after :meth:`warm` — the serving benchmark asserts exactly
        that (zero-allocation steady state).  Only counts replicas
        currently in the pool; call between requests, not mid-flight.
        """
        with self._lock:
            return sum(
                e.plan.arena.allocations for entries in self._pool.values() for e in entries
            )

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "models": len(self._templates),
                "pooled_entries": sum(len(v) for v in self._pool.values()),
                "buckets": len(self._pool),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (f"PlanCache(models={s['models']}, entries={s['pooled_entries']}, "
                f"hits={s['hits']}, misses={s['misses']})")

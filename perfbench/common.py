"""Host description, resource readings and the result record shared by workloads."""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.parallel import available_cpus

#: CPU flags worth naming next to a number: the SIMD levels BLAS dispatches on.
_ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512_vnni", "amx_tile")


def host_block() -> dict:
    """What a result depends on; results from different hosts are never compared."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        model = platform.processor() or "unknown"
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": available_cpus(),
        "cpu_model": model,
        "isa_flags": [f for f in _ISA_FLAGS if f in flags],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
    }


class HostClock:
    """Process CPU time and the host's stolen CPU share over an interval.

    Steal is time the hypervisor gave this VM's CPUs to someone else; a
    run measured under heavy steal reads slower for reasons outside the
    program, so every run reports it.
    """

    def __init__(self) -> None:
        self.cpu0, self.steal0 = time.process_time(), _steal()

    def cpu_s(self) -> float:
        return time.process_time() - self.cpu0

    def steal_share(self) -> float:
        (s0, t0), (s1, t1) = self.steal0, _steal()
        return (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0


def _steal() -> tuple[int, int]:
    """(steal ticks, all ticks) from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build, close, repeats: int):
    """Run ``build`` ``repeats`` times; return the last product and every time.

    Each earlier product is passed to ``close`` and collected before the
    next is built, so only one set-up is live at a time.
    """
    times, product = [], None
    for _ in range(repeats):
        if product is not None:
            close(product)
            product = None
            gc.collect()
        started = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - started)
    return product, times


@dataclass
class Result:
    """Everything one run measured.

    ``metrics`` holds every end-to-end figure by name, the gated ones of
    BENCHMARK.json among them.
    """

    workload: str
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    properties: dict = field(default_factory=dict)  # workload-property report
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

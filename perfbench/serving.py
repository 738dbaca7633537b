"""Serving workloads: open-loop rate ladders against PlanServer and FleetServer.

serve-tile24   one PlanServer (thread mode, replicas = nproc) serving the
               paper-winner fp32 plan at the 24x24 serving tile.
fleet-patch100 one FleetServer at the paper's 100x100 patch: the f=32/48/64
               width ladder plus an autotuned quantized f=32 rung, four
               tenants with deadlines, background autoscaler.

Each runs a warm-up, a closed-loop capacity probe, then one open-loop phase
per ladder rate.  The lowest rate gets most of the run, because its tail
percentile needs ten samples beyond it.  The gated figure is process CPU
time per request at that rate; wall-clock latency and capacity are reported
by name.  With tracing on, probe and ladder run a second time with the spans
and the program's own obs metrics switched on, and the per-layer numbers
come from that second pass.
"""

from __future__ import annotations

import collections
import dataclasses
import statistics
from dataclasses import dataclass

import numpy as np

from perfbench.common import HostClock, Result, peak_rss_mb, timed_setups
from perfbench.openloop import Phase, clock, percentile, run_phase, saturate
from perfbench.tracing import Tracer, obs_snapshot, obs_sum, overhead

import repro.obs as obs
from repro.deploy import OnnxliteRuntime, autotune_variants, compile_plan, load_runtime
from repro.graph.trace import trace_model
from repro.latency.fusion import KERNEL_VARIANTS
from repro.nas.config import ModelConfig
from repro.nas.surrogate import SurrogateEvaluator
from repro.nn.resnet import build_model
from repro.onnxlite.export import export_model
from repro.onnxlite.reader import proto_from_bytes
from repro.parallel import available_cpus
from repro.quant import export_quantized_model
from repro.quant.calibrate import calibrate_activations
from repro.serve import (
    AdmissionPolicy,
    AutoscalerConfig,
    BatchPolicy,
    DeadlineExceeded,
    FleetServer,
    PlanServer,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    ServerOverloaded,
    TenantOverloaded,
    TenantQuota,
)

#: The paper's winning architecture: 5 channels, f=32, k3/s2/p1, no pool.
PAPER_WINNER = ModelConfig(channels=5, batch=16, kernel_size=3, stride=2, padding=1,
                           pool_choice=0, kernel_size_pool=3, stride_pool=2,
                           initial_output_feature=32)

#: Compiled-vs-interpreted fp32 agreement promised by repro.deploy.runtime.
FP32_RTOL, FP32_ATOL = 1e-3, 1e-4
#: The repo's stated quantization tolerance (tests/test_qkernels.py).
Q8_MAX_ABS, Q8_MIN_AGREEMENT = 0.08, 0.9

#: Distinct seeded images requests cycle through; their reference rows are
#: computed once by the interpreted runtime.
POOL = 32
POLICY = BatchPolicy(max_batch_size=8, max_queue_delay_ms=2.0, max_queue_depth=128)
#: At 100x100 a batch-8 bucket of the f=64 rung alone pins hundreds of MB of
#: arena; the fleet's open-loop rates rarely batch past 4.
FLEET_POLICY = POLICY.with_overrides(max_batch_size=4, replicas=1)
SETUPS = 3
WARMUP_S = 1.0


@dataclass(frozen=True)
class Load:
    """A workload's traffic: a closed-loop capacity probe, then an open-loop ladder."""

    rates: tuple[float, ...]  # offered requests per second, lowest first
    shares: tuple[float, ...]  # share of --seconds: capacity probe, then each rate
    min_low: int  # requests at the lowest rate, so a tail percentile has ten beyond it
    limit_ms: float  # latency limit on p99 for max_rate_ips
    inflight: int  # outstanding requests while probing capacity
    window_s: float  # capacity is the median completion rate over these windows

    def counts(self, seconds: float) -> list[int]:
        counts = [max(1, round(r * seconds * s)) for r, s in zip(self.rates, self.shares[1:])]
        counts[0] = max(counts[0], self.min_low)
        return counts


#: Capacity is 450-800 requests/s on 2 cores depending on how much CPU the
#: host steals, so even the top rate stays below it.
TILE_LOAD = Load(rates=(100.0, 200.0, 300.0), shares=(0.17, 0.67, 0.08, 0.08),
                 min_low=1000, limit_ms=100.0, inflight=24, window_s=0.5)
#: The fleet mix saturates at 70-90 requests/s on 2 cores.
FLEET_LOAD = Load(rates=(10.0, 20.0, 30.0), shares=(0.2, 0.6, 0.1, 0.1),
                  min_low=100, limit_ms=400.0, inflight=16, window_s=1.0)
FLEET_RUNGS = (("pareto-s", 32), ("pareto-m", 48), ("pareto-l", 64))
QUANT_RUNG = "pareto-s-q8"
#: One block of eight requests; each block is shuffled by the seed, so the
#: tenant shares are exact and the order is seeded.
TENANT_BLOCK = ("interactive",) * 4 + ("analytics",) * 2 + ("archive", "edge")
TENANT_DEADLINE_MS = {"interactive": 400.0, "analytics": 800.0, "archive": 1500.0,
                      "edge": 400.0}
FLEET_ADMISSION = AdmissionPolicy(tenants={
    "interactive": TenantQuota(rate_per_s=4000, burst=256, priority=1),
    "analytics": TenantQuota(rate_per_s=2000, burst=128, priority=0),
    "archive": TenantQuota(rate_per_s=1000, burst=64, priority=0),
    "edge": TenantQuota(rate_per_s=1000, burst=64, priority=0),
})

OVERLOAD = (ServerOverloaded,)
EXPIRED = (DeadlineExceeded,)

STEP_KEYS = tuple(f"{op}.{variant}" for op, variants in KERNEL_VARIANTS.items()
                  if op in ("Conv", "Gemm", "Add", "MaxPool", "GlobalAveragePool", "Flatten")
                  for variant in variants)
BUCKETS = (1, 2, 4, 8)
RUNG_NAMES = ("low", "mid", "high")


# -- helpers -----------------------------------------------------------------


def _close(server) -> None:
    server.close()


def _images(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal((POOL, 5, size, size)).astype(np.float32)


def _interpreted(runtime: OnnxliteRuntime, images: np.ndarray) -> np.ndarray:
    """Reference rows from the interpreter, a few images at a time.

    The interpreter keeps every activation alive; small chunks keep the
    benchmark's own memory out of the run's peak RSS.
    """
    return np.concatenate([runtime.run(images[i:i + 4], compiled=False)
                           for i in range(0, len(images), 4)])


def _served_stats(server) -> tuple[int, int, int, int]:
    """(requests served, batches, cache hits, cache misses) so far."""
    stats = server.stats()
    if isinstance(server, FleetServer):
        # Callers read this between phases, when every routed request has finished.
        served = sum(m["routed"] - m["expired"] for m in stats["models"].values())
        batches = sum(m["batches_executed"] for m in stats["models"].values())
        cache = stats["cache"]
    else:
        served = stats["submitted"] - stats["rejected"] - stats["expired"]
        batches, cache = stats["batches_executed"], stats
    return served, batches, cache["hits"], cache["misses"]


def _submit(server):
    return server.submit_request if isinstance(server, PlanServer) else server.submit


@dataclass
class Measurement:
    """One capacity probe plus one pass over the ladder."""

    capacity: list[float]  # completion rate per window of the probe
    probe: list  # (index, result or exception) per probe request
    probe_delta: tuple  # (served, batches, hits, misses) during the probe
    probe_cpu: float  # process CPU seconds during the probe
    phases: list[Phase]
    deltas: list[tuple]  # the same, per ladder phase
    cpu: list[tuple]  # (process CPU seconds, host steal share) per ladder phase

    @property
    def probe_failed(self) -> int:
        return sum(not isinstance(o, ServeResponse) for _, o in self.probe)


def _measure(server, load: Load, seconds: float, make_request, check,
             rid_of: dict | None = None) -> Measurement:
    """Probe capacity, then run every ladder rate.  Outputs are checked as they come.

    With ``rid_of``, each request's image is mapped to its trace id.
    """
    submit = _submit(server)

    def tagged(prefix: str):
        def make(i: int) -> ServeRequest:
            request = make_request(i)
            if rid_of is not None:
                rid_of[id(request.image)] = f"{prefix}.r{i}"
            return request
        return make

    def undeadlined(i: int) -> ServeRequest:
        # The closed loop queues its own backlog; no probe request should expire in it.
        return dataclasses.replace(tagged("cap")(i), deadline_ms=None)

    before, host = _served_stats(server), HostClock()
    probe_s = seconds * load.shares[0]
    capacity, probe = saturate(submit, undeadlined, probe_s, load.inflight,
                               min(load.window_s, probe_s))
    probe_cpu = host.cpu_s()
    after = _served_stats(server)
    probe = [(i, o if not isinstance(o, ServeResponse) or check(i, o) else ValueError("wrong"))
             for i, o in probe]
    probe_delta = tuple(a - b for a, b in zip(after, before))
    phases, deltas, cpu = [], [], []
    for k, (rate, count) in enumerate(zip(load.rates, load.counts(seconds))):
        host = HostClock()
        before = _served_stats(server)
        phase = run_phase(submit, tagged(f"p{k}"), rate, count, OVERLOAD, EXPIRED)
        # Read the clocks before the output checks, which are the benchmark's work.
        cpu.append((host.cpu_s(), host.steal_share()))
        after = _served_stats(server)
        for i, outcome in enumerate(phase.outcomes):
            if isinstance(outcome, ServeResponse) and not check(i, outcome):
                phase.mark_wrong(i)
        phases.append(phase)
        deltas.append(tuple(a - b for a, b in zip(after, before)))
    return Measurement(capacity, probe, probe_delta, probe_cpu, phases, deltas, cpu)


def _end_to_end(result: Result, load: Load, m: Measurement, limits) -> None:
    """End-to-end metrics and workload properties of one measurement."""
    low, top = m.phases[0], m.phases[-1]
    lat = low.latencies_ms()
    sent = sum(p.count for p in m.phases)
    failed = sum(p.failed for p in m.phases)
    within = sum(p.within(lim) for p, lim in zip(m.phases, limits))
    served_low = low.count - low.failed
    cpu_low = 1e3 * m.cpu[0][0] / max(served_low, 1)
    capacity = float(np.median(m.capacity)) if m.capacity else 0.0
    passing = [p.rate for p in m.phases if p.meets(load.limit_ms)]
    p90, p99 = percentile(lat, 90), percentile(lat, 99)
    result.attempted = sent + len(m.probe)
    result.failed = failed + m.probe_failed
    result.metrics.update({
        "cpu_ms_per_op": (cpu_low, "ms"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "max_rate_ips": (max(passing) if passing else 0.0, "1/s"),
        "goodput_ips": (top.within(limits[-1]) / top.duration_s, "1/s"),
        "capacity_ips": (capacity, "1/s"),
        "failed_share": (result.failed / result.attempted, "share"),
        "slo_attainment": (within / sent, "share"),
    })
    result.properties.update({
        "ladder_rates": list(load.rates),
        "requests_per_rate": [p.count for p in m.phases],
        "latency_limit_ms": load.limit_ms,
        "low_rate_samples": int(lat.size),
        "samples_beyond_p99": int(np.sum(lat > p99)),
        "capacity_windows_ips": m.capacity,
        "batch_size_mean": {name: (d[0] / d[1] if d[1] else 0.0) for name, d in
                            zip(("capacity",) + RUNG_NAMES, [m.probe_delta] + m.deltas)},
        "p50_ms_per_rate": [percentile(p.latencies_ms(), 50) for p in m.phases],
        "p99_ms_per_rate": [percentile(p.latencies_ms(), 99) for p in m.phases],
        "cpu_ms_per_request_per_rate": [1e3 * c / p.count for (c, _), p in zip(m.cpu, m.phases)],
        "host_steal_share": [round(st, 4) for _, st in m.cpu],
        "backlog_at_end": [p.backlog_at_end() for p in m.phases],
        "failed": {"capacity_probe": m.probe_failed,
                   "rejected": sum(p.rejected for p in m.phases),
                   "expired": sum(p.expired for p in m.phases),
                   "errored": sum(p.errored for p in m.phases),
                   "wrong_output": sum(p.wrong for p in m.phases)},
        "generator_late_p99_ms": percentile(
            np.concatenate([p.late_ms() for p in m.phases]), 99),
    })
    if result.properties["samples_beyond_p99"] < 10:
        result.notes.append("fewer than 10 samples beyond p99 at the lowest rate")


# -- tracing -------------------------------------------------------------------


def _instrument(tracer: Tracer, server, rid_of: dict) -> None:
    """Spans around submit, routing and each bucket's plan run; step counters."""
    entry_point = "submit_request" if isinstance(server, PlanServer) else "submit"
    tracer.wrap(server, entry_point, "serve.submit",
                root=lambda request: rid_of.get(id(request.image)))
    if isinstance(server, FleetServer):
        tracer.wrap(server, "route", "fleet.route")
    cache = server.cache
    acquire = cache.acquire
    seen: set[int] = set()

    def traced_acquire(fingerprint, bucket):
        entry = acquire(fingerprint, bucket)
        if id(entry) not in seen:
            seen.add(id(entry))
            for step in entry.plan.steps:
                tracer.count_calls(step, "run", f"{step.chain[0]}.{step.variant}")
            run_padded = entry.run_padded

            def traced_run(images, run_padded=run_padded, bucket=entry.bucket):
                start = clock()
                try:
                    return run_padded(images)
                finally:
                    tracer.record(f"deploy.plan_run.b{bucket}",
                                  [rid_of.get(id(im)) for im in images], start, clock())

            entry.run_padded = traced_run
        return entry

    cache.acquire = traced_acquire


def _per_layer(result: Result, tracer: Tracer, m: Measurement, snapshot: dict,
               fleet: FleetServer | None) -> None:
    pl = result.per_layer
    low = [o for o in m.phases[0].outcomes if isinstance(o, ServeResponse)]
    queue = [o.queue_ms for o in low]
    pl["serve.queue_wait_ms.p50"] = (percentile(queue, 50), "ms")
    pl["serve.queue_wait_ms.p99"] = (percentile(queue, 99), "ms")
    pl["serve.exec_ms.p50"] = (percentile([o.exec_ms for o in low], 50), "ms")
    cpu = [m.probe_cpu] + [c for c, _ in m.cpu]
    for name, (served, batches, _, _), seconds in zip(("capacity",) + RUNG_NAMES,
                                                      [m.probe_delta] + m.deltas, cpu):
        pl[f"serve.batch_size_mean.{name}"] = (served / batches if batches else 0.0, "count")
        pl[f"serve.cpu_ms_per_request.{name}"] = (1e3 * seconds / served if served else 0.0,
                                                  "ms")
    deltas = [m.probe_delta] + m.deltas
    hits = sum(d[2] for d in deltas)
    acquires = hits + sum(d[3] for d in deltas)
    pl["serve.cache_hit_ratio"] = (hits / acquires if acquires else 0.0, "share")
    runs = 0
    for bucket in BUCKETS:
        durations = tracer.durations(f"deploy.plan_run.b{bucket}")
        runs += len(durations)
        pl[f"deploy.plan_run_ms.b{bucket}"] = (
            1e3 * float(np.mean(durations)) if durations else 0.0, "ms")
    hist = [item for item in snapshot.values()
            if item["name"] == "repro_inference_latency_seconds"
            and item["labels"].get("runtime") == "compiled"]
    count = sum(h["count"] for h in hist)
    pl["deploy.plan_run_ms.obs_mean"] = (
        1e3 * sum(h["sum"] for h in hist) / count if count else 0.0, "ms")
    for key in STEP_KEYS:
        seconds = tracer.totals.get(key, (0, 0.0))[1]
        pl[f"deploy.step_ms.{key}"] = (1e3 * seconds / runs if runs else 0.0, "ms")
    pl["loadgen.late_p99_ms"] = (
        percentile(np.concatenate([p.late_ms() for p in m.phases]), 99), "ms")
    if fleet is None:
        return
    routes = tracer.durations("fleet.route")
    pl["fleet.route_ms"] = (1e3 * float(np.mean(routes)) if routes else 0.0, "ms")
    outcomes = [o for p in m.phases for o in p.outcomes] + [o for _, o in m.probe]
    served = collections.Counter(o.model for o in outcomes if isinstance(o, ServeResponse))
    total = sum(served.values()) or 1
    for name in fleet.models:
        pl[f"fleet.route_share.{name}"] = (served[name] / total, "share")
    refused = sum(isinstance(o, TenantOverloaded) for o in outcomes)
    pl["fleet.admission_rejected_share"] = (refused / len(outcomes), "share")
    pl["fleet.scale_events"] = (
        obs_sum(snapshot, "repro_serve_fleet_scale_up_total")
        + obs_sum(snapshot, "repro_serve_fleet_scale_down_total"), "count")


def _serve(result: Result, server, load: Load, seconds: float, make_request, check,
           limits, trace: bool, fleet: FleetServer | None = None) -> Tracer | None:
    """Warm up, measure untraced; with ``trace``, measure again traced."""
    saturate(_submit(server), make_request, WARMUP_S, load.inflight, WARMUP_S)
    _end_to_end(result, load, _measure(server, load, seconds, make_request, check), limits)
    if not trace:
        return None
    tracer, rid_of = Tracer(), {}
    _instrument(tracer, server, rid_of)
    obs.configure(reset_metrics=True)
    try:
        traced = _measure(server, load, seconds, make_request, check, rid_of)
        snapshot = obs_snapshot()
    finally:
        obs.shutdown(final_snapshot=False)
    for k, phase in enumerate(traced.phases):
        for i in range(phase.count):
            end = phase.done[i] if not np.isnan(phase.done[i]) else phase.ended
            tracer.record("serve.request", f"p{k}.r{i}", phase.due[i], end)
    _per_layer(result, tracer, traced, snapshot, fleet)
    shadow = Result(result.workload)
    _end_to_end(shadow, load, traced, limits)
    overhead(result, shadow, latency_p50_pct="latency_p50_ms",
             throughput_pct="capacity_ips", cpu_per_op_pct="cpu_ms_per_op")
    return tracer


# -- workloads ------------------------------------------------------------------


def serve_tile24(seed: int, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    result = Result("serve-tile24")
    rng = np.random.default_rng(seed)
    images = _images(rng, 24)
    blob = export_model(build_model(PAPER_WINNER, seed=seed), input_hw=(24, 24))
    reference = _interpreted(load_runtime(blob), images)
    config = ServeConfig(policy=POLICY.with_overrides(replicas=available_cpus()))

    def build() -> PlanServer:
        return PlanServer(load_runtime(blob).compile(), config=config)

    server, setups = timed_setups(build, _close, SETUPS)
    wrong: list[int] = []

    def make_request(i: int) -> ServeRequest:
        return ServeRequest(image=images[i % POOL], deadline_ms=TILE_LOAD.limit_ms)

    def check(i: int, response: ServeResponse) -> bool:
        ok = np.allclose(response.row, reference[i % POOL], rtol=FP32_RTOL, atol=FP32_ATOL)
        if not ok:
            wrong.append(i)
        return ok

    limits = [TILE_LOAD.limit_ms] * len(TILE_LOAD.rates)
    try:
        tracer = _serve(result, server, TILE_LOAD, seconds, make_request, check, limits, trace)
        result.properties["replicas"] = server.policy.replicas
    finally:
        server.close()
    result.checks["fp32_rows_match_interpreter"] = not wrong
    result.metrics["setup_s"] = (statistics.median(setups), "s")
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.properties["setup_runs_s"] = setups
    return result, tracer


def fleet_patch100(seed: int, seconds: float, trace: bool) -> tuple[Result, Tracer | None]:
    result = Result("fleet-patch100")
    size = 100
    rng = np.random.default_rng(seed)
    images = _images(rng, size)
    calib = rng.standard_normal((16, 5, size, size)).astype(np.float32)
    surrogate = SurrogateEvaluator()
    rungs = []
    for name, width in FLEET_RUNGS:
        cfg = dataclasses.replace(PAPER_WINNER, initial_output_feature=width)
        model = build_model(cfg, seed=seed)
        rungs.append((name, model, export_model(model, input_hw=(size, size)),
                      surrogate.expected_accuracy(cfg)))
    small_model, small_acc = rungs[0][1], rungs[0][3]
    qblob = export_quantized_model(small_model, input_hw=(size, size))
    config = ServeConfig(
        policy=FLEET_POLICY,
        admission=FLEET_ADMISSION,
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=2, background=True,
                                    interval_s=0.25),
    )
    holder = {}

    def build() -> FleetServer:
        fleet = FleetServer(config)
        for name, model, blob, accuracy in rungs:
            fleet.register(name, load_runtime(blob).compile(), accuracy=accuracy,
                           graph=trace_model(model, input_hw=(size, size)))
        proto = proto_from_bytes(qblob)
        calibrate_activations(proto, calib)
        tune = autotune_variants(proto, batch=FLEET_POLICY.max_batch_size)
        fleet.register(QUANT_RUNG, compile_plan(proto, variants=tune.variants),
                       accuracy=small_acc, graph=trace_model(small_model, input_hw=(size, size)))
        holder.update(proto=proto, variants=dict(tune.variants))
        return fleet

    fleet, setups = timed_setups(build, _close, SETUPS)
    reference = {name: _interpreted(load_runtime(blob), images) for name, _, blob, _ in rungs}
    reference[QUANT_RUNG] = _interpreted(OnnxliteRuntime(holder["proto"]), images)

    # As in serve-bench --fleet: budgets are multiples of the small rung's
    # cortexA76cpu prediction, so interactive fits only the small rung.
    budget = {"interactive": 1.5, "analytics": 3.0}
    small_ms = fleet.route(ServeRequest(image=images[0], model="pareto-s",
                                        device="cortexA76cpu")).predicted_ms
    order = []
    q8_err: list[float] = []
    q8_agree: list[bool] = []
    wrong: collections.Counter = collections.Counter()

    def tenant_of(i: int) -> str:
        while len(order) <= i:
            order.extend(rng.permutation(TENANT_BLOCK))
        return str(order[i])

    def make_request(i: int) -> ServeRequest:
        tenant = tenant_of(i)
        kwargs = {"tenant": tenant, "deadline_ms": TENANT_DEADLINE_MS[tenant]}
        if tenant in budget:
            kwargs.update(budget_ms=small_ms * budget[tenant], device="cortexA76cpu")
        else:
            kwargs["model"] = "pareto-l" if tenant == "archive" else QUANT_RUNG
        return ServeRequest(image=images[i % POOL], **kwargs)

    def check(i: int, response: ServeResponse) -> bool:
        ref = reference[response.model][i % POOL]
        if response.model == QUANT_RUNG:
            err = float(np.abs(response.row - ref).max())
            q8_err.append(err)
            q8_agree.append(int(response.row.argmax()) == int(ref.argmax()))
            ok = err <= Q8_MAX_ABS
        else:
            ok = np.allclose(response.row, ref, rtol=FP32_RTOL, atol=FP32_ATOL)
        if not ok:
            wrong[response.model == QUANT_RUNG] += 1
        return ok

    # A request's limit is its tenant's deadline; max_rate_ips uses the tightest.
    limits = [np.array([TENANT_DEADLINE_MS[tenant_of(i)] for i in range(count)])
              for count in FLEET_LOAD.counts(seconds)]
    try:
        tracer = _serve(result, fleet, FLEET_LOAD, seconds, make_request, check, limits,
                        trace, fleet=fleet)
        stats = fleet.stats()
    finally:
        fleet.close()
    agreement = float(np.mean(q8_agree)) if q8_agree else 1.0
    result.checks["fp32_rows_match_interpreter"] = not wrong[False]
    result.checks["q8_rows_within_tolerance"] = (
        bool(q8_agree) and not wrong[True] and agreement >= Q8_MIN_AGREEMENT)
    served = collections.Counter({name: m["routed"] - m["expired"]
                                  for name, m in stats["models"].items()})
    total = sum(served.values()) or 1
    result.properties.update({
        "route_share": {name: served[name] / total for name in sorted(served)},
        "scale_events": len(stats["scale_events"]),
        "q8_max_abs_err": max(q8_err) if q8_err else 0.0,
        "q8_argmax_agreement": agreement,
        "q8_kernel_variants": sorted(set(holder["variants"].values())),
    })
    result.metrics["setup_s"] = (statistics.median(setups), "s")
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.properties["setup_runs_s"] = setups
    return result, tracer

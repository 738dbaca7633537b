"""Search workloads: Experiment.run passes over a file-backed TrialStore.

sweep-grid   SurrogateEvaluator + GridSearch over a slice of the paper grid
             (k3/s2, f=32/48, every other knob and batch size): 144 trials,
             30 distinct architectures, so most trials reuse a cached
             measurement.
sweep-train  a small serial TrainingEvaluator (synthetic regions, 2 epochs,
             3-fold CV) over a RandomSearch that draws every config of a
             3-config space in a seeded order.

A pass is one Experiment.run over a fresh store in a scratch directory of the
checkout; passes repeat until the run's time is spent.  Each pass sets up
SETUPS times and runs on the last set-up, so ``setup_s``, the median of all
of a run's set-ups, rests on many samples of a step that takes milliseconds.
Every pass of a run has the same inputs, so per-pass rates are comparable
and sweep-train's records must come out identical in every pass.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from pathlib import Path

import numpy as np

from perfbench.common import HostClock, Result, peak_rss_mb, timed_setups
from perfbench.openloop import clock, percentile
from perfbench.tracing import Tracer, obs_snapshot, obs_sum, overhead

import repro.data.dataset as dataset_module
import repro.nas.experiment as experiment_module
import repro.obs as obs
from repro.nas.config import BATCH_CHOICES
from repro.nas.evaluators import TrainingEvaluator
from repro.nas.experiment import Experiment, measure_architecture
from repro.nas.searchspace import SearchSpace
from repro.nas.storage import TrialStore
from repro.nas.strategies import GridSearch, RandomSearch
from repro.nas.surrogate import SurrogateEvaluator

GRID_KNOBS = dict(kernel_size=(3,), stride=(2,), padding=(1, 2, 3), pool_choice=(0, 1),
                  kernel_size_pool=(2, 3), stride_pool=(1, 2),
                  initial_output_feature=(32, 48), channels=(5,), batches=BATCH_CHOICES)
GRID_INPUT_HW = (100, 100)
#: Records per pass re-measured directly with measure_architecture.
GRID_CHECK_SAMPLE = 3

#: Three architectures, so the median trial is the middle one in every run.
TRAIN_SPACE = SearchSpace(kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0,),
                          kernel_size_pool=(3,), stride_pool=(2,),
                          initial_output_feature=(32, 48, 64), channels=(5,), batches=(16,))
TRAIN_SETTINGS = dict(samples_per_class=4, patch_size=16, epochs=2, k=3)
TAIL_PCT = 90
MIN_PASSES = 2
#: Set-ups per pass: sweep-grid's takes about 1 ms, so one sample is mostly noise.
SETUPS = 8

#: Compared between passes; duration_s is a timing, not a result.
RECORD_FIELDS = ("trial_id", "config", "status", "accuracy", "fold_accuracies", "latency_ms",
                 "lat_std", "per_device_ms", "memory_mb", "param_count", "flops", "error")


class _TrialClock(obs.ProgressListener):
    """Times each trial from the loop's start hook to its end hook."""

    def __init__(self) -> None:
        self.started = 0.0
        self.seconds: list[float] = []

    def on_trial_start(self, trial_id, config) -> None:
        self.started = clock()

    def on_trial_end(self, done, total, record) -> None:
        self.seconds.append(clock() - self.started)


def _grid_space(rng: np.random.Generator) -> SearchSpace:
    """The grid slice with each knob's values in a seeded order (same trials)."""
    return SearchSpace(**{name: tuple(int(v) for v in rng.permutation(values))
                          for name, values in GRID_KNOBS.items()})


def _instrument_measurement(tracer: Tracer) -> None:
    """Spans around the architecture-measurement calls the trial loop makes."""
    tracer.wrap(experiment_module, "measure_architecture", "nas.measure")
    tracer.wrap(experiment_module, "build_model", "nn.build_model")
    tracer.wrap(experiment_module, "trace_model", "graph.trace")
    tracer.wrap(experiment_module, "export_model", "onnxlite.export")
    tracer.wrap(experiment_module, "extract_kernels", "latency.extract_kernels")
    tracer.count_calls(experiment_module, "kernel_latency_ms", "latency.kernel_latency")
    tracer.wrap(dataset_module, "generate_patch", "data.generate_patch")


def _instrument_pass(tracer: Tracer, experiment: Experiment, pass_no: int) -> None:
    tracer.wrap(experiment, "run_trial", "nas.trial",
                root=lambda trial_id, config: f"pass{pass_no}.trial{trial_id}")
    tracer.wrap(experiment.evaluator, "evaluate", "nas.evaluate")
    tracer.wrap(experiment.store, "add", "nas.store_add")


def _close(experiment: Experiment) -> None:
    experiment.store.close()


def _run_passes(seconds: float, setup, budget: int, tracer: Tracer | None):
    """Repeat set-up + Experiment.run(budget) until ``seconds`` have passed.

    ``setup()`` returns a fresh Experiment.  Returns per-pass dicts.
    """
    out = []
    started = clock()
    while len(out) < MIN_PASSES or clock() - started < seconds:
        pass_no = len(out)
        experiment, setups = timed_setups(setup, _close, SETUPS)
        trials = _TrialClock()
        experiment.progress = trials
        if tracer is not None:
            _instrument_pass(tracer, experiment, pass_no)
        host, t0 = HostClock(), clock()
        result = experiment.run(budget)
        elapsed = clock() - t0
        _close(experiment)
        out.append({"setups_s": setups, "elapsed_s": elapsed, "cpu_s": host.cpu_s(),
                    "steal": host.steal_share(), "result": result,
                    "trial_s": trials.seconds, "records": experiment.store.records()})
    return out


def _sweep_metrics(result: Result, passes, wrong: int) -> None:
    """Metrics of a set of passes; ``wrong`` trials failed an output check."""
    trial_ms = 1e3 * np.array([s for p in passes for s in p["trial_s"]])
    launched = sum(p["result"].launched for p in passes)
    ok = sum(p["result"].succeeded for p in passes)
    # Per-pass medians: the first pass of a run also pays one-time costs, and
    # how many passes fit in a run varies, so a total over passes would not.
    rates = [p["result"].succeeded / p["elapsed_s"] for p in passes]
    cpu_ms = [1e3 * p["cpu_s"] / p["result"].launched for p in passes]
    tail = percentile(trial_ms, TAIL_PCT)
    beyond = int(np.sum(trial_ms > tail))
    result.attempted = launched
    result.failed = launched - ok + wrong
    setups = [t for p in passes for t in p["setups_s"]]
    result.metrics.update({
        "cpu_ms_per_op": (float(np.median(cpu_ms)), "ms"),
        "slo_attainment": ((launched - result.failed) / launched, "share"),
        "setup_s": (float(np.median(setups)), "s"),
        "trials_per_s": (float(np.median(rates)), "1/s"),
        "latency_p50_ms": (percentile(trial_ms, 50), "ms"),
        "latency_p90_ms": (tail, "ms"),
        "failed_share": (result.failed / launched, "share"),
    })
    result.properties.update({
        "passes": len(passes),
        "trials_per_pass": passes[0]["result"].launched,
        "trials": int(trial_ms.size),
        "samples_beyond_p90": beyond,
        "setup_runs_s": setups,
        "pass_s": [p["elapsed_s"] for p in passes],
        "cpu_ms_per_trial_per_pass": cpu_ms,
        "host_steal_share": [round(p["steal"], 4) for p in passes],
    })
    if beyond < 10:
        result.notes.append(f"only {beyond} samples beyond p90 ({trial_ms.size} trials)")


def _sweep_layers(result: Result, tracer: Tracer, passes, snapshot: dict) -> None:
    trials = sum(p["result"].launched for p in passes) or 1
    pl = result.per_layer

    def per_trial_ms(*names: str) -> float:
        return 1e3 * sum(tracer.total_s(n) for n in names) / trials

    pl["nn.build_model_ms"] = (per_trial_ms("nn.build_model"), "ms")
    pl["onnxlite.export_ms"] = (per_trial_ms("onnxlite.export"), "ms")
    pl["graph.trace_ms"] = (per_trial_ms("graph.trace"), "ms")
    kernel_s = tracer.totals.get("latency.kernel_latency", (0, 0.0))[1]
    pl["latency.predict_ms"] = (per_trial_ms("latency.extract_kernels")
                                + 1e3 * kernel_s / trials, "ms")
    pl["nas.evaluate_ms"] = (per_trial_ms("nas.evaluate"), "ms")
    pl["nas.store_add_ms"] = (per_trial_ms("nas.store_add"), "ms")
    pl["nas.arch_reuse_ratio"] = (1.0 - len(tracer.durations("nas.measure")) / trials, "share")
    folds = [item for item in snapshot.values() if item["name"] == "repro_train_fold_seconds"]
    count = sum(h["count"] for h in folds)
    pl["nas.fold_s"] = (sum(h["sum"] for h in folds) / count if count else 0.0, "s")
    hits = obs_sum(snapshot, "repro_workspace_hits")
    misses = obs_sum(snapshot, "repro_workspace_misses")
    pl["tensor.workspace_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                        "share")
    setups = sum(len(p["setups_s"]) for p in passes)
    pl["data.dataset_build_s"] = (tracer.total_s("data.generate_patch") / setups, "s")


def _sweep(result: Result, seconds: float, setup, budget: int, trace: bool, check):
    """Untraced passes for the end-to-end metrics, then traced ones if asked.

    ``check(passes)`` returns how many trials of those passes failed a check.
    """
    passes = _run_passes(seconds, setup, budget, None)
    _sweep_metrics(result, passes, check(passes))
    if not trace:
        return None
    tracer = Tracer()
    _instrument_measurement(tracer)
    obs.configure(reset_metrics=True)
    try:
        traced = _run_passes(seconds, setup, budget, tracer)
        snapshot = obs_snapshot()
    finally:
        # The checks re-measure architectures; their calls must not be spanned.
        tracer.restore()
        obs.shutdown(final_snapshot=False)
    wrong = check(traced)
    _sweep_layers(result, tracer, traced, snapshot)
    shadow = Result(result.workload)
    _sweep_metrics(shadow, traced, wrong)
    overhead(result, shadow, latency_p50_pct="latency_p50_ms",
             throughput_pct="trials_per_s", cpu_per_op_pct="cpu_ms_per_op")
    return tracer


def _scratch(root: Path, name: str) -> Path:
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))


def sweep_grid(seed: int, seconds: float, trace: bool, root: Path):
    result = Result("sweep-grid")
    rng = np.random.default_rng(seed)
    space = _grid_space(rng)
    configs = list(space.iter_all())
    distinct = len({c.architecture_key() for c in configs})
    workdir = _scratch(root, "sweep-grid")
    stores = itertools.count()

    def setup():
        store = TrialStore(workdir / f"store{next(stores)}.jsonl")
        experiment = Experiment(SurrogateEvaluator(seed=seed), GridSearch(space), store=store,
                                input_hw=GRID_INPUT_HW, latency_jitter=0.0, jitter_seed=seed)
        store.write_manifest(experiment.run_manifest())
        return experiment

    mismatched = []

    def check(passes) -> int:
        # Jitter is off, so stored latency and memory equal a fresh measurement.
        before = len(mismatched)
        for p in passes:
            records = p["records"]
            for idx in rng.choice(len(records), size=GRID_CHECK_SAMPLE, replace=False):
                record = records[int(idx)]
                fresh = measure_architecture(record.config, input_hw=GRID_INPUT_HW)
                if (record.latency_ms != fresh.latency_ms
                        or record.per_device_ms != fresh.per_device_ms
                        or record.memory_mb != fresh.memory_mb):
                    mismatched.append(record.trial_id)
        return len(mismatched) - before

    try:
        tracer = _sweep(result, seconds, setup, len(configs), trace, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.checks["records_match_measure_architecture"] = not mismatched
    result.properties["arch_reuse_ratio"] = 1.0 - distinct / len(configs)
    result.properties["distinct_architectures"] = distinct
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return result, tracer


def sweep_train(seed: int, seconds: float, trace: bool, root: Path):
    result = Result("sweep-train")
    configs = TRAIN_SPACE.configs()
    workdir = _scratch(root, "sweep-train")
    stores = itertools.count()

    def setup():
        evaluator = TrainingEvaluator(seed=seed, **TRAIN_SETTINGS)
        # The evaluator builds its dataset lazily on the first trial and has no
        # public hook to do it earlier; build it here so it counts as set-up.
        data = evaluator._dataset(TRAIN_SPACE.channels[0])
        data.batch(np.arange(len(data)))
        store = TrialStore(workdir / f"store{next(stores)}.jsonl")
        experiment = Experiment(evaluator, RandomSearch(TRAIN_SPACE, seed=seed), store=store,
                                input_hw=(TRAIN_SETTINGS["patch_size"],) * 2,
                                jitter_seed=seed)
        store.write_manifest(experiment.run_manifest())
        return experiment

    first: list = []
    differing = []

    def check(passes) -> int:
        # Same seed, same inputs: every pass must reproduce the first pass exactly.
        before = len(differing)
        for p in passes:
            rows = [tuple(getattr(r, f) for f in RECORD_FIELDS) for r in p["records"]]
            if not first:
                first.extend(rows)
            differing.extend(i for i, (a, b) in enumerate(zip(rows, first)) if a != b)
            differing.extend(range(len(rows), len(first)))
        return len(differing) - before

    try:
        tracer = _sweep(result, seconds, setup, len(configs), trace, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.checks["records_identical_across_passes"] = not differing
    result.properties["arch_reuse_ratio"] = 1.0 - len(
        {c.architecture_key() for c in configs}) / len(configs)
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return result, tracer

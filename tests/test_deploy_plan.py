"""Compiled inference plans: equivalence, fusion alignment, memory planning.

The compiled path must agree with BOTH independent implementations —
the interpreted onnxlite runtime and the repro.nn training stack — to
tight tolerance across fuzzed search-space configs (fp32 and quantized),
its kernel grouping must match what the latency predictors price, and
its static release schedule must never free a buffer that is still read
(guarded by NaN-poisoning released arena slots in debug mode).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.deploy import Arena, compile_plan, load_runtime
from repro.deploy.passes import build_plan_nodes, fuse_operators, toposort_nodes
from repro.graph.trace import trace_model
from repro.latency.fusion import FUSION_RULES, fuse_graph, fusion_rule
from repro.nas.config import ModelConfig
from repro.nn import SearchableResNet18, build_model
from repro.onnxlite.export import export_model
from repro.onnxlite.reader import proto_from_bytes
from repro.quant.export import export_quantized_model
from repro.quant.model import fake_quantize_model
from repro.tensor.tensor import Tensor, no_grad

ATOL = 1e-4
RTOL = 1e-3


def _model(**kw):
    defaults = dict(in_channels=5, kernel_size=3, stride=2, padding=1,
                    pool_choice=0, initial_output_feature=32, seed=3)
    defaults.update(kw)
    return SearchableResNet18(**defaults)


def _reference_logits(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _config(channels, kernel, stride, pool, feature):
    padding = 1 if kernel == 3 else 3
    return ModelConfig(channels=channels, batch=8, kernel_size=kernel, stride=stride,
                       padding=padding, pool_choice=pool, kernel_size_pool=3,
                       stride_pool=2, initial_output_feature=feature)


def _spy_acquire(plan) -> list:
    """Record every ``plan.arena.acquire`` call from now on."""
    calls: list = []
    acquire = plan.arena.acquire

    def spy(shape, dtype=np.float32):
        calls.append((shape, dtype))
        return acquire(shape, dtype)

    plan.arena.acquire = spy
    return calls


def _variant_plans(size=24):
    """fp32, Winograd-forced and calibrated-int8 plans of one model."""
    from repro.deploy.winograd import WINOGRAD_VARIANT, winograd_eligible
    from repro.quant.calibrate import calibrate_activations

    model = _model()
    proto = proto_from_bytes(export_model(model, input_hw=(size, size)))
    weights = {t.name: t.dequantized() for t in proto.initializers}
    nodes = toposort_nodes(fuse_operators(build_plan_nodes(proto, weights)))
    winograd = {n.name: WINOGRAD_VARIANT for n in nodes
                if n.op_type == "Conv" and winograd_eligible(n.attrs)}
    assert winograd
    qproto = proto_from_bytes(export_quantized_model(model, input_hw=(size, size)))
    rng = np.random.default_rng(5)
    calibrate_activations(qproto, rng.standard_normal((8, 5, size, size)).astype(np.float32))
    return {
        "fp32": compile_plan(proto),
        "winograd": compile_plan(proto, variants=winograd),
        "int8": compile_plan(qproto),
    }


@pytest.fixture(scope="module")
def variant_plans():
    return _variant_plans()


class TestEquivalence:
    """compiled == interpreted == repro.nn on fuzzed search-space configs."""

    @settings(max_examples=16, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        channels=st.sampled_from((5, 7)),
        kernel=st.sampled_from((3, 7)),
        stride=st.sampled_from((1, 2)),
        pool=st.sampled_from((0, 1)),
        feature=st.sampled_from((32, 48)),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_fuzz_fp32_three_way_agreement(self, channels, kernel, stride, pool, feature, seed):
        config = _config(channels, kernel, stride, pool, feature)
        model = build_model(config, seed=seed)
        runtime = load_runtime(export_model(model, input_hw=(32, 32)))
        plan = runtime.compile(poison=True)  # poison: read-after-free -> NaN -> fail
        x = np.random.default_rng(seed).normal(size=(2, channels, 32, 32)).astype(np.float32)
        interpreted = runtime.run(x)
        compiled = plan.run(x)
        np.testing.assert_allclose(compiled, interpreted, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(compiled, _reference_logits(model, x), rtol=RTOL, atol=ATOL)
        assert np.isfinite(compiled).all()

    @pytest.mark.parametrize("channels,kernel,stride,pool,feature,dtype", [
        (5, 3, 2, 0, 32, "int8"),
        (7, 3, 2, 0, 32, "int8"),
        (5, 7, 2, 1, 32, "int8"),
        (7, 7, 1, 1, 48, "int8"),
        (5, 3, 1, 0, 48, "int16"),
        (7, 3, 2, 1, 32, "int16"),
    ])
    def test_quantized_three_way_agreement(self, channels, kernel, stride, pool, feature, dtype):
        config = _config(channels, kernel, stride, pool, feature)
        model = build_model(config, seed=1)
        blob = export_quantized_model(model, input_hw=(32, 32), dtype=dtype)
        runtime = load_runtime(blob)
        plan = runtime.compile(poison=True)
        x = np.random.default_rng(7).normal(size=(2, channels, 32, 32)).astype(np.float32)
        interpreted = runtime.run(x)
        compiled = plan.run(x)
        np.testing.assert_allclose(compiled, interpreted, rtol=RTOL, atol=ATOL)
        # Reference: the same model with fake-quantized (round-tripped)
        # weights run through the training stack.
        fake_quantize_model(model, dtype=dtype)
        np.testing.assert_allclose(compiled, _reference_logits(model, x), rtol=RTOL, atol=ATOL)

    def test_batch_sizes_and_repeat_runs_are_stable(self):
        model = _model()
        plan = load_runtime(export_model(model, input_hw=(32, 32))).compile(poison=True)
        rng = np.random.default_rng(0)
        first = None
        for batch in (1, 3, 8, 1):
            x = rng.normal(size=(batch, 5, 32, 32)).astype(np.float32)
            out = plan.run(x)
            assert out.shape == (batch, 2)
            again = plan.run(x)
            np.testing.assert_array_equal(out, again)
            if first is None:
                first = (x[:1].copy(), out[:1].copy())
        # Re-running the very first sample after many arena recycles
        # still reproduces the original logits bit-for-bit.
        np.testing.assert_array_equal(plan.run(first[0]), first[1])

    def test_predictions_match_interpreter(self):
        runtime = load_runtime(export_model(_model(seed=9), input_hw=(32, 32)))
        plan = runtime.compile()
        x = np.random.default_rng(3).normal(size=(8, 5, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(plan.predict(x), runtime.predict(x))

    def test_input_is_never_mutated(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        x = np.random.default_rng(5).normal(size=(2, 5, 32, 32)).astype(np.float32)
        snapshot = x.copy()
        plan.run(x)
        np.testing.assert_array_equal(x, snapshot)


class TestFusionAlignment:
    """Executed kernels == the kernels the latency predictors price."""

    @pytest.mark.parametrize("pool", [0, 1])
    def test_compiled_chains_match_latency_fusion(self, pool):
        model = _model(pool_choice=pool, kernel_size_pool=3, stride_pool=2)
        graph = trace_model(model, input_hw=(64, 64))
        predicted = sorted(
            tuple(fusion_name(n.op) for n in fused.nodes) for fused in fuse_graph(graph)
        )
        plan = load_runtime(export_model(model, input_hw=(64, 64))).compile()
        executed = sorted(plan.kernel_chains())
        assert executed == predicted

    def test_rule_table_is_shared(self):
        # The deploy compiler consumes FUSION_RULES directly; the IR-side
        # helper must expose the identical chains.
        from repro.graph.ir import OpType

        assert fusion_rule(OpType.CONV) == (OpType.BATCH_NORM, OpType.RELU)
        assert fusion_rule("Conv") == (OpType.BATCH_NORM, OpType.RELU)
        assert fusion_rule(OpType.ADD) == (OpType.RELU,)
        assert fusion_rule(OpType.MAX_POOL) == ()
        assert set(FUSION_RULES) == {"Conv", "Add"}

    def test_every_batchnorm_is_folded(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        for chain in plan.kernel_chains():
            assert chain[0] != "BatchNormalization"
            if "BatchNormalization" in chain:
                assert chain[0] == "Conv"

    def test_fan_out_tensor_is_not_fused_away(self):
        # The block-input tensor feeds both conv1 and the residual add;
        # the pass pipeline must keep it materialized.
        proto = proto_from_bytes(export_model(_model(), input_hw=(32, 32)))
        weights = {t.name: t.dequantized() for t in proto.initializers}
        nodes = toposort_nodes(fuse_operators(build_plan_nodes(proto, weights)))
        produced = {n.output for n in nodes}
        adds = [n for n in nodes if n.op_type == "Add"]
        assert adds
        for add in adds:
            for name in add.inputs:
                assert name == "input" or name in produced


class TestMemoryPlanning:
    def test_planner_cuts_peak_live_memory(self):
        plan = load_runtime(export_model(_model(), input_hw=(64, 64))).compile()
        assert plan.planned_peak_bytes(1) < plan.naive_env_bytes(1) / 4

    def test_release_schedule_never_frees_a_live_tensor(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        released_at: dict[str, int] = {}
        for step_idx, step in enumerate(plan.steps):
            for name in step.inputs:
                assert released_at.get(name, step_idx) >= step_idx, (
                    f"step {step_idx} ({step.name}) reads {name!r} released "
                    f"at step {released_at[name]}"
                )
            for name in (*step.release, *step.drop):
                assert name not in released_at
                released_at[name] = step_idx
        # Every intermediate except the final output is eventually freed.
        outputs = {s.output for s in plan.steps} - {plan.final_output}
        assert outputs <= set(released_at)

    def test_arena_drains_after_each_run(self):
        """After the first run at a batch size, runs touch no arena buffer."""
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        x = np.zeros((2, 5, 32, 32), dtype=np.float32)
        plan.run(x)
        assert plan.arena.live_count == 0
        assert plan.arena.current_bytes == 0
        stats = plan.memory_stats()
        assert stats["allocations"] > 0
        calls = _spy_acquire(plan)
        plan.run(x)
        plan.run(x)
        # Steady state: the frame is bound, so the arena is never asked.
        assert calls == []
        assert plan.memory_stats() == stats

    def test_poison_catches_a_premature_release(self):
        """Sabotage the schedule: poison mode must corrupt the output."""
        model = _model()
        runtime = load_runtime(export_model(model, input_hw=(32, 32)))
        good = runtime.compile(poison=True)
        x = np.random.default_rng(0).normal(size=(1, 5, 32, 32)).astype(np.float32)
        baseline = good.run(x)
        assert np.isfinite(baseline).all()

        bad = runtime.compile(poison=True)
        # Simulate a planner bug before the frame is built: release a
        # tensor's buffer at the step that produces it, while later
        # kernels still read it.
        victim = None
        for i, step in enumerate(bad.steps):
            if any(step.output in s.inputs for s in bad.steps[i + 1 :]):
                victim = (i, step.output)
                break
        assert victim is not None
        i, name = victim
        for step in bad.steps:  # avoid a double-free masking the bug
            if name in step.release:
                step.release.remove(name)
        bad.steps[i].release.append(name)
        corrupted = bad.run(x)  # builds the frame from the sabotaged schedule
        assert (not np.isfinite(corrupted).all()) or not np.allclose(
            corrupted, baseline, rtol=1e-3, atol=1e-4
        )

    def test_arena_rejects_foreign_buffers(self):
        arena = Arena()
        with pytest.raises(KeyError):
            arena.release(np.zeros(4, dtype=np.float32))

    def test_arena_reuses_and_poisons(self):
        arena = Arena(poison=True)
        a = arena.acquire((2, 3))
        a[:] = 1.0
        arena.release(a)
        assert np.isnan(a).all()  # poisoned on release
        b = arena.acquire((3, 2))  # same size -> same base buffer
        assert arena.allocations == 1 and arena.reuses == 1


class TestExecutionFrames:
    """One frame per batch size, bound once, replayed bitwise-identically."""

    @pytest.mark.parametrize("kind", ["fp32", "winograd", "int8"])
    def test_batch_sizes_in_any_order_match_fresh_replicas(self, variant_plans, kind):
        plan = variant_plans[kind].replicate()
        if kind == "int8":
            assert "conv.im2col.int8" in plan.kernel_variants().values()
        rng = np.random.default_rng(11)
        for n in (1, 3, 8, 1, 2):
            x = rng.standard_normal((n, 5, 24, 24)).astype(np.float32)
            got = plan.run(x)
            want = variant_plans[kind].replicate().run(x)
            assert np.array_equal(got, want), f"{kind} n={n}"
        assert sorted(plan._frames) == [1, 2, 3, 8]

    @pytest.mark.parametrize("kind", ["fp32", "winograd", "int8"])
    def test_second_run_at_same_batch_never_acquires(self, variant_plans, kind):
        plan = variant_plans[kind].replicate()
        x = np.random.default_rng(12).standard_normal((3, 5, 24, 24)).astype(np.float32)
        calls = _spy_acquire(plan)
        first = plan.run(x)
        assert calls  # the first run builds the frame from the arena
        calls.clear()
        assert np.array_equal(plan.run(x), first)
        assert calls == []

    def test_poison_mode_matches_plain_mode(self, variant_plans):
        x = np.random.default_rng(13).standard_normal((2, 5, 24, 24)).astype(np.float32)
        for plan in variant_plans.values():
            poisoned = plan.replicate(poison=True)
            assert np.array_equal(poisoned.run(x), plan.replicate().run(x))
            assert any(poisoned._frames[2].dead)


class TestStepTiming:
    """``repro_plan_step_seconds``: recorded in place, free when obs is off."""

    @pytest.fixture
    def clean_obs(self):
        import repro.obs as obs

        obs.shutdown(final_snapshot=False)
        obs.registry().reset()
        yield obs
        obs.shutdown(final_snapshot=False)
        obs.registry().reset()

    def _step_histograms(self, obs, plan):
        """This plan's step histograms, by step name."""
        return {step.name: obs.histogram("repro_plan_step_seconds", plan=plan.name,
                                         step=step.name, op_type=step.chain[0],
                                         variant=step.variant)
                for step in plan.steps}

    def test_enabled_obs_times_every_step(self, clean_obs, variant_plans):
        from repro.obs import InMemorySink

        obs = clean_obs
        plan = variant_plans["fp32"].replicate()
        x = np.zeros((1, 5, 24, 24), dtype=np.float32)
        obs.configure(sinks=[InMemorySink()])
        for _ in range(3):
            plan.run(x)
        hists = self._step_histograms(obs, plan)
        for step in plan.steps:
            assert hists[step.name].count == 3 and hists[step.name].sum > 0

    def test_disabled_obs_takes_the_plain_loop(self, clean_obs, variant_plans, monkeypatch):
        import tracemalloc

        obs = clean_obs
        assert not obs.enabled()
        plan = variant_plans["fp32"].replicate()
        x = np.zeros((1, 5, 24, 24), dtype=np.float32)
        plan.run(x)  # build the frame (declares the step histograms)

        def instrumented(frame):
            raise AssertionError("per-step timing ran with obs disabled")

        monkeypatch.setattr(plan, "_run_instrumented", instrumented)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(20):
                plan.run(x)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            s.size_diff for s in after.compare_to(before, "filename")
            if "repro/obs/" in (s.traceback[0].filename if s.traceback else "")
        )
        assert grown == 0, f"disabled obs allocated {grown} bytes in the plan loop"
        assert all(h.count == 0 for h in self._step_histograms(obs, plan).values())


class TestPlanValidation:
    def test_wrong_spatial_size_rejected(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        with pytest.raises(ValueError, match="compiled for input"):
            plan.run(np.zeros((1, 5, 48, 48), dtype=np.float32))
        with pytest.raises(ValueError):
            plan.run(np.zeros((1, 7, 32, 32), dtype=np.float32))

    def test_empty_model_rejected(self):
        from repro.onnxlite.schema import ModelProto

        with pytest.raises(ValueError, match="no operators"):
            compile_plan(ModelProto("m", (1, 8, 8), (1,)))

    def test_describe_and_repr(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        text = plan.describe()
        assert "Conv+BatchNormalization+Relu" in text
        assert "InferencePlan" in repr(plan)
        assert plan.num_kernels < len(plan.shapes)


def fusion_name(op) -> str:
    """IR OpType -> onnxlite operator-type string (test-local helper)."""
    from repro.latency.fusion import _IR_TO_ONNX

    full = dict(_IR_TO_ONNX)
    from repro.graph.ir import OpType

    full.setdefault(OpType.MAX_POOL, "MaxPool")
    full.setdefault(OpType.GLOBAL_AVG_POOL, "GlobalAveragePool")
    full.setdefault(OpType.FLATTEN, "Flatten")
    full.setdefault(OpType.FC, "Gemm")
    return full[op]

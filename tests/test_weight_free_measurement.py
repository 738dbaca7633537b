"""Weight-free architecture measurement.

``measure_architecture`` scores latency, memory, params and FLOPs from a
``build_model(init=False)`` skeleton and ``proto_nbytes``; these tests pin
it to what a fully initialized, serialized model gives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.nn.layers as layers
from repro.graph.flops import count_graph_flops
from repro.graph.trace import trace_model
from repro.latency.devices import DEVICE_PROFILES, kernel_latency_ms
from repro.latency.kernels import extract_kernels
from repro.nas.config import ModelConfig
from repro.nas.experiment import ArchitectureMetrics, measure_architecture
from repro.nn import SGD
from repro.nn.resnet import build_model
from repro.onnxlite.export import export_model, proto_nbytes, proto_to_bytes
from repro.onnxlite.size import model_size_bytes
from repro.onnxlite.schema import ModelProto, OperatorProto, TensorProto
from repro.utils.rng import SeedSequenceFactory


def _reference(config: ModelConfig, input_hw: tuple[int, int]) -> ArchitectureMetrics:
    """The measurement the slow way: initialized weights, real bytes."""
    model = build_model(config, seed=0)
    graph = trace_model(model, input_hw=input_hw)
    kernels = extract_kernels(graph)
    per_device = {
        name: float(sum(kernel_latency_ms(k, profile) for k in kernels))
        for name, profile in DEVICE_PROFILES.items()
    }
    values = list(per_device.values())
    return ArchitectureMetrics(
        per_device_ms=per_device,
        latency_ms=float(np.mean(values)),
        lat_std=float(np.std(values)),
        memory_mb=len(export_model(model, input_hw=input_hw)) / 1e6,
        param_count=sum(p.size for p in model.parameters()),
        flops=count_graph_flops(graph),
    )


def _config(channels, kernel_size, stride, padding, pool_choice, f, kernel_size_pool=3, stride_pool=2):
    return ModelConfig(
        channels=channels, batch=16, kernel_size=kernel_size, stride=stride, padding=padding,
        pool_choice=pool_choice, kernel_size_pool=kernel_size_pool, stride_pool=stride_pool,
        initial_output_feature=f,
    )


# A paper-grid sample spanning k3/k7, pool on/off, 5/7 channels and f=32/48/64.
GRID_SAMPLE = [
    _config(5, 3, 1, 1, 0, 32),
    _config(7, 3, 2, 2, 1, 48, kernel_size_pool=2, stride_pool=1),
    _config(5, 7, 2, 3, 1, 64),
    _config(7, 7, 1, 3, 0, 48),
    _config(7, 3, 2, 1, 0, 64),
    _config(5, 7, 2, 1, 1, 32, kernel_size_pool=3, stride_pool=1),
]


class TestMeasureArchitectureMatchesInitializedModel:
    @pytest.mark.parametrize("input_hw", [(100, 100), (24, 24)])
    @pytest.mark.parametrize("config", GRID_SAMPLE, ids=lambda c: c.architecture_key())
    def test_equals_reference(self, config, input_hw):
        assert measure_architecture(config, input_hw=input_hw) == _reference(config, input_hw)

    def test_needs_no_weight_init(self, monkeypatch, winner_config):
        expected = _reference(winner_config, (100, 100))

        def forbidden(*args, **kwargs):
            raise AssertionError("measurement must not initialize weights")

        monkeypatch.setattr(layers, "kaiming_normal", forbidden)
        monkeypatch.setattr(layers, "rng_from_seed", forbidden)
        assert measure_architecture(winner_config) == expected


class TestSkeleton:
    def test_conv_and_linear_parameters_are_read_only_zeros(self, winner_config):
        model = build_model(winner_config, init=False)
        weighted = [m for m in model.modules() if isinstance(m, (layers.Conv2d, layers.Linear))]
        assert len(weighted) == 21  # 17 convs + 3 projections + the FC head
        for module in weighted:
            for p in module.parameters():
                assert not p.data.flags.writeable and not p.data.any()

    def test_sgd_step_raises(self, winner_config):
        model = build_model(winner_config, init=False)
        params = list(model.parameters())
        for p in params:
            p.grad = np.ones_like(p.data)
        with pytest.raises(ValueError, match="read-only"):
            SGD(params, lr=0.1).step()

    def test_same_shapes_and_trace_as_initialized(self, winner_config):
        full = build_model(winner_config)
        skeleton = build_model(winner_config, init=False)
        assert {n: p.shape for n, p in full.named_parameters()} == {
            n: p.shape for n, p in skeleton.named_parameters()
        }
        a, b = trace_model(full, (24, 24)), trace_model(skeleton, (24, 24))
        assert [(n.name, n.out_shape, n.params) for n in a.topological()] == [
            (n.name, n.out_shape, n.params) for n in b.topological()
        ]

    def test_model_size_bytes_is_exact(self, winner_config):
        blob = export_model(build_model(winner_config), input_hw=(24, 24))
        assert model_size_bytes(build_model(winner_config, init=False), (24, 24)) == len(blob)

    def test_init_streams_unchanged(self, winner_config):
        """``init=True`` draws each layer from its own named seed stream."""
        model = build_model(winner_config, seed=3)
        seeds = SeedSequenceFactory(3)
        stem = layers.kaiming_normal(model.conv1.weight.shape, seeds.rng("stem"))
        np.testing.assert_array_equal(model.conv1.weight.data, stem)
        block = SeedSequenceFactory(seeds.seed_for("stage", 2, "block", 0))
        conv1 = model.layer2._modules["0"].conv1
        np.testing.assert_array_equal(
            conv1.weight.data, layers.kaiming_normal(conv1.weight.shape, block.rng("conv1"))
        )


_shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)
_metadata = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(-1000, 1000), st.booleans(), st.text(max_size=12),
              st.floats(allow_nan=False, allow_infinity=False)),
    max_size=4,
)


@st.composite
def _tensor(draw, index: int) -> TensorProto:
    shape = draw(_shapes)
    name = f"t{index}." + draw(st.text(max_size=6))
    kind = draw(st.sampled_from(["fp32", "int8", "int8-per-channel"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "fp32":
        return TensorProto(name, rng.standard_normal(shape).astype(np.float32))
    codes = rng.integers(-127, 128, size=shape).astype(np.int8)
    if kind == "int8":
        scale = draw(st.floats(1e-8, 10.0))
        return TensorProto(name, codes, scale=scale, zero_point=draw(st.integers(-128, 127)))
    scales = rng.uniform(1e-6, 2.0, size=shape[0])
    return TensorProto(name, codes, scale=scales if shape[0] > 1 else float(scales[0]))


@st.composite
def _protos(draw) -> ModelProto:
    tensors = [draw(_tensor(i)) for i in range(draw(st.integers(0, 6)))]
    operators = [
        OperatorProto(f"op{i}", draw(st.sampled_from(["Conv", "Gemm", "Add", "Relu"])),
                      inputs=[t.name for t in tensors[:i]], outputs=[f"op{i}"],
                      attrs={"kernel": draw(st.integers(1, 7))})
        for i in range(draw(st.integers(0, 3)))
    ]
    return ModelProto(draw(st.text(max_size=10)), draw(_shapes), draw(_shapes),
                      operators=operators, initializers=tensors, metadata=draw(_metadata))


class TestProtoNbytes:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_protos())
    def test_equals_serialized_length(self, proto):
        assert proto_nbytes(proto) == len(proto_to_bytes(proto))

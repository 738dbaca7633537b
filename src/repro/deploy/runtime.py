"""Execute onnxlite model graphs with standalone NumPy kernels.

The interpreted runtime walks the serialized operator list (already
topologically ordered by the exporter), keeping a tensor environment
keyed by operator output names.  Kernels are deliberately written
independently of :mod:`repro.tensor` — different im2col layout, different
batch-norm formulation — so agreement with the training stack is a
meaningful check rather than a tautology.

:meth:`OnnxliteRuntime.compile` produces an
:class:`~repro.deploy.plan.InferencePlan` — the fast path with BatchNorm
folded into Conv weights, ReLU fused in-kernel, pre-bound closures
instead of string dispatch, and arena-recycled intermediate buffers.
The interpreter below stays as the slow, independent reference both the
plan and :mod:`repro.nn` are validated against.

Supported operators: Conv, BatchNormalization, Relu, MaxPool,
GlobalAveragePool, Flatten, Gemm, Add (the full vocabulary the exporter
emits for the paper's model family).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import repro.obs as obs
from repro.deploy.weights import LazyWeightTable
from repro.onnxlite.reader import load_model, proto_from_bytes
from repro.onnxlite.schema import ModelProto, OperatorProto

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.plan import InferencePlan

__all__ = ["OnnxliteRuntime", "load_runtime"]

_BN_EPS = 1e-5


def _as_f32(x: np.ndarray) -> np.ndarray:
    """Cast to float32 only when needed (skip the no-op copy)."""
    return x if x.dtype == np.float32 else x.astype(np.float32)


def _conv2d(x: np.ndarray, weight: np.ndarray, attrs: dict) -> np.ndarray:
    stride = int(attrs["stride"])
    padding = int(attrs["padding"])
    kernel = int(attrs["kernel"])
    n, c_in, h, w = x.shape
    c_out = weight.shape[0]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    # Tensor-dot formulation (different from repro.tensor's GEMM reshape):
    # (N, C, oh, ow, k, k) x (F, C, k, k) over (C, k, k).
    out = np.tensordot(windows, weight, axes=([1, 4, 5], [1, 2, 3]))  # (N, oh, ow, F)
    return _as_f32(np.ascontiguousarray(out.transpose(0, 3, 1, 2)))


def _batch_norm(x: np.ndarray, gamma, beta, mean, var) -> np.ndarray:
    # Inference form, folded into one affine map per channel.
    scale = gamma / np.sqrt(var + _BN_EPS)
    shift = beta - mean * scale
    return _as_f32(x * scale[None, :, None, None] + shift[None, :, None, None])


def _max_pool(x: np.ndarray, attrs: dict) -> np.ndarray:
    kernel = int(attrs["kernel"])
    stride = int(attrs["stride"])
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    reducer = np.mean if attrs.get("average") else np.max
    return _as_f32(np.ascontiguousarray(reducer(windows, axis=(-2, -1))))


class OnnxliteRuntime:
    """Loads an onnxlite model and runs batched inference.

    Parameters
    ----------
    proto:
        The deserialized model.
    """

    def __init__(self, proto: ModelProto) -> None:
        self.proto = proto
        # Quantized payloads dequantize lazily, on first access: the
        # interpreter computes in fp32 (like OpenVINO's CPU fallback
        # path) and materializes what it touches, while compiling an
        # integer plan from the same runtime touches none of the
        # quantized conv/fc weights at all.
        self._weights = LazyWeightTable(proto)
        #: Lazily compiled plan backing ``run(..., compiled=True)``.
        self._plan: "InferencePlan | None" = None
        #: Live-environment footprint of the most recent :meth:`run`
        #: (every intermediate stays alive — the figure the compiled
        #: plan's arena is measured against).
        self.last_env_bytes = 0
        # Interpreted-path latency histogram (no-op while obs disabled).
        self._latency = obs.histogram(
            "repro_inference_latency_seconds", plan=proto.name, runtime="interpreted"
        )
        self._validate_ops()

    def _validate_ops(self) -> None:
        supported = {"Conv", "BatchNormalization", "Relu", "MaxPool",
                     "GlobalAveragePool", "Flatten", "Gemm", "Add"}
        for op in self.proto.operators:
            if op.op_type not in supported:
                raise ValueError(f"unsupported operator {op.op_type!r} in {op.name!r}")

    # -- weight lookup helpers ------------------------------------------------

    def _param(self, op_name: str, suffix: str) -> np.ndarray:
        key = f"{op_name}.{suffix}"
        if key not in self._weights:
            raise KeyError(f"initializer {key!r} missing from the model")
        return self._weights[key]

    # -- compilation ----------------------------------------------------------

    def compile(
        self, poison: bool = False, variants: "dict[str, str] | None" = None
    ) -> "InferencePlan":
        """Compile the model into an :class:`~repro.deploy.plan.InferencePlan`.

        The plan fuses Conv+BN+ReLU / Add+ReLU chains (the exact kernel
        grouping :mod:`repro.latency.fusion` predicts), binds each fused
        kernel, and executes through one execution frame per batch size
        whose buffers follow a static release schedule over an arena.
        Compile once, then call ``plan.run(x)`` for repeated inference
        at the exported spatial input size.

        Parameters
        ----------
        poison:
            Debug mode — poison released arena buffers with NaN so a
            read-after-free in the plan corrupts outputs loudly.
        """
        from repro.deploy.plan import compile_plan

        return compile_plan(self.proto, self._weights, poison=poison, variants=variants)

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the model (see :meth:`ModelProto.fingerprint`)."""
        return self.proto.fingerprint()

    # -- execution ---------------------------------------------------------------

    def _execute(self, op: OperatorProto, inputs: list[np.ndarray]) -> np.ndarray:
        kind = op.op_type
        if kind == "Conv":
            out = _conv2d(inputs[0], self._param(op.name, "weight"), op.attrs)
            bias_key = f"{op.name}.bias"
            if bias_key in self._weights:
                # In-place broadcast add: _conv2d returned a fresh buffer.
                out += self._weights[bias_key][None, :, None, None]
            return out
        if kind == "BatchNormalization":
            return _batch_norm(
                inputs[0],
                self._param(op.name, "weight"),
                self._param(op.name, "bias"),
                self._param(op.name, "running_mean"),
                self._param(op.name, "running_var"),
            )
        if kind == "Relu":
            return np.maximum(inputs[0], 0.0)
        if kind == "MaxPool":
            return _max_pool(inputs[0], op.attrs)
        if kind == "GlobalAveragePool":
            return inputs[0].mean(axis=(2, 3), dtype=np.float32)
        if kind == "Flatten":
            return inputs[0].reshape(inputs[0].shape[0], -1)
        if kind == "Gemm":
            weight = self._param(op.name, "weight")  # (out, in)
            out = _as_f32(inputs[0] @ weight.T)
            bias_key = f"{op.name}.bias"
            if bias_key in self._weights:
                out += self._weights[bias_key]
            return out
        if kind == "Add":
            return _as_f32(inputs[0] + inputs[1])
        raise AssertionError(f"unreachable operator {kind}")  # pragma: no cover

    def run(self, x: np.ndarray, *, compiled: bool = False) -> np.ndarray:
        """Run inference on a batch.

        Parameters
        ----------
        x:
            ``(N, C, H, W)`` float input matching the model's input shape.
        compiled:
            Execute through a cached :class:`InferencePlan` instead of
            interpreter dispatch — compiled lazily on first use, then
            reused, so deploy callers get plan-level performance from
            the plain ``run`` API.  **Equivalence guarantee:** the
            compiled path agrees with the interpreted reference within
            ``rtol=1e-3, atol=1e-4`` for every architecture the
            exporter can emit (fp32 and quantized); this is enforced by
            the fuzzed suites in ``tests/test_deploy_plan.py`` and
            ``tests/test_serve.py``.  The compiled path requires the
            exported spatial input size (the interpreter accepts any
            H, W); it falls back with a clear error otherwise.

        Returns
        -------
        np.ndarray
            The output logits, shape ``(N, *output_shape)``.
        """
        if compiled:
            if self._plan is None:
                self._plan = self.compile()
            return self._plan.run(x)
        started = time.perf_counter()
        x = np.asarray(x, dtype=np.float32)
        expected_c = self.proto.input_shape[0]
        if x.ndim != 4 or x.shape[1] != expected_c:
            raise ValueError(
                f"expected input (N, {expected_c}, H, W), got shape {tuple(x.shape)}"
            )
        env: dict[str, np.ndarray] = {"input": x}
        result: np.ndarray | None = None
        for op in self.proto.operators:
            inputs = [env[name] for name in op.inputs]
            result = self._execute(op, inputs)
            env[op.outputs[0]] = result
        if result is None:
            raise ValueError("model has no operators")
        self.last_env_bytes = sum(v.nbytes for v in env.values())
        self._latency.observe(time.perf_counter() - started)
        return result

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax of the logits)."""
        return self.run(x).argmax(axis=1)

    def __repr__(self) -> str:
        return (f"OnnxliteRuntime(model={self.proto.name!r}, "
                f"ops={len(self.proto.operators)}, params={self.proto.parameter_count():,})")


def load_runtime(source: str | Path | bytes) -> OnnxliteRuntime:
    """Build a runtime from a file path or serialized bytes."""
    if isinstance(source, bytes):
        return OnnxliteRuntime(proto_from_bytes(source))
    return OnnxliteRuntime(load_model(source))

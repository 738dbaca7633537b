"""Compiled inference plans: arena-allocated, pre-bound fused kernels.

:func:`compile_plan` lowers a :class:`~repro.onnxlite.schema.ModelProto`
through the pass pipeline of :mod:`repro.deploy.passes` and binds every
fused operator to a concrete NumPy kernel at compile time:

- **no per-call dispatch** — each step is a kernel with its weights,
  geometry, and GEMM matrices captured as locals (BatchNorm already
  folded into the Conv weights, ReLU applied in-kernel);
- **static memory planning** — a liveness-derived release schedule
  recycles intermediate buffers through an :class:`Arena` the moment
  their last consumer has run, instead of keeping every activation for
  the whole forward pass;
- **execution frames** — the first run at a batch size walks that
  schedule once, draws every activation and workspace (padded inputs,
  im2col columns, Winograd tiles, int8 accumulators) from the arena,
  and binds each kernel to those arrays and their precomputed views.
  Later runs at that batch size copy the input in and replay the bound
  NumPy calls: no allocation, no buffer bookkeeping, no view building.

The interpreted :class:`~repro.deploy.runtime.OnnxliteRuntime` path is
kept unchanged as the independent reference implementation; equivalence
between the two (and :mod:`repro.nn`) is enforced by
``tests/test_deploy_plan.py``.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.obs as obs

from repro.deploy.frames import Kernel, fill_pad, node_const, pad_frame, windows
from repro.deploy.passes import (
    PlanNode,
    build_plan_nodes,
    compute_liveness,
    fuse_operators,
    infer_shapes,
    plan_quantization,
    toposort_nodes,
)
from repro.deploy.qkernels import (
    chunked_int_gemm,
    quantize_into,
    quantize_multiplier,
    quantize_multipliers,
    requantize,
)
from repro.deploy.weights import LazyWeightTable
from repro.deploy.winograd import WINOGRAD_VARIANT, bind_winograd_conv, winograd_eligible
from repro.latency.fusion import KERNEL_VARIANTS
from repro.onnxlite.schema import ModelProto

__all__ = [
    "Arena",
    "BATCH_MERGED_MAX_POSITIONS",
    "ConcurrentPlanError",
    "InferencePlan",
    "PlanStep",
    "compile_plan",
]

_INPUT = "input"

#: Positions-per-image threshold below which the *batched* Conv kernel
#: switches to the batch-merged GEMM layout.  Small spatial outputs make
#: the per-sample GEMM skinny (e.g. a 256-channel 2x2 stage is a
#: ``(256, 2304) @ (2304, 4)`` product — almost no N dimension to
#: amortize the K-panel loads over); merging the batch into the GEMM's N
#: dimension (``(C_out, Ckk) @ (Ckk, N*P)``) keeps the kernel saturated
#: and measures up to ~5x faster per image at batch 8-16.  Large spatial
#: outputs already saturate the GEMM and fit the per-sample working set
#: in cache, so they keep the channel-major per-sample loop (which also
#: stays bitwise-identical to the single-image path).  Mirrors the
#: ``MERGED_GEMM_MAX_POSITIONS`` crossover of the training substrate.
BATCH_MERGED_MAX_POSITIONS = 256


class ConcurrentPlanError(RuntimeError):
    """Two threads entered :meth:`InferencePlan.run` at the same time.

    A compiled plan owns one :class:`Arena`; concurrent runs would hand
    out the same scratch buffers twice and silently corrupt activations.
    The run guard turns that misuse into a loud error — for concurrent
    serving, give each worker its own replica via
    :meth:`InferencePlan.replicate` (what :class:`repro.serve.PlanCache`
    does) instead of sharing one plan.
    """


class Arena:
    """A pooling allocator for intermediate activation buffers.

    Buffers are flat byte arrays handed out as shaped, dtype-cast views
    (float32 by default; the integer kernel path draws uint8 activations
    and int32 accumulators from the same pool); released buffers return
    to a free pool and are reused by the smallest-fit candidate.  The
    free pool is kept sorted by capacity, so the smallest-fit lookup is
    a bisect + pop.

    A plan draws from its arena only while it builds an execution frame
    (see :class:`InferencePlan`): the build replays the release schedule
    once, so tensors whose lifetimes do not overlap share a buffer, and
    every buffer goes back to the pool when the build ends.  Frames of
    other batch sizes then reuse the same buffers — no frame keeps data
    from one run to the next — and runs themselves never touch the
    arena, so steady-state inference allocates nothing.

    Parameters
    ----------
    poison:
        Debug mode — released buffers are filled with 0xFF bytes (NaN
        when read as float32).  Frames replay the fill at run time:
        after each step, the buffers released at that step are filled,
        so a kernel reading a freed tensor corrupts the output and
        fails the equivalence tests instead of silently reading stale
        data.
    """

    def __init__(self, poison: bool = False) -> None:
        self.poison = poison
        #: Free pool of flat uint8 base buffers, kept sorted ascending by
        #: byte capacity; the parallel ``_free_sizes`` list is the bisect
        #: key.  Pooling bytes rather than elements lets a retired fp32
        #: activation come back as an int32 accumulator or 4x the uint8
        #: codes without fragmenting the pool by dtype.
        self._free: list[np.ndarray] = []
        self._free_sizes: list[int] = []
        self._live: dict[int, np.ndarray] = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        self.allocations = 0
        self.reuses = 0
        #: Bases released since the last :meth:`take_freed` (poison mode).
        self._freed: list[np.ndarray] = []

    def acquire(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A ``dtype`` buffer of ``shape`` (pooled when possible)."""
        dt = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dt.itemsize
        # Smallest fit = first pooled buffer with capacity >= nbytes.
        i = bisect.bisect_left(self._free_sizes, nbytes)
        if i < len(self._free):
            base = self._free.pop(i)
            self._free_sizes.pop(i)
            self.reuses += 1
        else:
            base = np.empty(nbytes, dtype=np.uint8)
            self.allocations += 1
        view = base[:nbytes].view(dt).reshape(shape)
        self._live[id(view)] = base
        self.current_bytes += base.nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        return view

    def release(self, view: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`acquire` to the pool."""
        base = self._live.pop(id(view), None)
        if base is None:
            raise KeyError("released a buffer the arena does not own (planner bug)")
        if self.poison:
            base.fill(0xFF)  # NaN as float32, -1 as int32, 255 as uint8
            self._freed.append(base)
        self.current_bytes -= base.nbytes
        i = bisect.bisect_left(self._free_sizes, base.size)
        self._free.insert(i, base)
        self._free_sizes.insert(i, base.size)

    def take_freed(self) -> list[np.ndarray]:
        """Bases released since the last call that are still pooled.

        Poison mode only (empty otherwise): a frame build calls this
        after each step to learn which buffers die there.
        """
        pooled = {id(b) for b in self._free}
        dead = list({id(b): b for b in self._freed if id(b) in pooled}.values())
        self._freed.clear()
        return dead

    @property
    def live_count(self) -> int:
        """Number of buffers currently handed out."""
        return len(self._live)

    @property
    def pooled_bytes(self) -> int:
        """Capacity currently parked in the free pool."""
        return sum(b.nbytes for b in self._free)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Arena(live={self.live_count}, pooled={len(self._free)}, "
                f"peak_bytes={self.peak_bytes:,}, allocs={self.allocations}, "
                f"reuses={self.reuses})")


@dataclass
class PlanStep:
    """One executable step: a bound kernel plus its release schedule.

    ``frame`` binds the kernel to one batch size's arrays and ``run``
    executes such a binding (see :class:`~repro.deploy.frames.Kernel`);
    the plan calls ``run`` once per step per :meth:`InferencePlan.run`.
    """

    name: str
    chain: tuple[str, ...]
    run: Callable[[tuple], None]
    frame: Callable[..., tuple]
    inputs: tuple[str, ...]
    output: str
    #: The kernel variant bound to this step — always a name from
    #: :data:`repro.latency.fusion.KERNEL_VARIANTS`, so predicted and
    #: executed kernels join on ``(op_type, variant)``.
    variant: str = ""
    #: Tensors whose buffers return to the arena after this step.
    release: list[str] = field(default_factory=list)
    #: Tensors never released on their own: their buffer was handed to
    #: this step's in-place output, which is released in their place.
    drop: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# kernel binding
# --------------------------------------------------------------------------
#
# Every binder returns a :class:`Kernel`.  Its ``frame`` draws buffers from
# the arena in the order the kernel uses them — a workspace is released as
# soon as the computation is done with it, so a later acquire in the same
# frame may alias it — and ``run`` replays the NumPy calls in that same
# order on the bound views.


def _bind_conv(node: PlanNode, in_shape, out_shape, arena: Arena) -> Kernel:
    """Bind a (fused) Conv node with batch-adaptive GEMM strategies.

    - ``N == 1`` — the original single-stream path: one channel-major
      ``(C_out, Ckk) @ (Ckk, P)`` product writing NCHW directly.
    - ``N > 1``, large spatial — a per-sample loop of the same product
      (bitwise-identical per image to the single-stream path; the
      per-sample column matrix stays cache-resident, which beats both
      NumPy's broadcast batched matmul and the merged layout here).
    - ``N > 1``, spatial <= :data:`BATCH_MERGED_MAX_POSITIONS` — the
      batch-merged layout: one ``(C_out, Ckk) @ (Ckk, N*P)`` product
      over a merged column matrix, then one transpose pass back to
      NCHW.  This is where batched serving earns its throughput.

    Padding is written border-only (the interior is fully overwritten by
    the input copy), saving a full memset of the padded buffer per call.
    """
    c_in, h, w = in_shape
    c_out, oh, ow = out_shape
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])
    padding = int(node.attrs["padding"])
    w_mat = node_const(node, "conv.w_mat", lambda: np.ascontiguousarray(
        node.fp32_weight().reshape(c_out, -1)))
    bias = node.weights.get("bias")
    bias_col = None if bias is None else node_const(
        node, "conv.bias", lambda: np.ascontiguousarray(bias.reshape(c_out, 1, 1)))
    relu = node.relu
    cols_rows = c_in * kernel * kernel
    spatial = oh * ow
    merged = spatial <= BATCH_MERGED_MAX_POSITIONS

    def frame(x: np.ndarray):
        n = x.shape[0]
        xp, pad = x, None
        if padding:
            xp, pad = pad_frame(arena, x, padding, h + 2 * padding, w + 2 * padding)
        win = windows(xp, kernel, stride)
        if n > 1 and merged:
            # Merged layout: column j of the GEMM is (sample j // P,
            # position j % P) — batch folded into the GEMM's N dimension.
            cols = arena.acquire((cols_rows, n * spatial))
            gather = (cols.reshape(c_in, kernel, kernel, n, oh, ow),
                      win.transpose(1, 4, 5, 0, 2, 3))
            if padding:
                arena.release(xp)
            om = arena.acquire((c_out, n, spatial))
            gemms = ((cols, om.reshape(c_out, n * spatial)),)
            arena.release(cols)
            out = arena.acquire((n, c_out, oh, ow))
            # bias (C_out, 1, 1) broadcasts over om's (C_out, N, P).
            scatter = (out.reshape(n, c_out, spatial), om.transpose(1, 0, 2))
            arena.release(om)
            return (pad, gather, gemms, om, scatter), out
        cols = arena.acquire((n, cols_rows, spatial))
        gather = (cols.reshape(n, c_in, kernel, kernel, oh, ow), win.transpose(0, 1, 4, 5, 2, 3))
        if padding:
            arena.release(xp)
        out = arena.acquire((n, c_out, oh, ow))
        out_mat = out.reshape(n, c_out, spatial)
        # Per-sample products for N > 1: identical GEMM shape to the
        # N == 1 path (bitwise-equal per image) and the per-sample column
        # matrix stays hot in cache across the loop.
        gemms = ((cols, out_mat),) if n == 1 else tuple(zip(cols, out_mat))
        arena.release(cols)
        return (pad, gather, gemms, out, None), out

    def run(bound: tuple) -> None:
        pad, gather, gemms, acc, scatter = bound
        if pad is not None:
            fill_pad(pad, 0.0)
        np.copyto(*gather)
        for cols, dst in gemms:
            np.matmul(w_mat, cols, out=dst)
        if bias_col is not None:
            acc += bias_col
        if relu:
            np.maximum(acc, 0.0, out=acc)
        if scatter is not None:
            np.copyto(*scatter)

    return Kernel(run, frame)


def _bind_gemm(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    # (in, out) layout; cached on the node so plan replicas share one
    # transposed copy instead of materializing it per bind.
    weight_t = node.weights.get("weight_t")
    if weight_t is None:
        weight_t = np.ascontiguousarray(node.fp32_weight().T)
        node.weights["weight_t"] = weight_t
    bias = node.weights.get("bias")
    relu = node.relu

    def run(bound: tuple) -> None:
        x, out = bound
        np.matmul(x, weight_t, out=out)
        if bias is not None:
            out += bias
        if relu:
            np.maximum(out, 0.0, out=out)

    return Kernel(run, _fresh_output_frame(arena, out_shape))


def _fresh_output_frame(arena: Arena, out_shape, dtype=np.float32):
    """Frame binder of a one-input kernel writing a new ``(N, *out_shape)`` buffer."""

    def frame(x: np.ndarray):
        out = arena.acquire((x.shape[0], *out_shape), dtype)
        return (x, out), out

    return frame


def _inplace_frame(arena: Arena, inplace: bool, dtype=np.float32):
    """Frame binder of an elementwise kernel that may overwrite its input."""

    def frame(x: np.ndarray):
        out = x if inplace else arena.acquire(x.shape, dtype)
        return (x, out), out

    return frame


def _bind_batch_norm(node: PlanNode, arena: Arena, inplace: bool) -> Kernel:
    scale = node_const(node, "bn.scale", lambda: node.weights["scale"].reshape(-1, 1, 1))
    shift = node_const(node, "bn.shift", lambda: node.weights["shift"].reshape(-1, 1, 1))
    relu = node.relu

    def run(bound: tuple) -> None:
        x, out = bound
        np.multiply(x, scale, out=out)
        out += shift
        if relu:
            np.maximum(out, 0.0, out=out)

    return Kernel(run, _inplace_frame(arena, inplace))


def _bind_relu(node: PlanNode, arena: Arena, inplace: bool) -> Kernel:
    def run(bound: tuple) -> None:
        x, out = bound
        np.maximum(x, 0.0, out=out)

    return Kernel(run, _inplace_frame(arena, inplace))


def _add_frame(node: PlanNode, arena: Arena, inplace_name: str | None, dtype=np.float32):
    """Frame binder of a residual Add, optionally writing over one operand."""
    inplace = None if inplace_name is None else node.inputs.index(inplace_name)

    def frame(a: np.ndarray, b: np.ndarray):
        out = (a, b)[inplace] if inplace is not None else arena.acquire(a.shape, dtype)
        return (a, b, out), out

    return frame


def _bind_add(node: PlanNode, arena: Arena, inplace_name: str | None) -> Kernel:
    relu = node.relu

    def run(bound: tuple) -> None:
        a, b, out = bound
        np.add(a, b, out=out)
        if relu:
            np.maximum(out, 0.0, out=out)

    return Kernel(run, _add_frame(node, arena, inplace_name))


def _pool_frame(node: PlanNode, out_shape, arena: Arena, dtype=np.float32):
    """Frame binder of a windowed pool: the window view plus a new output."""
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])

    def frame(x: np.ndarray):
        out = arena.acquire((x.shape[0], *out_shape), dtype)
        return (windows(x, kernel, stride), out), out

    return frame


def _bind_max_pool(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    average = bool(node.attrs.get("average"))

    def run(bound: tuple) -> None:
        win, out = bound
        if average:
            np.mean(win, axis=(-2, -1), dtype=np.float32, out=out)
        else:
            np.max(win, axis=(-2, -1), out=out)

    return Kernel(run, _pool_frame(node, out_shape, arena))


def _bind_global_avg_pool(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    def run(bound: tuple) -> None:
        x, out = bound
        np.mean(x, axis=(2, 3), dtype=np.float32, out=out)

    return Kernel(run, _fresh_output_frame(arena, out_shape))


def _flatten_frame(out_shape, arena: Arena, dtype=np.float32):
    """Frame binder of a Flatten: a flat view of the input plus a new output."""
    flat = out_shape[0]

    def frame(x: np.ndarray):
        n = x.shape[0]
        out = arena.acquire((n, flat), dtype)
        return (x.reshape((n, flat), copy=False), out), out

    return frame


def _bind_flatten(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    def run(bound: tuple) -> None:
        np.copyto(bound[1], bound[0])

    return Kernel(run, _flatten_frame(out_shape, arena))


# --------------------------------------------------------------------------
# integer kernel binding
# --------------------------------------------------------------------------


def _quantized_codes_matrix(node: PlanNode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node's weight codes in GEMM form, cached across plan replicas.

    Returns ``(codes_f32, scales, row_sums)``: the int8 codes flattened
    to ``(C_out, K)`` and pre-converted to float32 (the carrier dtype of
    the exact SGEMM trick — see :mod:`repro.deploy.qkernels`), the
    per-output-channel scales (float64), and the per-row code sums used
    by the zero-point fold.  No ``dequantized()`` call happens here: the
    f32 matrix holds integer *codes*, not reconstructed weights, so the
    lazy-weight invariant (zero dequantized fp32 copies on the quantized
    path) is preserved.
    """
    mat = node.weights.get("w_codes_f32")
    if mat is None:
        qw = node.qweight
        mat = np.ascontiguousarray(qw.data.reshape(qw.data.shape[0], -1).astype(np.float32))
        node.weights["w_codes_f32"] = mat
        node.weights["w_scales"] = qw.channel_scales()
        node.weights["w_row_sums"] = mat.sum(axis=1, dtype=np.float64)
    return mat, node.weights["w_scales"], node.weights["w_row_sums"]


def _make_int_epilogue(node: PlanNode, s_in: float, s_w: np.ndarray, arena: Arena):
    """Epilogue of integer Conv/Gemm accumulators, as a frame/run pair.

    Maps the exact ``(C, M)`` float64 accumulator (zero-point already
    folded, bias not yet) to the kernel's output matrix ``om``:

    - quantized output (``qconfig["output"]`` set): int32 bias fold +
      gemmlowp fixed-point requantization to uint8 codes (fused ReLU is
      a clamp at the output zero point);
    - float32 epilogue (``output`` is None): per-channel dequant scale
      ``s_in * s_w[c]`` plus the fp32 bias and ReLU.

    Returns ``(frame, run, out_dtype)``; ``frame(acc)`` takes ownership
    of (and releases) ``acc`` and returns ``(bound, om)``.
    """
    q_out = node.qconfig["output"]
    bias = node.weights.get("bias")
    relu = node.relu
    if q_out is not None:
        m0, shift = node_const(
            node, "int.multipliers", lambda: quantize_multipliers(s_in * s_w / q_out.scale))
        zp_out = int(q_out.zero_point)
        bias_q = None if bias is None else node_const(
            node, "int.bias_q", lambda: np.round(bias.astype(np.float64) / (s_in * s_w))[:, None])

        def frame(acc: np.ndarray):
            acc_i64 = arena.acquire(acc.shape, np.int64)
            arena.release(acc)
            om = arena.acquire(acc_i64.shape, np.uint8)
            arena.release(acc_i64)
            return (acc, acc_i64, om), om

        def run(bound: tuple) -> None:
            acc, acc_i64, om = bound
            if bias_q is not None:
                acc += bias_q
            np.copyto(acc_i64, acc, casting="unsafe")
            requantize(acc_i64, m0, shift, zp_out, relu=relu, out=om, axis=0)

        return frame, run, np.uint8

    scale_col = node_const(node, "int.scale_col", lambda: (s_in * s_w)[:, None])  # f64 (C, 1)
    bias_col = None if bias is None else node_const(
        node, "int.bias", lambda: np.ascontiguousarray(bias.astype(np.float32)[:, None]))

    def frame(acc: np.ndarray):
        om = arena.acquire(acc.shape)
        arena.release(acc)
        return (acc, om), om

    def run(bound: tuple) -> None:
        acc, om = bound
        np.multiply(acc, scale_col, out=om)
        if bias_col is not None:
            om += bias_col
        if relu:
            np.maximum(om, 0.0, out=om)

    return frame, run, np.float32


def _bind_qconv(node: PlanNode, in_shape, out_shape, arena: Arena, in_form: str) -> Kernel:
    """Bind a (fused) Conv to the true-int8 QLinearConv-style kernel.

    The activation side runs in the quantized domain end to end: uint8
    codes in (quantized on the fly when the producer is fp32), a merged
    im2col over codes with the padding filled at the input *zero point*,
    the exact chunked integer GEMM of :mod:`repro.deploy.qkernels`, and
    either a requantized uint8 output (when every consumer reads codes)
    or a float32 epilogue.  BatchNorm is already folded into the integer
    weights by :func:`repro.deploy.passes.fold_batch_norm`; fused ReLU
    rides the epilogue.
    """
    c_in, h, w = in_shape
    c_out, oh, ow = out_shape
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])
    padding = int(node.attrs["padding"])
    q_in = node.qconfig["input"]
    s_in, zp_in = float(q_in.scale), int(q_in.zero_point)
    w_mat, s_w, row_sums = _quantized_codes_matrix(node)
    epilogue_frame, epilogue, out_dtype = _make_int_epilogue(node, s_in, s_w, arena)
    zp_term = node_const(node, "int.zp_term", lambda: (zp_in * row_sums)[:, None])  # f64, exact
    cols_rows = c_in * kernel * kernel
    spatial = oh * ow

    def frame(x: np.ndarray):
        n = x.shape[0]
        codes, quant = x, None
        if in_form != "u8":
            codes = arena.acquire((n, c_in, h, w), np.uint8)
            scratch = arena.acquire((n, c_in, h, w))
            quant = (x, codes, scratch)
            arena.release(scratch)
        xp, pad = codes, None
        if padding:
            # Border fill at the input zero point (the integer
            # representation of 0.0), interior copied from the codes.
            xp, pad = pad_frame(arena, codes, padding, h + 2 * padding, w + 2 * padding,
                                np.uint8)
            if in_form != "u8":
                arena.release(codes)
        # Merged im2col straight into integer-valued float32 (the cast
        # fuses into the gather copy; K-panels then slice with no copy).
        cols = arena.acquire((cols_rows, n * spatial))
        gather = (cols.reshape(c_in, kernel, kernel, n, oh, ow),
                  windows(xp, kernel, stride).transpose(1, 4, 5, 0, 2, 3))
        if padding or in_form != "u8":
            arena.release(xp)
        acc = arena.acquire((c_out, n * spatial), np.float64)
        part = arena.acquire((c_out, n * spatial))
        arena.release(cols)
        arena.release(part)
        epi, om = epilogue_frame(acc)
        out = arena.acquire((n, c_out, oh, ow), out_dtype)
        scatter = (out.reshape(n, c_out, spatial),
                   om.reshape(c_out, n, spatial).transpose(1, 0, 2))
        arena.release(om)
        return (quant, pad, gather, cols, acc, part, epi, scatter), out

    def run(bound: tuple) -> None:
        quant, pad, gather, cols, acc, part, epi, scatter = bound
        if quant is not None:
            x, codes, scratch = quant
            quantize_into(x, s_in, zp_in, codes, scratch)
        if pad is not None:
            fill_pad(pad, zp_in)
        np.copyto(*gather)
        chunked_int_gemm(w_mat, cols, acc, part)
        acc -= zp_term
        epilogue(epi)
        np.copyto(*scatter)

    return Kernel(run, frame)


def _bind_qgemm(node: PlanNode, in_shape, out_shape, arena: Arena, in_form: str) -> Kernel:
    """Bind a Gemm to the int8 kernel (same recipe as :func:`_bind_qconv`)."""
    k_in = in_shape[0]
    out_features = out_shape[0]
    q_in = node.qconfig["input"]
    s_in, zp_in = float(q_in.scale), int(q_in.zero_point)
    w_mat, s_w, row_sums = _quantized_codes_matrix(node)
    epilogue_frame, epilogue, out_dtype = _make_int_epilogue(node, s_in, s_w, arena)
    zp_term = node_const(node, "int.zp_term", lambda: (zp_in * row_sums)[:, None])

    def frame(x: np.ndarray):
        n = x.shape[0]
        cols = arena.acquire((k_in, n))
        if in_form == "u8":
            quant, gather = None, (cols, x.T)
        else:
            q = arena.acquire((n, k_in))
            quant, gather = (x, q), (cols, q.T)
            arena.release(q)
        acc = arena.acquire((out_features, n), np.float64)
        part = arena.acquire((out_features, n))
        arena.release(cols)
        arena.release(part)
        epi, om = epilogue_frame(acc)
        out = arena.acquire((n, out_features), out_dtype)
        scatter = (out, om.T)
        arena.release(om)
        return (quant, gather, cols, acc, part, epi, scatter), out

    def run(bound: tuple) -> None:
        quant, gather, cols, acc, part, epi, scatter = bound
        if quant is not None:
            x, q = quant
            np.divide(x, s_in, out=q)
            np.rint(q, out=q)
            q += zp_in
            np.clip(q, 0.0, 255.0, out=q)
        np.copyto(*gather)
        chunked_int_gemm(w_mat, cols, acc, part)
        acc -= zp_term
        epilogue(epi)
        np.copyto(*scatter)

    return Kernel(run, frame)


def _bind_qadd(node: PlanNode, arena: Arena, inplace_name: str | None) -> Kernel:
    """Bind a residual Add over uint8 inputs.

    With a quantized output the two operands are rescaled onto the
    output grid by independent fixed-point multipliers and summed in
    int64 (each term rounds once — a <= 1 ULP difference from the
    fp32 reference, inside the certification tolerance).  With a float32
    epilogue both operands dequantize and the add runs in fp32.
    """
    q_a, q_b = node.qconfig["input"], node.qconfig["input_b"]
    q_out = node.qconfig["output"]
    relu = node.relu
    za, zb = int(q_a.zero_point), int(q_b.zero_point)

    if q_out is not None:
        m0a, sha = quantize_multiplier(q_a.scale / q_out.scale)
        m0b, shb = quantize_multiplier(q_b.scale / q_out.scale)
        ta, tb = 31 + sha, 31 + shb
        zo = int(q_out.zero_point)
        lo = zo if relu else 0

        def run(bound: tuple) -> None:
            a, b, out = bound
            ra = (a.astype(np.int64) - za) * m0a
            ra += 1 << (ta - 1)
            ra >>= ta
            rb = (b.astype(np.int64) - zb) * m0b
            rb += 1 << (tb - 1)
            rb >>= tb
            ra += rb
            ra += zo
            np.clip(ra, lo, 255, out=ra)
            out[...] = ra

        return Kernel(run, _add_frame(node, arena, inplace_name, np.uint8))

    sa, sb = float(q_a.scale), float(q_b.scale)

    def frame(a: np.ndarray, b: np.ndarray):
        out = arena.acquire(a.shape)
        tmp = arena.acquire(b.shape)
        arena.release(tmp)
        return (a, b, out, tmp), out

    def run(bound: tuple) -> None:
        a, b, out, tmp = bound
        out[...] = a
        out -= za
        out *= sa
        tmp[...] = b
        tmp -= zb
        tmp *= sb
        out += tmp
        if relu:
            np.maximum(out, 0.0, out=out)

    return Kernel(run, frame)


def _dequant_epilogue(out: np.ndarray, scale: float, zero_point: int) -> np.ndarray:
    """In-place affine map from codes (already cast to f32) to values."""
    out -= zero_point
    out *= scale
    return out


def _bind_qmax_pool(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    """MaxPool over uint8 codes (max commutes with the affine map)."""
    q_in = node.qconfig["input"]
    q_out = node.qconfig["output"]
    s, zp = float(q_in.scale), int(q_in.zero_point)

    def run(bound: tuple) -> None:
        win, out = bound
        np.max(win, axis=(-2, -1), out=out)
        if q_out is None:
            _dequant_epilogue(out, s, zp)

    dtype = np.uint8 if q_out is not None else np.float32
    return Kernel(run, _pool_frame(node, out_shape, arena, dtype))


def _bind_qrelu(node: PlanNode, arena: Arena, inplace: bool) -> Kernel:
    """Standalone ReLU on codes: a clamp at the input zero point."""
    q_in = node.qconfig["input"]
    q_out = node.qconfig["output"]
    s, zp = float(q_in.scale), int(q_in.zero_point)

    def run(bound: tuple) -> None:
        x, out = bound
        np.maximum(x, zp, out=out)
        if q_out is None:
            _dequant_epilogue(out, s, zp)

    if q_out is not None:
        return Kernel(run, _inplace_frame(arena, inplace, np.uint8))
    return Kernel(run, _inplace_frame(arena, False))


def _bind_qflatten(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    """Flatten on codes: a reshape copy (plus dequant when leaving u8)."""
    q_in = node.qconfig["input"]
    q_out = node.qconfig["output"]
    s, zp = float(q_in.scale), int(q_in.zero_point)

    def run(bound: tuple) -> None:
        x, out = bound
        np.copyto(out, x)
        if q_out is None:
            _dequant_epilogue(out, s, zp)

    dtype = np.uint8 if q_out is not None else np.float32
    return Kernel(run, _flatten_frame(out_shape, arena, dtype))


def _bind_qgap(node: PlanNode, out_shape, arena: Arena) -> Kernel:
    """GlobalAveragePool over codes, emitting float32.

    The code sum over a <= 24x24 tile is at most 576 * 255 < 2^24, so a
    float32 accumulation is exact; only the final divide rounds.
    """
    q_in = node.qconfig["input"]
    s, zp = float(q_in.scale), int(q_in.zero_point)

    def run(bound: tuple) -> None:
        x, out = bound
        np.mean(x, axis=(2, 3), dtype=np.float32, out=out)
        _dequant_epilogue(out, s, zp)

    return Kernel(run, _fresh_output_frame(arena, out_shape))


#: Default integer variant per lead op type (when the quantization
#: planner marked the node integer and no explicit choice overrides it).
_INTEGER_VARIANTS = {
    "Conv": "conv.im2col.int8",
    "Gemm": "gemm.int8",
    "Add": "add.int8",
    "MaxPool": "maxpool.u8",
    "GlobalAveragePool": "gap.u8",
    "Flatten": "flatten.u8",
    "Relu": "relu.u8",
}


def _resolve_variants(
    nodes: list[PlanNode], variant_map: dict[str, str]
) -> dict[str, str]:
    """Final node -> kernel-variant assignment.

    Explicit choices (autotuner decisions, test overrides) are validated
    against :data:`~repro.latency.fusion.KERNEL_VARIANTS` and the node's
    geometry; everything else defaults to the integer variant when
    :func:`~repro.deploy.passes.plan_quantization` marked the node
    integer, and to the op's fp32 variant otherwise.
    """
    resolved: dict[str, str] = {}
    for node in nodes:
        allowed = KERNEL_VARIANTS.get(node.op_type, ())
        forced = variant_map.get(node.name)
        if forced is not None:
            if forced not in allowed:
                raise ValueError(
                    f"unknown variant {forced!r} for {node.op_type} node "
                    f"{node.name!r}; expected one of {allowed}"
                )
            if forced == WINOGRAD_VARIANT and not winograd_eligible(node.attrs):
                raise ValueError(
                    f"{node.name!r} is not Winograd-eligible (needs a stride-1 "
                    f"3x3 conv), got attrs {node.attrs}"
                )
            resolved[node.name] = forced
        elif node.qconfig:
            resolved[node.name] = _INTEGER_VARIANTS[node.op_type]
        else:
            resolved[node.name] = allowed[0] if allowed else f"{node.op_type.lower()}.f32"
    return resolved


def _bind_step(
    node: PlanNode,
    step: int,
    shapes: dict[str, tuple[int, ...]],
    release: list[list[str]],
    arena: Arena,
    forms: dict[str, str],
    variants: dict[str, str],
) -> PlanStep:
    """Resolve one fused node to a bound kernel + release schedule."""
    in_shape = shapes[node.inputs[0]]
    out_shape = shapes[node.output]
    kind = node.op_type
    variant = variants.get(node.name, "")
    in_form = forms.get(node.inputs[0], "f32")
    out_form = forms.get(node.output, "f32")
    drop: list[str] = []

    def claim_inplace() -> str | None:
        """Steal a dying, arena-owned input buffer for the output.

        Requires a matching carrier form: a uint8 code buffer must never
        be recycled in place as a float32 output (or vice versa) — the
        byte capacities differ and the view dtypes would lie.
        """
        for name in node.inputs:
            if (
                name != _INPUT
                and name in release[step]
                and shapes[name] == out_shape
                and forms.get(name, "f32") == out_form
            ):
                release[step].remove(name)
                drop.append(name)
                return name
        return None

    if kind == "Conv":
        if variant == "conv.im2col.int8":
            kernel = _bind_qconv(node, in_shape, out_shape, arena, in_form)
        elif variant == WINOGRAD_VARIANT:
            kernel = bind_winograd_conv(node, in_shape, out_shape, arena)
        else:
            kernel = _bind_conv(node, in_shape, out_shape, arena)
    elif kind == "Gemm":
        if variant == "gemm.int8":
            kernel = _bind_qgemm(node, in_shape, out_shape, arena, in_form)
        else:
            kernel = _bind_gemm(node, out_shape, arena)
    elif kind == "BatchNormalization":
        kernel = _bind_batch_norm(node, arena, inplace=claim_inplace() is not None)
    elif kind == "Relu":
        if variant == "relu.u8":
            kernel = _bind_qrelu(node, arena, inplace=claim_inplace() is not None)
        else:
            kernel = _bind_relu(node, arena, inplace=claim_inplace() is not None)
    elif kind == "Add":
        if variant == "add.int8":
            kernel = _bind_qadd(node, arena, inplace_name=claim_inplace())
        else:
            kernel = _bind_add(node, arena, inplace_name=claim_inplace())
    elif kind == "MaxPool":
        if variant == "maxpool.u8":
            kernel = _bind_qmax_pool(node, out_shape, arena)
        else:
            kernel = _bind_max_pool(node, out_shape, arena)
    elif kind == "GlobalAveragePool":
        if variant == "gap.u8":
            kernel = _bind_qgap(node, out_shape, arena)
        else:
            kernel = _bind_global_avg_pool(node, out_shape, arena)
    elif kind == "Flatten":
        if variant == "flatten.u8":
            kernel = _bind_qflatten(node, out_shape, arena)
        else:
            kernel = _bind_flatten(node, out_shape, arena)
    else:  # pragma: no cover - guarded by runtime op validation
        raise ValueError(f"cannot bind kernel for operator {kind!r}")

    return PlanStep(
        name=node.name,
        chain=node.chain,
        run=kernel.run,
        frame=kernel.frame,
        inputs=tuple(node.inputs),
        output=node.output,
        variant=variant,
        release=release[step],
        drop=drop,
    )


# --------------------------------------------------------------------------
# the plan
# --------------------------------------------------------------------------


@dataclass
class _Frame:
    """One batch size's bindings: every step's arrays, fixed at build time."""

    input: np.ndarray
    output: np.ndarray
    #: ``steps[i].run(bound[i])`` executes step ``i``.
    bound: list[tuple]
    #: Per step, the ``repro_plan_step_seconds`` histogram.
    timers: list
    #: Per step, the buffers to NaN-fill after it runs (poison mode).
    dead: list[list[np.ndarray]]


class InferencePlan:
    """A compiled model: fused, pre-bound kernels over an arena.

    Built by :func:`compile_plan` (or
    :meth:`repro.deploy.runtime.OnnxliteRuntime.compile`); run with
    :meth:`run`.  The plan is specialized to the model's compile-time
    spatial input shape — only the batch dimension is dynamic.  The
    first run at each batch size builds that size's execution frame
    (every buffer drawn from the arena and bound to its kernel); later
    runs at that size allocate nothing and bind nothing.
    """

    def __init__(
        self,
        name: str,
        input_shape: tuple[int, ...],
        steps: list[PlanStep],
        arena: Arena,
        shapes: dict[str, tuple[int, ...]],
        final_output: str,
        naive_tensor_shapes: list[tuple[int, ...]],
        blueprint: "_PlanBlueprint | None" = None,
        fingerprint: str = "",
    ) -> None:
        self.name = name
        self.input_shape = tuple(int(d) for d in input_shape)
        self.steps = steps
        self.arena = arena
        self.shapes = shapes
        self.final_output = final_output
        #: Stable identity of the compiled model (weights + topology);
        #: the serving plan cache keys on ``(fingerprint, batch bucket)``.
        self.fingerprint = fingerprint
        self._blueprint = blueprint
        self._naive_tensor_shapes = naive_tensor_shapes
        #: Execution frames by batch size, built on first use.
        self._frames: dict[int, _Frame] = {}
        # Re-entrancy guard: frames share one arena's buffers, so run()
        # must never be entered concurrently; the non-blocking lock turns
        # such misuse into ConcurrentPlanError instead of silent corruption.
        self._run_guard = threading.Lock()
        # Per-plan inference latency histogram (no-op while obs is
        # disabled; handle cached here so run() pays one flag check).
        self._latency = obs.histogram(
            "repro_inference_latency_seconds", plan=name, runtime="compiled"
        )

    # -- execution -------------------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        """Run inference on a batch of the compiled input shape.

        Not thread-safe: the plan's frames share one :class:`Arena`'s
        buffers, so concurrent calls on the *same* plan raise
        :class:`ConcurrentPlanError`.  For parallel serving, hand each
        worker its own :meth:`replicate` (weights stay shared; arenas
        are private).
        """
        started = time.perf_counter()
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"plan compiled for input (N, {', '.join(map(str, self.input_shape))}); "
                f"got shape {tuple(x.shape)} — use the interpreted runtime for "
                f"other spatial sizes"
            )
        if not self._run_guard.acquire(blocking=False):
            raise ConcurrentPlanError(
                f"InferencePlan {self.name!r} entered concurrently; plans are "
                f"single-threaded — use InferencePlan.replicate() (or "
                f"repro.serve.PlanServer) to run batches in parallel"
            )
        try:
            frame = self._frames.get(x.shape[0])
            if frame is None:
                frame = self._frames[x.shape[0]] = self._build_frame(x.shape[0])
            np.copyto(frame.input, x)
            if self.arena.poison or obs.enabled():
                self._run_instrumented(frame)
            else:
                for step, bound in zip(self.steps, frame.bound):
                    step.run(bound)
            out = frame.output.copy()
        finally:
            self._run_guard.release()
        self._latency.observe(time.perf_counter() - started)
        return out

    def _run_instrumented(self, frame: _Frame) -> None:
        """The step loop with per-step timing and poison fills."""
        clock = time.perf_counter
        for step, bound, timer, dead in zip(self.steps, frame.bound, frame.timers, frame.dead):
            started = clock()
            step.run(bound)
            timer.observe(clock() - started)
            for base in dead:
                base.fill(0xFF)

    def _build_frame(self, n: int) -> _Frame:
        """Walk the release schedule once, binding every step at batch ``n``."""
        arena = self.arena
        arena.take_freed()
        views = {_INPUT: arena.acquire((n, *self.input_shape))}
        bound: list[tuple] = []
        dead: list[list[np.ndarray]] = []
        for step in self.steps:
            args, views[step.output] = step.frame(*(views[name] for name in step.inputs))
            bound.append(args)
            for name in step.release:
                arena.release(views[name])
            dead.append(arena.take_freed())
        frame = _Frame(
            input=views[_INPUT],
            output=views[self.final_output],
            bound=bound,
            timers=[
                obs.histogram("repro_plan_step_seconds", plan=self.name, step=step.name,
                              op_type=step.chain[0], variant=step.variant)
                for step in self.steps
            ],
            dead=dead,
        )
        # Nothing outlives a run, so every buffer returns to the pool for
        # the other batch sizes' frames to share.
        arena.release(frame.input)
        arena.release(frame.output)
        arena.take_freed()
        return frame

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax of the logits)."""
        return self.run(x).argmax(axis=1)

    # -- replication ----------------------------------------------------------

    def replicate(self, poison: bool | None = None) -> "InferencePlan":
        """A new plan over the *same weights* with a private arena.

        Replicas are how concurrent serving scales out: the fused
        weight matrices are captured by reference when the blueprint
        re-binds its kernels (``ascontiguousarray`` on the already
        contiguous folded weights is a no-copy pass-through), so N
        replicas cost N arenas of activation scratch but only one copy
        of the model parameters.

        Parameters
        ----------
        poison:
            Debug NaN-poisoning for the replica's arena; defaults to the
            source plan's setting.
        """
        if self._blueprint is None:
            raise ValueError(
                "plan was constructed without a blueprint and cannot be "
                "replicated; build it via compile_plan()"
            )
        if poison is None:
            poison = self.arena.poison
        return self._blueprint.bind(poison=poison)

    # -- introspection --------------------------------------------------------------

    @property
    def blueprint(self) -> "_PlanBlueprint | None":
        """The bind-time blueprint (``None`` for hand-built plans).

        Exposed for the serving tier: :mod:`repro.serve.shm` publishes
        the blueprint's node weight table into shared memory and rebinds
        it in worker processes onto zero-copy views, so replicas in
        *other processes* cost arenas only — the same deal
        :meth:`replicate` gives threads.
        """
        return self._blueprint

    @property
    def num_kernels(self) -> int:
        """Number of compiled dispatches per forward pass."""
        return len(self.steps)

    def kernel_chains(self) -> list[tuple[str, ...]]:
        """The fused op-type chain of every step, in execution order."""
        return [step.chain for step in self.steps]

    def kernel_variants(self) -> dict[str, str]:
        """Step name -> bound kernel-variant name, in execution order.

        Every value is a member of
        :data:`repro.latency.fusion.KERNEL_VARIANTS` — the contract that
        keeps latency/energy prediction and execution joined.
        """
        return {step.name: step.variant for step in self.steps}

    def planned_peak_bytes(self, batch: int = 1) -> int:
        """Static peak of live intermediate bytes under the release plan."""
        live: dict[str, int] = {}
        peak = 0
        for step in self.steps:
            live[step.output] = 4 * batch * int(math.prod(self.shapes[step.output]))
            peak = max(peak, sum(live.values()))
            for name in (*step.release, *step.drop):
                live.pop(name, None)
        return peak

    def naive_env_bytes(self, batch: int = 1) -> int:
        """Bytes the interpreted runtime keeps live (every activation)."""
        return sum(4 * batch * int(math.prod(s)) for s in self._naive_tensor_shapes)

    def memory_stats(self) -> dict[str, int]:
        """Arena counters (measured over all runs so far)."""
        return {
            "peak_bytes": self.arena.peak_bytes,
            "current_bytes": self.arena.current_bytes,
            "pooled_bytes": self.arena.pooled_bytes,
            "allocations": self.arena.allocations,
            "reuses": self.arena.reuses,
        }

    def describe(self) -> str:
        """Human-readable step table (kernel chain, shapes, releases)."""
        lines = [f"InferencePlan {self.name!r}: {self.num_kernels} kernels, "
                 f"input (N, {', '.join(map(str, self.input_shape))})"]
        for step in self.steps:
            chain = "+".join(step.chain)
            out_shape = "x".join(map(str, self.shapes[step.output]))
            freed = f"  frees {sorted(step.release)}" if step.release else ""
            inplace = f"  in-place on {step.drop[0]!r}" if step.drop else ""
            lines.append(
                f"  {step.name:32s} {chain:34s} {step.variant:22s} -> "
                f"{out_shape}{freed}{inplace}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"InferencePlan(model={self.name!r}, kernels={self.num_kernels}, "
                f"input_shape={self.input_shape})")


@dataclass
class _PlanBlueprint:
    """Everything needed to (re)bind an :class:`InferencePlan`.

    :func:`compile_plan` runs the pass pipeline once and parks the
    result here; :meth:`bind` then stamps out executable plans — the
    original and any :meth:`InferencePlan.replicate` replicas — each
    with a private :class:`Arena` but sharing the fused weight arrays
    held by the :class:`~repro.deploy.passes.PlanNode` list.
    """

    name: str
    input_shape: tuple[int, ...]
    nodes: list[PlanNode]
    shapes: dict[str, tuple[int, ...]]
    #: Pristine liveness schedule; bind() hands each plan its own copy
    #: because ``claim_inplace`` mutates the per-step release lists.
    release: list[list[str]]
    final_output: str
    naive_tensor_shapes: list[tuple[int, ...]]
    fingerprint: str
    #: Per-tensor carrier form ("u8" | "f32") from plan_quantization.
    forms: dict[str, str] = field(default_factory=dict)
    #: Resolved node -> kernel-variant assignment; replicas re-bind the
    #: exact same variants, so autotune decisions survive replication.
    variants: dict[str, str] = field(default_factory=dict)

    def bind(self, poison: bool = False) -> InferencePlan:
        """Bind the kernels to a fresh arena and return a runnable plan."""
        arena = Arena(poison=poison)
        release = [list(names) for names in self.release]
        steps = [
            _bind_step(node, i, self.shapes, release, arena, self.forms, self.variants)
            for i, node in enumerate(self.nodes)
        ]
        return InferencePlan(
            name=self.name,
            input_shape=self.input_shape,
            steps=steps,
            arena=arena,
            shapes=self.shapes,
            final_output=self.final_output,
            naive_tensor_shapes=self.naive_tensor_shapes,
            blueprint=self,
            fingerprint=self.fingerprint,
        )


def compile_plan(
    proto: ModelProto,
    weights: dict[str, np.ndarray] | None = None,
    *,
    poison: bool = False,
    variants: "dict[str, str] | None" = None,
) -> InferencePlan:
    """Compile a model proto into an :class:`InferencePlan`.

    Parameters
    ----------
    proto:
        The deserialized model.  Quantized payloads stay as integer codes
        and are dequantized lazily, per consumer — only layers bound to
        an fp32 kernel variant materialize an fp32 weight copy.  A model
        carrying an activation-calibration table (see
        :func:`repro.quant.calibrate.calibrate_activations`) compiles
        its eligible layers onto the true-int8 kernel path by default.
    weights:
        Optional initializer table (name -> float32 array, or a
        :class:`~repro.deploy.weights.LazyWeightTable`);
        :class:`~repro.deploy.runtime.OnnxliteRuntime` passes its own so
        the two paths share one load step.
    poison:
        Debug mode: fill released arena buffers with NaN to surface any
        read-after-free in the release schedule (see :class:`Arena`).
    variants:
        Optional node-name -> kernel-variant overrides (names from
        :data:`repro.latency.fusion.KERNEL_VARIANTS`) — how autotune
        decisions and A/B comparisons pick non-default kernels, e.g.
        ``{"features.0": "conv.winograd2x2.f32"}``.  Unknown names,
        ineligible geometry, or an integer variant without the required
        quantization payloads raise ``ValueError``.
    """
    if not proto.operators:
        raise ValueError("model has no operators")
    if weights is None:
        weights = LazyWeightTable(proto)
    final_output = proto.operators[-1].outputs[0]
    nodes = build_plan_nodes(proto, weights)

    # Static naive footprint (pre-fusion): one live tensor per operator.
    naive_shapes = list(
        infer_shapes(toposort_nodes(nodes), proto.input_shape).values()
    )

    nodes = fuse_operators(nodes)
    nodes = toposort_nodes(nodes)
    shapes = infer_shapes(nodes, proto.input_shape)
    forms = plan_quantization(nodes, proto, variant_map=variants)
    resolved = _resolve_variants(nodes, dict(variants or {}))
    release, _ = compute_liveness(nodes, final_output=final_output)

    blueprint = _PlanBlueprint(
        name=proto.name,
        input_shape=proto.input_shape,
        nodes=nodes,
        shapes=shapes,
        release=release,
        final_output=final_output,
        naive_tensor_shapes=naive_shapes,
        fingerprint=proto.fingerprint(),
        forms=forms,
        variants=resolved,
    )
    return blueprint.bind(poison=poison)

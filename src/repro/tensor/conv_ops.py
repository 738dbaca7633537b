"""Vectorized 2-D convolution and pooling.

The forward passes use ``numpy.lib.stride_tricks.sliding_window_view`` to
expose every receptive field as a view (no copy) and reduce the convolution
to a single GEMM — the im2col formulation.  The backward passes scatter
gradients with a loop over the *kernel footprint only* (at most
``k*k`` iterations, each fully vectorized), never over pixels, following
the "vectorize the inner loops" idiom from the HPC guide.

All scratch arrays (padded inputs, im2col column matrices, col2im
scatter targets) are drawn from :func:`repro.tensor.workspace.active_pool`.
Outside a :func:`~repro.tensor.workspace.use_workspaces` context that is
plain allocation-per-call; inside one, buffers are recycled across
steps, which removes the dominant allocation traffic of the training
loop.  Both modes execute the exact same arithmetic on fully
overwritten buffers, so results are bitwise identical.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor.tensor import Tensor, is_grad_enabled
from repro.tensor.workspace import active_pool

__all__ = [
    "conv_output_size",
    "pool_output_size",
    "conv2d",
    "im2col",
    "im2col_shape",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv: ``floor((size + 2p - k) / s) + 1``."""
    out = (size + 2 * padding - kernel) // stride + 1
    return out


def pool_output_size(size: int, kernel: int, stride: int) -> int:
    """Spatial output size of an unpadded pooling window."""
    return (size - kernel) // stride + 1


def _check_conv_geometry(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"convolution output collapsed: input {h}x{w}, kernel {kernel}, "
            f"stride {stride}, padding {padding} -> {out_h}x{out_w}"
        )
    return out_h, out_w


def _windows(data: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """All kernel-sized windows of an (N, C, H, W) array, strided.

    Returns a **view** of shape ``(N, C, out_h, out_w, kernel, kernel)``.
    """
    view = sliding_window_view(data, (kernel, kernel), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


def im2col_shape(x_shape: tuple[int, ...], kernel: int, stride: int) -> tuple[int, int, int]:
    """Shape of the im2col matrix for an (already padded) input shape.

    Returns ``(N, C*k*k, out_h*out_w)`` — the GEMM-ready layout produced
    by :func:`im2col`.
    """
    n, c, h, w = x_shape
    out_h = pool_output_size(h, kernel, stride)
    out_w = pool_output_size(w, kernel, stride)
    return (n, c * kernel * kernel, out_h * out_w)


def im2col(x: np.ndarray, kernel: int, stride: int, out: np.ndarray | None = None) -> np.ndarray:
    """Materialize receptive fields of a padded ``(N, C, H, W)`` array.

    Produces the ``(N, C*k*k, out_h*out_w)`` column matrix so a
    convolution reduces to one batched GEMM: ``W(c_out, C*k*k) @ cols``
    yields the NCHW output directly, with no transpose pass afterwards.

    Parameters
    ----------
    x:
        Input array, **already padded** (apply padding before calling).
    kernel, stride:
        Square kernel size and uniform spatial stride.
    out:
        Optional preallocated workspace of exactly :func:`im2col_shape`.
        Passing a reused buffer is the training workspace pool's hook —
        Conv ops sharing a column shape share one allocation instead of
        materializing a fresh im2col matrix per call.
    """
    n, c, h, w = x.shape
    out_h = pool_output_size(h, kernel, stride)
    out_w = pool_output_size(w, kernel, stride)
    shape = (n, c * kernel * kernel, out_h * out_w)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape:
        raise ValueError(f"im2col workspace has shape {out.shape}, expected {shape}")
    # (N, C, oh, ow, k, k) view -> copy into (N, C, k, k, oh, ow) layout.
    windows = _windows(x, kernel, stride)
    dst = out.reshape(n, c, kernel, kernel, out_h, out_w)
    np.copyto(dst, windows.transpose(0, 1, 4, 5, 2, 3))
    return out


#: Position-count threshold for the merged (position-major) GEMM layout.
#: Small spatial outputs make the batched channel-major GEMM skinny — many
#: tiny matrix products — while one merged ``(N*P, Ckk) @ (Ckk, C_out)``
#: product keeps the GEMM kernel saturated.  Large spatial outputs favour
#: the channel-major layout, which writes NCHW directly with no transpose
#: pass.  The crossover was measured on the ResNet-18 geometries of the
#: paper's 100x100 patches (merged wins decisively for P <= ~256, loses
#: slightly by P ~= 2500).
MERGED_GEMM_MAX_POSITIONS = 256


def _use_merged_layout(n: int, positions: int) -> bool:
    """Choose the position-major merged-GEMM path for this geometry."""
    return n > 1 and positions <= MERGED_GEMM_MAX_POSITIONS


def _im2col_positions(x: np.ndarray, kernel: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Position-major im2col: ``(N*oh*ow, C*k*k)`` into ``out``.

    The merged-GEMM twin of :func:`im2col`: every row is one receptive
    field, so the whole batch collapses into a single large matrix
    product instead of ``N`` batched ones.  ``out`` is fully overwritten.
    """
    n, c, h, w = x.shape
    out_h = pool_output_size(h, kernel, stride)
    out_w = pool_output_size(w, kernel, stride)
    windows = _windows(x, kernel, stride)  # (N, C, oh, ow, k, k) view
    dst = out.reshape(n, out_h, out_w, c, kernel, kernel)
    np.copyto(dst, windows.transpose(0, 2, 3, 1, 4, 5))
    return out


def _scatter_axis_bounds(offset: int, padding: int, stride: int, out_len: int, in_len: int) -> tuple[int, int]:
    """Inclusive output-position range whose input coordinate is in bounds.

    For the col2im scatter: output position ``t`` along one axis touches
    input coordinate ``offset - padding + stride * t``; this returns the
    ``[t0, t1]`` range landing inside ``[0, in_len)`` so gradients can be
    scattered straight into an *unpadded* buffer (positions that fall in
    the zero-padding border contribute nothing and are skipped).  Returns
    an empty range (``t1 < t0``) when no position is in bounds.
    """
    t0 = 0 if offset >= padding else -((offset - padding) // stride)
    upper = in_len - 1 + padding - offset
    if upper < 0:
        return 1, 0
    return t0, min(out_len - 1, upper // stride)


def _pad_into(dst: np.ndarray, src: np.ndarray, padding: int) -> None:
    """Write ``src`` zero-padded by ``padding`` into preallocated ``dst``.

    Every element of ``dst`` is assigned (borders zeroed, interior
    copied), so a recycled workspace buffer carries no stale state.
    """
    p = padding
    dst[:, :, :p, :] = 0.0
    dst[:, :, -p:, :] = 0.0
    dst[:, :, p:-p, :p] = 0.0
    dst[:, :, p:-p, -p:] = 0.0
    dst[:, :, p:-p, p:-p] = src


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    The forward pass lowers to the same GEMM layout the deploy compiler
    uses: ``W(C_out, C*k*k) @ im2col(x)(N, C*k*k, oh*ow)`` yields the
    NCHW output directly (no transpose/copy pass).  Scratch buffers come
    from the active workspace pool; in inference mode (no parent
    requires grad) no backward closure is created, so the column matrix
    — the largest array of the run — is released immediately instead of
    being pinned by the tape.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional per-filter bias of shape ``(C_out,)``.
    stride, padding:
        Uniform spatial stride and symmetric zero padding.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be (N, C, H, W), got {x.shape}")
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ValueError(f"conv2d weight must be (C_out, C_in, K, K), got {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, c_in_w, kernel, _ = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    out_h, out_w = _check_conv_geometry(h, w, kernel, stride, padding)

    pool = active_pool()
    ckk = c_in * kernel * kernel
    positions = out_h * out_w
    merged = _use_merged_layout(n, positions)

    if padding:
        xp = pool.acquire((n, c_in, h + 2 * padding, w + 2 * padding))
        _pad_into(xp, x.data, padding)
    else:
        xp = x.data
    if merged:
        cols = _im2col_positions(xp, kernel, stride, pool.acquire((n * positions, ckk)))
    else:
        cols = im2col(xp, kernel, stride, out=pool.acquire(im2col_shape(xp.shape, kernel, stride)))
    if padding:
        pool.release(xp)  # the columns carry everything backward needs

    w_flat = weight.data.reshape(c_out, -1)  # (C_out, C*k*k)
    if merged:
        # One large GEMM over all receptive fields, then one NHWC->NCHW pass.
        out_m = pool.acquire((n * positions, c_out))
        np.matmul(cols, w_flat.T, out=out_m)
        if bias is not None:
            out_m += bias.data
        # Explicit owned copy, never ``ascontiguousarray``: for c_out == 1
        # the transposed view is already "contiguous" (size-1 axis) and
        # would alias the pooled buffer about to be recycled.
        out_data = np.empty((n, c_out, out_h, out_w), dtype=np.float32)
        np.copyto(out_data, out_m.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2))
        pool.release(out_m)
    else:
        out_data = np.matmul(w_flat, cols)  # (N, C_out, oh*ow), contiguous
        if bias is not None:
            out_data += bias.data[:, None]
        out_data = out_data.reshape(n, c_out, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        # Inference fast path: nothing captures `cols`, recycle it now.
        pool.release(cols)
        return Tensor._make(out_data, parents, None, "conv2d")

    if merged:
        backward = _make_merged_backward(
            x, weight, bias, cols, pool, w_flat,
            n, c_in, c_out, ckk, kernel, stride, padding, out_h, out_w, h, w,
        )
    else:
        backward = _make_batched_backward(
            x, weight, bias, cols, pool, w_flat,
            n, c_in, c_out, ckk, kernel, stride, padding, out_h, out_w, h, w,
        )
    return Tensor._make(out_data, parents, backward, "conv2d")


def _make_batched_backward(
    x, weight, bias, cols, pool, w_flat,
    n, c_in, c_out, ckk, kernel, stride, padding, out_h, out_w, h, w,
):
    """Backward closure for the channel-major batched-GEMM layout."""
    positions = out_h * out_w

    def backward(grad: np.ndarray) -> None:
        grad_r = grad.reshape(n, c_out, positions)
        if bias is not None:
            # Reduction outputs are fresh arrays: donate instead of copying.
            bias._accumulate_owned(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            grad_w = pool.acquire((n, c_out, ckk))
            np.matmul(grad_r, cols.transpose(0, 2, 1), out=grad_w)
            weight._accumulate_owned(grad_w.sum(axis=0).reshape(weight.shape))
            pool.release(grad_w)
        if x.requires_grad:
            grad_cols = pool.acquire((n, ckk, positions))
            np.matmul(w_flat.T, grad_r, out=grad_cols)
            gview = grad_cols.reshape(n, c_in, kernel, kernel, out_h, out_w)
            # col2im scatter-add straight into an *unpadded* buffer: each
            # footprint offset clips to the output positions that land
            # inside the input, so no padded staging buffer, no interior
            # slice, and the pooled result is donated as the gradient.
            grad_x = pool.acquire((n, c_in, h, w))
            grad_x.fill(0.0)
            for i in range(kernel):
                ti0, ti1 = _scatter_axis_bounds(i, padding, stride, out_h, h)
                if ti1 < ti0:
                    continue
                r0 = i - padding + stride * ti0
                for j in range(kernel):
                    tj0, tj1 = _scatter_axis_bounds(j, padding, stride, out_w, w)
                    if tj1 < tj0:
                        continue
                    c0 = j - padding + stride * tj0
                    grad_x[
                        :, :,
                        r0 : r0 + stride * (ti1 - ti0) + 1 : stride,
                        c0 : c0 + stride * (tj1 - tj0) + 1 : stride,
                    ] += gview[:, :, i, j, ti0 : ti1 + 1, tj0 : tj1 + 1]
            pool.release(grad_cols)
            x._accumulate_pooled(grad_x, pool)
        # The tape runs each closure once; the columns are now spent.
        pool.release(cols)

    return backward


def _make_merged_backward(
    x, weight, bias, cols, pool, w_flat,
    n, c_in, c_out, ckk, kernel, stride, padding, out_h, out_w, h, w,
):
    """Backward closure for the position-major merged-GEMM layout.

    Both gradient GEMMs collapse to single large products over the
    ``(N*P, ...)`` axis: ``grad_w = grad_m.T @ cols`` and
    ``grad_cols = grad_m @ W`` — no batched small-matrix traffic.
    """
    positions = out_h * out_w

    def backward(grad: np.ndarray) -> None:
        grad_m = pool.acquire((n * positions, c_out))
        np.copyto(grad_m.reshape(n, out_h, out_w, c_out), grad.transpose(0, 2, 3, 1))
        if bias is not None:
            bias._accumulate_owned(grad_m.sum(axis=0))
        if weight.requires_grad:
            # A fresh (small) GEMM output that is donated outright; a pooled
            # buffer could not be — its reshape view would break the pool's
            # shape-keyed release bookkeeping.
            grad_w = np.empty((c_out, ckk), dtype=np.float32)
            np.matmul(grad_m.T, cols, out=grad_w)
            weight._accumulate_owned(grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = pool.acquire((n * positions, ckk))
            np.matmul(grad_m, w_flat, out=grad_cols)
            gview = grad_cols.reshape(n, out_h, out_w, c_in, kernel, kernel)
            # Scatter in the position-major layout (contiguous adds) with
            # footprint clipping into an unpadded NHWC buffer, then one
            # NHWC->NCHW pass into the donated pooled gradient.
            grad_xn = pool.acquire((n, h, w, c_in))
            grad_xn.fill(0.0)
            for i in range(kernel):
                ti0, ti1 = _scatter_axis_bounds(i, padding, stride, out_h, h)
                if ti1 < ti0:
                    continue
                r0 = i - padding + stride * ti0
                for j in range(kernel):
                    tj0, tj1 = _scatter_axis_bounds(j, padding, stride, out_w, w)
                    if tj1 < tj0:
                        continue
                    c0 = j - padding + stride * tj0
                    grad_xn[
                        :,
                        r0 : r0 + stride * (ti1 - ti0) + 1 : stride,
                        c0 : c0 + stride * (tj1 - tj0) + 1 : stride,
                        :,
                    ] += gview[:, ti0 : ti1 + 1, tj0 : tj1 + 1, :, i, j]
            pool.release(grad_cols)
            grad_x = pool.acquire((n, c_in, h, w))
            np.copyto(grad_x, grad_xn.transpose(0, 3, 1, 2))
            pool.release(grad_xn)
            x._accumulate_pooled(grad_x, pool)
        pool.release(grad_m)
        pool.release(cols)

    return backward


def max_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pooling over non-padded windows of an ``(N, C, H, W)`` tensor."""
    if x.ndim != 4:
        raise ValueError(f"max_pool2d input must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    out_h = pool_output_size(h, kernel, stride)
    out_w = pool_output_size(w, kernel, stride)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"pooling output collapsed: input {h}x{w}, kernel {kernel}, stride {stride}")

    windows = _windows(x.data, kernel, stride)  # (N, C, oh, ow, k, k)
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out_data = np.ascontiguousarray(out_data)

    def backward(grad: np.ndarray) -> None:
        pool = active_pool()
        grad_x = pool.acquire((n, c, h, w))
        grad_x.fill(0.0)
        ki, kj = np.divmod(arg, kernel)  # window-local coordinates of the max
        oi, oj = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
        rows = oi[None, None] * stride + ki
        cols_ = oj[None, None] * stride + kj
        nn, cc = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
        np.add.at(grad_x, (nn[..., None, None], cc[..., None, None], rows, cols_), grad)
        x._accumulate_pooled(grad_x, pool)

    return Tensor._make(out_data, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Average pooling over non-padded windows."""
    if x.ndim != 4:
        raise ValueError(f"avg_pool2d input must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    out_h = pool_output_size(h, kernel, stride)
    out_w = pool_output_size(w, kernel, stride)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"pooling output collapsed: input {h}x{w}, kernel {kernel}, stride {stride}")

    windows = _windows(x.data, kernel, stride)
    out_data = windows.mean(axis=(-2, -1), dtype=np.float32)
    out_data = np.ascontiguousarray(out_data)
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        pool = active_pool()
        grad_x = pool.acquire((n, c, h, w))
        grad_x.fill(0.0)
        g = grad * scale
        for i in range(kernel):
            for j in range(kernel):
                grad_x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += g
        x._accumulate_pooled(grad_x, pool)

    return Tensor._make(out_data, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions: ``(N, C, H, W) -> (N, C)``."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool2d input must be (N, C, H, W), got {x.shape}")
    return x.mean(axis=(2, 3))

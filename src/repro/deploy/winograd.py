"""Winograd F(2x2, 3x3) convolution kernel for the compiled plan.

The minimal-filtering algorithm of Lavin & Gray: each 2x2 output tile is
computed from a 4x4 input tile with 16 multiplies instead of the 36 an
im2col GEMM spends — a 2.25x reduction in multiply count for stride-1
3x3 convolutions, the dominant layer type of the VGG-style search space.

    Y = A^T [ (G g G^T) . (B^T d B) ] A

with the F(2x2, 3x3) transform matrices

    B^T = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
    G   = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]]
    A^T = [[1, 1, 1, 0], [0, 1, -1, -1]]

The data path mirrors the batch-merged im2col kernel: tiles from all
samples merge into one GEMM N dimension, the 16 tile components become a
stacked ``(16, C_out, C_in) @ (16, C_in, nT)`` batched matmul, and the
input/inverse transforms are hardcoded add/subtract passes (B and A are
0/±1 matrices; only G carries halves, and those land in the *weight*
transform, precomputed once at bind time in float64).

All workspaces come from the plan's :class:`~repro.deploy.plan.Arena`
and are bound once per batch size (see :mod:`repro.deploy.frames`).
Odd output extents round the tile grid up; the kernel computes into a
full-tile buffer and crops the bottom/right overhang.  Numerically the
result differs from im2col only by float reassociation — certified
against it at tight ``atol`` in ``tests/test_winograd.py``.
"""

from __future__ import annotations

import numpy as np

from repro.deploy.frames import Kernel, fill_pad, node_const, pad_frame, windows

__all__ = ["WINOGRAD_VARIANT", "winograd_eligible", "transform_weight", "bind_winograd_conv"]

#: Variant name this module implements (must appear in
#: :data:`repro.latency.fusion.KERNEL_VARIANTS`).
WINOGRAD_VARIANT = "conv.winograd2x2.f32"

_G = np.array(
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]],
    dtype=np.float64,
)


def winograd_eligible(attrs: dict) -> bool:
    """Whether a Conv's geometry admits the F(2x2, 3x3) kernel."""
    return int(attrs.get("kernel", 0)) == 3 and int(attrs.get("stride", 0)) == 1


def transform_weight(weight: np.ndarray) -> np.ndarray:
    """Precompute ``U = G g G^T`` for every filter.

    ``weight`` is the (folded) fp32 ``(C_out, C_in, 3, 3)`` tensor;
    returns ``(16, C_out, C_in)`` float32, the stacked per-component
    GEMM weights.  Computed in float64 so the 1/2 and 1/4 terms do not
    add f32 rounding on top of the unavoidable transform arithmetic.
    """
    u = np.einsum("ij,oajk,lk->iloa", _G, weight.astype(np.float64), _G)
    return np.ascontiguousarray(u.reshape(16, *weight.shape[:2]).astype(np.float32))


def bind_winograd_conv(node, in_shape, out_shape, arena) -> Kernel:
    """Bind a stride-1 3x3 (fused) Conv to the Winograd kernel.

    Same contract as the im2col binder: a :class:`~repro.deploy.frames.Kernel`
    whose frame draws every workspace from ``arena`` and whose output is
    the NCHW buffer.
    """
    if not winograd_eligible(node.attrs):
        raise ValueError(f"node {node.name!r} is not Winograd-eligible: {node.attrs}")
    c_in, h, w = in_shape
    c_out, oh, ow = out_shape
    padding = int(node.attrs["padding"])
    # Transformed weights are cached on the node, so plan replicas share
    # one copy (exactly like the im2col path's folded weight matrix).
    u = node.weights.get("winograd_u")
    if u is None:
        u = transform_weight(node.fp32_weight())
        node.weights["winograd_u"] = u
    bias = node.weights.get("bias")
    bias_col = None if bias is None else node_const(
        node, "winograd.bias", lambda: np.ascontiguousarray(bias.reshape(c_out, 1)))
    relu = node.relu
    oht, owt = -(-oh // 2), -(-ow // 2)  # tile grid, rounded up
    hp, wp = 2 * oht + 2, 2 * owt + 2  # padded extent the tiles read
    exact = (2 * oht == oh) and (2 * owt == ow)

    def frame(x: np.ndarray):
        n = x.shape[0]
        nt = n * oht * owt  # total tiles, merged across the batch

        # Pad (conv padding + the bottom/right tile overhang), border-only.
        xp, pad = pad_frame(arena, x, padding, hp, wp)

        # Gather 4x4 tiles at stride 2 into (4, 4, C_in, nT).
        tiles = arena.acquire((4, 4, c_in, nt))
        gather = (tiles.reshape(4, 4, c_in, n, oht, owt),
                  windows(xp, 4, 2).transpose(4, 5, 1, 0, 2, 3))
        arena.release(xp)

        # Input transform V = B^T d B, hardcoded (B is 0/±1); the second
        # pass writes back into the tile buffer.
        tmp = arena.acquire((4, 4, c_in, nt))
        v = tiles
        forward = (
            (np.subtract, tiles[0], tiles[2], tmp[0]),
            (np.add, tiles[1], tiles[2], tmp[1]),
            (np.subtract, tiles[2], tiles[1], tmp[2]),
            (np.subtract, tiles[1], tiles[3], tmp[3]),
            (np.subtract, tmp[:, 0], tmp[:, 2], v[:, 0]),
            (np.add, tmp[:, 1], tmp[:, 2], v[:, 1]),
            (np.subtract, tmp[:, 2], tmp[:, 1], v[:, 2]),
            (np.subtract, tmp[:, 1], tmp[:, 3], v[:, 3]),
        )
        arena.release(tmp)

        # 16 stacked GEMMs: M[i] = U[i] @ V[i].
        m = arena.acquire((16, c_out, nt))
        gemm = (v.reshape(16, c_in, nt), m)
        arena.release(v)

        # Inverse transform Y = A^T M A, hardcoded (A is 0/±1).
        m4 = m.reshape(4, 4, c_out, nt)
        z = arena.acquire((2, 4, c_out, nt))
        y = arena.acquire((2, 2, c_out, nt))
        inverse = (
            (np.add, m4[0], m4[1], z[0]),
            (np.add, z[0], m4[2], z[0]),
            (np.subtract, m4[1], m4[2], z[1]),
            (np.subtract, z[1], m4[3], z[1]),
            (np.add, z[:, 0], z[:, 1], y[:, 0]),
            (np.add, y[:, 0], z[:, 2], y[:, 0]),
            (np.subtract, z[:, 1], z[:, 2], y[:, 1]),
            (np.subtract, y[:, 1], z[:, 3], y[:, 1]),
        )
        arena.release(z)
        arena.release(m)

        # Scatter tiles back to NCHW; crop the overhang for odd extents.
        full = arena.acquire((n, c_out, 2 * oht, 2 * owt))
        scatter = (full.reshape(n, c_out, oht, 2, owt, 2),
                   y.reshape(2, 2, c_out, n, oht, owt).transpose(3, 2, 4, 0, 5, 1))
        arena.release(y)
        if exact:
            return (pad, gather, forward, gemm, inverse, y, scatter, None), full
        out = arena.acquire((n, c_out, oh, ow))
        crop = (out, full[:, :, :oh, :ow])
        arena.release(full)
        return (pad, gather, forward, gemm, inverse, y, scatter, crop), out

    def run(bound: tuple) -> None:
        pad, gather, forward, gemm, inverse, y, scatter, crop = bound
        fill_pad(pad, 0.0)
        np.copyto(*gather)
        for op, a, b, out in forward:
            op(a, b, out=out)
        np.matmul(u, gemm[0], out=gemm[1])
        for op, a, b, out in inverse:
            op(a, b, out=out)
        if bias_col is not None:
            y += bias_col  # (C_out, 1) broadcasts over (2, 2, C_out, nT)
        if relu:
            np.maximum(y, 0.0, out=y)
        np.copyto(*scatter)
        if crop is not None:
            np.copyto(*crop)

    return Kernel(run, frame)

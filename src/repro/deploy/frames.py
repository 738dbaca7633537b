"""Execution-frame primitives shared by the compiled plan's kernel binders.

A compiled kernel is split in two (:class:`Kernel`):

- ``frame(*inputs)`` binds the kernel to one batch size: it draws every
  workspace and the output from the plan's :class:`~repro.deploy.plan.Arena`
  in the order the computation uses them (so scratch a kernel releases
  is recycled exactly as the liveness schedule allows) and precomputes
  every view the NumPy calls read or write — padded interiors and
  borders, ``sliding_window_view`` gathers, transposes, GEMM reshapes;
- ``run(bound)`` replays the kernel's NumPy calls on those fixed arrays.

:class:`~repro.deploy.plan.InferencePlan` builds one frame per batch
size on first use and afterwards only calls ``run``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["Kernel", "fill_pad", "node_const", "pad_frame", "windows"]


class Kernel(NamedTuple):
    """A bound kernel: ``frame`` binds one batch size, ``run`` executes it.

    ``frame(*inputs)`` returns ``(bound, out)``; ``run(bound)`` computes
    ``out`` from the inputs.  Calling the kernel on an ``{name: array}``
    env binds a throwaway frame over the caller's arrays and runs it
    once (the ad-hoc entry point tests use).
    """

    run: Callable[[tuple], None]
    frame: Callable[..., tuple]

    def __call__(self, env: dict[str, np.ndarray]) -> np.ndarray:
        bound, out = self.frame(*env.values())
        self.run(bound)
        return out


def node_const(node, key: str, make: Callable[[], object]):
    """A bind-time constant derived from ``node``'s weights, made once.

    GEMM-shaped weight views, bias columns and requantization multipliers
    are cached on the node, so every replica's kernels capture the same
    arrays.  They are views or per-channel vectors, so they are not
    published to shared memory; a rebound node recomputes them.
    """
    value = node.consts.get(key)
    if value is None:
        value = node.consts.setdefault(key, make())
    return value


def windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """The strided ``(N, C, OH, OW, k, k)`` window view of an NCHW array."""
    return sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]


def pad_frame(arena, x: np.ndarray, padding: int, hp: int, wp: int, dtype=np.float32):
    """Bind a padded copy of ``x`` into an ``(N, C, hp, wp)`` arena buffer.

    Returns ``(xp, pad)``; :func:`fill_pad` then writes the buffer on
    every run — the border views filled, the interior copied from ``x``.
    Nothing is written at bind time: the arena recycles the buffer
    within and across frames, so its contents do not survive a run.
    """
    n, c, h, w = x.shape
    xp = arena.acquire((n, c, hp, wp), dtype)
    bottom, right = padding + h, padding + w
    borders = tuple(
        v for v in (xp[:, :, :padding], xp[:, :, bottom:],
                    xp[:, :, padding:bottom, :padding], xp[:, :, padding:bottom, right:])
        if v.size
    )
    return xp, (borders, xp[:, :, padding:bottom, padding:right], x)


def fill_pad(pad: tuple, value) -> None:
    """Write a :func:`pad_frame` buffer: border fills plus one interior copy."""
    borders, interior, x = pad
    for view in borders:
        view.fill(value)
    np.copyto(interior, x)

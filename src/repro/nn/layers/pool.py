"""Max-pooling layer."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.activations import keep_where
from repro.nn.layers.conv import conv_output_size
from repro.nn.module import Layer

__all__ = ["MaxPool2D"]


class MaxPool2D(Layer):
    """Max pooling over non-overlapping or strided windows (NCHW).

    A ``pool_size x pool_size`` window has ``pool_size**2`` *planes*:
    plane ``(i, j)`` is the strided view of every window's input at
    offset ``(i, j)``, taken in row-major order.  The maximum is a
    running ``np.maximum`` over the planes in that order, so a window
    holding NaN pools to NaN.  The gradient goes to the *first* plane
    equal to the maximum — an all-zero post-ReLU window routes its
    gradient to the window's top-left input — and a NaN window routes
    none, since NaN equals nothing.  Parameterless, so one kernel serves
    one model and a model stack: the inherited one-model pass is
    :meth:`forward_many` on a shared input.
    """

    fused = True

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size

    def _check_input(self, x: np.ndarray, *, batched: bool = False) -> None:
        if x.ndim != (5 if batched else 4):
            raise ValueError(f"MaxPool2D expects (N, C, H, W), got {x.shape}")

    def _plane_slices(
        self, out_h: int, out_w: int
    ) -> list[tuple[slice, slice]]:
        """Row-major ``(rows, cols)`` slices of the ``pool_size**2`` planes."""
        p, s = self.pool_size, self.stride
        return [
            (slice(i, i + s * (out_h - 1) + 1, s), slice(j, j + s * (out_w - 1) + 1, s))
            for i in range(p)
            for j in range(p)
        ]

    def _planes(self, x: np.ndarray) -> list[np.ndarray]:
        """``(..., H, W)`` -> the window planes, each ``(..., out_h, out_w)``."""
        h, w = x.shape[-2:]
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        return [x[..., rows, cols] for rows, cols in self._plane_slices(out_h, out_w)]

    @staticmethod
    def _max(planes: list[np.ndarray]) -> np.ndarray:
        if planes[0].shape[-2:] == (1, 1):
            # One window per plane: numpy reduces a stacked window along
            # its contiguous axis in its own order, which can pick another
            # signed zero or NaN than a running maximum; keep that order.
            return np.stack(planes, axis=-3).max(axis=-3)
        out = planes[0].copy()
        for plane in planes[1:]:
            np.maximum(out, plane, out=out)
        return out

    def _pool(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Window maxima plus one boolean mask per plane marking the
        windows whose first maximal plane it is (what the backward pass
        routes through)."""
        planes = self._planes(x)
        out = self._max(planes)
        seen = np.zeros(out.shape, dtype=bool)
        masks = []
        for plane in planes:
            # For booleans ``a > b`` is ``a & ~b``: equal, and no earlier hit.
            first = np.greater(plane == out, seen)
            seen |= first
            masks.append(first)
        return out, masks

    def _route(
        self, grad_out: np.ndarray, masks: list[np.ndarray], hw: tuple[int, int]
    ) -> np.ndarray:
        """Send each output gradient to its window's chosen input: plane
        by plane, assigned where windows are disjoint, accumulated in
        row-major plane order where they overlap."""
        lead = np.broadcast_shapes(masks[0].shape, grad_out.shape)[:-2]
        grad_in = np.zeros(lead + tuple(hw), dtype=grad_out.dtype)
        disjoint = self.stride >= self.pool_size
        for (rows, cols), mask in zip(self._plane_slices(*grad_out.shape[-2:]), masks):
            part = keep_where(mask, grad_out)
            if disjoint:
                grad_in[..., rows, cols] = part
            else:
                grad_in[..., rows, cols] += part
        return grad_in

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        """Evaluation takes the window maxima only; training also keeps
        the routing masks :meth:`backward_many` needs."""
        self._check_input(x, batched=batched)
        if cache is None:
            return self._max(self._planes(x)), batched
        out, cache["masks"] = self._pool(x)
        cache["hw"] = x.shape[-2:]
        return out, batched

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        # A mask taken below the first per-model layer has no model axis;
        # it broadcasts over the stacked gradient.
        return self._route(grad_out, cache["masks"], cache["hw"])

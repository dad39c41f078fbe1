"""Max-pooling layer."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.conv import col2im, im2col
from repro.nn.module import Layer

__all__ = ["MaxPool2D"]


class MaxPool2D(Layer):
    """Max pooling over non-overlapping or strided windows (NCHW).

    Windows come from the conv stack's patch helper, flattened row-major
    to ``pool_size**2`` candidates; the gradient goes to the *first*
    candidate that attains the maximum (as :func:`np.argmax` breaks
    ties), so an all-zero post-ReLU window routes its gradient to the
    window's top-left input.  Parameterless, so the fused kernels are the
    same code over one more leading axis.
    """

    fused_eval = True
    fused_train = True

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._chosen: np.ndarray | None = None
        self._hw: tuple[int, int] | None = None

    # ------------------------------------------------------ shared kernels
    def _check_input(self, x: np.ndarray, *, batched: bool = False) -> None:
        if x.ndim != (5 if batched else 4):
            raise ValueError(f"MaxPool2D expects (N, C, H, W), got {x.shape}")

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """``(..., H, W) -> (..., pool_size**2, out_h, out_w)``."""
        p = self.pool_size
        cols = im2col(x, p, p, self.stride, 0)
        return cols.reshape(cols.shape[:-4] + (p * p,) + cols.shape[-2:])

    def _pool(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window maxima plus the one-hot mask of each window's first
        maximal candidate (what the backward pass routes through)."""
        windows = self._windows(x)
        out = windows.max(axis=-3)
        chosen = windows == out[..., None, :, :]
        # Keep only the first hit per window: a few boolean passes over
        # contiguous planes instead of an argmax along a strided axis.
        seen = chosen[..., 0, :, :].copy()
        for q in range(1, chosen.shape[-3]):
            plane = chosen[..., q, :, :]
            plane &= ~seen
            seen |= plane
        return out, chosen

    def _route(
        self, grad_out: np.ndarray, chosen: np.ndarray, hw: tuple[int, int]
    ) -> np.ndarray:
        """Send each output gradient to its window's chosen input."""
        p = self.pool_size
        grad_windows = np.where(chosen, grad_out[..., None, :, :], 0.0)
        grad_cols = grad_windows.reshape(
            grad_windows.shape[:-3] + (p, p) + grad_windows.shape[-2:]
        )
        return col2im(grad_cols, grad_cols.shape[:-4] + hw, p, p, self.stride, 0)

    # ---------------------------------------------------------- one model
    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        self._check_input(x)
        out, self._chosen = self._pool(x)
        self._hw = x.shape[-2:]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._chosen is None or self._hw is None:
            raise RuntimeError("backward called before forward")
        grad_in = self._route(grad_out, self._chosen, self._hw)
        self._chosen = None
        self._hw = None
        return grad_in

    # ------------------------------------------------------- model stacks
    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool
    ) -> tuple[np.ndarray, bool]:
        self._check_input(x, batched=batched)
        return self._windows(x).max(axis=-3), batched

    def forward_many_train(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict
    ) -> tuple[np.ndarray, bool]:
        self._check_input(x, batched=batched)
        out, cache["chosen"] = self._pool(x)
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
        return self._route(grad_out, cache["chosen"], cache["hw"])

"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Layer

__all__ = ["Flatten", "LastTimeStep"]


class Flatten(Layer):
    """Flatten all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    fused = True

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        if cache is not None:
            cache["shape"] = x.shape
            cache["batched"] = batched
        if batched:
            return x.reshape(x.shape[0], x.shape[1], -1), True
        return x.reshape(x.shape[0], -1), False

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        if cache["batched"]:
            return grad_out.reshape(cache["shape"])
        # Input was shared (no model axis); the gradient carries one.
        return grad_out.reshape((grad_out.shape[0],) + cache["shape"])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad_in = grad_out.reshape(self._shape)
        self._shape = None
        return grad_in


class LastTimeStep(Layer):
    """Select the final timestep of a sequence: ``(N, T, H) -> (N, H)``.

    Used to connect the LSTM to the classification head for next-character
    prediction.
    """

    fused = True

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, *, train: bool = False) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"LastTimeStep expects (N, T, H), got {x.shape}")
        self._shape = x.shape
        return x[:, -1, :]

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        if x.ndim != (4 if batched else 3):
            raise ValueError(f"LastTimeStep expects (N, T, H) per model, got {x.shape}")
        if cache is not None:
            cache["shape"] = x.shape
            cache["batched"] = batched
        return x[..., -1, :], batched

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        shape = cache["shape"]
        if not cache["batched"]:
            shape = (grad_out.shape[0],) + shape
        grad_in = np.zeros(shape, dtype=grad_out.dtype)
        grad_in[..., -1, :] = grad_out
        return grad_in

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad_in = np.zeros(self._shape, dtype=grad_out.dtype)
        grad_in[:, -1, :] = grad_out
        self._shape = None
        return grad_in

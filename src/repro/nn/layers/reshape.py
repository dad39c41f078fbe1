"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Layer

__all__ = ["Flatten", "LastTimeStep"]


class Flatten(Layer):
    """Flatten all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        lead = x.shape[: 2 if batched else 1]
        if cache is not None:
            cache["sample_shape"] = x.shape[len(lead) :]
        return x.reshape(lead + (-1,)), batched

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        # The gradient's leading axes are the output's, plus the model
        # axis when the input was shared: one form for every case.
        return grad_out.reshape(grad_out.shape[:-1] + cache["sample_shape"])


class LastTimeStep(Layer):
    """Select the final timestep of a sequence: ``(N, T, H) -> (N, H)``.

    Used to connect the LSTM to the classification head for next-character
    prediction.
    """

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        if x.ndim != (4 if batched else 3):
            raise ValueError(f"LastTimeStep expects (N, T, H) per model, got {x.shape}")
        if cache is not None:
            cache["steps"] = x.shape[-2]
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
        shape = grad_out.shape[:-1] + (cache["steps"], grad_out.shape[-1])
        grad_in = np.zeros(shape, dtype=grad_out.dtype)
        grad_in[..., -1, :] = grad_out
        return grad_in

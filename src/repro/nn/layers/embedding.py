"""Token embedding lookup."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Layer
from repro.nn.parameter import Parameter

__all__ = ["Embedding"]


class Embedding(Layer):
    """Lookup table mapping integer tokens to dense vectors.

    Input: integer array of shape ``(N, T)``; output ``(N, T, dim)``.
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator, *, name: str = "embedding"):
        scale = 1.0 / np.sqrt(dim)
        table = rng.uniform(-scale, scale, size=(vocab_size, dim))
        self.table = Parameter(table, name=f"{name}.table")
        self.vocab_size = vocab_size
        self.dim = dim

    def forward(self, x: np.ndarray, *, cache: dict | None = None) -> np.ndarray:
        indices = np.asarray(x)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"Embedding expects integer tokens, got dtype {indices.dtype}")
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= self.vocab_size:
            raise ValueError("token index out of range")
        if cache is not None:
            cache["indices"] = indices
        return self.table.value[indices]

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        flat_idx = cache["indices"].reshape(-1)
        flat_grad = grad_out.reshape(-1, self.dim)
        np.add.at(self.table.grad, flat_idx, flat_grad)
        # Tokens are not differentiable; return zeros of the input shape.
        return np.zeros_like(flat_idx, dtype=np.float64).reshape(grad_out.shape[:-1])

    def parameters(self) -> list[Parameter]:
        return [self.table]

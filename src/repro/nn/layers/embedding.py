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

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        """``k`` tables gathered at once into ``(k, N, T, dim)``."""
        indices = np.asarray(x)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"Embedding expects integer tokens, got dtype {indices.dtype}")
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= self.vocab_size:
            raise ValueError("token index out of range")
        tokens = indices if batched else indices[None]
        if cache is not None:
            cache["tokens"] = tokens
        (table,) = params
        return table[np.arange(len(table))[:, None, None], tokens], True

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """One scatter-add over ``(model, token)`` pairs, which adds each
        model's rows in its own token order, as its own scatter would.
        Tokens are not differentiable: the input gradient is zeros."""
        tokens, k = cache["tokens"], len(grad_out)
        rows = (np.arange(k)[:, None], tokens.reshape(len(tokens), -1))
        np.add.at(grads[0], rows, grad_out.reshape(k, -1, self.dim))
        return np.zeros(grad_out.shape[:-1]) if need_input_grad else None

    def parameters(self) -> list[Parameter]:
        return [self.table]

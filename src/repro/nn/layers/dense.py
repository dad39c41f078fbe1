"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, he_uniform, zeros
from repro.nn.module import Layer
from repro.nn.parameter import Parameter

__all__ = ["Dense"]


class Dense(Layer):
    """Affine transformation ``y = x @ W + b``.

    Accepts inputs of shape ``(..., in_features)``; the transformation is
    applied over the last axis, which lets the same layer serve both MLP
    heads (``(N, F)``) and per-timestep projections (``(N, T, F)``).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        init: str = "glorot",
        name: str = "dense",
    ):
        if init == "glorot":
            kernel = glorot_uniform((in_features, out_features), rng)
        elif init == "he":
            kernel = he_uniform((in_features, out_features), rng)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(kernel, name=f"{name}.weight")
        self.bias = Parameter(zeros((out_features,)), name=f"{name}.bias")
        self.in_features = in_features
        self.out_features = out_features

    fused = True

    def forward(self, x: np.ndarray, *, cache: dict | None = None) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dim {self.in_features}, got shape {x.shape}"
            )
        if cache is not None:
            cache["x"] = x
        return x @ self.weight.value + self.bias.value

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        """Batched-parameter affine map: ``k`` kernels in one matmul.

        The ``(k, in, out)`` kernel stack broadcasts against the input's
        stack dimensions, so numpy performs the same ``(..., in) @
        (in, out)`` product per model that :meth:`forward` performs —
        bit-identical in float64, without reloading weights between
        models.  Training (a ``cache``) keeps the input for
        :meth:`backward_many`.
        """
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dim {self.in_features}, got shape {x.shape}"
            )
        if cache is not None:
            cache["x"] = x
            cache["batched"] = batched
        kernel, bias = params
        k = kernel.shape[0]
        stacked = x if batched else x[None]
        # Align the model axis with the input's leading stack axis; the
        # remaining stack dims (e.g. time for (k, N, T, F)) broadcast.
        kernel = kernel.reshape(
            (k,) + (1,) * (stacked.ndim - 3) + (self.in_features, self.out_features)
        )
        out = np.matmul(stacked, kernel)
        out += bias.reshape((k,) + (1,) * (out.ndim - 2) + (self.out_features,))
        return out, True

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Batched-parameter backward: ``k`` models' grads in one matmul each.

        Per model the products are exactly :meth:`backward`'s —
        ``x2.T @ g2``, ``g2.sum(axis=0)`` and ``grad_out @ W.T`` — run
        as one stacked :func:`np.matmul` / axis-1 reduction over the
        ``(k, ...)`` stacks, so the accumulated gradient stacks are
        bit-identical in float64 to the sequential per-model loop.  With
        ``need_input_grad=False`` (this layer is the lowest parametered
        one) the ``grad_out @ W.T`` product is skipped entirely.
        """
        kernel, _bias = params
        grad_weight, grad_bias = grads
        k = kernel.shape[0]
        x = cache["x"]
        g2 = grad_out.reshape(k, -1, self.out_features)
        if cache["batched"]:
            x2 = x.reshape(k, -1, self.in_features)
        else:
            # Shared input: one model-axis-free copy broadcasts over k.
            x2 = x.reshape(-1, self.in_features)[None]
        grad_weight += np.matmul(x2.transpose(0, 2, 1), g2)
        grad_bias += g2.sum(axis=1)
        if not need_input_grad:
            return None
        kernel_t = kernel.transpose(0, 2, 1).reshape(
            (k,) + (1,) * (grad_out.ndim - 3) + (self.out_features, self.in_features)
        )
        return np.matmul(grad_out, kernel_t)

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        x2 = cache["x"].reshape(-1, self.in_features)
        g2 = grad_out.reshape(-1, self.out_features)
        self.weight.grad += x2.T @ g2
        self.bias.grad += g2.sum(axis=0)
        return grad_out @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

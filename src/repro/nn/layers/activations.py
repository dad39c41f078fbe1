"""Element-wise activation layers.

The selects here (ReLU and its gradient, the two branches of the stable
sigmoid) are whole-array passes with no per-element branch: a boolean
condition is widened to an all-ones / all-zeros unsigned word per
element (``np.negative(keep, dtype=unsigned)``) and ANDed with the float
bits.  That keeps every bit ``numpy.where`` would produce — NaN
payloads, signed zeros, infinities — at a fraction of the cost on ~50 %
random masks.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Layer

__all__ = ["ReLU", "Tanh", "Sigmoid", "sigmoid"]

#: The unsigned integer type as wide as each float width.
_UNSIGNED = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def keep_where(keep: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``numpy.where(keep, values, 0.0)`` bit for bit: ``values`` where
    ``keep`` holds and ``+0.0`` (all bits clear) elsewhere, broadcasting
    like ``numpy.where``.  ``keep`` stays boolean until here, so a cached
    mask costs one byte per element."""
    unsigned = _UNSIGNED[values.dtype.itemsize]
    # Widen into the result buffer and AND in place: one allocation.
    out = np.empty(np.broadcast_shapes(keep.shape, values.shape), dtype=unsigned)
    np.negative(keep, out=out, dtype=unsigned)
    np.bitwise_and(values.view(unsigned), out, out=out)
    return out.view(values.dtype)


def relu(x: np.ndarray) -> np.ndarray:
    """``numpy.where(x > 0, x, 0.0)`` bit for bit: ``fmax`` maps NaN to 0
    and adding ``+0.0`` turns a ``-0.0`` into ``+0.0``."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid: ``1 / (1 + e)`` where
    ``x >= 0`` and ``e / (1 + e)`` elsewhere, from one ``e = exp(-|x|)``.

    ``np.minimum(x, -x)`` is ``-|x|`` that keeps a NaN's own bits, so
    NaN inputs produce the same NaN as ``exp(x)`` on the negative branch.
    """
    e = np.exp(np.minimum(x, -x))
    denom = 1.0 + e
    high = 1.0 / denom
    low = e / denom
    unsigned = _UNSIGNED[high.dtype.itemsize]
    high_bits, low_bits = high.view(unsigned), low.view(unsigned)
    select = np.negative(x >= 0, dtype=unsigned)
    return (low_bits ^ ((high_bits ^ low_bits) & select)).view(high.dtype)


class ReLU(Layer):
    """Rectified linear unit.

    A training forward caches ``x > 0``; the backward pass ANDs the
    gradient's bits with it (:func:`keep_where`).  A mask taken below the
    first per-model layer has no model axis and broadcasts over the
    stacked gradient.
    """

    fused = True

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        if cache is not None:
            cache["mask"] = x > 0
        return relu(x), batched

    def backward_many(
        self,
        grad_out: np.ndarray,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        cache: dict,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        return keep_where(cache["mask"], grad_out)


class Tanh(Layer):
    """Hyperbolic tangent."""

    fused = True

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        out = np.tanh(x)
        if cache is not None:
            cache["out"] = out
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
        return grad_out * (1.0 - cache["out"] ** 2)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    fused = True

    def forward_many(
        self, x: np.ndarray, params: list[np.ndarray], *, batched: bool, cache: dict | None = None
    ) -> tuple[np.ndarray, bool]:
        out = sigmoid(x)
        if cache is not None:
            cache["out"] = out
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
        out = cache["out"]
        return grad_out * out * (1.0 - out)

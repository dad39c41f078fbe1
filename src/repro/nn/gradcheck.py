"""Numeric gradient checking used by the test-suite.

Central finite differences against the analytic backward pass.  This is a
first-class part of the library (not test-only code) so downstream users
adding layers can verify them the same way.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import softmax_cross_entropy
from repro.nn.module import Layer

__all__ = ["numeric_gradient", "check_layer_gradients", "max_relative_error"]


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max element-wise relative error between two gradient arrays."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def numeric_gradient(fn, array: np.ndarray, *, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``array``.

    ``fn`` must read ``array`` (mutated in place between calls).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn()
        flat[i] = original - eps
        minus = fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_layer_gradients(
    layer: Layer,
    x: np.ndarray,
    labels: np.ndarray | None = None,
    *,
    eps: float = 1e-6,
    input_differentiable: bool = True,
) -> dict[str, float]:
    """Verify a layer's backward pass against finite differences.

    The layer output is reduced to a scalar through softmax cross-entropy
    when ``labels`` is given (output must be ``(N, K)``), otherwise through
    a fixed random-weighted sum, which exercises arbitrary output shapes.

    The analytic pass is a training pass (a ``cache``) and the numeric one
    evaluates, so the layer's training forward must be deterministic:
    a dropout layer with ``rate > 0`` cannot be checked this way.

    Returns a map of max relative errors: one entry per parameter plus
    ``"input"`` when ``input_differentiable``.
    """
    rng = np.random.default_rng(0)
    out_probe: np.ndarray | None = None

    def loss_from_output(out: np.ndarray) -> float:
        nonlocal out_probe
        if labels is not None:
            loss, _ = softmax_cross_entropy(out, labels)
            return loss
        if out_probe is None:
            out_probe = rng.normal(size=out.shape)
        return float(np.sum(out * out_probe))

    def forward_loss() -> float:
        return loss_from_output(layer.forward(x))

    # Analytic pass.
    layer.zero_grad()
    cache: dict = {}
    out = layer.forward(x, cache=cache)
    if labels is not None:
        _, grad_out = softmax_cross_entropy(out, labels)
    else:
        loss_from_output(out)  # initialize probe
        grad_out = out_probe
    grad_in = layer.backward(np.asarray(grad_out), cache)

    errors: dict[str, float] = {}
    for param in layer.parameters():
        analytic = param.grad.copy()
        numeric = numeric_gradient(forward_loss, param.value, eps=eps)
        errors[param.name] = max_relative_error(analytic, numeric)
    if input_differentiable:
        numeric = numeric_gradient(forward_loss, x, eps=eps)
        errors["input"] = max_relative_error(np.asarray(grad_in), numeric)
    return errors

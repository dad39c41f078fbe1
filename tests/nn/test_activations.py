"""Activation layers: values, gradients, stability; and the
backward-before-forward rule every layer shares."""

import numpy as np
import pytest

import repro.nn  # noqa: F401  (loads every layer module)
from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import (
    LSTM,
    Conv2D,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    LastTimeStep,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.layers.activations import sigmoid
from repro.nn.module import Layer


@pytest.mark.parametrize("layer_cls", [ReLU, Tanh, Sigmoid])
def test_gradients(layer_cls, rng):
    layer = layer_cls()
    x = rng.normal(size=(4, 6)) + 0.1  # avoid the ReLU kink at exactly 0
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-6


def test_relu_zeroes_negatives(rng):
    out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_relu_gradient_blocked_at_negatives():
    layer = ReLU()
    cache: dict = {}
    layer.forward(np.array([[-1.0, 3.0]]), cache=cache)
    grad = layer.backward(np.array([[5.0, 5.0]]), cache)
    np.testing.assert_array_equal(grad, [[0.0, 5.0]])


def test_tanh_bounded(rng):
    out = Tanh().forward(rng.normal(size=(10, 10)) * 100)
    assert np.all(np.abs(out) <= 1.0)


def test_sigmoid_extreme_values_stable():
    x = np.array([[-1000.0, 1000.0, 0.0]])
    out = sigmoid(x)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.5]], atol=1e-12)


def test_sigmoid_symmetry(rng):
    x = rng.normal(size=(5, 5))
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


# Every ``repro.nn`` layer, built small: layers keep no per-call state,
# so the backward-before-forward check is one rule for all of them.
EVERY_LAYER = {
    ReLU: lambda rng: ReLU(),
    Tanh: lambda rng: Tanh(),
    Sigmoid: lambda rng: Sigmoid(),
    Dense: lambda rng: Dense(2, 2, rng),
    Conv2D: lambda rng: Conv2D(1, 2, 3, rng),
    MaxPool2D: lambda rng: MaxPool2D(),
    Flatten: lambda rng: Flatten(),
    LastTimeStep: lambda rng: LastTimeStep(),
    Dropout: lambda rng: Dropout(0.5, rng=rng),
    Embedding: lambda rng: Embedding(4, 2, rng),
    LSTM: lambda rng: LSTM(2, 2, rng),
}


def _layer_classes():
    pending, found = [Layer], set()
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.nn.layers."):
            found.add(cls)
    return found


def test_backward_before_forward_covers_every_layer():
    assert set(EVERY_LAYER) == _layer_classes()


@pytest.mark.parametrize("layer_cls", list(EVERY_LAYER))
def test_backward_before_forward_raises(layer_cls, rng):
    """A backward pass reads what a training forward stored in the
    caller's cache; given a cache no forward filled, every layer raises."""
    layer = EVERY_LAYER[layer_cls](rng)
    with pytest.raises(KeyError):
        layer.backward(rng.normal(size=(2, 2)), {})

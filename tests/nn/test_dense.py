"""Dense layer: shapes, gradients, parameter bookkeeping."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import Dense


def test_output_shape(rng):
    layer = Dense(5, 3, rng)
    out = layer.forward(rng.normal(size=(7, 5)))
    assert out.shape == (7, 3)


def test_applies_over_last_axis_for_3d_input(rng):
    layer = Dense(5, 3, rng)
    out = layer.forward(rng.normal(size=(2, 4, 5)))
    assert out.shape == (2, 4, 3)


def test_rejects_wrong_input_width(rng):
    layer = Dense(5, 3, rng)
    with pytest.raises(ValueError, match="expected last dim 5"):
        layer.forward(rng.normal(size=(7, 4)))


def test_gradients_match_finite_differences(rng):
    layer = Dense(6, 4, rng)
    x = rng.normal(size=(3, 6))
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-6


def test_gradients_3d_input(rng):
    layer = Dense(4, 3, rng)
    x = rng.normal(size=(2, 5, 4))
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-6


def test_bias_starts_at_zero(rng):
    layer = Dense(5, 3, rng)
    assert np.all(layer.bias.value == 0.0)


def test_parameters_are_weight_and_bias(rng):
    layer = Dense(5, 3, rng)
    params = layer.parameters()
    assert len(params) == 2
    assert params[0].shape == (5, 3)
    assert params[1].shape == (3,)


def test_gradients_accumulate_across_backward_calls(rng):
    layer = Dense(3, 2, rng)
    x = rng.normal(size=(4, 3))
    grad = rng.normal(size=(4, 2))
    cache: dict = {}
    layer.forward(x, cache=cache)
    layer.backward(grad, cache)
    first = layer.weight.grad.copy()
    layer.forward(x, cache=cache)
    layer.backward(grad, cache)
    np.testing.assert_allclose(layer.weight.grad, 2 * first)


def test_he_init_differs_from_glorot(rng):
    glorot = Dense(50, 50, np.random.default_rng(1), init="glorot")
    he = Dense(50, 50, np.random.default_rng(1), init="he")
    assert not np.allclose(glorot.weight.value, he.weight.value)


def test_unknown_init_rejected(rng):
    with pytest.raises(ValueError, match="unknown init"):
        Dense(3, 2, rng, init="bogus")

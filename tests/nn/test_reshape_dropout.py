"""Flatten, LastTimeStep, Dropout."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import Dropout, Flatten, LastTimeStep


def test_flatten_shape(rng):
    out = Flatten().forward(rng.normal(size=(3, 2, 4, 5)))
    assert out.shape == (3, 40)


def test_flatten_roundtrip_gradient(rng):
    layer = Flatten()
    x = rng.normal(size=(2, 3, 4))
    cache: dict = {}
    layer.forward(x, cache=cache)
    grad_in = layer.backward(np.ones((2, 12)), cache)
    assert grad_in.shape == x.shape


def test_flatten_gradcheck(rng):
    errors = check_layer_gradients(Flatten(), rng.normal(size=(2, 3, 4)))
    assert max(errors.values()) < 1e-7


def test_last_timestep_selects_final(rng):
    x = rng.normal(size=(2, 5, 3))
    out = LastTimeStep().forward(x)
    np.testing.assert_allclose(out, x[:, -1, :])


def test_last_timestep_gradient_zero_elsewhere(rng):
    layer = LastTimeStep()
    cache: dict = {}
    layer.forward(rng.normal(size=(2, 4, 3)), cache=cache)
    grad_in = layer.backward(np.ones((2, 3)), cache)
    assert np.all(grad_in[:, :-1, :] == 0.0)
    assert np.all(grad_in[:, -1, :] == 1.0)


def test_last_timestep_rejects_2d(rng):
    with pytest.raises(ValueError):
        LastTimeStep().forward(rng.normal(size=(2, 3)))


def test_dropout_inactive_at_inference(rng):
    layer = Dropout(0.5, rng=0)
    x = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(layer.forward(x), x)


def test_dropout_scales_at_train():
    layer = Dropout(0.5, rng=0)
    x = np.ones((1000, 10))
    out = layer.forward(x, cache={})
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling
    assert 0.35 < (out != 0).mean() < 0.65


def test_dropout_backward_uses_same_mask():
    layer = Dropout(0.5, rng=1)
    x = np.ones((50, 50))
    cache: dict = {}
    out = layer.forward(x, cache=cache)
    grad = layer.backward(np.ones_like(x), cache)
    np.testing.assert_array_equal(grad != 0, out != 0)


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)

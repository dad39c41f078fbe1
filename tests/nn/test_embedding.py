"""Embedding layer: lookup semantics and gradient scatter."""

import numpy as np
import pytest

from repro.nn.layers import Embedding


def test_lookup_shape(rng):
    layer = Embedding(10, 4, rng)
    out = layer.forward(rng.integers(0, 10, size=(3, 7)))
    assert out.shape == (3, 7, 4)


def test_lookup_returns_table_rows(rng):
    layer = Embedding(5, 3, rng)
    out = layer.forward(np.array([[2, 4]]))
    np.testing.assert_allclose(out[0, 0], layer.table.value[2])
    np.testing.assert_allclose(out[0, 1], layer.table.value[4])


def test_rejects_float_tokens(rng):
    layer = Embedding(5, 3, rng)
    with pytest.raises(TypeError, match="integer tokens"):
        layer.forward(np.array([[1.5]]))


def test_rejects_out_of_range(rng):
    layer = Embedding(5, 3, rng)
    with pytest.raises(ValueError, match="out of range"):
        layer.forward(np.array([[5]]))
    with pytest.raises(ValueError, match="out of range"):
        layer.forward(np.array([[-1]]))


def test_gradient_scatters_to_used_rows(rng):
    layer = Embedding(6, 2, rng)
    cache: dict = {}
    layer.forward(np.array([[1, 1, 3]]), cache=cache)
    grad_out = np.ones((1, 3, 2))
    layer.backward(grad_out, cache)
    np.testing.assert_allclose(layer.table.grad[1], [2.0, 2.0])  # used twice
    np.testing.assert_allclose(layer.table.grad[3], [1.0, 1.0])
    np.testing.assert_allclose(layer.table.grad[0], 0.0)


def test_repeated_token_accumulates(rng):
    layer = Embedding(4, 3, rng)
    cache: dict = {}
    layer.forward(np.full((2, 5), 2), cache=cache)
    layer.backward(np.ones((2, 5, 3)), cache)
    np.testing.assert_allclose(layer.table.grad[2], 10.0)

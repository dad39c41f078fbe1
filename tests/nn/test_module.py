"""Sequential container and gradcheck utilities."""

import numpy as np
import pytest

from repro.nn import Dense, ReLU, Sequential
from repro.nn.gradcheck import max_relative_error, numeric_gradient


def test_sequential_chains_layers(rng):
    net = Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 3, rng)])
    out = net.forward(rng.normal(size=(5, 4)))
    assert out.shape == (5, 3)


def test_sequential_collects_parameters(rng):
    net = Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 3, rng)])
    assert len(net.parameters()) == 4


def test_sequential_backward_reverses(rng):
    net = Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 3, rng)])
    x = rng.normal(size=(5, 4))
    caches: list[dict] = [{} for _ in net.layers]
    net.forward(x, caches)
    grad_in = net.backward(rng.normal(size=(5, 3)), caches)
    assert grad_in.shape == x.shape
    assert caches == [{}, {}, {}]  # each cleared once consumed


def test_sequential_indexing(rng):
    dense = Dense(4, 8, rng)
    net = Sequential([dense, ReLU()])
    assert len(net) == 2
    assert net[0] is dense


def test_zero_grad_clears_all(rng):
    net = Sequential([Dense(4, 4, rng), ReLU(), Dense(4, 2, rng)])
    x = rng.normal(size=(3, 4))
    caches: list[dict] = [{} for _ in net.layers]
    net.forward(x, caches)
    net.backward(rng.normal(size=(3, 2)), caches)
    assert any(np.any(p.grad != 0) for p in net.parameters())
    net.zero_grad()
    assert all(np.all(p.grad == 0) for p in net.parameters())


def test_numeric_gradient_quadratic():
    x = np.array([1.0, 2.0, 3.0])
    grad = numeric_gradient(lambda: float(np.sum(x**2)), x)
    np.testing.assert_allclose(grad, 2 * x, atol=1e-5)


def test_max_relative_error_zero_for_identical():
    a = np.array([1.0, -2.0])
    assert max_relative_error(a, a.copy()) == 0.0


def test_max_relative_error_detects_difference():
    assert max_relative_error(np.array([1.0]), np.array([2.0])) > 0.3

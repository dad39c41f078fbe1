"""MaxPool2D: values, shapes, gradient routing."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import MaxPool2D


def test_known_values():
    x = np.array(
        [[[[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0], [0, 0, 0, 0], [0, 0, 9.0, 0]]]]
    )
    out = MaxPool2D(2, 2).forward(x)
    np.testing.assert_allclose(out[0, 0], [[4.0, 8.0], [0.0, 9.0]])


def test_output_shape(rng):
    out = MaxPool2D(2, 2).forward(rng.normal(size=(3, 4, 8, 6)))
    assert out.shape == (3, 4, 4, 3)


def test_gradient_routes_to_argmax():
    layer = MaxPool2D(2, 2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    cache: dict = {}
    layer.forward(x, cache=cache)
    grad_in = layer.backward(np.array([[[[10.0]]]]), cache)
    np.testing.assert_allclose(grad_in, [[[[0.0, 0.0], [0.0, 10.0]]]])


def test_gradients_finite_differences(rng):
    layer = MaxPool2D(2, 2)
    # well-separated values so the argmax is stable under eps perturbation
    x = rng.permutation(np.arange(64, dtype=np.float64)).reshape(1, 1, 8, 8)
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-6


def test_rejects_non_4d(rng):
    with pytest.raises(ValueError):
        MaxPool2D(2).forward(rng.normal(size=(4, 4)))


def test_overlapping_stride(rng):
    out = MaxPool2D(3, 1).forward(rng.normal(size=(1, 1, 5, 5)))
    assert out.shape == (1, 1, 3, 3)


def test_gradients_overlapping_windows(rng):
    """stride < pool: an input can win several windows and must collect
    every one of their gradients."""
    layer = MaxPool2D(3, 2)
    x = rng.permutation(np.arange(98, dtype=np.float64)).reshape(1, 2, 7, 7)
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-6


def test_ties_route_to_first_window_index():
    """An all-zero (post-ReLU) window sends its gradient to the window's
    first input in row-major order, as ``np.argmax`` would; a tie between
    later candidates goes to the earlier of them."""
    layer = MaxPool2D(2, 2)
    x = np.zeros((1, 1, 2, 4))
    x[0, 0, :, 2:] = [[1.0, 5.0], [5.0, 5.0]]
    cache: dict = {}
    layer.forward(x, cache=cache)
    grad_in = layer.backward(np.array([[[[3.0, 7.0]]]]), cache)
    np.testing.assert_array_equal(
        grad_in, [[[[3.0, 0.0, 0.0, 7.0], [0.0, 0.0, 0.0, 0.0]]]]
    )
    # The fused kernels share the rule.
    cache = {}
    layer.forward_many(x[None], [], batched=True, cache=cache)
    fused = layer.backward_many(np.array([[[[[3.0, 7.0]]]]]), [], [], cache)
    np.testing.assert_array_equal(fused[0], grad_in)


def test_nan_window_pools_to_nan_and_routes_no_gradient():
    """A window holding NaN pools to NaN and routes no gradient — NaN
    equals nothing, so no input is the window's maximum — on the
    sequential and the fused paths alike."""
    layer = MaxPool2D(2, 2)
    x = np.array([[[[1.0, np.nan, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]]]])
    grad_out = np.array([[[[3.0, 7.0]]]])
    expected_grad = [[[[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 7.0]]]]

    cache: dict = {}
    out = layer.forward(x, cache=cache)
    assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 8.0
    np.testing.assert_array_equal(layer.backward(grad_out, cache), expected_grad)

    cache = {}
    fused, _ = layer.forward_many(x[None], [], batched=True, cache=cache)
    np.testing.assert_array_equal(fused[0], out)
    np.testing.assert_array_equal(
        layer.forward_many(x[None], [], batched=True)[0][0], out
    )
    grad_in = layer.backward_many(grad_out[None], [], [], cache)
    np.testing.assert_array_equal(grad_in[0], expected_grad)


@pytest.mark.parametrize("pool, stride", [(2, 2), (3, 2), (3, 1)])
def test_fused_kernels_bit_identical(rng, pool, stride):
    layer = MaxPool2D(pool, stride)
    stack = np.maximum(rng.normal(size=(3, 2, 4, 7, 7)), 0.0)  # ties at zero
    out, batched = layer.forward_many(stack, [], batched=True)
    assert batched
    cache: dict = {}
    trained, _ = layer.forward_many(stack, [], batched=True, cache=cache)
    grad_out = rng.normal(size=out.shape)
    grad_in = layer.backward_many(grad_out, [], [], cache)
    for k in range(3):
        one: dict = {}
        expected = layer.forward(stack[k], cache=one)
        np.testing.assert_array_equal(out[k], expected)
        np.testing.assert_array_equal(trained[k], expected)
        np.testing.assert_array_equal(grad_in[k], layer.backward(grad_out[k], one))
    # A shared input stays shared: pooled once for every model.
    shared, batched = layer.forward_many(stack[0], [], batched=False)
    assert not batched
    np.testing.assert_array_equal(shared, out[0])


def test_fused_paths_reject_what_forward_rejects(rng):
    layer = MaxPool2D(2)
    for x, batched in [
        (rng.normal(size=(4, 4)), False),
        (rng.normal(size=(2, 3, 4, 4)), True),  # missing the model axis
        (rng.normal(size=(2, 2, 3, 4, 4)), False),
    ]:
        with pytest.raises(ValueError, match="MaxPool2D expects"):
            layer.forward_many(x, [], batched=batched)
        with pytest.raises(ValueError, match="MaxPool2D expects"):
            layer.forward_many(x, [], batched=batched, cache={})

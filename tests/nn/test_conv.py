"""Conv2D: shapes, im2col/col2im adjointness, gradients, known values."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import Conv2D
from repro.nn.layers.conv import col2im, conv_output_size, im2col


def test_output_shape_no_padding(rng):
    layer = Conv2D(2, 4, 3, rng)
    out = layer.forward(rng.normal(size=(5, 2, 8, 8)))
    assert out.shape == (5, 4, 6, 6)


def test_output_shape_same_padding(rng):
    layer = Conv2D(1, 3, 3, rng, padding=1)
    out = layer.forward(rng.normal(size=(2, 1, 7, 7)))
    assert out.shape == (2, 3, 7, 7)


def test_output_shape_stride(rng):
    layer = Conv2D(1, 2, 3, rng, stride=2)
    out = layer.forward(rng.normal(size=(1, 1, 9, 9)))
    assert out.shape == (1, 2, 4, 4)


def test_conv_output_size_rejects_too_small():
    with pytest.raises(ValueError, match="non-positive conv output"):
        conv_output_size(2, 5, 1, 0)


def test_rejects_wrong_channels(rng):
    layer = Conv2D(3, 2, 3, rng)
    with pytest.raises(ValueError, match="expected"):
        layer.forward(rng.normal(size=(1, 2, 8, 8)))


def test_known_convolution_value(rng):
    """A 1x1x2x2 all-ones kernel sums 2x2 windows."""
    layer = Conv2D(1, 1, 2, rng)
    layer.weight.value[:] = 1.0
    layer.bias.value[:] = 0.0
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    out = layer.forward(x)
    expected = np.array([[0 + 1 + 3 + 4, 1 + 2 + 4 + 5], [3 + 4 + 6 + 7, 4 + 5 + 7 + 8]])
    np.testing.assert_allclose(out[0, 0], expected)


def test_bias_added_per_channel(rng):
    layer = Conv2D(1, 2, 2, rng)
    layer.weight.value[:] = 0.0
    layer.bias.value[:] = [1.5, -2.0]
    out = layer.forward(np.zeros((1, 1, 4, 4)))
    np.testing.assert_allclose(out[0, 0], 1.5)
    np.testing.assert_allclose(out[0, 1], -2.0)


def test_gradients(rng):
    layer = Conv2D(2, 3, 3, rng, padding=1)
    x = rng.normal(size=(2, 2, 5, 5))
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-5


def test_gradients_with_stride(rng):
    layer = Conv2D(1, 2, 3, rng, stride=2)
    x = rng.normal(size=(2, 1, 7, 7))
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-5


def test_im2col_col2im_adjoint(rng):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    x = rng.normal(size=(2, 3, 6, 6))
    cols = im2col(x, 3, 3, 2, 1)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, 3, 3, 2, 1)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_im2col_reconstructs_patches(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    cols = im2col(x, 2, 2, 1, 0)
    # patch at output position (0, 0) is the top-left 2x2 window
    np.testing.assert_allclose(cols[0, 0, :, :, 0, 0], x[0, 0, :2, :2])
    np.testing.assert_allclose(cols[0, 0, :, :, 2, 2], x[0, 0, 2:, 2:])


def test_gradients_with_stride_and_padding(rng):
    layer = Conv2D(2, 3, 3, rng, stride=2, padding=1)
    x = rng.normal(size=(2, 2, 7, 7))
    errors = check_layer_gradients(layer, x)
    assert max(errors.values()) < 1e-5


def test_im2col_col2im_adjoint_over_model_stack(rng):
    """The helpers only touch (H, W): a (K, N, C, H, W) stack unfolds to
    the per-model results and keeps the adjoint identity."""
    x = rng.normal(size=(3, 2, 2, 6, 5))
    cols = im2col(x, 3, 2, 2, 1)
    assert cols.shape == (3, 2, 2, 3, 2, 3, 3)
    for k in range(3):
        np.testing.assert_array_equal(cols[k], im2col(x[k], 3, 2, 2, 1))
    y = rng.normal(size=cols.shape)
    folded = col2im(y, x.shape, 3, 2, 2, 1)
    for k in range(3):
        np.testing.assert_array_equal(folded[k], col2im(y[k], x.shape[1:], 3, 2, 2, 1))
    assert float(np.sum(cols * y)) == pytest.approx(float(np.sum(x * folded)), rel=1e-12)


def test_col2im_disjoint_windows_match_accumulation(rng):
    """stride >= kernel takes the assignment shortcut; uncovered pixels
    (here the last row/column of a 5x5 image) stay zero."""
    cols = rng.normal(size=(2, 3, 2, 2, 2, 2))
    folded = col2im(cols, (2, 3, 5, 5), 2, 2, 2, 0)
    expected = np.zeros((2, 3, 5, 5))
    for i in range(2):
        for j in range(2):
            expected[:, :, i:4:2, j:4:2] += cols[:, :, i, j]
    np.testing.assert_array_equal(folded, expected)


def _stacked_params(layers):
    """(k, *shape) stacks of the layers' weights and biases."""
    return [
        np.stack([layer.weight.value for layer in layers]),
        np.stack([layer.bias.value for layer in layers]),
    ]


@pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (1, 0)])
def test_forward_many_bit_identical_shared_and_batched(stride, padding):
    layers = [
        Conv2D(2, 3, 3, np.random.default_rng(seed), stride=stride, padding=padding)
        for seed in range(4)
    ]
    params = _stacked_params(layers)
    rng = np.random.default_rng(9)
    shared = rng.normal(size=(5, 2, 7, 6))
    out, batched = layers[0].forward_many(shared, params, batched=False)
    assert batched
    for k, layer in enumerate(layers):
        np.testing.assert_array_equal(out[k], layer.forward(shared))
    stack = rng.normal(size=(4, 5, 2, 7, 6))
    out, _ = layers[0].forward_many(stack, params, batched=True)
    for k, layer in enumerate(layers):
        np.testing.assert_array_equal(out[k], layer.forward(stack[k]))


def test_forward_many_chunks_wide_stacks_identically(monkeypatch):
    """A patch stack over the byte budget is evaluated in K-chunks with
    unchanged logits."""
    from repro.nn.layers import conv

    layers = [Conv2D(2, 3, 3, np.random.default_rng(seed), padding=1) for seed in range(5)]
    params = _stacked_params(layers)
    stack = np.random.default_rng(1).normal(size=(5, 4, 2, 6, 6))
    whole, _ = layers[0].forward_many(stack, params, batched=True)
    monkeypatch.setattr(conv, "_PATCH_BYTES", 2 * stack[0].nbytes * 9)
    chunked, _ = layers[0].forward_many(stack, params, batched=True)
    np.testing.assert_array_equal(whole, chunked)


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "shared"])
def test_backward_many_bit_identical(batched):
    """Fused training kernels vs forward/backward per model: outputs,
    kernel/bias grads and input grads, for per-model and shared inputs."""
    layers = [
        Conv2D(2, 3, 3, np.random.default_rng(seed), stride=2, padding=1)
        for seed in range(3)
    ]
    params = _stacked_params(layers)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4, 2, 7, 7) if batched else (4, 2, 7, 7))
    grads = [np.zeros_like(p) for p in params]
    cache: dict = {}
    out, _ = layers[0].forward_many(x, params, batched=batched, cache=cache)
    grad_out = rng.normal(size=out.shape)
    grad_in = layers[0].backward_many(grad_out, params, grads, cache)
    for k, layer in enumerate(layers):
        layer.zero_grad()
        one: dict = {}
        np.testing.assert_array_equal(
            out[k], layer.forward(x[k] if batched else x, cache=one)
        )
        np.testing.assert_array_equal(grad_in[k], layer.backward(grad_out[k], one))
        np.testing.assert_array_equal(grads[0][k], layer.weight.grad)
        np.testing.assert_array_equal(grads[1][k], layer.bias.grad)
    # The lowest parametered layer skips the input gradient only.
    skipped = [np.zeros_like(p) for p in params]
    layers[0].forward_many(x, params, batched=batched, cache=cache)
    assert (
        layers[0].backward_many(grad_out, params, skipped, cache, need_input_grad=False)
        is None
    )
    for got, want in zip(skipped, grads):
        np.testing.assert_array_equal(got, want)


def test_fused_paths_reject_what_forward_rejects(rng):
    layer = Conv2D(3, 2, 3, rng)
    params = _stacked_params([layer, layer])
    bad_inputs = [
        (rng.normal(size=(1, 2, 8, 8)), False),  # wrong channel count
        (rng.normal(size=(2, 1, 2, 8, 8)), True),
        (rng.normal(size=(3, 8, 8)), False),  # wrong ndim
        (rng.normal(size=(1, 3, 8, 8)), True),  # missing the model axis
    ]
    for x, batched in bad_inputs:
        with pytest.raises(ValueError, match="Conv2D expected"):
            layer.forward_many(x, params, batched=batched)
        with pytest.raises(ValueError, match="Conv2D expected"):
            layer.forward_many(x, params, batched=batched, cache={})

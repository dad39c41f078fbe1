"""Property tests pinning the CNN kernels to the formulations they replaced.

ReLU, max-pooling, the conv unfold and the stable sigmoid run as
whole-array passes with no per-element branch (bit-mask selects, strided
window planes, one gather over a cached patch index).  The references
below are the earlier formulations, kept here as oracles: ``np.where``
selects for ReLU, pooling over ``im2col`` windows routed back through
``np.where`` + ``col2im``, the slice-loop ``im2col``, and the
boolean-index sigmoid.  The fused conv and LSTM passes, walked in
K-chunks of any size, and the embedding's stacked gather and scatter
are pinned to each model's own ``forward`` / ``backward``.
Every output, one-hot mask and gradient must match them in raw bits
(viewed as unsigned ints) — over NaN (with payloads and either sign), ±inf, ±0.0, all-zero and equal-max windows,
odd image sizes, strided and overlapping pools, shared and batched model
stacks, and float32 as well as float64.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.nn.layers import LSTM, Conv2D, Embedding, MaxPool2D, ReLU, conv, lstm
from repro.nn.layers.activations import sigmoid
from repro.nn.layers.conv import col2im, conv_output_size, im2col

# Tier-1 keeps the example budget small; the CI chaos job widens the
# sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))

# inf + -inf in an overlapping window's gradient sum is part of the sweep.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

_UNSIGNED = {4: np.uint32, 8: np.uint64}
FLOATS = st.sampled_from([np.float64, np.float32])
POOLS = st.sampled_from([(2, 2), (3, 2), (3, 1), (2, 3)])
MODES = st.sampled_from(["specials", "ties", "zeros", "normal"])


# ------------------------------------------------------------ references
def reference_im2col(x, kh, kw, stride, padding):
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        padded = np.zeros(lead + (h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[..., padding : padding + h, padding : padding + w] = x
        x = padded
    cols = np.empty(lead + (kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            cols[..., i, j, :, :] = x[..., i:i_max:stride, j:j_max:stride]
    return cols


def reference_relu(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def reference_pool(x, p, stride):
    """Window maxima and the one-hot of each window's first maximum."""
    cols = reference_im2col(x, p, p, stride, 0)
    windows = cols.reshape(cols.shape[:-4] + (p * p,) + cols.shape[-2:])
    out = windows.max(axis=-3)
    chosen = windows == out[..., None, :, :]
    seen = chosen[..., 0, :, :].copy()
    for q in range(1, chosen.shape[-3]):
        plane = chosen[..., q, :, :]
        plane &= ~seen
        seen |= plane
    return out, chosen


def reference_route(grad_out, chosen, hw, p, stride):
    grad_windows = np.where(chosen, grad_out[..., None, :, :], 0.0)
    grad_cols = grad_windows.reshape(
        grad_windows.shape[:-3] + (p, p) + grad_windows.shape[-2:]
    )
    return col2im(grad_cols, grad_cols.shape[:-4] + hw, p, p, stride, 0)


def reference_sigmoid(x):
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


# --------------------------------------------------------------- helpers
def bits(a):
    a = np.asarray(a)
    if a.dtype == bool:
        return a
    return a.view(_UNSIGNED[a.dtype.itemsize])


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(bits(actual), bits(expected))


def assert_bits_equal_but_nan_payloads(actual, expected):
    """Raw bits equal, except that a NaN may carry another input NaN's
    payload or sign: which NaN a sum keeps depends on the order a BLAS
    kernel accumulates in, and the per-model and stacked input-gradient
    matmuls do not share it, chunked or not; which NaN an element-wise
    product of two NaNs (or a sum, where overlapping pool windows meet)
    keeps depends on where the element falls in numpy's vector loop, so
    on the array's length and strides."""
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert_bits_equal(np.where(nan, 0.0, actual), np.where(nan, 0.0, expected))


def _specials(dtype):
    """NaN (quiet, negative, with a payload), ±inf, ±0.0 and ±1.0."""
    unsigned = _UNSIGNED[np.dtype(dtype).itemsize]
    if unsigned is np.uint64:
        sign, nan = 1 << 63, 0x7FF8 << 48
    else:
        sign, nan = 1 << 31, 0x7FC << 20
    nans = np.array([nan, nan | sign, nan | 0x123], dtype=unsigned).view(dtype)
    finite = np.array([np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0], dtype=dtype)
    return np.concatenate([nans, finite])


def sample(rng, shape, dtype, mode):
    """``specials`` mixes the special values into normals; ``ties`` draws
    from {-1, 0, 1} (equal-max windows); ``zeros`` from {+0.0, -0.0}."""
    if mode == "zeros":
        return rng.choice(np.array([0.0, -0.0], dtype=dtype), size=shape)
    if mode == "ties":
        return rng.integers(-1, 2, size=shape).astype(dtype)
    x = rng.normal(size=shape).astype(dtype)
    if mode == "specials":
        pick = rng.random(size=shape) < 0.3
        x[pick] = rng.choice(_specials(dtype), size=int(pick.sum()))
    return x


# ----------------------------------------------------------------- ReLU
@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 15)
@given(
    seed=st.integers(0, 2**31 - 1),
    dtype=FLOATS,
    mode=MODES,
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    k=st.integers(1, 3),
)
def test_relu_matches_where_reference(seed, dtype, mode, shape, k):
    rng = np.random.default_rng(seed)
    layer = ReLU()
    # Sequential path.
    x = sample(rng, shape, dtype, mode)
    grad = sample(rng, shape, dtype, "specials")
    expected, mask = reference_relu(x)
    one: dict = {}
    assert_bits_equal(layer.forward(x, cache=one), expected)
    assert_bits_equal(layer.backward(grad, one), np.where(mask, grad, 0.0))
    # Fused path on a model stack.
    stack = sample(rng, (k,) + shape, dtype, mode)
    grads = sample(rng, (k,) + shape, dtype, "specials")
    expected, mask = reference_relu(stack)
    assert_bits_equal(layer.forward_many(stack, [], batched=True)[0], expected)
    cache: dict = {}
    assert_bits_equal(
        layer.forward_many(stack, [], batched=True, cache=cache)[0], expected
    )
    assert_bits_equal(
        layer.backward_many(grads, [], [], cache), np.where(mask, grads, 0.0)
    )
    # A pre-model-axis mask broadcasts over the stacked gradient.
    cache = {}
    layer.forward_many(x, [], batched=False, cache=cache)
    assert_bits_equal(
        layer.backward_many(grads, [], [], cache),
        np.where(x > 0, grads, 0.0),
    )


def test_relu_gradient_wider_than_activation():
    """A float64 gradient through a float32 activation widens like
    ``np.where`` does."""
    x = np.array([[-1.0, 0.0, -0.0, 2.0, np.nan, np.inf]], dtype=np.float32)
    grad = np.array([[1.0, -0.0, 3.0, -4.0, 5.0, np.nan]])
    layer = ReLU()
    cache: dict = {}
    layer.forward(x, cache=cache)
    assert_bits_equal(layer.backward(grad, cache), np.where(x > 0, grad, 0.0))
    layer.forward(grad, cache=cache)
    narrow = grad.astype(np.float32)
    assert_bits_equal(layer.backward(narrow, cache), np.where(grad > 0, narrow, 0.0))


# ----------------------------------------------------------- max-pooling
@st.composite
def pool_cases(draw):
    size, stride = draw(POOLS)
    h = draw(st.integers(size, size + 6))
    w = draw(st.integers(size, size + 6))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return size, stride, (n, c, h, w)


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 20)
@given(
    case=pool_cases(),
    seed=st.integers(0, 2**31 - 1),
    dtype=FLOATS,
    mode=MODES,
    k=st.integers(1, 3),
)
# Windows tiling the input exactly (every input element assigned, none
# zero-filled first) and the same pools over a remainder row and column.
@example((2, 2, (2, 3, 4, 6)), 0, np.float64, "specials", 2)
@example((3, 3, (1, 2, 6, 9)), 1, np.float32, "zeros", 1)
@example((2, 2, (1, 2, 5, 7)), 2, np.float64, "specials", 3)
@example((3, 3, (2, 1, 7, 8)), 3, np.float64, "ties", 2)
# Overlapping windows whose input-gradient sums meet two opposite-sign NaNs.
@example((3, 1, (1, 3, 3, 6)), 3, np.float64, "normal", 1)
def test_pool_matches_window_reference(case, seed, dtype, mode, k):
    size, stride, shape = case
    rng = np.random.default_rng(seed)
    layer = MaxPool2D(size, stride)
    # Overlapping windows add gradients into a shared input element, where
    # two NaNs of opposite sign can meet: which one a sum keeps depends on
    # strides, and the layer and the col2im reference add with different
    # ones.  Disjoint windows never add, so they stay bit-exact.
    assert_grad = assert_bits_equal_but_nan_payloads if stride < size else assert_bits_equal

    def check(x, grad_fn, batched):
        expected, chosen = reference_pool(x, size, stride)
        grad = grad_fn(expected.shape)
        expected_grad = reference_route(grad, chosen, x.shape[-2:], size, stride)
        if batched is None:  # sequential
            assert_bits_equal(layer.forward(x), expected)
            cache: dict = {}
            assert_bits_equal(layer.forward(x, cache=cache), expected)
            masks = cache["masks"]
            assert_grad(layer.backward(grad, cache), expected_grad)
        else:
            assert_bits_equal(layer.forward_many(x, [], batched=batched)[0], expected)
            cache = {}
            out, _ = layer.forward_many(x, [], batched=batched, cache=cache)
            assert_bits_equal(out, expected)
            masks = cache["masks"]
            assert_grad(layer.backward_many(grad, [], [], cache), expected_grad)
        assert_bits_equal(np.stack(masks, axis=-3), chosen)

    gradient = lambda out_shape: sample(rng, out_shape, dtype, "specials")
    check(sample(rng, shape, dtype, mode), gradient, None)
    check(sample(rng, (k,) + shape, dtype, mode), gradient, True)
    # Shared input (no model axis yet), stacked gradient: the mask has no
    # model axis and broadcasts, as the reference's ``np.where`` does.
    shared = sample(rng, shape, dtype, mode)
    check(shared, lambda out_shape: gradient((k,) + out_shape), False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pool_every_2x2_window_over_signed_zeros_and_nans(dtype):
    """Which zero or NaN a window pools to depends on the reduction
    order, so sweep every 2x2 window over {+0, -0, NaN, -NaN, 1}: tiled
    side by side (many windows per plane) and one per image (the
    single-window planes the reference reduces in numpy's own order)."""
    values = np.array([0.0, -0.0, np.nan, -np.nan, 1.0], dtype=dtype)
    grid = np.stack(np.meshgrid(*[np.arange(5)] * 4, indexing="ij"), -1)
    windows = values[grid.reshape(-1, 4)].reshape(-1, 2, 2)  # (625, 2, 2)
    layer = MaxPool2D(2, 2)
    tiled = windows.transpose(1, 0, 2).reshape(1, 1, 2, -1)
    single = windows[:, None]
    for x in (tiled, single):
        expected, chosen = reference_pool(x, 2, 2)
        grad = np.arange(1, expected.size + 1, dtype=dtype).reshape(expected.shape)
        cache: dict = {}
        assert_bits_equal(layer.forward(x, cache=cache), expected)
        assert_bits_equal(
            layer.backward(grad, cache), reference_route(grad, chosen, x.shape[-2:], 2, 2)
        )
        assert_bits_equal(layer.forward_many(x[None], [], batched=True)[0][0], expected)


@pytest.mark.parametrize("size, stride", [(2, 2), (3, 2), (3, 1), (2, 3)])
def test_pool_window_larger_than_input_raises_like_reference(size, stride):
    x = np.zeros((1, 1, size - 1, size + 1))
    with pytest.raises(ValueError) as expected:
        reference_pool(x, size, stride)
    layer = MaxPool2D(size, stride)
    for run in (
        lambda: layer.forward(x),
        lambda: layer.forward_many(x[None], [], batched=True),
        lambda: layer.forward_many(x, [], batched=False, cache={}),
    ):
        with pytest.raises(ValueError) as raised:
            run()
        assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------- unfold
@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 20)
@given(
    seed=st.integers(0, 2**31 - 1),
    dtype=FLOATS,
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    lead=st.sampled_from([(2, 1), (1, 3), (2, 2, 1)]),
)
def test_im2col_matches_slice_loop(seed, dtype, kernel, stride, padding, h, w, lead):
    x = sample(np.random.default_rng(seed), lead + (h, w), dtype, "specials")
    try:
        expected = reference_im2col(x, kernel, kernel, stride, padding)
    except ValueError as error:
        with pytest.raises(ValueError, match=str(error)):
            im2col(x, kernel, kernel, stride, padding)
        return
    assert_bits_equal(im2col(x, kernel, kernel, stride, padding), expected)


# ------------------------------------------------------------ fused conv
@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 25)
@given(
    seed=st.integers(0, 2**31 - 1),
    mode=MODES,
    k=st.integers(1, 5),
    chunk=st.integers(1, 3),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    batched=st.booleans(),
)
# K not a multiple of the chunk, K = 1, padding 0 and 2, stride 2, both
# input forms — always, whatever the random draws cover.
@example(0, "normal", 5, 2, 3, 2, 0, 7, 6, True)
@example(1, "specials", 5, 3, 5, 1, 2, 4, 5, False)
@example(2, "ties", 1, 1, 3, 2, 2, 3, 3, True)
@example(3, "zeros", 1, 2, 1, 1, 0, 2, 2, False)
def test_chunked_fused_conv_matches_per_model_path(
    seed, mode, k, chunk, kernel, stride, padding, h, w, batched
):
    """Fused conv forward (eval and train) and backward, walked in
    K-chunks of ``chunk`` models — ``k`` need not be a multiple of it —
    equal each model's own ``forward`` / ``backward`` in raw bits:
    outputs, input gradients and kernel/bias gradients, for a batched
    ``(k, N, C, H, W)`` stack and a shared ``(N, C, H, W)`` input."""
    assume(2 * padding + min(h, w) >= kernel)  # at least one output pixel
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(2, 3, kernel, np.random.default_rng(seed + i), stride=stride, padding=padding)
        for i in range(k)
    ]
    params = [
        np.stack([layer.weight.value for layer in layers]),
        np.stack([layer.bias.value for layer in layers]),
    ]
    x = sample(rng, ((k,) if batched else ()) + (3, 2, h, w), np.float64, mode)
    per_model = (x[0] if batched else x).nbytes * kernel**2 // stride**2
    grads = [np.zeros_like(p) for p in params]
    skipped = [np.zeros_like(p) for p in params]
    cache: dict = {}
    with mock.patch.object(conv, "_PATCH_BYTES", chunk * per_model):
        assert layers[0]._per_chunk(x[:1] if batched else x) == chunk
        evaluated, _ = layers[0].forward_many(x, params, batched=batched)
        out, _ = layers[0].forward_many(x, params, batched=batched, cache=cache)
        grad_out = sample(rng, out.shape, np.float64, mode)
        grad_in = layers[0].backward_many(grad_out, params, grads, cache)
        assert (
            layers[0].backward_many(
                grad_out, params, skipped, cache, need_input_grad=False
            )
            is None
        )
    for i, layer in enumerate(layers):
        one: dict = {}
        expected = layer.forward(x[i] if batched else x, cache=one)
        assert_bits_equal(evaluated[i], expected)
        assert_bits_equal(out[i], expected)
        assert_bits_equal_but_nan_payloads(grad_in[i], layer.backward(grad_out[i], one))
        for got in (grads, skipped):
            assert_bits_equal(got[0][i], layer.weight.grad)
            assert_bits_equal(got[1][i], layer.bias.grad)


# ------------------------------------------------- LSTM and embedding
@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 20)
@given(
    seed=st.integers(0, 2**31 - 1),
    mode=MODES,
    k=st.integers(2, 4),
    chunk=st.integers(1, 3),
    n=st.integers(1, 3),
    t=st.integers(1, 4),
    batched=st.booleans(),
)
@example(0, "specials", 3, 2, 2, 3, True)
@example(1, "zeros", 2, 1, 1, 1, False)
def test_lstm_stack_matches_one_model_loop(seed, mode, k, chunk, n, t, batched):
    """The K-model LSTM, walked in K-chunks of ``chunk`` models — ``k``
    need not be a multiple of it — equals each model's own ``forward`` /
    ``backward`` in raw bits: hidden states, input gradients and all
    three parameter gradients, for a shared and a batched input.  Where
    two NaNs meet in one gate product, which one's sign survives
    depends on where the element falls in numpy's vector loop, so NaN
    payloads and signs are exempt (as for conv's input gradient)."""
    rng = np.random.default_rng(seed)
    layers = [LSTM(3, 2, np.random.default_rng(seed + i)) for i in range(k)]
    for layer in layers:
        for param in layer.parameters():
            param.value[...] = sample(rng, param.value.shape, np.float64, mode)
    params = [np.stack(group) for group in zip(*(
        [param.value for param in layer.parameters()] for layer in layers
    ))]
    x = sample(rng, ((k,) if batched else ()) + (n, t, 3), np.float64, mode)
    grads = [np.zeros_like(p) for p in params]
    skipped = [np.zeros_like(p) for p in params]
    cache: dict = {}
    with mock.patch.object(lstm, "_STEP_BYTES", chunk * n * 8 * 8):
        evaluated, _ = layers[0].forward_many(x, params, batched=batched)
        out, _ = layers[0].forward_many(x, params, batched=batched, cache=cache)
        assert len(cache["tapes"]) == -(-k // chunk)
        grad_out = sample(rng, out.shape, np.float64, "specials")
        grad_in = layers[0].backward_many(grad_out, params, grads, cache)
        assert (
            layers[0].backward_many(grad_out, params, skipped, cache, need_input_grad=False)
            is None
        )
    for i, layer in enumerate(layers):
        one: dict = {}
        expected = layer.forward(x[i] if batched else x, cache=one)
        assert_bits_equal_but_nan_payloads(evaluated[i], expected)
        assert_bits_equal_but_nan_payloads(out[i], expected)
        assert_bits_equal_but_nan_payloads(grad_in[i], layer.backward(grad_out[i], one))
        for got in (grads, skipped):
            for stack, param in zip(got, layer.parameters()):
                assert_bits_equal_but_nan_payloads(stack[i], param.grad)


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 20)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(2, 4),
    vocab=st.integers(1, 5),
    n=st.integers(1, 3),
    t=st.integers(1, 6),
    batched=st.booleans(),
)
def test_embedding_stack_matches_one_model_loop(seed, k, vocab, n, t, batched):
    """``k`` tables gathered and scattered at once equal each model's own
    lookup and scatter-add in raw bits, over tables, gradients and
    already-accumulated table gradients holding NaN of both signs, ±inf
    and -0.0 (repeated tokens add in the same order)."""
    rng = np.random.default_rng(seed)
    layers = [Embedding(vocab, 2, np.random.default_rng(seed + i)) for i in range(k)]
    for layer in layers:
        layer.table.value[...] = sample(rng, (vocab, 2), np.float64, "specials")
        layer.table.grad[...] = sample(rng, (vocab, 2), np.float64, "specials")
    params = [np.stack([layer.table.value for layer in layers])]
    grads = [np.stack([layer.table.grad for layer in layers])]
    tokens = rng.integers(0, vocab, size=((k,) if batched else ()) + (n, t))
    cache: dict = {}
    evaluated, _ = layers[0].forward_many(tokens, params, batched=batched)
    out, _ = layers[0].forward_many(tokens, params, batched=batched, cache=cache)
    grad_out = sample(rng, out.shape, np.float64, "specials")
    grad_in = layers[0].backward_many(grad_out, params, grads, cache)
    assert layers[0].backward_many(
        grad_out, params, [grads[0].copy()], cache, need_input_grad=False
    ) is None
    for i, layer in enumerate(layers):
        one: dict = {}
        expected = layer.forward(tokens[i] if batched else tokens, cache=one)
        assert_bits_equal(evaluated[i], expected)
        assert_bits_equal(out[i], expected)
        assert_bits_equal(grad_in[i], layer.backward(grad_out[i], one))
        assert_bits_equal(grads[0][i], layer.table.grad)


# --------------------------------------------------------------- sigmoid
@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 10)
@given(
    seed=st.integers(0, 2**31 - 1),
    dtype=FLOATS,
    shape=st.lists(st.integers(1, 40), min_size=1, max_size=3).map(tuple),
)
def test_sigmoid_matches_boolean_mask_reference(seed, dtype, shape):
    rng = np.random.default_rng(seed)
    x = sample(rng, shape, dtype, "specials") * dtype(8.0)
    assert_bits_equal(sigmoid(x), reference_sigmoid(x))

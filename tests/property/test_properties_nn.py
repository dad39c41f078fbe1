"""Property-based tests for the nn substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fl.aggregation import mean_aggregate
from repro.nn.losses import softmax_cross_entropy, softmax_probabilities
from repro.nn.serialization import (
    clone_weights,
    flatten_weights,
    weights_allclose,
    weights_l2_distance,
)

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def weight_lists(min_arrays=1, max_arrays=3):
    shapes = st.sampled_from([(2,), (3, 2), (2, 2, 2)])
    array = shapes.flatmap(
        lambda s: hnp.arrays(np.float64, s, elements=finite_floats)
    )
    return st.lists(array, min_size=min_arrays, max_size=max_arrays)


@given(weight_lists())
def test_clone_roundtrip(weights):
    assert weights_allclose(clone_weights(weights), weights)


@given(weight_lists())
def test_average_idempotent_on_duplicates(weights):
    avg = mean_aggregate([weights, clone_weights(weights), clone_weights(weights)])
    assert weights_allclose(avg, weights, atol=1e-9)


@given(weight_lists(), st.floats(min_value=0.1, max_value=10.0))
def test_l2_distance_scales_linearly(weights, factor):
    base = weights_l2_distance(weights, [w + 1.0 for w in weights])
    scaled = weights_l2_distance(weights, [w + factor for w in weights])
    assert abs(scaled - factor * base) < 1e-8 * max(base, 1.0)


@given(weight_lists())
def test_l2_distance_symmetry(weights):
    other = [w + 0.5 for w in weights]
    assert weights_l2_distance(weights, other) == weights_l2_distance(other, weights)


@given(weight_lists())
def test_flatten_preserves_count(weights):
    assert flatten_weights(weights).size == sum(w.size for w in weights)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 5)),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
)
def test_softmax_is_distribution(logits):
    probs = softmax_probabilities(logits)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 5)),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
    st.data(),
)
def test_cross_entropy_non_negative_and_grad_bounded(logits, data):
    n, k = logits.shape
    labels = np.array(
        [data.draw(st.integers(0, k - 1)) for _ in range(n)], dtype=np.int64
    )
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss >= 0.0
    # each gradient entry is (p - y)/n with p in [0,1]
    assert np.all(np.abs(grad) <= 1.0 / n + 1e-12)

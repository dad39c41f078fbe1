"""Weight utilities: cloning, distances."""

import numpy as np
import pytest

from repro.nn.serialization import (
    clone_weights,
    flatten_weights,
    total_parameter_count,
    weights_allclose,
    weights_l2_distance,
)


def weights_of(rng, shapes=((3, 2), (2,))):
    return [rng.normal(size=s) for s in shapes]


def test_clone_is_deep(rng):
    original = weights_of(rng)
    cloned = clone_weights(original)
    cloned[0][0, 0] += 99.0
    assert original[0][0, 0] != cloned[0][0, 0]


def test_l2_distance_zero_for_identical(rng):
    w = weights_of(rng)
    assert weights_l2_distance(w, clone_weights(w)) == 0.0


def test_l2_distance_known_value():
    a = [np.zeros((2, 2))]
    b = [np.ones((2, 2))]
    assert weights_l2_distance(a, b) == pytest.approx(2.0)


def test_flatten_concatenates(rng):
    w = weights_of(rng)
    flat = flatten_weights(w)
    assert flat.shape == (8,)
    np.testing.assert_allclose(flat[:6], w[0].reshape(-1))


def test_total_parameter_count(rng):
    assert total_parameter_count(weights_of(rng)) == 8


def test_allclose_detects_length_difference(rng):
    w = weights_of(rng)
    assert not weights_allclose(w, w[:1])

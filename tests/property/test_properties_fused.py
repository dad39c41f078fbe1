"""Property-based tests for the fused multi-model evaluation plane.

The plane's core contract: for any model the zoo can build,
``Classifier.accuracy_many`` over a ``(k, P)`` stack of flat rows equals
the sequential ``load_flat`` + ``accuracy`` loop **bit for bit** in
float64 — through the fused kernels where every layer supports them
(MLP, logistic regression, both CNNs) and through the automatic
per-model fallback everywhere else (LSTM).
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import SGD, zoo
from repro.nn.layers import Dense, Dropout, LastTimeStep, ReLU, Sigmoid, Tanh, conv
from repro.nn.model import Classifier, plan_local_batches
from repro.nn.module import Sequential

# Tier-1 keeps the example budget small; the CI chaos job widens the
# sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))
from repro.nn.training_plane import LockstepTrainer, TrainJob


def _image_data(rng, batch, channels, size, classes):
    x = rng.normal(size=(batch, channels, size, size))
    return x, rng.integers(0, classes, size=batch)


def _flat_data(rng, batch, features, classes):
    return rng.normal(size=(batch, features)), rng.integers(0, classes, size=batch)


def _token_data(rng, batch, length, vocab):
    return rng.integers(0, vocab, size=(batch, length)), rng.integers(
        0, vocab, size=batch
    )


BUILDERS = {
    "mlp": (
        lambda rng: zoo.build_mlp(rng, in_features=36, hidden=(12,), num_classes=5),
        lambda rng: _flat_data(rng, 7, 36, 5),
        True,
    ),
    "logistic_regression": (
        lambda rng: zoo.build_logistic_regression(rng, in_features=12, num_classes=4),
        lambda rng: _flat_data(rng, 6, 12, 4),
        True,
    ),
    "fmnist_cnn": (
        lambda rng: zoo.build_fmnist_cnn(rng, image_size=8, size="small"),
        lambda rng: _image_data(rng, 4, 1, 8, 10),
        True,
    ),
    "cifar_cnn": (
        lambda rng: zoo.build_cifar_cnn(
            rng, image_size=8, num_classes=10, size="small"
        ),
        lambda rng: _image_data(rng, 3, 3, 8, 10),
        True,
    ),
    "poets_lstm": (
        lambda rng: zoo.build_poets_lstm(rng, vocab_size=11, embedding_dim=4),
        lambda rng: _token_data(rng, 5, 6, 11),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=CHAOS_EXAMPLES or 6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 5))
def test_accuracy_many_equals_sequential_loop_bit_for_bit(name, seed, k):
    builder, make_data, fused = BUILDERS[name]
    rng = np.random.default_rng(seed)
    model = builder(rng)
    assert model.supports_fused_eval is fused
    x, y = make_data(rng)
    rows = rng.normal(size=(k, model.flat_spec.total))

    batched = model.accuracy_many(rows, x, y)

    sequential = np.empty(k, dtype=np.float64)
    for i in range(k):
        model.load_flat(rows[i])
        sequential[i] = model.accuracy(x, y)

    assert batched.dtype == np.float64
    np.testing.assert_array_equal(batched, sequential)


@pytest.mark.parametrize("name", ["cifar_cnn", "fmnist_cnn"])
@settings(max_examples=CHAOS_EXAMPLES or 6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 5))
def test_cnn_logits_bit_identical_from_float32_rows(name, seed, k):
    """Stronger than accuracies: the conv/pool kernels reproduce every
    logit of the per-model forward, from float32 rows widened the way
    ``load_flat`` widens them."""
    builder, make_data, _ = BUILDERS[name]
    rng = np.random.default_rng(seed)
    model = builder(rng)
    x, _ = make_data(rng)
    rows = rng.normal(size=(k, model.flat_spec.total)).astype(np.float32)
    params = model.flat_spec.unflatten_many(rows.astype(np.float64))
    logits, batched = model.net.forward_many(x, params)
    assert batched and logits.shape[0] == k
    for i in range(k):
        model.load_flat(rows[i])
        np.testing.assert_array_equal(logits[i], model.logits(x))


@pytest.mark.parametrize("name", ["cifar_cnn", "fmnist_cnn"])
@settings(max_examples=CHAOS_EXAMPLES or 6, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(2, 5),
    cap=st.integers(1, 60_000),
    momentum=st.sampled_from([0.0, 0.9]),
)
def test_chunked_cnn_passes_equal_sequential_loop(name, seed, k, cap, momentum):
    """With the patch cap shrunk to ``cap`` bytes every conv layer walks
    its stacks in K-chunks of its own size (one model at the smallest
    caps): lockstep training — trained rows and mean losses, under plain
    and momentum SGD — and the fused logits still equal the per-model
    loop bit for bit."""
    builder, make_data, _ = BUILDERS[name]
    rng = np.random.default_rng(seed)
    model = builder(rng)
    x, y = make_data(rng)
    n = len(x)
    rows = rng.normal(size=(k, model.flat_spec.total)) * 0.3
    jobs = [
        TrainJob(
            x=x,
            y=y,
            batches=plan_local_batches(
                n, np.random.default_rng(seed + i), epochs=2, batch_size=2
            ),
            start_flat=rows[i],
            lr=0.05,
            momentum=momentum,
        )
        for i in range(k)
    ]
    with mock.patch.object(conv, "_PATCH_BYTES", cap):
        trained = LockstepTrainer(lr=0.05, momentum=momentum).train(model, jobs)
        logits, _ = model.net.forward_many(x, model.flat_spec.unflatten_many(rows))
    for i, (row, loss) in enumerate(trained):
        model.load_flat(rows[i])
        np.testing.assert_array_equal(logits[i], model.logits(x))
        optimizer = SGD(0.05, momentum=momentum)
        losses = [
            model.train_batch(x[idx], y[idx], optimizer) for idx in jobs[i].batches
        ]
        np.testing.assert_array_equal(row, model.get_flat())
        assert loss == float(np.mean(losses))


@settings(max_examples=CHAOS_EXAMPLES or 6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 5))
def test_fused_kernels_cover_tanh_sigmoid_dropout_lasttimestep(seed, k):
    """A synthetic stack exercising every fused kernel the zoo's MLPs
    don't reach: Tanh, Sigmoid, eval-mode Dropout, and the sequence head
    (Dense applied per timestep, then LastTimeStep)."""
    rng = np.random.default_rng(seed)
    model = Classifier(
        Sequential(
            [
                Dense(6, 8, rng),
                Tanh(),
                Dropout(0.5, rng),
                LastTimeStep(),
                Dense(8, 4, rng),
                ReLU(),
                Dense(4, 3, rng),
                Sigmoid(),
            ]
        )
    )
    assert model.supports_fused_eval
    x = rng.normal(size=(5, 4, 6))  # (batch, time, features)
    y = rng.integers(0, 3, size=5)
    rows = rng.normal(size=(k, model.flat_spec.total))

    batched = model.accuracy_many(rows, x, y)
    sequential = np.empty(k, dtype=np.float64)
    for i in range(k):
        model.load_flat(rows[i])
        sequential[i] = model.accuracy(x, y)
    np.testing.assert_array_equal(batched, sequential)


def test_accuracy_many_k_zero_and_validation(rng):
    model = zoo.build_mlp(rng, in_features=9, hidden=(4,), num_classes=3)
    x, y = _flat_data(np.random.default_rng(0), 4, 9, 3)
    empty = model.accuracy_many(np.empty((0, model.flat_spec.total)), x, y)
    assert empty.shape == (0,)
    with pytest.raises(ValueError, match="matrix"):
        model.accuracy_many(np.zeros(model.flat_spec.total), x, y)
    with pytest.raises(ValueError, match="matrix"):
        model.accuracy_many(np.zeros((2, model.flat_spec.total + 1)), x, y)
    with pytest.raises(ValueError, match="empty"):
        model.accuracy_many(
            np.zeros((2, model.flat_spec.total)), x[:0], y[:0]
        )


def test_accuracy_many_float32_rows_match_load_flat_cast(rng):
    """float32 storage (the arena's compact mode) casts on load in both
    paths, so the equivalence holds there too."""
    model = zoo.build_mlp(rng, in_features=9, hidden=(4,), num_classes=3)
    data_rng = np.random.default_rng(3)
    x, y = _flat_data(data_rng, 6, 9, 3)
    rows = data_rng.normal(size=(4, model.flat_spec.total)).astype(np.float32)
    batched = model.accuracy_many(rows, x, y)
    sequential = np.empty(4)
    for i in range(4):
        model.load_flat(rows[i])
        sequential[i] = model.accuracy(x, y)
    np.testing.assert_array_equal(batched, sequential)

"""Lockstep training plane: bit-identity with the sequential loop.

The plane's contract is exact: for any jobs, ``LockstepTrainer.train``
produces the same float64 weights and the same mean batch losses as
loading each job's start weights and running ``Classifier.train_local``
over the same schedule — through the fused superstep kernels, which
every layer implements (MLP, CNN, LSTM).  Dropout must agree too: the
fused pass draws each model's masks from a forked stream, and afterwards
the layer's own generator must sit exactly where the sequential run
would have left it.  A job carrying ``mu`` must equal the same loop under
``ProximalSGD`` anchored at its start weights.
"""

from unittest import mock

import numpy as np
import pytest

from repro.nn import SGD, ProximalSGD, zoo
from repro.nn.layers import Dense, Dropout, Flatten, LastTimeStep, ReLU, Sigmoid, Tanh
from repro.nn.model import Classifier, plan_local_batches
from repro.nn.module import Sequential
from repro.nn.training_plane import LockstepTrainer, TrainJob


def build_dropout_mlp():
    rng = np.random.default_rng(0)
    return Classifier(
        Sequential(
            [
                Flatten(),
                Dropout(0.2, rng=np.random.default_rng(99)),
                Dense(20, 12, rng, init="he"),
                ReLU(),
                Dropout(0.3, rng=np.random.default_rng(123)),
                Dense(12, 5, rng),
                Tanh(),
                Dense(5, 5, rng),
            ]
        )
    )


def build_time_distributed():
    """Dense over (N, T, F) + LastTimeStep: fused kernels on sequences."""
    rng = np.random.default_rng(1)
    return Classifier(
        Sequential(
            [
                Dense(6, 8, rng, init="he"),
                Sigmoid(),
                LastTimeStep(),
                Dense(8, 4, rng),
            ]
        )
    )


def make_datasets(k, n, feature_shape, classes, seed=7):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.normal(size=(n,) + feature_shape),
            rng.integers(0, classes, size=n),
        )
        for _ in range(k)
    ]


def reference_optimizer(model, lr, momentum, mu):
    """What a job with ``mu`` trains under: plain SGD for ``None``,
    else ProximalSGD anchored at the weights just loaded."""
    if mu is None:
        return SGD(lr, momentum=momentum)
    optimizer = ProximalSGD(lr, mu, momentum=momentum)
    optimizer.set_reference(model.get_weights())
    return optimizer


def sequential_reference(model, datasets, start, *, lr, momentum, seeds, mus=None,
                         **sched):
    """The per-client loop: load, train_local, collect weights + loss."""
    rows, losses = [], []
    mus = mus or [None] * len(datasets)
    for (x, y), seed, mu in zip(datasets, seeds, mus):
        model.load_flat(start)
        optimizer = reference_optimizer(model, lr, momentum, mu)
        loss = model.train_local(x, y, optimizer, np.random.default_rng(seed), **sched)
        rows.append(model.get_flat())
        losses.append(loss)
    return rows, losses


def lockstep_result(model, datasets, start, *, lr, momentum, seeds, mus=None, **sched):
    jobs = []
    mus = mus or [None] * len(datasets)
    for (x, y), seed, mu in zip(datasets, seeds, mus):
        batches = plan_local_batches(x.shape[0], np.random.default_rng(seed), **sched)
        jobs.append(
            TrainJob(x=x, y=y, batches=batches, start_flat=start.copy(), mu=mu)
        )
    return LockstepTrainer(lr=lr, momentum=momentum).train(model, jobs)


def assert_lockstep_matches(builder, k, *, feature_shape, classes, n=23,
                            momentum=0.0, sched=None, in_features=None, mu=None):
    sched = sched or dict(epochs=1, batch_size=7, max_batches=4)
    reference_model = builder()
    lockstep_model = builder()
    start = reference_model.get_flat()
    datasets = make_datasets(k, n, feature_shape, classes)
    seeds = [100 + i for i in range(k)]
    mus = [mu] * k
    rows, losses = sequential_reference(
        reference_model, datasets, start, lr=0.1, momentum=momentum, seeds=seeds,
        mus=mus, **sched
    )
    outcomes = lockstep_result(
        lockstep_model, datasets, start, lr=0.1, momentum=momentum, seeds=seeds,
        mus=mus, **sched
    )
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        assert row.tobytes() == expected_row.tobytes()
        assert row.dtype == np.float64
        assert loss == expected_loss
    return reference_model, lockstep_model


def test_mlp_lockstep_bit_identical():
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(3), in_features=20, hidden=(16, 8), num_classes=5
    )
    assert_lockstep_matches(builder, 5, feature_shape=(20,), classes=5)


def test_multi_epoch_and_recycled_batches():
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(3), in_features=20, hidden=(8,), num_classes=5
    )
    assert_lockstep_matches(
        builder, 3, feature_shape=(20,), classes=5, n=9,
        sched=dict(epochs=2, batch_size=4, max_batches=5),
    )


def test_momentum_lockstep_bit_identical():
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(3), in_features=20, hidden=(8,), num_classes=5
    )
    assert_lockstep_matches(builder, 4, feature_shape=(20,), classes=5, momentum=0.9)


@pytest.mark.parametrize("mu", [None, 0.0, 0.5])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("k", [1, 4])
def test_proximal_lockstep_bit_identical(k, momentum, mu):
    """``TrainJob.mu`` adds ``mu * (w - w_start)`` to the gradient stack:
    the fused supersteps (and the one-job fallback) equal train_local
    under ProximalSGD, bit for bit — ``mu = 0.0`` included, which still
    takes the proximal path."""
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(3), in_features=20, hidden=(8,), num_classes=5
    )
    assert_lockstep_matches(
        builder, k, feature_shape=(20,), classes=5, momentum=momentum, mu=mu,
        sched=dict(epochs=2, batch_size=7, max_batches=3),
    )


def test_k1_group_uses_fused_path_and_matches():
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(3), in_features=20, hidden=(8,), num_classes=5
    )
    assert_lockstep_matches(builder, 1, feature_shape=(20,), classes=5)


def test_time_distributed_dense_and_last_time_step():
    assert_lockstep_matches(
        build_time_distributed, 4, feature_shape=(5, 6), classes=4
    )


def test_dropout_streams_reproduce_sequential_order():
    """Per-model forked dropout streams reproduce the client-major draw
    order, and the layers' own generators end in the sequential state —
    so the *next* training run matches too, fused or not."""
    reference_model, lockstep_model = assert_lockstep_matches(
        build_dropout_mlp, 4, feature_shape=(4, 5), classes=5
    )
    for ref_layer, lock_layer in zip(
        reference_model.net.layers, lockstep_model.net.layers
    ):
        if isinstance(ref_layer, Dropout):
            assert (
                ref_layer._rng.bit_generator.state
                == lock_layer._rng.bit_generator.state
            )
    # Round 2 from the advanced streams must still agree.
    assert_rows_equal_after_second_round(reference_model, lockstep_model)


def assert_rows_equal_after_second_round(reference_model, lockstep_model):
    datasets = make_datasets(3, 15, (4, 5), 5, seed=21)
    start = reference_model.get_flat()
    seeds = [55, 56, 57]
    sched = dict(epochs=1, batch_size=5, max_batches=3)
    rows, losses = sequential_reference(
        reference_model, datasets, start, lr=0.05, momentum=0.0, seeds=seeds, **sched
    )
    outcomes = lockstep_result(
        lockstep_model, datasets, start, lr=0.05, momentum=0.0, seeds=seeds, **sched
    )
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        np.testing.assert_array_equal(row, expected_row)
        assert loss == expected_loss


def test_mixed_batch_schedules_split_into_groups():
    """Jobs with different dataset sizes (different batch shapes) cannot
    share supersteps; the trainer groups by signature and still matches
    the sequential loop job for job — including dropout stream order,
    which follows the *caller's* job order across groups."""
    reference_model = build_dropout_mlp()
    lockstep_model = build_dropout_mlp()
    start = reference_model.get_flat()
    sizes = [23, 14, 23, 14, 9]
    rng = np.random.default_rng(11)
    datasets = [
        (rng.normal(size=(n, 4, 5)), rng.integers(0, 5, size=n)) for n in sizes
    ]
    seeds = [200 + i for i in range(len(sizes))]
    sched = dict(epochs=1, batch_size=6, max_batches=4)
    rows, losses = sequential_reference(
        reference_model, datasets, start, lr=0.1, momentum=0.0, seeds=seeds, **sched
    )
    outcomes = lockstep_result(
        lockstep_model, datasets, start, lr=0.1, momentum=0.0, seeds=seeds, **sched
    )
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        np.testing.assert_array_equal(row, expected_row)
        assert loss == expected_loss


def assert_float32_start_rows_match(builder, feature_shape, classes):
    reference_model = builder()
    lockstep_model = builder()
    start32 = reference_model.get_flat().astype(np.float32)
    datasets = make_datasets(3, 16, feature_shape, classes)
    seeds = [300, 301, 302]
    sched = dict(epochs=1, batch_size=8, max_batches=2)
    rows, losses = [], []
    for (x, y), seed in zip(datasets, seeds):
        reference_model.load_flat(start32)
        losses.append(
            reference_model.train_local(
                x, y, SGD(0.1), np.random.default_rng(seed), **sched
            )
        )
        rows.append(reference_model.get_flat())
    jobs = [
        TrainJob(
            x=x,
            y=y,
            batches=plan_local_batches(
                x.shape[0], np.random.default_rng(seed), **sched
            ),
            start_flat=start32.copy(),
        )
        for (x, y), seed in zip(datasets, seeds)
    ]
    outcomes = LockstepTrainer(lr=0.1).train(lockstep_model, jobs)
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        np.testing.assert_array_equal(row, expected_row)
        assert loss == expected_loss


def test_float32_start_rows_match_sequential_cast():
    """Float32 rows (e.g. out of a float32 weight arena) widen to float64
    exactly as ``set_weights``/``load_flat`` cast them."""
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(3), in_features=20, hidden=(8,), num_classes=5
    )
    assert_float32_start_rows_match(builder, (20,), 5)


CNN_BUILDERS = {
    "fmnist_cnn": (
        lambda: zoo.build_fmnist_cnn(
            np.random.default_rng(2), image_size=8, size="small"
        ),
        (1, 8, 8),
    ),
    "cifar_cnn": (
        lambda: zoo.build_cifar_cnn(
            np.random.default_rng(2), image_size=8, num_classes=10, size="small"
        ),
        (3, 8, 8),
    ),
}


@pytest.mark.parametrize("name", sorted(CNN_BUILDERS))
@pytest.mark.parametrize("k, momentum", [(1, 0.0), (4, 0.0), (3, 0.9)])
def test_conv_lockstep_bit_identical(name, k, momentum):
    """Conv2D/MaxPool2D train through the fused supersteps — K = 1
    included — with the sequential loop's weights and losses."""
    builder, feature_shape = CNN_BUILDERS[name]
    assert builder().supports_fused_train
    assert_lockstep_matches(
        builder, k, feature_shape=feature_shape, classes=10, momentum=momentum
    )


@pytest.mark.parametrize("name", sorted(CNN_BUILDERS))
def test_conv_proximal_lockstep_bit_identical(name):
    builder, feature_shape = CNN_BUILDERS[name]
    assert_lockstep_matches(
        builder, 3, feature_shape=feature_shape, classes=10, momentum=0.5, mu=0.3
    )


def test_conv_float32_start_rows_match_sequential_cast():
    builder, feature_shape = CNN_BUILDERS["fmnist_cnn"]
    assert_float32_start_rows_match(builder, feature_shape, 10)


POETS_BUILDERS = {
    "small": lambda: zoo.build_poets_lstm(
        np.random.default_rng(2), vocab_size=11, embedding_dim=4
    ),
    "paper": lambda: zoo.build_poets_lstm(
        np.random.default_rng(2), vocab_size=11, embedding_dim=4, size="paper"
    ),
}


def assert_poets_lockstep_matches(builder, *, momentum=0.0, mu=None, length=6):
    """Two token datasets through the lockstep plane — on its fused
    supersteps, never the per-model loop — against the per-client loop."""
    reference_model = builder()
    assert reference_model.supports_fused_train
    lockstep_model = builder()
    rng = np.random.default_rng(5)
    datasets = [
        (rng.integers(0, 11, size=(10, length)), rng.integers(0, 11, size=10))
        for _ in range(2)
    ]
    start = reference_model.get_flat()
    seeds = [400, 401]
    sched = dict(epochs=1, batch_size=5, max_batches=2)
    rows, losses = sequential_reference(
        reference_model, datasets, start, lr=0.05, momentum=momentum, seeds=seeds,
        mus=[mu, mu], **sched
    )
    with mock.patch.object(
        LockstepTrainer, "_train_sequential", side_effect=AssertionError("per-model loop")
    ):
        outcomes = lockstep_result(
            lockstep_model, datasets, start, lr=0.05, momentum=momentum, seeds=seeds,
            mus=[mu, mu], **sched
        )
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        assert row.tobytes() == expected_row.tobytes()
        assert loss == expected_loss


@pytest.mark.parametrize(
    "builder", [POETS_BUILDERS["small"]], ids=["lstm"],
)
def test_unfused_zoo_models_fall_back_per_model(builder):
    """The Poets LSTM no longer falls back: its embedding and LSTM
    layers train K models in one superstep, still equal to the
    per-client loop bit for bit."""
    assert_poets_lockstep_matches(builder)


@pytest.mark.parametrize("size", sorted(POETS_BUILDERS))
@pytest.mark.parametrize(
    "momentum, mu", [(0.0, None), (0.9, None), (0.0, 0.3), (0.9, 0.3)]
)
def test_poets_lockstep_bit_identical(size, momentum, mu):
    """Plain SGD, momentum and FedProx's proximal pull, on the small and
    the paper-width (two 256-unit layers) Poets models."""
    assert_poets_lockstep_matches(
        POETS_BUILDERS[size], momentum=momentum, mu=mu, length=4 if size == "paper" else 6
    )


def test_supports_fused_train_flags():
    assert zoo.build_mlp(
        np.random.default_rng(0), in_features=8, hidden=(4,), num_classes=3
    ).supports_fused_train
    assert build_dropout_mlp().supports_fused_train
    assert zoo.build_fmnist_cnn(
        np.random.default_rng(0), image_size=8, size="small"
    ).supports_fused_train
    assert zoo.build_cifar_cnn(
        np.random.default_rng(0), image_size=8, size="small"
    ).supports_fused_train
    assert zoo.build_poets_lstm(
        np.random.default_rng(0), vocab_size=7
    ).supports_fused_train


def test_plan_local_batches_matches_historical_consumption():
    """The planner draws exactly the permutations the historical
    training loop drew, in the same order, and reproduces its schedule
    (including max_batches recycling)."""
    n, batch_size, max_batches, epochs = 13, 5, 6, 2
    rng_plan = np.random.default_rng(9)
    schedule = plan_local_batches(
        n, rng_plan, epochs=epochs, batch_size=batch_size, max_batches=max_batches
    )
    rng_ref = np.random.default_rng(9)
    expected = []
    for _ in range(epochs):
        order = rng_ref.permutation(n)
        batches = [order[s : s + batch_size] for s in range(0, n, batch_size)]
        while len(batches) < max_batches:
            extra = rng_ref.permutation(n)
            batches.extend(extra[s : s + batch_size] for s in range(0, n, batch_size))
        expected.extend(batches[:max_batches])
    assert len(schedule) == len(expected) == epochs * max_batches
    for got, want in zip(schedule, expected):
        np.testing.assert_array_equal(got, want)
    assert rng_plan.bit_generator.state == rng_ref.bit_generator.state


def test_plan_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        plan_local_batches(0, np.random.default_rng(0))


def test_trainer_validates_row_shapes():
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=8, hidden=(4,), num_classes=3
    )
    job = TrainJob(
        x=np.zeros((4, 8)),
        y=np.zeros(4, dtype=np.int64),
        batches=[np.arange(4)],
        start_flat=np.zeros(3),
    )
    with pytest.raises(ValueError, match="start_flat"):
        LockstepTrainer(lr=0.1).train(model, [job])


def test_trainer_empty_jobs():
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=8, hidden=(4,), num_classes=3
    )
    assert LockstepTrainer(lr=0.1).train(model, []) == []


def test_per_job_optimizer_configs_with_dropout():
    """Jobs carrying different lr/momentum cannot share supersteps, but
    they still train in one call — and dropout stream order stays
    client-major across the resulting groups (regression: per-config
    grouping once forked streams group-major)."""
    reference_model = build_dropout_mlp()
    lockstep_model = build_dropout_mlp()
    start = reference_model.get_flat()
    datasets = make_datasets(4, 21, (4, 5), 5, seed=33)
    seeds = [500 + i for i in range(4)]
    lrs = [0.1, 0.2, 0.1, 0.05]
    sched = dict(epochs=1, batch_size=7, max_batches=3)
    rows, losses = [], []
    for (x, y), seed, lr in zip(datasets, seeds, lrs):
        reference_model.load_flat(start)
        losses.append(
            reference_model.train_local(
                x, y, SGD(lr), np.random.default_rng(seed), **sched
            )
        )
        rows.append(reference_model.get_flat())
    jobs = [
        TrainJob(
            x=x,
            y=y,
            batches=plan_local_batches(
                x.shape[0], np.random.default_rng(seed), **sched
            ),
            start_flat=start.copy(),
            lr=lr,
        )
        for (x, y), seed, lr in zip(datasets, seeds, lrs)
    ]
    outcomes = LockstepTrainer(lr=0.999).train(lockstep_model, jobs)
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        np.testing.assert_array_equal(row, expected_row)
        assert loss == expected_loss
    for ref_layer, lock_layer in zip(
        reference_model.net.layers, lockstep_model.net.layers
    ):
        if isinstance(ref_layer, Dropout):
            assert (
                ref_layer._rng.bit_generator.state
                == lock_layer._rng.bit_generator.state
            )


def test_mixed_proximal_jobs_train_in_separate_groups(monkeypatch):
    """Jobs with and without ``mu`` (and with different ``mu``) share one
    call but never a superstep; each still equals its own sequential
    run, and dropout stream order stays client-major across groups."""
    groups = []
    train_group = LockstepTrainer._train_group

    def spy(self, model, jobs, streams):
        groups.append([job.mu for job in jobs])
        return train_group(self, model, jobs, streams)

    monkeypatch.setattr(LockstepTrainer, "_train_group", spy)
    reference_model = build_dropout_mlp()
    lockstep_model = build_dropout_mlp()
    start = reference_model.get_flat()
    datasets = make_datasets(5, 21, (4, 5), 5, seed=44)
    seeds = [600 + i for i in range(5)]
    mus = [None, 0.5, None, 0.0, 0.5]
    sched = dict(epochs=1, batch_size=7, max_batches=3)
    rows, losses = sequential_reference(
        reference_model, datasets, start, lr=0.1, momentum=0.5, seeds=seeds,
        mus=mus, **sched
    )
    outcomes = lockstep_result(
        lockstep_model, datasets, start, lr=0.1, momentum=0.5, seeds=seeds,
        mus=mus, **sched
    )
    assert sorted(groups, key=len) == [[0.0], [None, None], [0.5, 0.5]]
    for (row, loss), expected_row, expected_loss in zip(outcomes, rows, losses):
        assert row.tobytes() == expected_row.tobytes()
        assert loss == expected_loss
    for ref_layer, lock_layer in zip(
        reference_model.net.layers, lockstep_model.net.layers
    ):
        if isinstance(ref_layer, Dropout):
            assert (
                ref_layer._rng.bit_generator.state
                == lock_layer._rng.bit_generator.state
            )

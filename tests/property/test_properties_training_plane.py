"""Property-based tests for the lockstep training plane.

Core contract, fuzzed: for any fused-capable architecture, any number of
models, any batch schedule, any start weights and any mix of proximal
terms, lockstep training equals the sequential ``load_flat`` +
``train_local`` loop bit for bit (under ``ProximalSGD`` for a job with
``mu``) — trained weights, mean losses, and (when dropout is present)
the layer generators' end states.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import SGD, ProximalSGD
from repro.nn.layers import Dense, Dropout, Flatten, ReLU, Sigmoid, Tanh
from repro.nn.model import Classifier, plan_local_batches
from repro.nn.module import Sequential
from repro.nn.training_plane import LockstepTrainer, TrainJob

# Tier-1 keeps the example budget small; the CI chaos job widens the
# sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))


def build_model(seed, *, dropout):
    rng = np.random.default_rng(seed)
    layers = [Flatten()]
    features = 12  # 3 x 4 input
    widths = [8, 6]
    activations = [ReLU(), Tanh(), Sigmoid()]
    for i, width in enumerate(widths):
        layers.append(Dense(features, width, rng, init="he"))
        layers.append(activations[i % len(activations)])
        if dropout:
            layers.append(Dropout(0.3, rng=np.random.default_rng(seed + 17 + i)))
        features = width
    layers.append(Dense(features, 4, rng))
    return Classifier(Sequential(layers))


@settings(max_examples=CHAOS_EXAMPLES or 10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(1, 5),
    batch_size=st.integers(2, 9),
    max_batches=st.integers(1, 5),
    momentum=st.sampled_from([0.0, 0.5]),
    dropout=st.booleans(),
    mus=st.lists(st.sampled_from([None, 0.0, 0.7]), min_size=5, max_size=5),
)
def test_lockstep_equals_sequential_loop(
    seed, k, batch_size, max_batches, momentum, dropout, mus
):
    data_rng = np.random.default_rng(seed)
    n = int(data_rng.integers(6, 20))
    datasets = [
        (
            data_rng.normal(size=(n, 3, 4)),
            data_rng.integers(0, 4, size=n),
        )
        for _ in range(k)
    ]
    sched = dict(epochs=1, batch_size=batch_size, max_batches=max_batches)
    seeds = [seed + 1000 + i for i in range(k)]

    reference_model = build_model(seed, dropout=dropout)
    start = reference_model.get_flat()
    expected = []
    for (x, y), job_seed, mu in zip(datasets, seeds, mus):
        reference_model.load_flat(start)
        if mu is None:
            optimizer = SGD(0.1, momentum=momentum)
        else:
            optimizer = ProximalSGD(0.1, mu, momentum=momentum)
            optimizer.set_reference(reference_model.get_weights())
        loss = reference_model.train_local(
            x, y, optimizer, np.random.default_rng(job_seed), **sched
        )
        expected.append((reference_model.get_flat(), loss))

    lockstep_model = build_model(seed, dropout=dropout)
    jobs = [
        TrainJob(
            x=x,
            y=y,
            batches=plan_local_batches(n, np.random.default_rng(job_seed), **sched),
            start_flat=start.copy(),
            mu=mu,
        )
        for (x, y), job_seed, mu in zip(datasets, seeds, mus)
    ]
    outcomes = LockstepTrainer(lr=0.1, momentum=momentum).train(lockstep_model, jobs)

    for (row, loss), (expected_row, expected_loss) in zip(outcomes, expected):
        assert row.tobytes() == expected_row.tobytes()
        assert loss == expected_loss
    for layer_a, layer_b in zip(
        reference_model.net.layers, lockstep_model.net.layers
    ):
        if isinstance(layer_a, Dropout):
            assert (
                layer_a._rng.bit_generator.state
                == layer_b._rng.bit_generator.state
            )

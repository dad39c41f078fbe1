"""Training-plane rounds must be bit-identical to per-client rounds.

``DagConfig(training_plane=True)`` reroutes a round through
``run_training_plane_round`` — per-client walk/aggregation prep, one
lockstep local-SGD pass, per-client finalization.  Because the lockstep
kernels are bit-identical to the sequential loop, every record field,
the tangle, and all carried client state must match the plain
``execute_unit`` path exactly, for any executor and any protocol
configuration — including conv models (fused like the MLP) and the
plane's dropout stream reconciliation.
"""

import copy

import numpy as np
import pytest

from repro.fl import DagConfig, TangleLearning, TrainingConfig
from repro.nn import zoo
from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from repro.nn.model import Classifier
from repro.nn.module import Sequential


def make_sim(dataset, builder, train_config, **dag_overrides):
    dag_overrides.setdefault("alpha", 10.0)
    dag_overrides.setdefault("depth_range", (2, 5))
    attackers = dag_overrides.pop("attackers", None)
    clients_per_round = dag_overrides.pop("clients_per_round", 4)
    return TangleLearning(
        dataset,
        builder,
        train_config,
        DagConfig(**dag_overrides),
        clients_per_round=clients_per_round,
        seed=0,
        attackers=attackers,
    )


def assert_histories_identical(a, b):
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra.round_index == rb.round_index
        assert ra.active_clients == rb.active_clients
        assert ra.client_accuracy == rb.client_accuracy  # bit-identical floats
        assert ra.client_loss == rb.client_loss
        assert ra.reference_accuracy == rb.reference_accuracy
        assert ra.published == rb.published
        assert ra.walk_evaluations == rb.walk_evaluations
        assert set(ra.walk_duration) == set(rb.walk_duration)
    assert len(a.tangle) == len(b.tangle)
    for t1, t2 in zip(a.tangle.transactions(), b.tangle.transactions()):
        assert t1.tx_id == t2.tx_id
        assert t1.parents == t2.parents
        assert t1.issuer == t2.issuer
        assert t1.tags == t2.tags
        for w1, w2 in zip(t1.model_weights, t2.model_weights):
            np.testing.assert_array_equal(w1, w2)
    for client_id in a.clients:
        ca, cb = a.clients[client_id], b.clients[client_id]
        assert ca.rng.bit_generator.state == cb.rng.bit_generator.state
        assert ca.evaluations == cb.evaluations
        assert ca.tx_accuracy_cache() == cb.tx_accuracy_cache()


@pytest.mark.parametrize(
    "dag_overrides",
    [
        {},
        {"attackers": {2: "random_weights"}},
        {"personal_params": 2},
        {"visibility_delay": 1},
        {"walk_engine": True},
        {"clients_per_round": 1},
        {"publish_gate": False},
    ],
    ids=[
        "accuracy",
        "attacker",
        "personalized",
        "visibility-delay",
        "walk-engine",
        "single-client-round",
        "no-gate",
    ],
)
def test_training_plane_rounds_identical_to_per_client_loop(
    tiny_fmnist, mlp_builder, fast_train_config, dag_overrides
):
    baseline = make_sim(tiny_fmnist, mlp_builder, fast_train_config, **dag_overrides)
    plane = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config,
        training_plane=True, **dag_overrides,
    )
    try:
        baseline.run(3)
        plane.run(3)
    finally:
        baseline.close()
        plane.close()
    assert_histories_identical(baseline, plane)


def test_training_plane_parallel_identical_to_serial(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """Prep units fan out over a process pool; lockstep training runs on
    the coordinator.  Results must match the serial per-client loop bit
    for bit."""
    baseline = make_sim(tiny_fmnist, mlp_builder, fast_train_config)
    plane_parallel = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config,
        training_plane=True, parallelism=2,
    )
    try:
        baseline.run(3)
        plane_parallel.run(3)
    finally:
        baseline.close()
        plane_parallel.close()
    assert_histories_identical(baseline, plane_parallel)


def test_training_plane_conv_round_identical(tiny_fmnist, fast_train_config):
    """Conv models train through the fused supersteps: with the plane
    on, rounds must reproduce the per-client loop exactly, as they do
    for the MLP."""
    builder = lambda rng: zoo.build_fmnist_cnn(rng, image_size=10, size="small")

    def reshaped(sim):
        # fmnist data is flat (N, 100); the CNN wants (N, 1, 10, 10).
        for client in sim.clients.values():
            client.data.x_train = client.data.x_train.reshape(-1, 1, 10, 10)
            client.data.x_test = client.data.x_test.reshape(-1, 1, 10, 10)
        return sim

    data_a = copy.deepcopy(tiny_fmnist)
    data_b = copy.deepcopy(tiny_fmnist)
    baseline = reshaped(make_sim(data_a, builder, fast_train_config))
    plane = reshaped(make_sim(data_b, builder, fast_train_config, training_plane=True))
    assert plane.model.supports_fused_train
    try:
        baseline.run(2)
        plane.run(2)
    finally:
        baseline.close()
        plane.close()
    assert_histories_identical(baseline, plane)


def dropout_mlp_builder(rng):
    return Classifier(
        Sequential(
            [
                Flatten(),
                Dense(100, 16, rng, init="he"),
                ReLU(),
                Dropout(0.25, rng=np.random.default_rng(4242)),
                Dense(16, 10, rng),
            ]
        )
    )


def test_training_plane_dropout_round_identical(
    tiny_fmnist, fast_train_config
):
    """Dropout models: the lockstep pass forks per-client streams off
    the shared layer generator and reconciles it afterwards, so rounds
    (and the rounds after them) match the sequential loop exactly."""
    baseline = make_sim(tiny_fmnist, dropout_mlp_builder, fast_train_config)
    plane = make_sim(
        tiny_fmnist, dropout_mlp_builder, fast_train_config, training_plane=True
    )
    try:
        baseline.run(4)
        plane.run(4)
    finally:
        baseline.close()
        plane.close()
    assert_histories_identical(baseline, plane)
    for layer_a, layer_b in zip(baseline.model.net.layers, plane.model.net.layers):
        if isinstance(layer_a, Dropout):
            assert (
                layer_a._rng.bit_generator.state
                == layer_b._rng.bit_generator.state
            )


def test_training_plane_dropout_round_parallel_matches_serial(
    tiny_fmnist, fast_train_config
):
    """With the plane on, dropout draws happen on the *coordinator's*
    canonical model even under the parallel executor (prep is eval-only;
    training is lockstep) — so parallel rounds of dropout models match
    the serial reference, which the per-client parallel path cannot
    guarantee (worker model copies each hold their own stream)."""
    serial = make_sim(
        tiny_fmnist, dropout_mlp_builder, fast_train_config, training_plane=True
    )
    parallel = make_sim(
        tiny_fmnist, dropout_mlp_builder, fast_train_config,
        training_plane=True, parallelism=2,
    )
    try:
        serial.run(3)
        parallel.run(3)
    finally:
        serial.close()
        parallel.close()
    assert_histories_identical(serial, parallel)


def test_training_plane_mixed_model_instances_group_per_model(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """A round whose participants hold different model *instances* (the
    mixed-architecture shape) trains as one lockstep group per model —
    and still matches the per-client loop exactly."""

    def split_models(sim):
        # Same architecture, second instance: grouping must go by model
        # identity, not assume one global model.
        second = mlp_builder(np.random.default_rng(123))
        second.load_flat(sim.model.get_flat())
        for client_id in list(sim.clients)[len(sim.clients) // 2 :]:
            sim.clients[client_id].model = second
        return sim

    baseline = split_models(make_sim(tiny_fmnist, mlp_builder, fast_train_config))
    plane = split_models(
        make_sim(tiny_fmnist, mlp_builder, fast_train_config, training_plane=True)
    )
    try:
        baseline.run(3)
        plane.run(3)
    finally:
        baseline.close()
        plane.close()
    assert_histories_identical(baseline, plane)


def test_training_plane_async_cycles_identical(tiny_fmnist, mlp_builder):
    from repro.sim import EventDrivenTangleLearning, SimConfig

    config = TrainingConfig(
        local_epochs=1, local_batches=3, batch_size=8, learning_rate=0.1
    )

    def run(plane):
        sim = EventDrivenTangleLearning(
            tiny_fmnist,
            mlp_builder,
            config,
            DagConfig(alpha=10.0, depth_range=(2, 5), training_plane=plane),
            sim_config=SimConfig.async_compat(),
            seed=3,
        )
        sim.run_cycles(12)
        return sim

    baseline, plane = run(False), run(True)
    assert [e.accuracy for e in baseline.events] == [e.accuracy for e in plane.events]
    assert [e.reference_accuracy for e in baseline.events] == [
        e.reference_accuracy for e in plane.events
    ]
    assert [e.tx_id for e in baseline.events] == [e.tx_id for e in plane.events]
    for t1, t2 in zip(baseline.tangle.transactions(), plane.tangle.transactions()):
        for w1, w2 in zip(t1.model_weights, t2.model_weights):
            np.testing.assert_array_equal(w1, w2)


def test_training_plane_heterogeneous_client_configs_with_dropout(
    tiny_fmnist, fast_train_config
):
    """Clients with different TrainingConfigs share one dropout model:
    the plane must keep the layer stream client-major across the
    resulting optimizer groups (regression: grouping by optimizer config
    once reordered the forked streams)."""

    def with_split_configs(sim):
        fast_lr = fast_train_config.scaled(learning_rate=0.02)
        for client_id in list(sim.clients)[::2]:
            sim.clients[client_id].config = fast_lr
        return sim

    baseline = with_split_configs(
        make_sim(tiny_fmnist, dropout_mlp_builder, fast_train_config)
    )
    plane = with_split_configs(
        make_sim(
            tiny_fmnist, dropout_mlp_builder, fast_train_config,
            training_plane=True,
        )
    )
    try:
        baseline.run(3)
        plane.run(3)
    finally:
        baseline.close()
        plane.close()
    assert_histories_identical(baseline, plane)

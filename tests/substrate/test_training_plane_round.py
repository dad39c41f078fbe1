"""Training-plane rounds must be bit-identical to per-client rounds.

``execute_round`` routes by what it observes: an in-process round goes
through ``run_training_plane_round`` — per-client walk/aggregation prep,
one lockstep local-SGD pass, per-client finalization — and a round that
crosses to the pool maps whole ``execute_unit``s (the same phases for
one client: its one-job ``train_grouped`` call runs the trainer's
per-model reference loop).  Because the lockstep kernels are
bit-identical to the sequential loop, every record field, the tangle,
and all carried client state must match across the two routes exactly,
for any protocol configuration — including conv models (fused like the
MLP) and the plane's dropout stream reconciliation, which is why
dropout models keep their training on the coordinator on either route.
"""

import copy

import numpy as np
import pytest

from repro.fl import DagConfig, TangleLearning
from repro.nn import zoo
from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from repro.nn.model import Classifier
from repro.nn.module import Sequential
from repro.substrate import SerialExecutor

# Every pool here runs tiny payloads that the cost model would keep in
# process; open its thresholds so the pool route is the one under test.
pytestmark = pytest.mark.usefixtures("pool_route")


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


def make_pair(dataset, builder, train_config, prepare=lambda sim: sim, **dag_overrides):
    """The same simulation on each side of the routing: in-process
    (lockstep plane) and through a 2-worker pool."""
    return (
        prepare(make_sim(dataset, builder, train_config, **dag_overrides)),
        prepare(make_sim(dataset, builder, train_config, parallelism=2, **dag_overrides)),
    )


def mapped_functions(executor):
    """Names of the unit functions ``executor`` is asked to map — the
    coordinator-side trace of which route each round took."""
    seen = []
    original = executor.map

    def spy(fn, items):
        seen.append(fn.__name__)
        return original(fn, items)

    executor.map = spy
    return seen


def run_both(plane, pool, rounds, *, pool_route="execute_unit", pooled=True):
    plane_route = mapped_functions(plane.executor)
    pooled_route = mapped_functions(pool.executor)
    try:
        plane.run(rounds)
        pool.run(rounds)
    finally:
        plane.close()
        pool.close()
    assert plane_route == ["execute_prep_unit"] * rounds
    assert pooled_route == [pool_route] * rounds
    assert (pool.executor.mode_counts["parallel"] == rounds) == pooled
    assert_histories_identical(plane, pool)


class UnadvertisedSerial(SerialExecutor):
    """Runs units in-process without saying so, so ``execute_round``
    maps whole ``execute_unit``s through it — each training its client
    as a one-job ``train_grouped`` call."""

    def runs_in_process(self, items):
        return False


@pytest.fixture
def per_client_loop(monkeypatch):
    """Put a sim on the one-job route — every unit an ``execute_unit``
    whose single ``train_grouped`` job takes the trainer's per-model
    reference loop — dropout models included: sound only because
    nothing here crosses a process."""
    from repro.substrate import round_plan

    def force(sim):
        monkeypatch.setattr(round_plan, "draws_dropout_masks", lambda model: False)
        sim.executor = UnadvertisedSerial()
        return sim

    return force


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
        {"selector": "weighted"},
        {"clients_per_round": 1},
        {"publish_gate": False},
    ],
    ids=[
        "accuracy",
        "attacker",
        "personalized",
        "visibility-delay",
        "weighted",
        "single-client-round",
        "no-gate",
    ],
)
def test_training_plane_rounds_identical_to_per_client_loop(
    tiny_fmnist, mlp_builder, fast_train_config, dag_overrides
):
    # A pool runs a one-unit batch in the coordinator, so a single-client
    # round takes the lockstep route on both sides.
    single = dag_overrides.get("clients_per_round") == 1
    run_both(
        *make_pair(tiny_fmnist, mlp_builder, fast_train_config, **dag_overrides),
        3,
        pool_route="execute_prep_unit" if single else "execute_unit",
        pooled=not single,
    )


def test_training_plane_parallel_identical_to_serial(
    tiny_fmnist, mlp_builder, fast_train_config, monkeypatch
):
    """``execute_round`` itself: a ``SerialExecutor`` enters
    ``run_training_plane_round``, a 2-worker pool maps ``execute_unit``,
    and the two ``ClientRoundResult`` lists are bit-identical."""
    from repro.substrate import (
        ClientWorkUnit,
        ParallelExecutor,
        SerialExecutor,
        round_plan,
    )

    plane_rounds = []
    original = round_plan.run_training_plane_round

    def entering(executor, *args):
        plane_rounds.append(type(executor).__name__)
        return original(executor, *args)

    monkeypatch.setattr(round_plan, "run_training_plane_round", entering)
    results, routes = [], []
    for executor in (SerialExecutor(), ParallelExecutor(workers=2)):
        sim = make_sim(tiny_fmnist, mlp_builder, fast_train_config)
        routes.append(mapped_functions(executor))
        try:
            sim.run(2)  # a tangle deep enough for the walks to matter
            units = [
                ClientWorkUnit(client_id, ("walk", sim.round_index, client_id), attack)
                for client_id, attack in zip(
                    sorted(sim.clients)[:4], (None, None, "random_weights", None)
                )
            ]
            with executor:
                results.append(
                    round_plan.execute_round(
                        executor,
                        tangle=sim.tangle,
                        view=sim.tangle,
                        config=sim.dag_config,
                        rng_factory=sim._rngs,
                        units=units,
                        clients=sim.clients,
                    )
                )
        finally:
            sim.close()
    assert routes == [["execute_prep_unit"], ["execute_unit"]]
    assert executor.mode_counts["parallel"] == 1
    # sim.run's own rounds are in-process too; the pool never enters.
    assert set(plane_rounds) == {"SerialExecutor"}
    for serial, pooled in zip(*results):
        # Only what crossed a process boundary carries a state delta.
        assert serial.state is None
        assert (pooled.state is None) == (pooled.tags == {"malicious": True})
        for name in (
            "client_id", "publish", "parents", "tags", "reference_accuracy",
            "test_accuracy", "test_loss", "walk_evaluations",
        ):
            assert getattr(serial, name) == getattr(pooled, name), name
        if serial.publish:
            np.testing.assert_array_equal(serial.flat_weights, pooled.flat_weights)


def test_training_plane_conv_round_identical(tiny_fmnist, fast_train_config):
    """Conv models train through the fused supersteps: plane rounds must
    reproduce the per-client loop exactly, as they do for the MLP."""
    builder = lambda rng: zoo.build_fmnist_cnn(rng, image_size=10, size="small")

    def reshaped(sim):
        # fmnist data is flat (N, 100); the CNN wants (N, 1, 10, 10).
        for client in sim.clients.values():
            client.data.x_train = client.data.x_train.reshape(-1, 1, 10, 10)
            client.data.x_test = client.data.x_test.reshape(-1, 1, 10, 10)
        return sim

    plane = reshaped(make_sim(copy.deepcopy(tiny_fmnist), builder, fast_train_config))
    pool = reshaped(
        make_sim(copy.deepcopy(tiny_fmnist), builder, fast_train_config, parallelism=2)
    )
    assert plane.model.supports_fused_train
    run_both(plane, pool, 2)


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
    tiny_fmnist, fast_train_config, per_client_loop
):
    """Dropout models: the lockstep pass forks per-client streams off
    the shared layer generator and reconciles it afterwards, so rounds
    (and the rounds after them) match the sequential loop exactly."""
    baseline = per_client_loop(
        make_sim(tiny_fmnist, dropout_mlp_builder, fast_train_config)
    )
    plane = make_sim(tiny_fmnist, dropout_mlp_builder, fast_train_config)
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
    """A dropout model's mask generator lives on the model, so its
    training stays on the *coordinator's* canonical model even when the
    round crosses to the pool (prep is eval-only; training is lockstep)
    — parallel rounds of dropout models match the serial reference,
    which per-client units in workers cannot guarantee (worker model
    copies each hold their own stream)."""
    run_both(
        *make_pair(tiny_fmnist, dropout_mlp_builder, fast_train_config),
        3,
        pool_route="execute_prep_unit",
    )


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

    run_both(
        *make_pair(tiny_fmnist, mlp_builder, fast_train_config, prepare=split_models), 3
    )


def test_training_plane_heterogeneous_client_configs_with_dropout(
    tiny_fmnist, fast_train_config, per_client_loop
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

    baseline = per_client_loop(
        with_split_configs(make_sim(tiny_fmnist, dropout_mlp_builder, fast_train_config))
    )
    plane = with_split_configs(
        make_sim(tiny_fmnist, dropout_mlp_builder, fast_train_config)
    )
    try:
        baseline.run(3)
        plane.run(3)
    finally:
        baseline.close()
        plane.close()
    assert_histories_identical(baseline, plane)

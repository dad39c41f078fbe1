"""Serial vs parallel round execution must be bit-identical.

The substrate's correctness claim: for a fixed seed, executing a round's
work units across a process pool produces exactly the round records,
tangle structure, and model weights the serial reference path produces.
Wall-clock walk durations are the one legitimately nondeterministic
field and are excluded from the comparison.
"""

import numpy as np
import pytest

from repro.fl import DagConfig, TangleLearning, TrainingConfig


def make_sim(tiny_fmnist, mlp_builder, fast_train_config, **dag_overrides):
    dag_overrides.setdefault("alpha", 10.0)
    dag_overrides.setdefault("depth_range", (2, 5))
    attackers = dag_overrides.pop("attackers", None)
    return TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(**dag_overrides),
        clients_per_round=4,
        seed=0,
        attackers=attackers,
    )


def assert_records_identical(serial_history, parallel_history):
    assert len(serial_history) == len(parallel_history)
    for a, b in zip(serial_history, parallel_history):
        assert a.round_index == b.round_index
        assert a.active_clients == b.active_clients
        assert a.client_accuracy == b.client_accuracy  # bit-identical floats
        assert a.client_loss == b.client_loss
        assert a.reference_accuracy == b.reference_accuracy
        assert a.published == b.published
        assert a.walk_evaluations == b.walk_evaluations
        # walk_duration is wall-clock and varies run to run; keys must match
        assert set(a.walk_duration) == set(b.walk_duration)


def assert_tangles_identical(t1, t2):
    assert len(t1) == len(t2)
    for tx1, tx2 in zip(t1.transactions(), t2.transactions()):
        assert tx1.tx_id == tx2.tx_id
        assert tx1.parents == tx2.parents
        assert tx1.issuer == tx2.issuer
        assert tx1.round_index == tx2.round_index
        assert tx1.tags == tx2.tags
        for w1, w2 in zip(tx1.model_weights, tx2.model_weights):
            np.testing.assert_array_equal(w1, w2)


@pytest.mark.parametrize(
    "dag_overrides",
    [
        {},
        {"visibility_delay": 1},
        {"attackers": {2: "random_weights"}},
        {"selector": "weighted", "weighted_alpha": 0.5},
        {"personal_params": 2},
        {"walk_engine": True},
        {"walk_engine": True, "selector": "weighted", "visibility_delay": 1},
    ],
    ids=[
        "accuracy",
        "visibility-delay",
        "attacker",
        "weighted",
        "personalized",
        "walk-engine",
        "walk-engine-weighted-delay",
    ],
)
def test_serial_and_parallel_rounds_identical(
    tiny_fmnist, mlp_builder, fast_train_config, dag_overrides, pool_route
):
    serial = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config, parallelism=1, **dag_overrides
    )
    parallel = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config, parallelism=2, **dag_overrides
    )
    try:
        serial.run(3)
        parallel.run(3)
    finally:
        parallel.close()
        serial.close()

    assert parallel.executor.mode_counts["parallel"] == 3
    assert_records_identical(serial.history, parallel.history)
    assert_tangles_identical(serial.tangle, parallel.tangle)
    # client-side state carried across rounds must have converged too
    for client_id in serial.clients:
        s, p = serial.clients[client_id], parallel.clients[client_id]
        assert s.rng.bit_generator.state == p.rng.bit_generator.state
        assert s.evaluations == p.evaluations
        assert s.tx_accuracy_cache() == p.tx_accuracy_cache()


def test_parallelism_zero_means_machine_sized(
    tiny_fmnist, mlp_builder, fast_train_config
):
    sim = make_sim(tiny_fmnist, mlp_builder, fast_train_config, parallelism=0)
    try:
        record = sim.run_round()
    finally:
        sim.close()
    assert record.published  # the round actually ran
    assert sim.executor.parallelism >= 1


def test_explicit_executor_override(tiny_fmnist, mlp_builder, fast_train_config):
    from repro.substrate import SerialExecutor

    executor = SerialExecutor()
    sim = TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5), parallelism=4),
        clients_per_round=4,
        seed=0,
        executor=executor,
    )
    assert sim.executor is executor


def test_routed_pool_rounds_identical_to_serial(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """With the default routing thresholds a 2-worker pool keeps this
    small plan in process (the execute_round runs_in_process query),
    and those rounds match the serial reference bit for bit too; the
    pool route itself is test_serial_and_parallel_rounds_identical's."""
    serial = make_sim(tiny_fmnist, mlp_builder, fast_train_config)
    routed = make_sim(tiny_fmnist, mlp_builder, fast_train_config, parallelism=2)
    try:
        serial.run(3)
        routed.run(3)
    finally:
        serial.close()
        routed.close()
    assert routed.executor.mode_counts == {"serial": 3, "parallel": 0, "fallback": 0}
    assert_records_identical(serial.history, routed.history)
    assert_tangles_identical(serial.tangle, routed.tangle)


def test_worker_crash_mid_round_degrades_to_serial_bit_identical(
    tiny_fmnist, mlp_builder, fast_train_config, pool_route
):
    """Killing a pool worker mid-run must not change a single bit.

    The doomed task is queued ahead of round 1's units, so the pool is
    (or goes) broken while the round executes; the executor re-runs the
    round serially in-process, records the degradation, and rebuilds a
    fresh pool for round 2.
    """
    import contextlib
    import os

    from repro.substrate import ParallelExecutor

    serial = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config, parallelism=1
    )
    crashed = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config, parallelism=2
    )
    assert isinstance(crashed.executor, ParallelExecutor)
    try:
        serial.run(3)
        crashed.run_round()  # round 0: healthy parallel round
        doomed = crashed.executor._ensure_pool().submit(os._exit, 1)
        with contextlib.suppress(Exception):
            doomed.result(timeout=60)  # settle: the pool is broken now
        crashed.run(2)  # round 1 falls back; round 2 gets a fresh pool
    finally:
        crashed.close()
        serial.close()
    assert crashed.executor.mode_counts["fallback"] >= 1
    assert crashed.executor.mode_counts["parallel"] >= 1
    assert_records_identical(serial.history, crashed.history)
    assert_tangles_identical(serial.tangle, crashed.tangle)
    for client_id in serial.clients:
        s, p = serial.clients[client_id], crashed.clients[client_id]
        assert s.rng.bit_generator.state == p.rng.bit_generator.state
        assert s.tx_accuracy_cache() == p.tx_accuracy_cache()

"""Protocol extensions: personalization, attackers, visibility delay."""

import numpy as np
import pytest

from repro.fl import Client, DagConfig, TangleLearning, TrainingConfig
from repro.nn import zoo


# ----------------------------------------------------------- personalization
def test_personalization_keeps_tail_local(tiny_fmnist, mlp_builder):
    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig(local_epochs=1, local_batches=2, batch_size=8, learning_rate=0.1)
    client = Client(tiny_fmnist.clients[0], model, config, rng=0)
    initial = model.get_weights()
    client.enable_personalization(2, initial)

    spec = model.flat_spec
    foreign = spec.flatten([w + 5.0 for w in initial])
    composed = spec.unflatten(client.graft_tail(foreign))
    # body adopted from foreign, tail kept personal
    np.testing.assert_allclose(composed[0], initial[0] + 5.0)
    np.testing.assert_allclose(composed[-1], initial[-1])
    np.testing.assert_allclose(composed[-2], initial[-2])
    # a (k, P) stack is grafted row by row, into a float64 copy
    stack = np.stack([foreign, foreign + 1.0]).astype(np.float32)
    grafted = client.graft_tail(stack)
    assert grafted.dtype == np.float64 and not np.shares_memory(grafted, stack)
    np.testing.assert_array_equal(grafted[1], client.graft_tail(stack[1]))


def test_personalization_validation(tiny_fmnist, mlp_builder):
    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig()
    client = Client(tiny_fmnist.clients[0], model, config, rng=0)
    with pytest.raises(ValueError):
        client.enable_personalization(0, model.get_weights())
    with pytest.raises(ValueError):
        client.enable_personalization(99, model.get_weights())


def test_update_personal_tail_invalidates_cache(tiny_fmnist, mlp_builder):
    from repro.dag.tangle import Tangle
    from repro.dag.transaction import GENESIS_ID

    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig()
    client = Client(tiny_fmnist.clients[0], model, config, rng=0)
    initial = model.get_weights()
    client.enable_personalization(2, initial)
    tangle = Tangle(initial)
    client.tx_accuracy(tangle, GENESIS_ID)
    count = client.evaluations
    client.update_personal_tail([w + 1.0 for w in initial])
    client.tx_accuracy(tangle, GENESIS_ID)
    assert client.evaluations == count + 1  # cache was dropped


def test_personalized_simulation_runs_and_tails_diverge(
    tiny_fmnist, mlp_builder, fast_train_config
):
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, personal_params=2, depth_range=(2, 5)),
        clients_per_round=6, seed=0,
    )
    sim.run(4)
    tails = [
        tuple(np.round(c.personal_tail[-1], 6))
        for c in sim.clients.values()
        if c.personal_tail is not None
    ]
    assert len(set(map(str, tails))) > 1  # clients' heads differ


def test_personalization_off_by_default(small_sim):
    small_sim.run_round()
    assert all(c.personal_tail is None for c in small_sim.clients.values())


# ------------------------------------------------------------------ attackers
def test_attacker_publishes_tagged_random_weights(
    tiny_fmnist, mlp_builder, fast_train_config
):
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=tiny_fmnist.num_clients, seed=0,
        attackers={0: "random_weights"},
    )
    sim.run(2)
    malicious = [t for t in sim.tangle.transactions() if t.tags.get("malicious")]
    assert len(malicious) == 2  # active every round (all clients active)
    assert all(t.issuer == 0 for t in malicious)


def test_attacker_not_recorded_in_accuracy_metrics(
    tiny_fmnist, mlp_builder, fast_train_config
):
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=tiny_fmnist.num_clients, seed=0,
        attackers={0: "random_weights"},
    )
    record = sim.run_round()
    assert 0 not in record.client_accuracy
    assert 0 not in record.walk_duration


def test_attacker_contained_by_accuracy_walk(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """Random-weight updates barely hurt honest clients: late-round honest
    accuracy with one attacker stays close to the attack-free run."""
    def late_accuracy(attackers):
        sim = TangleLearning(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(alpha=10.0, depth_range=(2, 5)),
            clients_per_round=5, seed=0, attackers=attackers,
        )
        records = sim.run(8)
        return float(np.mean([r.mean_accuracy for r in records[-3:]]))

    clean = late_accuracy(None)
    attacked = late_accuracy({0: "random_weights"})
    assert attacked > clean - 0.25


def test_attacker_validation(tiny_fmnist, mlp_builder, fast_train_config):
    with pytest.raises(ValueError, match="not a client"):
        TangleLearning(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(depth_range=(2, 5)), seed=0,
            attackers={999: "random_weights"},
        )
    with pytest.raises(ValueError, match="unknown attack"):
        TangleLearning(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(depth_range=(2, 5)), seed=0,
            attackers={0: "mind_control"},
        )


# ----------------------------------------------------------- visibility delay
def test_visibility_delay_respected(tiny_fmnist, mlp_builder, fast_train_config):
    delay = 2
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5), visibility_delay=delay),
        clients_per_round=5, seed=0,
    )
    sim.run(6)
    for tx in sim.tangle.transactions():
        if tx.is_genesis:
            continue
        for parent in tx.parents:
            parent_tx = sim.tangle.get(parent)
            if parent_tx.is_genesis:
                continue
            assert parent_tx.round_index <= tx.round_index - 1 - delay


def test_visibility_delay_zero_matches_default(
    tiny_fmnist, mlp_builder, fast_train_config
):
    def run(delay):
        sim = TangleLearning(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(alpha=10.0, depth_range=(2, 5), visibility_delay=delay),
            clients_per_round=4, seed=7,
        )
        sim.run(3)
        return [t.tx_id for t in sim.tangle.transactions()]

    assert run(0) == run(0)


def test_config_validation_for_extensions():
    with pytest.raises(ValueError):
        DagConfig(personal_params=-1)
    with pytest.raises(ValueError):
        DagConfig(visibility_delay=-1)

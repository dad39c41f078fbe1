"""Gossip learning baseline."""

import pytest

from repro.data import make_fedprox_synthetic
from repro.fl import GossipLearning, TrainingConfig
from repro.nn import zoo
from repro.nn.serialization import weights_allclose


@pytest.fixture
def gossip(tiny_fmnist, mlp_builder, fast_train_config):
    return GossipLearning(
        tiny_fmnist, mlp_builder, fast_train_config, clients_per_round=4, seed=0
    )


def test_round_updates_active_clients_only(gossip):
    before = {cid: [w.copy() for w in ws] for cid, ws in gossip.local_weights.items()}
    record = gossip.run_round()
    for client_id in gossip.clients:
        changed = not weights_allclose(
            gossip.local_weights[client_id], before[client_id]
        )
        assert changed == (client_id in record.active_clients)


def test_learning_progresses(gossip):
    records = gossip.run(8)
    assert records[-1].mean_accuracy > records[0].mean_accuracy


def test_records_have_metrics(gossip):
    record = gossip.run_round()
    assert set(record.client_accuracy) == set(record.active_clients)
    assert all(0 <= a <= 1 for a in record.client_accuracy.values())


def test_rejects_a_federation_without_peers(fast_train_config):
    """A lone client has nobody to gossip with: rejected up front, not
    by numpy mid-round."""
    lone = make_fedprox_synthetic(num_clients=1, mean_samples=20, seed=0)
    with pytest.raises(ValueError, match="at least 2 clients"):
        GossipLearning(lone, zoo.build_logistic_regression, fast_train_config)

"""FedAvg and FedProx servers."""

import numpy as np
import pytest

from repro.data import make_fedprox_synthetic
from repro.fl import FedAvgServer, FedProxServer, TrainingConfig
from repro.nn import zoo
from repro.nn.serialization import weights_allclose, weights_l2_distance


@pytest.fixture(scope="module")
def synthetic():
    return make_fedprox_synthetic(num_clients=8, mean_samples=40, seed=0)


def logreg_builder(rng):
    return zoo.build_logistic_regression(rng)


@pytest.fixture
def train_config():
    return TrainingConfig(local_epochs=1, local_batches=4, batch_size=10, learning_rate=0.05)


def test_fedavg_round_updates_global(synthetic, train_config):
    server = FedAvgServer(synthetic, logreg_builder, train_config, clients_per_round=4, seed=0)
    before = [w.copy() for w in server.global_weights]
    server.run_round()
    assert not weights_allclose(server.global_weights, before)


def test_fedavg_records_active_clients(synthetic, train_config):
    server = FedAvgServer(synthetic, logreg_builder, train_config, clients_per_round=4, seed=0)
    record = server.run_round()
    assert len(record.active_clients) == 4
    assert set(record.client_accuracy) == set(record.active_clients)


def test_fedavg_learns(synthetic, train_config):
    server = FedAvgServer(synthetic, logreg_builder, train_config, clients_per_round=4, seed=0)
    records = server.run(15)
    assert records[-1].mean_accuracy > records[0].mean_accuracy
    loss, acc = server.evaluate_global()
    assert acc > 0.3


def test_fedavg_deterministic(synthetic, train_config):
    def run():
        server = FedAvgServer(synthetic, logreg_builder, train_config, clients_per_round=4, seed=3)
        server.run(3)
        return server.global_weights

    assert weights_allclose(run(), run())


def test_fedprox_mu_zero_matches_fedavg(synthetic, train_config):
    fedavg = FedAvgServer(synthetic, logreg_builder, train_config, clients_per_round=4, seed=0)
    fedprox = FedProxServer(
        synthetic, logreg_builder, train_config, clients_per_round=4, seed=0, mu=0.0
    )
    fedavg.run(2)
    fedprox.run(2)
    assert weights_allclose(fedavg.global_weights, fedprox.global_weights)


def test_fedprox_proximal_term_shrinks_updates(synthetic, train_config):
    fedavg = FedAvgServer(synthetic, logreg_builder, train_config, clients_per_round=4, seed=0)
    # lr * mu = 0.5 < 1: contractive pull towards the global weights
    strong = FedProxServer(
        synthetic, logreg_builder, train_config, clients_per_round=4, seed=0, mu=10.0
    )
    start = [w.copy() for w in fedavg.global_weights]
    fedavg.run_round()
    strong.run_round()
    assert weights_l2_distance(strong.global_weights, start) < weights_l2_distance(
        fedavg.global_weights, start
    )


def test_fedprox_straggler_fraction_validated(synthetic, train_config):
    with pytest.raises(ValueError):
        FedProxServer(synthetic, logreg_builder, train_config, mu=0.5, straggler_fraction=1.5)
    with pytest.raises(ValueError):
        FedProxServer(synthetic, logreg_builder, train_config, mu=-1.0)


@pytest.mark.parametrize("epochs", [0, -1])
def test_fedprox_straggler_epochs_validated(synthetic, train_config, epochs):
    """A straggler must train at least one epoch: zero epochs trained
    zero batches and turned the round's loss into NaN."""
    with pytest.raises(ValueError, match="straggler_epochs"):
        FedProxServer(
            synthetic, logreg_builder, train_config,
            straggler_fraction=0.5, straggler_epochs=epochs,
        )


def test_fedprox_with_stragglers_runs(synthetic, train_config):
    server = FedProxServer(
        synthetic, logreg_builder, train_config,
        clients_per_round=4, seed=0, mu=0.5,
        straggler_fraction=0.5, straggler_epochs=1,
    )
    records = server.run(3)
    assert len(records) == 3

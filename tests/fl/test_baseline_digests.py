"""Digest pins for the baselines: FedAvg, FedProx and gossip learning.

Each digest is the sha256 of one run: every :class:`RoundRecord` field,
the final global model (FedAvg / FedProx) or every client's local model
(gossip) as raw float64 bytes, and ``evaluate_global()`` where the
algorithm has one.  They were recorded from the baselines' own round
loops, before the baselines became round-regime subclasses of the
engine, and hold unedited since — the proof that running them through
the lockstep training plane moved no draw and no bit.

Re-print the table for the current tree with
``PYTHONPATH=src python tests/fl/test_baseline_digests.py``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.data import make_fedprox_synthetic, make_fmnist_clustered
from repro.fl import FedAvgServer, FedProxServer, GossipLearning, TrainingConfig
from repro.nn import zoo


def _synthetic():
    return make_fedprox_synthetic(num_clients=8, mean_samples=30, seed=0)


def _fmnist():
    return make_fmnist_clustered(
        num_clients=6,
        samples_per_client=24,
        image_size=10,
        clusters=((0, 1), (7, 8)),
        seed=7,
    )


DATASETS = {"synthetic": _synthetic, "fmnist": _fmnist}

BUILDERS = {
    "synthetic": lambda rng: zoo.build_logistic_regression(rng),
    "fmnist": lambda rng: zoo.build_mlp(
        rng, in_features=100, hidden=(16,), num_classes=10
    ),
    "cnn": lambda rng: zoo.build_fmnist_cnn(rng, image_size=10),
}

PLAIN = TrainingConfig(local_epochs=1, local_batches=4, batch_size=8, learning_rate=0.05)
# Stragglers only differ from the full cohort with more than one epoch.
MULTI_EPOCH = TrainingConfig(
    local_epochs=3, local_batches=3, batch_size=8, learning_rate=0.05, momentum=0.5
)

#: name -> (algorithm, dataset, builder, train config, options, seed).
CASES = {
    "fedavg-synthetic-s0": ("fedavg", "synthetic", "synthetic", PLAIN, {}, 0),
    "fedavg-synthetic-s1": ("fedavg", "synthetic", "synthetic", PLAIN, {}, 1),
    "fedavg-fmnist-s0": ("fedavg", "fmnist", "fmnist", PLAIN, {}, 0),
    "fedavg-cnn-s1": ("fedavg", "fmnist", "cnn", PLAIN, {}, 1),
    "fedavg-one-client-s0": (
        "fedavg", "synthetic", "synthetic", PLAIN, {"clients_per_round": 1}, 0,
    ),
    "fedprox-mu0.5-synthetic-s0": (
        "fedprox", "synthetic", "synthetic", PLAIN, {"mu": 0.5}, 0,
    ),
    "fedprox-mu0.5-synthetic-s1": (
        "fedprox", "synthetic", "synthetic", PLAIN, {"mu": 0.5}, 1,
    ),
    "fedprox-mu0.5-fmnist-s0": ("fedprox", "fmnist", "fmnist", PLAIN, {"mu": 0.5}, 0),
    "fedprox-mu0-synthetic-s0": (
        "fedprox", "synthetic", "synthetic", PLAIN, {"mu": 0.0}, 0,
    ),
    "fedprox-multi-epoch-s0": (
        "fedprox", "synthetic", "synthetic", MULTI_EPOCH, {"mu": 0.5}, 0,
    ),
    "fedprox-stragglers-s0": (
        "fedprox", "synthetic", "synthetic", MULTI_EPOCH,
        {"mu": 0.5, "straggler_fraction": 0.5, "straggler_epochs": 1}, 0,
    ),
    "fedprox-stragglers-fmnist-s1": (
        "fedprox", "fmnist", "fmnist", MULTI_EPOCH,
        {"mu": 0.5, "straggler_fraction": 0.4, "straggler_epochs": 2}, 1,
    ),
    "fedprox-one-client-s1": (
        "fedprox", "synthetic", "synthetic", MULTI_EPOCH,
        {"mu": 0.5, "clients_per_round": 1}, 1,
    ),
    "gossip-fmnist-s0": ("gossip", "fmnist", "fmnist", PLAIN, {}, 0),
    "gossip-fmnist-s1": ("gossip", "fmnist", "fmnist", PLAIN, {}, 1),
    "gossip-synthetic-s0": ("gossip", "synthetic", "synthetic", MULTI_EPOCH, {}, 0),
    "gossip-one-client-s1": (
        "gossip", "fmnist", "fmnist", PLAIN, {"clients_per_round": 1}, 1,
    ),
}

ALGORITHMS = {
    "fedavg": FedAvgServer,
    "fedprox": FedProxServer,
    "gossip": GossipLearning,
}

BASELINE_DIGESTS = {
    "fedavg-synthetic-s0": "f66733448d2bced2bedbed5a3f48626d6d40f1b10b8b3455ef5d4e688d94213b",
    "fedavg-synthetic-s1": "972a2859219546a50a2c8cb0e4f282576de48b6cbb5362e0592d1bc6ff499cec",
    "fedavg-fmnist-s0": "754bb48bf40915ae86d8ab9827c5a651c6626fcb2221eae28e7700a93c75d429",
    "fedavg-cnn-s1": "fb32a51b6338f3e8d80758f6faab5ecf2c15d6878e58c5b0f6798c98f932be0f",
    "fedavg-one-client-s0": "22dbce99b923a98e55f1edc15eff9049a56c5262c331ef1017f29f01c2412086",
    "fedprox-mu0.5-synthetic-s0": "42f964ad3f425b5e04cf5ba09ac46c501f9ffeaba62138efe330c147b0c0f104",
    "fedprox-mu0.5-synthetic-s1": "045d295812aaeb48cde4c350fcadc0611bb362945d7afc49803fd8f7cb879b02",
    "fedprox-mu0.5-fmnist-s0": "22c1836e3c151f55855c794ea99b4c7d363308b14d6af0f116fc0a8d84bfcca8",
    "fedprox-mu0-synthetic-s0": "f66733448d2bced2bedbed5a3f48626d6d40f1b10b8b3455ef5d4e688d94213b",
    "fedprox-multi-epoch-s0": "1c6c58d72d51a46c2bc49d52f4f9c4d21b7facb19b83012b88dd0f95693e2930",
    "fedprox-stragglers-s0": "2aff07d18a5cdfaa9fe3e3ecca902eb4374540a972a3e35b4d1be39f38b4bf40",
    "fedprox-stragglers-fmnist-s1": "e318a3bad98c5da8a10ed5794cc0a2e081de891b5485a6bbbbdded929f859f17",
    "fedprox-one-client-s1": "c6279bf8e5eb1e055adbd813816add51add80e092502310e14879d9da947f48b",
    "gossip-fmnist-s0": "672b22c3c3c063156669c30d0aac2a16ebce38a539ede3570668ceff3728483d",
    "gossip-fmnist-s1": "b10b9ba86d90efe5890a56d3244df71b92aa3233d36996852d56e783b2656a48",
    "gossip-synthetic-s0": "b688f559dcf9d3c0367f25c34dce2903fcb3b1b72daf63aa705f43714835a1b8",
    "gossip-one-client-s1": "e0a57855427dee66a08963bd4aa18cf7adae0377f12bf3b1d296ce3c1c70b46c",
}


def _bytes_digest(weights) -> str:
    flat = np.concatenate([np.asarray(w, dtype=np.float64).ravel() for w in weights])
    return hashlib.sha256(flat.tobytes()).hexdigest()


def run_digest(name: str, datasets: dict) -> str:
    algorithm, data, builder, train_config, options, seed = CASES[name]
    options = {"clients_per_round": 4, **options}
    runner = ALGORITHMS[algorithm](
        datasets[data], BUILDERS[builder], train_config, seed=seed, **options
    )
    records = runner.run(4)
    assert runner.history == records
    history = [
        (
            r.round_index,
            r.active_clients,
            r.client_accuracy,
            r.client_loss,
            r.reference_accuracy,
            r.published,
            r.walk_duration,
            r.walk_evaluations,
        )
        for r in records
    ]
    if algorithm == "gossip":
        models = {
            cid: _bytes_digest(ws) for cid, ws in sorted(runner.local_weights.items())
        }
        evaluation = None
    else:
        models = _bytes_digest(runner.global_weights)
        evaluation = runner.evaluate_global()
    payload = json.dumps([history, models, evaluation], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def datasets():
    return {name: build() for name, build in DATASETS.items()}


@pytest.mark.parametrize("name", list(CASES))
def test_baseline_digest(name, datasets):
    assert run_digest(name, datasets) == BASELINE_DIGESTS[name]


def test_fedprox_without_pull_is_fedavg():
    assert (
        BASELINE_DIGESTS["fedprox-mu0-synthetic-s0"]
        == BASELINE_DIGESTS["fedavg-synthetic-s0"]
    )


def test_stragglers_change_the_run():
    """The straggler pins exercise shortened local training."""
    assert (
        BASELINE_DIGESTS["fedprox-stragglers-s0"]
        != BASELINE_DIGESTS["fedprox-multi-epoch-s0"]
    )


if __name__ == "__main__":  # re-record: PYTHONPATH=src python <this file>
    built = {name: build() for name, build in DATASETS.items()}
    print("BASELINE_DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{run_digest(case, built)}",')
    print("}")

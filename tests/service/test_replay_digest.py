"""A seeded gateway replay, pinned by sha256.

One caller drives a live gateway over a trained FMNIST-MLP tangle: 400
``tips(2)`` requests scored by ``Client.tx_accuracies`` (every 17th by a
key with no scorer, so the weighted rung serves it), a publish after
about 30 % of them, and a ``compact(keep_last=15)`` at request 200.  A
single caller means one request per coalescer batch, so the walk rng,
the responses and the model evaluations are a pure function of the
seed.  The digests were recorded when the gateway still kept a score
cache of its own; they hold now that scoring dedups only through the
provider's cache.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.data import make_fmnist_clustered
from repro.fl import DagConfig, TangleLearning, TrainingConfig
from repro.nn import zoo
from repro.service import GatewayConfig, TangleGateway

REQUESTS = 400
UNSCORED_EVERY = 17
PUBLISH_PROBABILITY = 0.3
COMPACT_AT = 200
KEEP_LAST = 15

DIGESTS = {
    0: "06aa46706b5ef16fc3648543cf227ae4c642e24584599e0043ecc18299d27d8e",
    1: "0f9c08c45d301e5edb97a5e513429826dc49501ebe94cff8a18d9f04fa0f20d4",
}


def _trained_sim(seed: int) -> TangleLearning:
    dataset = make_fmnist_clustered(
        num_clients=20, samples_per_client=60, image_size=10, seed=seed
    )
    sim = TangleLearning(
        dataset,
        lambda rng: zoo.build_mlp(rng, in_features=10 * 10, hidden=(16,)),
        TrainingConfig(local_batches=2),
        DagConfig(),
        clients_per_round=5,
        seed=seed,
    )
    sim.run(8)
    return sim


def replay(seed: int) -> tuple[list, list[str], int]:
    """``(responses, final tx ids, summed client evaluations)``."""
    sim = _trained_sim(seed)
    clients, tangle = sim.clients, sim.tangle

    def score_provider(score_key):
        client = clients.get(score_key)
        if client is None:
            return None
        return lambda tx_ids: client.tx_accuracies(tangle, tx_ids)

    rng = np.random.default_rng([seed, 30])
    responses = []
    try:
        with TangleGateway(
            tangle,
            config=GatewayConfig(deadline_budget=60.0, seed=seed),
            score_provider=score_provider,
        ) as gateway:
            for request in range(REQUESTS):
                if request == COMPACT_AT:
                    report = gateway.compact(keep_last=KEEP_LAST)
                    responses.append(["compact", report.dropped])
                key = (
                    "unscored"
                    if request % UNSCORED_EVERY == 0
                    else int(rng.integers(0, len(clients)))
                )
                response = gateway.tips(2, score_key=key)
                responses.append(
                    [
                        response.status,
                        response.body.get("tips"),
                        response.body.get("mode"),
                        response.degraded,
                        response.reason,
                    ]
                )
                if rng.random() < PUBLISH_PROBABILITY and response.ok:
                    parents = list(dict.fromkeys(response.body["tips"]))
                    flat = np.mean(
                        [tangle.flat_weights(p) for p in parents], axis=0
                    ) + rng.normal(0.0, 0.01, size=tangle.spec.total)
                    published = gateway.publish(
                        flat, parents, issuer=key if key != "unscored" else 0
                    )
                    responses.append(
                        [published.status, published.body.get("tx_id")]
                    )
    finally:
        sim.close()
    tx_ids = [tx.tx_id for tx in tangle.transactions()]
    evaluations = sum(client.evaluations for client in clients.values())
    return responses, tx_ids, evaluations


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_gateway_replay_matches_recorded_digest(seed):
    assert digest(replay(seed)) == DIGESTS[seed]


if __name__ == "__main__":  # re-record: PYTHONPATH=src python <this file>
    for seed in sorted(DIGESTS):
        result = replay(seed)
        print(seed, digest(result), "evaluations", result[2])

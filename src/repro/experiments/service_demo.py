"""``service-demo``: the tangle gateway driven as a live service.

The paper's protocol is usually *simulated* (the engine owns every
client); this experiment runs it as a *service*: a
:class:`~repro.service.gateway.TangleGateway` fronts one live tangle,
and paper-faithful FMNIST clients act as real callers — each cycle asks
the gateway for accuracy-selected tips (scored by that client's own
test split), averages the parents, trains locally, and publishes the
update back through the gate.

Two phases, one result dict:

1. **calm** — clients drive the gateway concurrently with no faults,
   growing the tangle and exercising coalescing + accuracy selection;
2. **chaos** — the same load with a :class:`~repro.sim.faults.FaultModel`
   injected at the boundary (drops, jitter, payload corruption, crashes
   of the coalescer worker) and every caller wrapped in the bundled
   retry client.  The run asserts the resilience contract wholesale:
   every outcome is ``ok`` / ``shed`` / ``rejected`` — nothing raises,
   nothing hangs.

Run it from the CLI::

    PYTHONPATH=src python -m repro.experiments run service-demo --scale smoke
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.dag.transaction import GENESIS_ID
from repro.experiments.runner import (
    build_dataset,
    model_builder_for,
    training_config_for,
)
from repro.experiments.scale import Scale, resolve_scale
from repro.fl.aggregation import mean_flat
from repro.fl.client import Client
from repro.service import (
    GatewayClient,
    GatewayConfig,
    ServiceChaos,
    TangleGateway,
)
from repro.sim.faults import FaultModel
from repro.utils.rng import RngFactory

__all__ = ["run"]

# The closed outcome taxonomy.  Every phase reports all four counts, so
# per-seed results share one structure and aggregate across seeds.
_OUTCOMES = ("ok", "shed", "rejected", "degraded")


def _drive(gateway, caller, client: Client, cycles: int, outcomes: dict, lock):
    """One service caller: tips -> average parents -> train -> publish."""
    tangle = gateway.tangle
    spec = tangle.spec
    for _ in range(cycles):
        response = caller.tips(2, score_key=client.client_id)
        with lock:
            outcomes[response.status] = outcomes.get(response.status, 0) + 1
            if response.degraded:
                outcomes["degraded"] = outcomes.get("degraded", 0) + 1
        if not response.ok:
            continue
        parents = list(dict.fromkeys(response.body["tips"])) or [GENESIS_ID]
        stacked = np.stack([tangle.flat_weights(p) for p in parents])
        trained, _ = client.train(spec.unflatten(mean_flat(stacked)))
        publish = caller.publish(
            spec.flatten(trained), parents, issuer=client.client_id
        )
        with lock:
            outcomes[publish.status] = outcomes.get(publish.status, 0) + 1


def _load_phase(gateway, clients, cycles, *, retry_seed=0, wrap_client=True):
    """Run every client concurrently against the gateway; return stats."""
    outcomes = dict.fromkeys(_OUTCOMES, 0)
    lock = threading.Lock()
    threads = []
    for client in clients.values():
        caller = (
            GatewayClient(gateway, seed=retry_seed + client.client_id)
            if wrap_client
            else gateway
        )
        threads.append(
            threading.Thread(
                target=_drive,
                args=(gateway, caller, client, cycles, outcomes, lock),
            )
        )
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    total = sum(outcomes[k] for k in ("ok", "shed", "rejected"))
    return {
        "outcomes": outcomes,
        "elapsed_s": round(elapsed, 3),
        "requests_per_s": round(total / elapsed, 1) if elapsed > 0 else 0.0,
    }


def run(scale: Scale | None = None, *, seed: int = 0, cycles: int = 3) -> dict:
    """Calm + chaos service phases over one live tangle (see module doc)."""
    scale = scale or resolve_scale()
    dataset = build_dataset("fmnist-clustered", scale, seed=seed)
    builder = model_builder_for("fmnist-clustered", scale, dataset)
    train_config = training_config_for("fmnist-clustered", scale)
    rngs = RngFactory(seed)
    from repro.dag.tangle import Tangle

    tangle = Tangle(builder(rngs.get("model-init")).get_weights())
    # Unlike the simulators (which train clients one at a time on a
    # shared model), service callers run concurrently — each gets its
    # own model instance.  Rebuilding from the same rng key reproduces
    # the identical genesis initialization for every one.
    clients = {
        cd.client_id: Client(
            cd,
            builder(rngs.get("model-init")),
            train_config,
            rngs.get("client", cd.client_id),
        )
        for cd in dataset.clients
    }

    def score_provider(score_key):
        client = clients.get(score_key)
        if client is None:
            return None
        return lambda tx_ids: client.tx_accuracies(tangle, tx_ids)

    config = GatewayConfig(deadline_budget=2.0, seed=seed)
    result: dict = {"scale": scale.name, "seed": seed, "clients": len(clients)}

    with TangleGateway(
        tangle, config=config, score_provider=score_provider
    ) as gateway:
        result["calm"] = _load_phase(
            gateway, clients, cycles, retry_seed=seed, wrap_client=False
        )
        result["calm"]["ladder"] = dict(gateway.ladder.stats)
        result["calm"]["coalescer"] = dict(gateway.coalescer.stats)

    faults = FaultModel(
        drop_rate=0.1,
        jitter=0.002,
        corruption_rate=0.15,
        corruption_mode="nan",
        crash_rate=0.15,
        always_on=True,
    )
    chaos = ServiceChaos(faults, seed=seed + 1)
    with TangleGateway(
        tangle, config=config, score_provider=score_provider, chaos=chaos
    ) as gateway:
        result["chaos"] = _load_phase(
            gateway, clients, cycles, retry_seed=seed + 1
        )
        result["chaos"]["ladder"] = dict(gateway.ladder.stats)
        result["chaos"]["coalescer"] = dict(gateway.coalescer.stats)
        result["chaos"]["injected"] = dict(chaos.stats)
        result["chaos"]["quarantined"] = gateway.counts["quarantined"]
        unknown = set(result["chaos"]["outcomes"]) - set(_OUTCOMES)
        if unknown:  # the closed-taxonomy contract, asserted live
            raise AssertionError(f"unexpected outcome statuses: {unknown}")

    result["tangle_size"] = len(tangle)
    return result

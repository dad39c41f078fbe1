"""Experiments for the beyond-the-paper extensions.

- ``run_personalization``: the paper's future work ("training only some
  layers") — personal output layers grafted onto DAG-shared bodies,
  evaluated on the relaxed (mixed-data) FMNIST where a personal head can
  adapt to each client's blend.
- ``run_random_weight_attack``: the Section 4.4 threat model's *active*
  attacker publishing random weights, comparing how the accuracy-biased
  and uniform-random selectors absorb it.
- ``run_visibility_delay``: propagation delay — how stale views affect
  accuracy and specialization.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import (
    build_dataset,
    model_builder_for,
    run_dag_with_metrics,
    training_config_for,
)
from repro.experiments.scale import Scale, resolve_scale
from repro.fl import DagConfig, TangleLearning
from repro.metrics import approval_pureness
from repro.sim import EventDrivenTangleLearning, SimConfig

__all__ = [
    "run_personalization",
    "run_random_weight_attack",
    "run_visibility_delay",
    "run_async_convergence",
    "run_aggregation_robustness",
]


def run_personalization(scale: Scale | None = None, *, seed: int = 0) -> dict:
    """Shared-everything vs personal head (last 2 parameter arrays)."""
    scale = scale or resolve_scale()
    dataset = build_dataset("fmnist-relaxed", scale, seed=seed)
    builder = model_builder_for("fmnist-relaxed", scale, dataset)
    train_config = training_config_for("fmnist-relaxed", scale)
    result: dict = {
        "experiment": "ablation-personalization",
        "scale": scale.name,
        "variants": {},
    }
    for label, personal in (("shared", 0), ("personal-head", 2)):
        outcome = run_dag_with_metrics(
            dataset,
            builder,
            train_config,
            DagConfig(alpha=10.0, personal_params=personal),
            rounds=scale.rounds,
            clients_per_round=scale.clients_per_round,
            measure_every=scale.rounds,
            seed=seed,
        )
        result["variants"][label] = {
            "accuracy": outcome["accuracy"],
            "final_accuracy": float(np.mean(outcome["accuracy"][-3:])),
            "pureness": outcome["final"]["pureness"],
        }
    return result


def run_random_weight_attack(
    scale: Scale | None = None, *, seed: int = 0, attacker_fraction: float = 0.25
) -> dict:
    """Honest-client accuracy under active random-weight attackers."""
    scale = scale or resolve_scale()
    dataset = build_dataset("fmnist-by-writer", scale, seed=seed)
    builder = model_builder_for("fmnist-by-writer", scale, dataset)
    train_config = training_config_for("fmnist-by-writer", scale)
    n_attackers = max(1, int(round(dataset.num_clients * attacker_fraction)))
    attacker_ids = sorted(c.client_id for c in dataset.clients)[:n_attackers]

    result: dict = {
        "experiment": "attack-random-weights",
        "scale": scale.name,
        "attackers": attacker_ids,
        "variants": {},
    }
    for label, selector, attackers in (
        ("clean", "accuracy", None),
        ("attacked-accuracy", "accuracy", attacker_ids),
        ("attacked-random", "random", attacker_ids),
    ):
        sim = TangleLearning(
            dataset,
            builder,
            train_config,
            DagConfig(alpha=10.0, selector=selector),
            clients_per_round=scale.clients_per_round,
            seed=seed,
            attackers={cid: "random_weights" for cid in attackers or []},
        )
        records = sim.run(scale.rounds)
        honest_accuracy = [r.mean_accuracy for r in records]
        malicious = sum(
            1 for t in sim.tangle.transactions() if t.tags.get("malicious")
        )
        result["variants"][label] = {
            "accuracy": honest_accuracy,
            "final_accuracy": float(np.nanmean(honest_accuracy[-3:])),
            "malicious_transactions": malicious,
        }
    return result


def run_visibility_delay(
    scale: Scale | None = None, *, seed: int = 0, delays: tuple[int, ...] = (0, 1, 3)
) -> dict:
    """Effect of propagation delay on accuracy and specialization."""
    scale = scale or resolve_scale()
    dataset = build_dataset("fmnist-clustered", scale, seed=seed)
    builder = model_builder_for("fmnist-clustered", scale, dataset)
    train_config = training_config_for("fmnist-clustered", scale)
    labels = dataset.cluster_labels()

    result: dict = {
        "experiment": "ablation-visibility-delay",
        "scale": scale.name,
        "variants": {},
    }
    for delay in delays:
        sim = TangleLearning(
            dataset,
            builder,
            train_config,
            DagConfig(alpha=10.0, visibility_delay=delay),
            clients_per_round=scale.clients_per_round,
            seed=seed,
        )
        records = sim.run(scale.rounds)
        result["variants"][str(delay)] = {
            "accuracy": [r.mean_accuracy for r in records],
            "final_accuracy": float(np.mean([r.mean_accuracy for r in records[-3:]])),
            "pureness": approval_pureness(sim.tangle, labels),
        }
    return result


def run_async_convergence(
    scale: Scale | None = None, *, seed: int = 0, horizon: float | None = None
) -> dict:
    """Continuous-time simulation vs discrete rounds.

    Runs the event-driven simulator for a time horizon calibrated so the
    expected number of training cycles matches the round-based run
    (rounds x clients_per_round), then compares final accuracy and
    specialization.  The paper only introduces rounds "to be able to
    compare the performance of the DAG with centralized approaches"; this
    experiment verifies the protocol behaves equivalently without them.
    """
    scale = scale or resolve_scale()
    dataset = build_dataset("fmnist-clustered", scale, seed=seed)
    builder = model_builder_for("fmnist-clustered", scale, dataset)
    train_config = training_config_for("fmnist-clustered", scale)
    labels = dataset.cluster_labels()

    sync = TangleLearning(
        dataset, builder, train_config, DagConfig(alpha=10.0),
        clients_per_round=scale.clients_per_round, seed=seed,
    )
    sync_records = sync.run(scale.rounds)

    total_cycles = scale.rounds * scale.clients_per_round
    # Each client cycles every (think + train) ~ 2.0 time units on average.
    if horizon is None:
        horizon = 2.0 * total_cycles / dataset.num_clients
    asynchronous = EventDrivenTangleLearning(
        dataset, builder, train_config, DagConfig(alpha=10.0), seed=seed,
        sim_config=SimConfig.async_compat(
            mean_think_time=1.0, mean_train_time=1.0, mean_propagation_delay=0.1
        ),
    )
    events = asynchronous.run_until(horizon)

    return {
        "experiment": "async-convergence",
        "scale": scale.name,
        "sync": {
            "accuracy": [r.mean_accuracy for r in sync_records],
            "final_accuracy": float(
                np.mean([r.mean_accuracy for r in sync_records[-3:]])
            ),
            "pureness": approval_pureness(sync.tangle, labels),
            "transactions": len(sync.tangle) - 1,
        },
        "async": {
            "cycles": len(events),
            "timeline": asynchronous.accuracy_timeline(bucket=max(1.0, horizon / 10)),
            "final_accuracy": float(
                np.mean([e.accuracy for e in events[-10:]])
            ) if events else float("nan"),
            "pureness": approval_pureness(asynchronous.tangle, labels),
            "transactions": len(asynchronous.tangle) - 1,
        },
    }


def run_aggregation_robustness(
    scale: Scale | None = None, *, seed: int = 0
) -> dict:
    """Mean vs median parent aggregation under random-weight attackers.

    Tests whether merge-level filtering (coordinate median over three
    parents) adds anything on top of the walk-level filtering (accuracy
    bias).  Finding (documented in EXPERIMENTS.md): it does not — the
    coordinate median decorrelates jointly-trained weights and performs no
    better than the mean; the accuracy-biased walk is the protocol's
    effective defence.  The clean baseline is included for context.
    """
    scale = scale or resolve_scale()
    dataset = build_dataset("fmnist-by-writer", scale, seed=seed)
    builder = model_builder_for("fmnist-by-writer", scale, dataset)
    train_config = training_config_for("fmnist-by-writer", scale)
    n_attackers = max(1, dataset.num_clients // 4)
    attacker_ids = sorted(c.client_id for c in dataset.clients)[:n_attackers]

    result: dict = {
        "experiment": "ablation-aggregation",
        "scale": scale.name,
        "attackers": attacker_ids,
        "variants": {},
    }
    for label, aggregator, attacked in (
        ("clean-mean", "mean", False),
        ("mean", "mean", True),
        ("median", "median", True),
    ):
        sim = TangleLearning(
            dataset,
            builder,
            train_config,
            DagConfig(alpha=10.0, num_tips=3, aggregator=aggregator),
            clients_per_round=scale.clients_per_round,
            seed=seed,
            attackers=(
                {cid: "random_weights" for cid in attacker_ids}
                if attacked
                else None
            ),
        )
        records = sim.run(scale.rounds)
        accuracy = [r.mean_accuracy for r in records]
        result["variants"][label] = {
            "accuracy": accuracy,
            "final_accuracy": float(np.nanmean(accuracy[-3:])),
        }
    return result

"""Shared experiment plumbing: datasets, models, and simulation loops."""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Callable

import numpy as np

from repro.data import (
    make_cifar100_like,
    make_fedprox_synthetic,
    make_fmnist_by_writer,
    make_fmnist_clustered,
    make_poets,
)
from repro.data.base import FederatedDataset
from repro.fl import DagConfig, TangleLearning, TrainingConfig, table1_config
from repro.metrics import analyze_specialization, approval_pureness
from repro.nn import zoo
from repro.nn.model import Classifier
from repro.experiments.scale import Scale

__all__ = [
    "build_dataset",
    "model_builder_for",
    "training_config_for",
    "dag_config_for",
    "run_dag_with_metrics",
    "run_async_dag_with_metrics",
    "accuracy_series",
]

ModelBuilder = Callable[[np.random.Generator], Classifier]


def build_dataset(name: str, scale: Scale, *, seed: int = 0, **overrides) -> FederatedDataset:
    """Instantiate one of the paper's datasets at the given scale.

    ``name`` is one of ``fmnist-clustered``, ``fmnist-relaxed``,
    ``fmnist-by-writer``, ``poets``, ``cifar100``, ``fedprox-synthetic``.
    """
    if name == "fmnist-clustered":
        return make_fmnist_clustered(
            num_clients=overrides.pop("num_clients", scale.fmnist_clients),
            samples_per_client=scale.fmnist_samples,
            image_size=scale.fmnist_image_size,
            seed=seed,
            **overrides,
        )
    if name == "fmnist-relaxed":
        return make_fmnist_clustered(
            num_clients=overrides.pop("num_clients", scale.fmnist_clients),
            samples_per_client=scale.fmnist_samples,
            image_size=scale.fmnist_image_size,
            foreign_fraction=(0.15, 0.20),
            seed=seed,
            **overrides,
        )
    if name == "fmnist-by-writer":
        return make_fmnist_by_writer(
            num_clients=overrides.pop("num_clients", scale.fmnist_clients),
            samples_per_client=scale.fmnist_samples,
            image_size=scale.fmnist_image_size,
            seed=seed,
            **overrides,
        )
    if name == "poets":
        return make_poets(
            num_clients=overrides.pop("num_clients", scale.poets_clients),
            samples_per_client=scale.poets_samples,
            seq_len=scale.poets_seq_len,
            seed=seed,
            **overrides,
        )
    if name == "cifar100":
        return make_cifar100_like(
            num_clients=overrides.pop("num_clients", scale.cifar_clients),
            samples_per_client=scale.cifar_samples,
            image_size=scale.cifar_image_size,
            num_superclasses=scale.cifar_superclasses,
            seed=seed,
            **overrides,
        )
    if name == "fedprox-synthetic":
        return make_fedprox_synthetic(
            num_clients=overrides.pop("num_clients", scale.fedprox_clients),
            mean_samples=scale.fedprox_mean_samples,
            seed=seed,
            **overrides,
        )
    raise ValueError(f"unknown dataset {name!r}")


def model_builder_for(name: str, scale: Scale, dataset: FederatedDataset) -> ModelBuilder:
    """A model builder appropriate for a dataset at a scale."""
    if name.startswith("fmnist"):
        return lambda rng: zoo.build_fmnist_cnn(
            rng, image_size=scale.fmnist_image_size, size=scale.model_size
        )
    if name == "poets":
        return lambda rng: zoo.build_poets_lstm(
            rng, vocab_size=dataset.num_classes, size=scale.model_size
        )
    if name == "cifar100":
        return lambda rng: zoo.build_cifar_cnn(
            rng,
            image_size=scale.cifar_image_size,
            num_classes=dataset.num_classes,
            size=scale.model_size,
        )
    if name == "fedprox-synthetic":
        return lambda rng: zoo.build_logistic_regression(rng)
    raise ValueError(f"unknown dataset {name!r}")


def training_config_for(name: str, scale: Scale) -> TrainingConfig:
    """Table 1 hyperparameters, with batch budgets scaled to the profile."""
    if name.startswith("fmnist"):
        base = table1_config("fmnist-clustered")
        return base.scaled(local_batches=scale.fmnist_local_batches)
    if name == "poets":
        base = table1_config("poets")
        # Small-scale LSTMs need momentum to differentiate languages within
        # few rounds; the paper profile keeps Table 1's plain SGD(0.8).
        return base.scaled(
            local_batches=scale.poets_local_batches,
            learning_rate=scale.poets_learning_rate,
            momentum=scale.poets_momentum,
        )
    if name == "cifar100":
        base = table1_config("cifar100")
        return base.scaled(
            local_batches=scale.cifar_local_batches,
            local_epochs=scale.cifar_local_epochs,
        )
    if name == "fedprox-synthetic":
        return TrainingConfig(
            local_epochs=1, local_batches=10, batch_size=10, learning_rate=0.05
        )
    raise ValueError(f"unknown dataset {name!r}")


def dag_config_for(name: str, scale: Scale, **overrides) -> DagConfig:
    """The default protocol configuration for a dataset at a scale.

    Poets at reduced scales uses the dynamic (Eq. 3) normalization: the
    language-accuracy gaps of small LSTMs over few rounds are exactly the
    small-difference regime that normalization was designed for.  The
    paper profile keeps the standard normalization.
    """
    if name == "poets" and "normalization" not in overrides:
        overrides["normalization"] = scale.poets_normalization
    overrides.setdefault("alpha", 10.0)
    return DagConfig(**overrides)


def run_dag_with_metrics(
    dataset: FederatedDataset,
    model_builder: ModelBuilder,
    train_config: TrainingConfig,
    dag_config: DagConfig,
    *,
    rounds: int,
    clients_per_round: int,
    measure_every: int = 1,
    seed: int = 0,
    parallelism: int | None = None,
) -> dict:
    """Run the DAG simulator, tracking specialization metrics over time.

    Returns a dict with per-round accuracy/loss series and, every
    ``measure_every`` rounds, the Section 4.3 community metrics.

    ``parallelism`` (when given) overrides ``dag_config.parallelism`` —
    the round-execution substrate knob: 1 serial, n > 1 a pool of n
    worker processes, 0 a machine-sized pool; the pool keeps a round
    in-process when its payload cost model says shipping it cannot pay.
    Results are identical across settings for a fixed seed.
    """
    if parallelism is not None:
        dag_config = replace(dag_config, parallelism=parallelism)
    sim = TangleLearning(
        dataset,
        model_builder,
        train_config,
        dag_config,
        clients_per_round=clients_per_round,
        seed=seed,
    )
    labels = dataset.cluster_labels()
    accuracy, loss, reference_acc = [], [], []
    metric_rounds, modularity_series, partitions_series = [], [], []
    misclassification_series, pureness_series = [], []
    try:
        for round_index in range(rounds):
            record = sim.run_round()
            accuracy.append(record.mean_accuracy)
            loss.append(record.mean_loss)
            reference_acc.append(
                float(np.mean(list(record.reference_accuracy.values())))
            )
            if (round_index + 1) % measure_every == 0 or round_index == rounds - 1:
                report = analyze_specialization(sim.tangle, labels, seed=seed)
                metric_rounds.append(round_index)
                modularity_series.append(report.modularity)
                partitions_series.append(report.num_partitions)
                misclassification_series.append(report.misclassification)
                pureness_series.append(report.pureness)
        final = analyze_specialization(sim.tangle, labels, seed=seed)
        late_pureness = approval_pureness(
            sim.tangle, labels, since_round=rounds // 2
        )
    finally:
        sim.close()  # release worker processes; pools are recreated on reuse
    return {
        "accuracy": accuracy,
        "loss": loss,
        "reference_accuracy": reference_acc,
        "metric_rounds": metric_rounds,
        "modularity": modularity_series,
        "num_partitions": partitions_series,
        "misclassification": misclassification_series,
        "pureness": pureness_series,
        "final": {
            "modularity": final.modularity,
            "num_partitions": final.num_partitions,
            "misclassification": final.misclassification,
            "pureness": final.pureness,
            "late_pureness": late_pureness,
            "base_pureness": final.base_pureness,
        },
        "simulator": sim,
    }


def run_async_dag_with_metrics(
    dataset: FederatedDataset,
    model_builder: ModelBuilder,
    train_config: TrainingConfig,
    dag_config: DagConfig,
    *,
    horizon: float,
    sim_config=None,
    measure_every: float | None = None,
    seed: int = 0,
) -> dict:
    """Run the event-driven simulator to ``horizon``, tracking metrics.

    The asynchronous counterpart of :func:`run_dag_with_metrics`: the
    engine (:class:`repro.sim.EventDrivenTangleLearning`) runs under
    ``sim_config`` (latency laws, quantum batching, stragglers, churn,
    staleness) and the Section 4.3 community metrics are measured on the
    asynchronously grown tangle every ``measure_every`` simulated time
    units (default: only at the horizon).  Also reports throughput —
    processed events per wall-clock second — which is what the
    scalability benchmark records at 100/1000 clients.

    ``late_pureness`` restricts approval pureness to transactions whose
    coarse time bucket (``round_index = int(publish time)``) falls in
    the second half of the run, mirroring the round runner's warm-up
    exclusion.
    """
    from repro.sim import EventDrivenTangleLearning, SimConfig

    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if sim_config is None:
        sim_config = SimConfig()
    if measure_every is None:
        measure_every = horizon
    if measure_every <= 0:
        raise ValueError("measure_every must be positive")
    engine = EventDrivenTangleLearning(
        dataset,
        model_builder,
        train_config,
        dag_config,
        sim_config=sim_config,
        seed=seed,
    )
    labels = dataset.cluster_labels()
    metric_times: list[float] = []
    modularity_series: list[float] = []
    partitions_series: list[int] = []
    misclassification_series: list[float] = []
    pureness_series: list[float] = []
    started = perf_counter()
    checkpoint = 0.0
    report = None
    while checkpoint < horizon:
        checkpoint = min(checkpoint + measure_every, horizon)
        engine.run_until(checkpoint)
        report = analyze_specialization(engine.tangle, labels, seed=seed)
        metric_times.append(checkpoint)
        modularity_series.append(report.modularity)
        partitions_series.append(report.num_partitions)
        misclassification_series.append(report.misclassification)
        pureness_series.append(report.pureness)
    elapsed = perf_counter() - started
    events = len(engine.events)
    late_pureness = approval_pureness(
        engine.tangle, labels, since_round=int(horizon // 2)
    )
    return {
        "events": events,
        "cycles": engine.completed_cycles,
        "transactions": len(engine.tangle) - 1,  # excluding genesis
        "wall_clock": elapsed,
        "events_per_second": events / elapsed if elapsed > 0 else float("inf"),
        "accuracy_timeline": engine.accuracy_timeline(),
        "fault_stats": dict(engine.fault_stats),
        "metric_times": metric_times,
        "modularity": modularity_series,
        "num_partitions": partitions_series,
        "misclassification": misclassification_series,
        "pureness": pureness_series,
        "final": {
            "modularity": report.modularity,
            "num_partitions": report.num_partitions,
            "misclassification": report.misclassification,
            "pureness": report.pureness,
            "late_pureness": late_pureness,
            "base_pureness": report.base_pureness,
        },
        "simulator": engine,
    }


def accuracy_series(history) -> list[float]:
    """Mean-client-accuracy series from a list of round records."""
    return [record.mean_accuracy for record in history]

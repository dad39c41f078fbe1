"""repro — Implicit Model Specialization through DAG-based Decentralized
Federated Learning (Middleware '21 reproduction).

Public API tour:

- :mod:`repro.nn` — from-scratch numpy deep-learning substrate;
- :mod:`repro.data` — the paper's datasets (offline procedural stand-ins);
- :mod:`repro.dag` — the tangle: transactions, tips, biased random walks;
- :mod:`repro.fl` — :class:`~repro.fl.TangleLearning` (the specializing
  DAG on its round schedule; a thin constructor over :mod:`repro.sim`)
  plus FedAvg / FedProx / gossip baselines;
- :mod:`repro.substrate` — the round-execution layer: serial or
  process-pool executors over per-client work units (the
  ``DagConfig.parallelism`` knob);
- :mod:`repro.sim` — the one simulator, an event-driven engine running
  both rounds and asynchronous cycles: latency models, stragglers,
  churn, staleness policies, quantum-batched supersteps;
- :mod:`repro.metrics` — modularity, Louvain, pureness, misclassification;
- :mod:`repro.poisoning` — label-flip attacks and robustness metrics;
- :mod:`repro.experiments` — one runner per table/figure of the paper.

``docs/architecture.md`` maps these layers and walks one simulated round
through the execution substrate.

Quickstart::

    from repro.data import make_fmnist_clustered
    from repro.fl import TangleLearning, DagConfig, TrainingConfig
    from repro.nn import zoo

    dataset = make_fmnist_clustered(num_clients=9, samples_per_client=40)
    sim = TangleLearning(
        dataset,
        lambda rng: zoo.build_fmnist_cnn(rng, image_size=14, size="small"),
        TrainingConfig(local_batches=4, learning_rate=0.1),
        DagConfig(alpha=10.0),
        clients_per_round=6,
    )
    records = sim.run(10)
"""

from repro import (
    dag,
    data,
    experiments,
    fl,
    metrics,
    nn,
    poisoning,
    sim,
    substrate,
    utils,
)

__version__ = "1.1.0"

__all__ = [
    "dag",
    "data",
    "experiments",
    "fl",
    "metrics",
    "nn",
    "poisoning",
    "sim",
    "substrate",
    "utils",
    "__version__",
]

#!/usr/bin/env python
"""The DAG protocol in continuous time — no rounds at all.

The paper simulates discrete rounds only to compare against centralized
baselines; the protocol itself is asynchronous.  This example runs the
event-driven simulator: clients train whenever their (randomized)
schedule allows, transactions propagate with network delay, and
concurrent publications widen the DAG exactly as the tangle design
anticipates.

Run:  python examples/asynchronous_network.py
"""

from collections import Counter

from repro.data import make_fmnist_clustered
from repro.dag import tangle_statistics
from repro.fl import DagConfig, TrainingConfig
from repro.metrics import analyze_specialization
from repro.nn import zoo
from repro.sim import EventDrivenTangleLearning, SimConfig


def main() -> None:
    dataset = make_fmnist_clustered(num_clients=9, samples_per_client=40, seed=7)
    sim = EventDrivenTangleLearning(
        dataset,
        lambda rng: zoo.build_fmnist_cnn(rng, image_size=14, size="small"),
        TrainingConfig(local_epochs=1, local_batches=4, batch_size=10, learning_rate=0.1),
        DagConfig(alpha=10.0),
        seed=0,
        sim_config=SimConfig.async_compat(
            mean_think_time=1.0,        # avg idle between training cycles
            mean_train_time=1.0,        # avg cycle duration (clients overlap!)
            mean_propagation_delay=0.3, # network delay before a tx is seen
        ),
    )

    events = sim.run_until(30.0)
    published = [e for e in events if e.published]
    print(f"simulated 30.0 time units: {len(events)} training cycles, "
          f"{len(published)} publications")

    print("\naccuracy over simulated time:")
    for t, accuracy in sim.accuracy_timeline(bucket=5.0):
        bar = "#" * int(accuracy * 40)
        print(f"  t={t:5.1f}  {accuracy:.3f}  {bar}")

    cycles_per_client = Counter(e.client_id for e in events)
    print(f"\ncycles per client (asynchronous, so they differ): "
          f"{dict(sorted(cycles_per_client.items()))}")

    stats = tangle_statistics(sim.tangle)
    print(f"\nDAG shape: {stats['transactions']} transactions, "
          f"{stats['tips']} open tips, max {stats['max_approvers']} approvers "
          f"on one transaction (concurrency!)")

    report = analyze_specialization(sim.tangle, dataset.cluster_labels(), seed=0)
    print(f"specialization without rounds: pureness {report.pureness:.2f} "
          f"(base {report.base_pureness:.2f}), "
          f"{report.num_partitions} inferred clusters, "
          f"misclassification {report.misclassification:.2f}")


if __name__ == "__main__":
    main()

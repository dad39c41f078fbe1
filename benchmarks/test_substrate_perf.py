"""Micro-benchmarks for the hot substrate operations.

These are classic pytest-benchmark micro-benches (many iterations) for
the three operations that dominate simulation time: CNN forward
evaluation (the random walk's inner loop), one SGD training batch, and a
full biased random walk over a grown tangle — plus direct-timing
comparisons for the execution substrate: cumulative weights read from
the tangle's snapshot weight plane against the legacy future-cone BFS,
and serial against
parallel round throughput (written to ``BENCH_substrate.json`` so CI can
track the perf trajectory).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dag.random_walk import (
    random_walk,
    sample_walk_start,
    sequential_select_tips,
)
from repro.dag.tangle import Tangle
from repro.dag.tip_selection import AccuracyTipSelector
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.nn import SGD, zoo


@pytest.fixture(scope="module")
def cnn():
    return zoo.build_fmnist_cnn(np.random.default_rng(0), image_size=14, size="small")


def test_cnn_forward_evaluation(benchmark, cnn):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 1, 14, 14))
    y = rng.integers(0, 10, size=40)
    loss, acc = benchmark(cnn.evaluate, x, y)
    assert loss > 0


def test_cnn_training_batch(benchmark, cnn):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 1, 14, 14))
    y = rng.integers(0, 10, size=10)
    optimizer = SGD(0.05)
    loss = benchmark(cnn.train_batch, x, y, optimizer)
    assert loss > 0


def test_lstm_forward_evaluation(benchmark):
    model = zoo.build_poets_lstm(np.random.default_rng(0), vocab_size=30, size="small")
    rng = np.random.default_rng(3)
    x = rng.integers(0, 30, size=(40, 12))
    y = rng.integers(0, 30, size=40)
    loss, acc = benchmark(model.evaluate, x, y)
    assert loss > 0


def test_biased_random_walk(benchmark):
    """A full accuracy-biased walk (the sequential reference walker)
    over a 200-transaction tangle with a cached (dict-lookup) accuracy
    function — isolates walk overhead."""
    rng = np.random.default_rng(4)
    tangle = Tangle([np.zeros(1)])
    ids = [GENESIS_ID]
    for i in range(200):
        parents = tuple(
            dict.fromkeys(
                ids[int(rng.integers(0, len(ids)))] for _ in range(2)
            )
        )
        tx = Transaction(f"t{i}", parents, [np.zeros(1)], i % 10, i // 10)
        tangle.add(tx)
        ids.append(tx.tx_id)
    accuracies = {tx_id: float(rng.random()) for tx_id in ids}
    selector = AccuracyTipSelector(
        lambda tx_ids, _arena_rows: [accuracies[t] for t in tx_ids], alpha=10.0
    )

    def walk():
        return sequential_select_tips(selector, tangle, 2, rng)

    tips = benchmark(walk)
    assert len(tips) == 2
    assert all(tangle.is_tip(t) for t in tips)


# --------------------------------------------------------------- substrate


def grow_random_tangle(size: int, seed: int = 4) -> Tangle:
    rng = np.random.default_rng(seed)
    tangle = Tangle([np.zeros(1)])
    ids = [GENESIS_ID]
    for i in range(size):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tx = Transaction(f"t{i}", parents, [np.zeros(1)], i % 10, i // 10)
        tangle.add(tx)
        ids.append(tx.tx_id)
    return tangle


def weighted_walk_workload(tangle, weight_fn, *, walks: int, alpha: float = 0.5):
    """Run cumulative-weight-biased walks using ``weight_fn`` for weights."""

    def transition(_node, approvers, step_rng):
        weights = np.array([weight_fn(a) for a in approvers], dtype=np.float64)
        probs = np.exp(alpha * (weights - weights.max()))
        probs /= probs.sum()
        return approvers[int(step_rng.choice(len(approvers), p=probs))]

    rng = np.random.default_rng(7)
    tips = []
    for _ in range(walks):
        start = sample_walk_start(tangle, rng, depth_range=(15, 25))
        tips.append(random_walk(tangle, start, transition, rng))
    return tips


def test_weight_index_speedup_on_walk_workload():
    """Weights read from the tangle's snapshot weight plane must beat
    the per-query future-cone BFS by >= 2x on a 500-transaction
    weighted-walk workload (the plane is one bitset pass, then a lookup
    per query; the BFS grows with the tangle).  Best-of-3 timing
    per variant so a noisy-neighbor stall on a shared CI runner cannot
    flake the comparison."""
    tangle = grow_random_tangle(500)

    def best_of(weight_fn, repeats: int = 3):
        best_time, tips = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            tips = weighted_walk_workload(tangle, weight_fn, walks=30)
            best_time = min(best_time, time.perf_counter() - start)
        return best_time, tips

    # identical walk sequences: weight values agree, rng streams agree
    indexed_time, tips_indexed = best_of(tangle.cumulative_weight)
    recount_time, tips_recount = best_of(tangle.recount_cumulative_weight)

    assert tips_indexed == tips_recount  # same weights -> same walks
    assert all(tangle.is_tip(t) for t in tips_indexed)
    speedup = recount_time / indexed_time
    assert speedup >= 2.0, (
        f"snapshot weights only {speedup:.1f}x faster than BFS recount "
        f"({indexed_time:.4f}s vs {recount_time:.4f}s)"
    )


def _available_cores() -> int:
    from repro.substrate import available_cores

    return available_cores()


def _run_workload(dataset, builder, train_config, *, rounds, clients_per_round, parallelism):
    from repro.fl import DagConfig, TangleLearning

    sim = TangleLearning(
        dataset,
        builder,
        train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5), parallelism=parallelism),
        clients_per_round=clients_per_round,
        seed=0,
    )
    try:
        start = time.perf_counter()
        sim.run(rounds)
        elapsed = time.perf_counter() - start
        estimate = getattr(sim.executor, "last_estimate", None)
        executor_info = {
            "workers": sim.executor.parallelism,
            "mode_counts": dict(getattr(sim.executor, "mode_counts", {})) or None,
            # the router's last (bytes-shipped, dense-working-set) pair:
            # with shared-memory export the first number is handles+scalars
            "last_estimate": list(estimate) if estimate else None,
        }
    finally:
        sim.close()
    return elapsed, sim.history, executor_info


def test_round_throughput_serial_vs_parallel_emits_json():
    """Measure rounds/sec at ``parallelism`` 1 (serial), 2 (a 2-worker
    pool) and 0 (a machine-sized pool) on two workloads and write the
    trajectory file CI tracks (``BENCH_substrate.json``).

    Both pools route each round with the payload cost model.  The
    **small** workload (tiny model, microsecond training steps) is the
    documented crossover: per-round coordination would outweigh the
    parallelized compute, so the router keeps rounds in process and
    ``parallel_speedup`` records that routed time.  It is recorded,
    never asserted on.

    The **large** workload trains a bigger model for more batches per
    client, so per-unit compute dominates coordination and parallel
    execution must win (speedup >= 1.0) — asserted only when the runner
    actually has >= 2 cores; on a single-core box time-slicing makes a
    parallel win physically impossible and only the recorded numbers
    matter.
    """
    from repro.data import make_fmnist_clustered
    from repro.fl import TrainingConfig
    from repro.nn import zoo

    cores = _available_cores()
    payload: dict = {"parallel_workers": 2, "available_cores": cores, "workloads": {}}

    workloads = {
        "small": {
            "dataset": dict(num_clients=8, samples_per_client=30, image_size=10, seed=3),
            "model": dict(in_features=100, hidden=(16,), num_classes=10),
            "train": dict(local_epochs=1, local_batches=3, batch_size=10, learning_rate=0.1),
            "rounds": 6,
            "assert_speedup": False,
            "describe": "fmnist-clustered mlp-100-16-10, 8 clients x 30 samples, "
            "6/round, 3 batches of 10, 6 rounds",
            "note": "crossover counter-example: coordination dominates, "
            "so the router keeps rounds in process at this scale",
        },
        "large": {
            "dataset": dict(num_clients=8, samples_per_client=120, image_size=14, seed=3),
            "model": dict(in_features=196, hidden=(128,), num_classes=10),
            "train": dict(local_epochs=1, local_batches=200, batch_size=32, learning_rate=0.1),
            "rounds": 6,
            "assert_speedup": True,
            "describe": "fmnist-clustered mlp-196-128-10, 8 clients x 120 samples, "
            "6/round, 200 batches of 32, 6 rounds",
        },
    }

    large_speedup = None
    for name, wl in workloads.items():
        dataset = make_fmnist_clustered(**wl["dataset"])
        builder = lambda rng, _m=wl["model"]: zoo.build_mlp(rng, **_m)
        train_config = TrainingConfig(**wl["train"])
        rounds = wl["rounds"]
        times = {}
        histories = {}
        infos = {}
        for parallelism in (1, 2, 0):
            # Best of two, like every other floored timing here: one
            # noisy-neighbour stall must not decide a floor.
            times[parallelism], histories[parallelism], infos[parallelism] = min(
                (
                    _run_workload(
                        dataset, builder, train_config,
                        rounds=rounds, clients_per_round=6, parallelism=parallelism,
                    )
                    for _ in range(2)
                ),
                key=lambda run: run[0],
            )
        # equivalence at bench scale, across all three settings
        for other in (2, 0):
            for a, b in zip(histories[1], histories[other]):
                assert a.client_accuracy == b.client_accuracy
                assert a.published == b.published
        speedup = times[1] / times[2]
        machine_modes = infos[0]["mode_counts"]
        entry = {
            "workload": wl["describe"],
            "rounds": rounds,
            "serial_seconds": times[1],
            "parallel_seconds": times[2],
            "serial_rounds_per_sec": rounds / times[1],
            "parallel_rounds_per_sec": rounds / times[2],
            "parallel_speedup": speedup,
            "parallel_mode_counts": infos[2]["mode_counts"],
            # parallelism=0: which mode the machine-sized pool routed
            # each round to, and how it compared with serial.
            "machine_seconds": times[0],
            "machine_mode_counts": machine_modes,
            "machine_workers": infos[0]["workers"],
            "machine_picked": (
                "serial" if machine_modes.get("parallel", 0) == 0 else "parallel"
            ),
            "machine_speedup_vs_serial": times[1] / times[0],
            "machine_ipc_estimate": infos[0]["last_estimate"],
        }
        if wl["assert_speedup"]:
            entry["speedup_asserted"] = cores >= 2
            large_speedup = speedup
            if cores >= 2:
                # Floor-guarded pair for benchmarks/check_floors.py: with
                # the shared-memory substrate (handle-sized payloads, a
                # persistent attached pool) 2 workers must clear 1.5x on
                # the training-dominated workload.
                entry["speedup"] = speedup
                entry["floor"] = 1.5
                # the payload-size router must actually pick the pool on
                # a workload this large — pin the parallel path in CI
                assert machine_modes.get("parallel", 0) > 0, (
                    f"the machine-sized pool never routed parallel on the "
                    f"large workload with {cores} cores: {machine_modes}"
                )
        else:
            entry["note"] = wl["note"]
        payload["workloads"][name] = entry
        # On a single-core machine the machine-sized pool has one worker,
        # so it must keep every round in process and therefore not
        # reproduce the recorded parallel slowdown (0.80x large / 0.35x
        # small) of a forced 2-worker pool.
        if cores < 2:
            assert machine_modes.get("parallel", 0) == 0
            assert times[0] <= times[2] * 1.10, (
                f"parallelism=0 ({times[0]:.3f}s) should avoid the parallel "
                f"penalty ({times[2]:.3f}s) on a single-core machine"
            )

    out = Path(
        os.environ.get(
            "BENCH_SUBSTRATE_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_substrate.json",
        )
    )
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert out.exists()

    if cores >= 2:
        assert large_speedup >= 1.0, (
            f"parallel lost on the training-dominated workload: "
            f"{large_speedup:.2f}x with {cores} cores available"
        )

"""Event-driven simulator benchmarks: quantum-batched supersteps at scale.

The engine's scaling claim: batching every cycle that completes within a
scheduling quantum into one fused superstep (shared walk snapshots, one
lockstep training pass) turns a 1000-client asynchronous run from
thousands of tiny numpy calls into a short sequence of wide batches.
The scheduling stream is consumed in pop order either way, so the two
modes process near-identical schedules (batch-frozen tip views can flip
an occasional publish gate, which shifts later propagation draws); the
comparison is speed for speed over the same horizon and client count,
with cycle counts asserted within a few percent.

Enforced floors, recorded to ``BENCH_async.json`` for CI:

- **100-client batching**: the same 6-time-unit scenario must run
  >= 1.5x faster at quantum 0.5 than event-at-a-time (measured ~4x
  locally; the floor leaves noisy-CI headroom).
- **1000-client batching**: >= 2x on a 3-time-unit horizon (measured
  ~10x locally — wider batches amortize better).

Also recorded (no floor): the full 1000-client scenario — stragglers,
Poisson churn, quantum batching — with its events/sec and wall clock,
the headline scalability trajectory numbers.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data import make_fedprox_synthetic
from repro.fl import DagConfig, TrainingConfig
from repro.nn import zoo
from repro.sim import EventDrivenTangleLearning, SimConfig, random_churn

BATCHING_FLOOR_100 = 1.5
BATCHING_FLOOR_1000 = 2.0

_RESULTS: dict = {}


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _build_engine(num_clients, *, quantum, horizon, churned=False, seed=0):
    dataset = make_fedprox_synthetic(
        num_clients=num_clients, mean_samples=10, seed=1
    )
    features = dataset.clients[0].x_train.shape[1]
    churn = (
        random_churn(
            range(num_clients),
            mean_uptime=12.0,
            mean_downtime=3.0,
            horizon=horizon,
            rng=np.random.default_rng(2),
        )
        if churned
        else ()
    )
    return EventDrivenTangleLearning(
        dataset,
        lambda rng: zoo.build_logistic_regression(
            rng, in_features=features, num_classes=10
        ),
        TrainingConfig(
            local_epochs=1, local_batches=4, batch_size=10, learning_rate=0.05
        ),
        DagConfig(selector="weighted", depth_range=(2, 5)),
        sim_config=SimConfig(
            quantum=quantum,
            straggler_fraction=0.1 if churned else 0.0,
            straggler_slowdown=4.0,
            churn=churn,
        ),
        seed=seed,
    )


def _batching_speedup(num_clients, *, horizon, repeats):
    """Wall-clock ratio of event-at-a-time to quantum-batched on the
    same scenario, after asserting both processed the same schedule."""

    def run(quantum):
        engine = _build_engine(num_clients, quantum=quantum, horizon=horizon)
        engine.run_until(horizon)
        return engine

    sequential_time, sequential = _best_of(lambda: run(0.0), repeats)
    batched_time, batched = _best_of(lambda: run(0.5), repeats)
    # Batching changes tip visibility, not the latency laws: both modes
    # must have processed essentially the same amount of work.
    assert abs(sequential.completed_cycles - batched.completed_cycles) <= max(
        3, sequential.completed_cycles // 20
    )
    return sequential_time, batched_time, sequential.completed_cycles


def test_hundred_client_batching_speedup():
    sequential_time, batched_time, cycles = _batching_speedup(
        100, horizon=6.0, repeats=3
    )
    speedup = sequential_time / batched_time
    _RESULTS["batching_100_clients"] = {
        "workload": f"100 clients to t=6.0 ({cycles} cycles), weighted "
        "selector, logistic-60-10, quantum 0.5 vs event-at-a-time",
        "cycles": cycles,
        "sequential_seconds": sequential_time,
        "batched_seconds": batched_time,
        "speedup": speedup,
        "floor": BATCHING_FLOOR_100,
    }
    assert speedup >= BATCHING_FLOOR_100, (
        f"100-client quantum batching only {speedup:.2f}x over "
        f"event-at-a-time (floor {BATCHING_FLOOR_100}x)"
    )


def test_thousand_client_batching_speedup():
    sequential_time, batched_time, cycles = _batching_speedup(
        1000, horizon=3.0, repeats=1
    )
    speedup = sequential_time / batched_time
    _RESULTS["batching_1000_clients"] = {
        "workload": f"1000 clients to t=3.0 ({cycles} cycles), weighted "
        "selector, logistic-60-10, quantum 0.5 vs event-at-a-time",
        "cycles": cycles,
        "sequential_seconds": sequential_time,
        "batched_seconds": batched_time,
        "speedup": speedup,
        "floor": BATCHING_FLOOR_1000,
    }
    assert speedup >= BATCHING_FLOOR_1000, (
        f"1000-client quantum batching only {speedup:.2f}x over "
        f"event-at-a-time (floor {BATCHING_FLOOR_1000}x)"
    )


def test_thousand_client_full_scenario_recorded():
    """The headline run: 1000 clients with 10% stragglers (4x slower)
    and Poisson churn, quantum-batched.  No floor — absolute throughput
    is machine-dependent — but the run must complete the horizon and
    its events/sec lands in the trajectory file."""
    engine = _build_engine(1000, quantum=0.5, horizon=6.0, churned=True)
    started = time.perf_counter()
    engine.run_until(6.0)
    wall_clock = time.perf_counter() - started
    events = len(engine.events)
    assert engine.completed_cycles >= 1000
    assert len(engine.tangle) > 500
    assert any(e.kind in ("join", "leave") for e in engine.events)
    _RESULTS["full_scenario_1000_clients"] = {
        "workload": "1000 clients to t=6.0, 10% stragglers at 4x, "
        "Poisson churn (uptime 12, downtime 3), quantum 0.5",
        "events": events,
        "cycles": engine.completed_cycles,
        "transactions": len(engine.tangle) - 1,
        "wall_clock_seconds": wall_clock,
        "events_per_second": events / wall_clock,
        "note": "no floor: absolute throughput is machine-dependent",
    }


def test_zzz_emit_bench_async_json():
    """Write the trajectory file CI uploads (runs after the measurements;
    the zzz prefix keeps pytest's in-file ordering explicit)."""
    assert "batching_100_clients" in _RESULTS
    out = Path(
        os.environ.get(
            "BENCH_ASYNC_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_async.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    assert out.exists()

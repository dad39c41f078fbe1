"""Robustness benchmarks: the fault plane's cost and its payoff.

Two claims are recorded to ``BENCH_robustness.json`` for CI:

- **Overhead floor** (enforced): the fault plane must be (near) free
  when it injects nothing.  ``always_on`` forces the per-link delivery
  machinery active with every rate at zero — the plane's worst-case
  bookkeeping on a bit-identical trace — and the clean run must not be
  more than ~5% faster than it (floor 0.95 on the wall-clock ratio,
  with headroom for CI noise).  A ``FaultModel()`` at its defaults
  skips the machinery entirely, so the deployed clean path costs
  nothing at all.
- **Composed-scenario resilience** (recorded, no floor): the accuracy
  timeline of a composed degraded regime — message drops, client
  crashes, and 10% random-weight poisoners — next to the clean
  baseline on the same seed.  The protocol's implicit defenses
  (publish gate, accuracy-biased walks, quarantine) should keep the
  faulty run training; the numbers land in the perf trajectory for the
  README table.
"""

import json
import os
import time
from pathlib import Path

from repro.data import make_fedprox_synthetic
from repro.fl import DagConfig, TrainingConfig
from repro.nn import zoo
from repro.sim import EventDrivenTangleLearning, FaultModel, SimConfig

OVERHEAD_FLOOR = 0.95

_RESULTS: dict = {}


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _build_engine(sim_config, *, num_clients=50, seed=0):
    dataset = make_fedprox_synthetic(
        num_clients=num_clients, mean_samples=10, seed=1
    )
    features = dataset.clients[0].x_train.shape[1]
    return EventDrivenTangleLearning(
        dataset,
        lambda rng: zoo.build_logistic_regression(
            rng, in_features=features, num_classes=10
        ),
        TrainingConfig(
            local_epochs=1, local_batches=4, batch_size=10, learning_rate=0.05
        ),
        DagConfig(alpha=5.0, depth_range=(2, 5)),
        sim_config=sim_config,
        seed=seed,
    )


def test_fault_plane_disabled_overhead_floor():
    """Clean trace vs the same trace with the delivery machinery forced
    on (``always_on``), event-at-a-time: both runs are bit-identical in
    behavior and build the same walk snapshots, so the wall-clock ratio
    isolates the plane's pure bookkeeping (per-link arrival fan-out
    into the arrival table, and views reading its rows).  A ``FaultModel()`` at its defaults
    skips even that, taking the exact pre-plane code path."""
    horizon, repeats = 4.0, 3

    def run(faults):
        engine = _build_engine(SimConfig(faults=faults))
        engine.run_until(horizon)
        return engine

    clean_time, clean = _best_of(lambda: run(FaultModel()), repeats)
    plane_time, plane = _best_of(
        lambda: run(FaultModel(always_on=True)), repeats
    )
    assert clean.completed_cycles == plane.completed_cycles
    assert [e.tx_id for e in clean.events] == [e.tx_id for e in plane.events]
    ratio = clean_time / plane_time
    _RESULTS["fault_plane_overhead"] = {
        "workload": f"50 clients to t={horizon} ({clean.completed_cycles} "
        "cycles), event-at-a-time, clean vs always_on delivery machinery",
        "cycles": clean.completed_cycles,
        "clean_seconds": clean_time,
        "always_on_seconds": plane_time,
        "speedup": ratio,
        "floor": OVERHEAD_FLOOR,
    }
    assert ratio >= OVERHEAD_FLOOR, (
        f"fault-plane bookkeeping costs {(1 / ratio - 1) * 100:.1f}% "
        f"(clean/always_on ratio {ratio:.3f}, floor {OVERHEAD_FLOOR})"
    )


def test_batched_link_fidelity_cost_recorded():
    """Under quantum batching, per-link visibility is a real fidelity
    feature with a real cost: every observer sees its own tangle, so a
    batch walks one snapshot restriction per distinct mask instead of
    one per exemption group.  Recorded
    without a floor — it measures a feature's price, not overhead of the
    disabled plane — and the traces must still match bit for bit."""
    horizon = 4.0

    def run(faults):
        engine = _build_engine(SimConfig(quantum=0.5, faults=faults))
        engine.run_until(horizon)
        return engine

    clean_time, clean = _best_of(lambda: run(FaultModel()), 2)
    link_time, link = _best_of(lambda: run(FaultModel(always_on=True)), 2)
    assert [e.tx_id for e in clean.events] == [e.tx_id for e in link.events]
    _RESULTS["batched_link_fidelity"] = {
        "workload": f"50 clients to t={horizon}, quantum 0.5: shared "
        "snapshots (clean) vs per-observer snapshots (always_on)",
        "cycles": clean.completed_cycles,
        "clean_seconds": clean_time,
        "always_on_seconds": link_time,
        "ratio": clean_time / link_time,
        "note": "no floor: the price of per-link fidelity under batching",
    }


def test_composed_scenario_accuracy_recorded():
    """Drops + crashes + 10% poisoners vs the clean baseline, same seed.
    No floor — accuracy under faults is a scientific result, not a perf
    gate — but the degraded run must keep training (a non-empty
    timeline) and the fault counters must show the scenario actually
    fired."""
    horizon = 6.0
    faulty_config = SimConfig(
        quantum=0.5,
        faults=FaultModel(
            drop_rate=0.15,
            crash_rate=0.1,
            recovery=1.0,
        ),
        attackers=frozenset(range(5)),  # 5 of 50 = 10% poisoners
    )

    def timeline(engine):
        engine.run_until(horizon)
        return [(t, a) for t, a in engine.accuracy_timeline()]

    clean = _build_engine(SimConfig(quantum=0.5), seed=3)
    faulty = _build_engine(faulty_config, seed=3)
    clean_timeline = timeline(clean)
    faulty_timeline = timeline(faulty)
    assert faulty_timeline, "the degraded run must keep training"
    assert faulty.fault_stats["dropped_links"] > 0
    assert faulty.fault_stats["crashes"] > 0
    malicious = sum(
        1 for tx in faulty.tangle.transactions() if tx.tags.get("malicious")
    )
    assert malicious > 0
    _RESULTS["composed_scenario"] = {
        "workload": f"50 clients to t={horizon}, quantum 0.5: 15% drops, "
        "10% crash rate (recovery 1.0), 10% random-weight poisoners "
        "vs clean baseline, seed 3",
        "clean_timeline": clean_timeline,
        "faulty_timeline": faulty_timeline,
        "clean_final_accuracy": clean_timeline[-1][1],
        "faulty_final_accuracy": faulty_timeline[-1][1],
        "malicious_transactions": malicious,
        "fault_stats": dict(faulty.fault_stats),
        "note": "no floor: resilience numbers, not a perf gate",
    }


def test_zzz_emit_bench_robustness_json():
    """Write the trajectory file CI uploads (runs after the measurements;
    the zzz prefix keeps pytest's in-file ordering explicit)."""
    assert "fault_plane_overhead" in _RESULTS
    out = Path(
        os.environ.get(
            "BENCH_ROBUSTNESS_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_robustness.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    assert out.exists()

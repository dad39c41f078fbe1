"""Service-layer benchmarks: coalescing throughput and chaos-mode tails.

Two scenarios, both through the real service stack:

1. ``coalescing`` — 32 concurrent users in a closed loop against the
   same ``TipCoalescer``, once with batching disabled (``max_batch=1``,
   one ladder walk per request) and once enabled (``max_batch=64``).
   The machine is single-core: the speedup is amortization — one
   ``lockstep_walks`` superstep loop serving the whole batch instead of
   one loop per request.  Floor: coalesced throughput >= 1.5x.

2. ``chaos`` — a full ``TangleGateway`` under ``ServiceChaos`` (drops,
   jitter, payload corruption, injected coalescer crashes) plus a
   flaky scoring plane.  Every response must stay inside the closed
   ok/shed/rejected taxonomy, degradation must actually fire, and the
   p99 tips latency must stay under the configured deadline budget.
   Floor: budget / p99 >= 1.0 ("deadline_headroom").

Run:
    PYTHONPATH=src python -m pytest benchmarks/test_service_perf.py -q
Emits BENCH_service.json at the repo root (override: BENCH_SERVICE_OUT).
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.service import (
    GatewayConfig,
    ServiceChaos,
    TangleGateway,
    TipCoalescer,
    TransportDropped,
)
from repro.service.degradation import DegradationLadder
from repro.sim.faults import FaultModel

_RESULTS: dict = {}

USERS = 32
PER_USER = 8
COALESCING_FLOOR = 1.5
CHAOS_BUDGET = 0.5
HEADROOM_FLOOR = 1.0


def _grow_tangle(n=300, seed=2, width=64):
    rng = np.random.default_rng(seed)
    tangle = Tangle([np.zeros(width)])
    ids = [GENESIS_ID]
    for i in range(n):
        parents = tuple(
            dict.fromkeys(
                ids[int(rng.integers(0, len(ids)))] for _ in range(2)
            )
        )
        tangle.add(
            Transaction(f"t{i}", parents, [np.zeros(width)], i % 16, i // 16)
        )
        ids.append(f"t{i}")
    return tangle


def _percentiles(latencies):
    arr = np.sort(np.asarray(latencies))
    return {
        "p50_ms": round(float(arr[arr.size // 2]) * 1000, 3),
        "p99_ms": round(float(arr[int(arr.size * 0.99)]) * 1000, 3),
    }


# ------------------------------------------------------------- coalescing
def _closed_loop(tangle, max_batch):
    """32 users x 8 requests through one coalescer; returns wall + tails."""
    latencies = []
    lock = threading.Lock()
    with TipCoalescer(
        tangle,
        ladder=DegradationLadder(),
        max_batch=max_batch,
        max_pending=4096,
        seed=0,
    ) as coalescer:
        barrier = threading.Barrier(USERS)

        def user():
            mine = []
            barrier.wait()
            for _ in range(PER_USER):
                start = time.perf_counter()
                outcome = coalescer.submit(2)
                mine.append(time.perf_counter() - start)
                assert outcome.ok
            with lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=user) for _ in range(USERS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        stats = dict(coalescer.stats)
    return wall, latencies, stats


def test_coalescing_throughput_floor():
    tangle = _grow_tangle()
    total = USERS * PER_USER

    # Warm-up pass so thread spawn + snapshot build costs are paid.
    _closed_loop(tangle, max_batch=64)

    wall_single, lat_single, stats_single = _closed_loop(tangle, max_batch=1)
    wall_batched, lat_batched, stats_batched = _closed_loop(
        tangle, max_batch=64
    )
    speedup = wall_single / wall_batched

    _RESULTS["coalescing"] = {
        "users": USERS,
        "requests": total,
        "per_request": {
            "wall_seconds": round(wall_single, 4),
            "rps": round(total / wall_single, 1),
            "batches": stats_single["batches"],
            **_percentiles(lat_single),
        },
        "coalesced": {
            "wall_seconds": round(wall_batched, 4),
            "rps": round(total / wall_batched, 1),
            "batches": stats_batched["batches"],
            "max_batch_size": stats_batched["max_batch_size"],
            **_percentiles(lat_batched),
        },
        "speedup": round(speedup, 2),
        "floor": COALESCING_FLOOR,
    }
    assert stats_batched["coalesced"] > 0
    assert stats_batched["batches"] < stats_single["batches"]
    assert speedup >= COALESCING_FLOOR, (
        f"coalescing speedup {speedup:.2f}x below floor "
        f"{COALESCING_FLOOR}x at {USERS} users"
    )


# ------------------------------------------------------------------ chaos
def _flaky_provider_factory(fail_every=3):
    """Scoring plane that fails deterministically every Nth call."""
    calls = [0]
    call_lock = threading.Lock()

    def provider(score_key):
        def batch(tx_ids):
            with call_lock:
                calls[0] += 1
                failing = calls[0] % fail_every == 0
            if failing:
                raise RuntimeError("scoring plane flaked")
            time.sleep(0.003)
            return np.random.default_rng(0).random(len(tx_ids))

        return batch

    return provider


def test_chaos_load_p99_stays_under_budget():
    tangle = _grow_tangle()
    faults = FaultModel(
        drop_rate=0.08,
        jitter=0.002,
        corruption_rate=0.3,
        corruption_mode="nan",
        crash_rate=0.25,
        always_on=True,
    )
    chaos = ServiceChaos(faults, seed=7)
    config = GatewayConfig(
        deadline_budget=CHAOS_BUDGET,
        admission_capacity=16,
        max_batch=16,
        breaker_failure_threshold=3,
        breaker_reset_timeout=0.2,
        seed=7,
    )
    latencies = []
    outcomes: dict[str, int] = {}
    drops = [0]
    lock = threading.Lock()
    payload_rng = np.random.default_rng(1)
    payloads = [
        payload_rng.normal(size=tangle.spec.total) for _ in range(8)
    ]

    with TangleGateway(
        tangle,
        config=config,
        score_provider=_flaky_provider_factory(),
        chaos=chaos,
    ) as gateway:

        def user(uid):
            mine = []
            local: dict[str, int] = {}
            local_drops = 0
            for _ in range(PER_USER):
                start = time.perf_counter()
                try:
                    response = gateway.tips(2, score_key=uid)
                    key = response.status + (
                        "_degraded" if response.degraded else ""
                    )
                except TransportDropped:
                    # Transport event: the connection died without a
                    # response.  Not part of the response taxonomy.
                    local_drops += 1
                    continue
                mine.append(time.perf_counter() - start)
                local[key] = local.get(key, 0) + 1
                try:
                    published = gateway.publish(
                        payloads[uid % len(payloads)],
                        tangle.tips()[:2],
                        issuer=uid,
                    )
                    local[published.status] = (
                        local.get(published.status, 0) + 1
                    )
                except TransportDropped:
                    local_drops += 1
            with lock:
                latencies.extend(mine)
                drops[0] += local_drops
                for key, value in local.items():
                    outcomes[key] = outcomes.get(key, 0) + value

        threads = [
            threading.Thread(target=user, args=(uid,))
            for uid in range(USERS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

        # The crash draw happens once per coalescer batch, so an
        # unlucky schedule can finish the load with no crash landed.
        # Keep poking (off the clock) until the restart path has
        # demonstrably run; at crash_rate=0.25 per batch this is
        # virtually certain well inside the bound.
        for _ in range(400):
            if gateway.coalescer.stats["restarts"] > 0:
                break
            try:
                gateway.tips(1)
            except TransportDropped:
                pass

        counts = dict(gateway.counts)
        coalescer_stats = dict(gateway.coalescer.stats)
        ladder_stats = dict(gateway.ladder.stats)

    tails = _percentiles(latencies)
    headroom = CHAOS_BUDGET * 1000 / tails["p99_ms"]
    _RESULTS["chaos"] = {
        "users": USERS,
        "budget_ms": CHAOS_BUDGET * 1000,
        "wall_seconds": round(wall, 4),
        "rps": round(len(latencies) / wall, 1),
        "outcomes": outcomes,
        "transport_drops": drops[0],
        "counts": counts,
        "restarts": coalescer_stats["restarts"],
        "degraded": counts["degraded"],
        "quarantined": counts["quarantined"],
        "ladder": ladder_stats,
        "chaos_injected": dict(chaos.stats),
        **tails,
        "deadline_headroom": {
            "speedup": round(headroom, 2),
            "floor": HEADROOM_FLOOR,
        },
    }

    # The closed taxonomy: nothing but ok / shed / rejected, ever.
    statuses = {key.removesuffix("_degraded") for key in outcomes}
    assert statuses <= {"ok", "shed", "rejected"}, outcomes
    assert outcomes.get("ok", 0) > 0  # the service kept serving
    assert counts["shed"] > 0  # backpressure fired
    assert counts["degraded"] > 0  # the ladder actually degraded
    assert counts["quarantined"] > 0  # corrupt payloads were caught
    assert coalescer_stats["restarts"] > 0  # it crashed and recovered
    assert headroom >= HEADROOM_FLOOR, (
        f"chaos p99 {tails['p99_ms']:.1f}ms exceeds the "
        f"{CHAOS_BUDGET * 1000:.0f}ms deadline budget"
    )


# ------------------------------------------------------------------ emit
def test_zzz_emit_bench_service_json():
    if not _RESULTS:
        pytest.skip("no benchmark results collected")
    out = os.environ.get(
        "BENCH_SERVICE_OUT",
        str(Path(__file__).resolve().parent.parent / "BENCH_service.json"),
    )
    payload = {"benchmark": "service", "results": _RESULTS}
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")

"""The five whole-system workloads of the end-to-end benchmark.

Every workload is ``setup(params, seed) -> state`` (dataset, simulator
or gateway construction; timed as ``setup_s`` by the caller) plus
``run(state, params, recorder) -> Outcome`` (the timed region, the
output checks, and the facts the per-layer report needs).  All inputs
derive from ``seed``; the program receives only generated inputs.

Sizes are fixed counts (rounds, simulated horizon, iterations), never a
time box, so every count repeats exactly for a seed.  ``scale = 1`` is
sized to about four seconds per timed region on the 2-core reference
box; client counts and models never scale, only rounds/horizon/ops.
``parallelism`` is 1 everywhere and at most two load threads run.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.dag.persistence import load_tangle, save_tangle
from repro.data import make_fedprox_synthetic, make_fmnist_clustered
from repro.fl import DagConfig, TangleLearning, TrainingConfig
from repro.nn import zoo
from repro.service import GatewayConfig, TangleGateway
from repro.sim import (
    EventDrivenTangleLearning,
    FaultModel,
    SimConfig,
    random_churn,
)

__all__ = ["WORKLOADS", "Workload", "Outcome", "tail_percentile"]

OUT_DIR = Path(__file__).resolve().parent / "out"
ACCURACY_TARGET = 0.95
STATUSES = frozenset({"ok", "shed", "rejected"})


@dataclass
class Outcome:
    """What one timed region produced."""

    wall_s: float
    ops: int  # rounds | events | gateway requests
    op_p50_ms: float
    op_tail_ms: float
    tail_percentile: float
    tail_samples: int
    attempted: int
    failed: int
    checks: dict[str, bool]
    fingerprint: str
    counts: dict[str, int]  # exact per seed; compared across repeats
    extras: dict[str, float] = field(default_factory=dict)  # printed, unbounded
    facts: dict[str, float] = field(default_factory=dict)  # for layer_metrics
    load_walls: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    why: str
    ops_unit: str
    params: Callable[[float], dict]
    setup: Callable[[dict, int], object]
    run: Callable[[object, dict, object], Outcome]


def tail_percentile(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile that still has
    at least ten samples beyond it, capped at p99.  Fewer than twenty
    samples cannot support a tail estimate, so the median is reported
    in its place."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    beyond = min(max(10, math.ceil(n / 100)), n // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(str(part).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


# ------------------------------------------------------------- rounds_*
def _rounds_params(rounds: int, floor: float):
    def params(scale: float) -> dict:
        return {
            "rounds": max(6, round(rounds * scale)),
            # The accuracy floor is only meaningful at full size; shorter
            # runs (--quick) just have to beat chance (0.1) clearly.
            "accuracy_floor": floor if scale >= 1.0 else 0.3,
        }

    return params


def _rounds_setup(model: str, dag_config: DagConfig):
    def setup(params: dict, seed: int) -> TangleLearning:
        dataset = make_fmnist_clustered(
            num_clients=100, samples_per_client=80, image_size=14, seed=seed
        )
        if model == "cnn":
            def builder(rng):
                return zoo.build_fmnist_cnn(rng, image_size=14, size="small")
        else:
            def builder(rng):
                return zoo.build_mlp(rng, in_features=14 * 14, hidden=(64,))
        return TangleLearning(
            dataset,
            builder,
            TrainingConfig(local_batches=8),
            dag_config,
            clients_per_round=10,
            seed=seed,
        )

    return setup


def _rounds_to_target(accuracies: list[float]) -> int:
    """First round (1-based) whose 5-round mean accuracy reaches the
    target; the number of rounds run when it never does."""
    for last in range(4, len(accuracies)):
        if np.mean(accuracies[last - 4 : last + 1]) >= ACCURACY_TARGET:
            return last + 1
    return len(accuracies)


def _persistence_facts(tangle, stem: str) -> dict[str, float]:
    """One save + load of the final tangle (checkpoint-stall baseline)."""
    OUT_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    path = save_tangle(tangle, OUT_DIR / stem)
    saved = time.perf_counter()
    try:
        reloaded = load_tangle(path)
        loaded = time.perf_counter()
        if len(reloaded) != len(tangle):
            raise RuntimeError("reloaded tangle differs in length")
        file_mb = path.stat().st_size / 2**20
    finally:
        path.unlink(missing_ok=True)
    return {
        "persistence_save_s": saved - start,
        "persistence_load_s": loaded - saved,
        "persistence_file_mb": file_mb,
    }


def _rounds_run(persist: bool):
    def run(sim: TangleLearning, params: dict, recorder) -> Outcome:
        rounds = params["rounds"]
        latencies: list[float] = []
        failed = 0
        recorder.start()
        start = time.perf_counter()
        for _ in range(rounds):
            began = time.perf_counter()
            try:
                sim.run_round()
            except Exception:
                # Benchmark boundary: a round that raises is a failed
                # operation, reported with its traceback, not a crash
                # of the report.
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            latencies.append((time.perf_counter() - began) * 1000.0)
        wall = time.perf_counter() - start
        recorder.stop()

        tangle = sim.tangle
        accuracies = [record.mean_accuracy for record in sim.history]
        final_accuracy = float(np.mean(accuracies[-5:])) if accuracies else 0.0
        published = sum(len(record.published) for record in sim.history)
        tx_ids = [tx.tx_id for tx in tangle.transactions()]
        tail, percentile, samples = tail_percentile(latencies or [0.0])
        facts = {
            "final_accuracy": final_accuracy,
            "rounds_to_target": float(_rounds_to_target(accuracies)),
            "walk_evaluations": float(
                sum(sum(r.walk_evaluations.values()) for r in sim.history)
            ),
            "arena_resident_mb": tangle.arena.resident_nbytes / 2**20,
        }
        for key in ("parallel", "fallback"):
            facts[f"mode_{key}"] = float(
                getattr(sim.executor, "mode_counts", {}).get(key, 0)
            )
        if persist and recorder.tracing:
            facts.update(_persistence_facts(tangle, "rounds_mlp-checkpoint"))
        return Outcome(
            wall_s=wall,
            ops=len(latencies),
            op_p50_ms=statistics.median(latencies or [0.0]),
            op_tail_ms=tail,
            tail_percentile=percentile,
            tail_samples=samples,
            attempted=rounds,
            failed=failed,
            checks={
                "tangle_growth_equals_published": len(tangle) - 1 == published,
                "every_parent_exists": all(
                    parent in tangle
                    for tx in tangle.transactions()
                    for parent in tx.parents
                ),
                "final_accuracy_floor": final_accuracy >= params["accuracy_floor"],
            },
            fingerprint=_digest(*tx_ids, rounds, published),
            counts={
                "rounds": len(latencies),
                "transactions": len(tangle),
                "published": published,
                "rounds_to_target": int(facts["rounds_to_target"]),
            },
            extras={"final_accuracy": final_accuracy},
            facts=facts,
            load_walls={threading.current_thread().name: wall},
        )

    return run


# ---------------------------------------------------------- async_churn
ASYNC_CLIENTS = 1000
LATE_FRACTION = 0.75  # op_tail_ms covers the last quarter of simulated time


def _async_params(scale: float) -> dict:
    return {"horizon": max(1.0, 6.5 * scale)}


def _async_setup(params: dict, seed: int) -> EventDrivenTangleLearning:
    dataset = make_fedprox_synthetic(
        num_clients=ASYNC_CLIENTS, mean_samples=10, seed=seed
    )
    features = dataset.clients[0].x_train.shape[1]
    churn = random_churn(
        range(ASYNC_CLIENTS),
        mean_uptime=12.0,
        mean_downtime=3.0,
        horizon=params["horizon"],
        rng=np.random.default_rng(seed),
    )
    return EventDrivenTangleLearning(
        dataset,
        lambda rng: zoo.build_logistic_regression(
            rng, in_features=features, num_classes=10
        ),
        TrainingConfig(local_batches=4, batch_size=10, learning_rate=0.05),
        DagConfig(
            selector="accuracy",
            depth_range=(2, 5),
            walk_engine=True,
            training_plane=True,
        ),
        sim_config=SimConfig(
            quantum=0.5,
            straggler_fraction=0.1,
            straggler_slowdown=4.0,
            churn=churn,
            faults=FaultModel(always_on=True),
        ),
        seed=seed,
    )


def _async_run(engine: EventDrivenTangleLearning, params: dict, recorder) -> Outcome:
    horizon = params["horizon"]
    failed = 0
    recorder.start()
    start = time.perf_counter()
    late_start, early_events = start, 0
    try:
        # Two calls so the cost of late events (large tangle) is timed
        # apart; the cut is part of the workload, identical every run.
        engine.run_until(LATE_FRACTION * horizon)
        late_start, early_events = time.perf_counter(), len(engine.events)
        engine.run_until(horizon)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed += 1
    end = time.perf_counter()
    recorder.stop()

    wall = end - start
    events = len(engine.events)
    cycles = engine.completed_cycles
    kinds = {event.kind for event in engine.events}
    timeline = engine.accuracy_timeline(bucket=1.0)
    final_accuracy = timeline[-1][1] if timeline else 0.0
    stats = engine.fault_stats
    tx_ids = [tx.tx_id for tx in engine.tangle.transactions()]
    late_events = max(1, events - early_events)
    facts = {
        "final_accuracy": final_accuracy,
        "arena_resident_mb": engine.tangle.arena.resident_nbytes / 2**20,
        "sim_events": float(events),
        "sim_cycles": float(cycles),
    }
    for key in ("dropped_links", "quarantined", "crashes"):
        facts[f"fault_{key}"] = float(stats[key])
    return Outcome(
        wall_s=wall,
        ops=events,
        # The engine is a batch simulator: its unit cost is wall per
        # event, over the whole run and over the late part.
        op_p50_ms=1000.0 * wall / max(1, events),
        op_tail_ms=1000.0 * (end - late_start) / late_events,
        tail_percentile=100.0 * LATE_FRACTION,
        tail_samples=late_events,
        attempted=max(1, events),
        failed=failed + stats["quarantined"],
        checks={
            "horizon_reached": engine.now >= horizon,
            "nothing_quarantined": stats["quarantined"] == 0,
            "churn_happened": {"join", "leave"} <= kinds,
        },
        fingerprint=_digest(*tx_ids, events, cycles),
        counts={
            "events": events,
            "cycles": cycles,
            "transactions": len(engine.tangle),
        },
        extras={"final_accuracy": final_accuracy},
        facts=facts,
        load_walls={threading.current_thread().name: wall},
    )


# -------------------------------------------------------- gateway_mixed
CALLERS = 2
PUBLISH_PROBABILITY = 0.25
MODEL_EVERY = 50


def _gateway_params(scale: float) -> dict:
    iterations = max(100, round(1800 * scale))
    return {
        "iterations": iterations,
        "pregrow_rounds": max(5, round(30 * min(1.0, scale))),
        # Scaled with the op count so the midpoint compaction always has
        # something to drop (the issue's 1000 at 5000 iterations).
        "keep_last": iterations // 5,
    }


@dataclass
class _GatewayState:
    sim: TangleLearning
    gateway: TangleGateway
    seed: int

    def close(self) -> None:
        self.gateway.close()
        self.sim.close()


def _gateway_setup(params: dict, seed: int) -> _GatewayState:
    sim = _rounds_setup(
        "mlp", DagConfig(walk_engine=True, training_plane=True)
    )(params, seed)
    sim.run(params["pregrow_rounds"])
    clients, tangle = sim.clients, sim.tangle

    def score_provider(score_key):
        client = clients[score_key]
        return lambda tx_ids: client.tx_accuracies(tangle, tx_ids)

    gateway = TangleGateway(
        tangle,
        config=GatewayConfig(deadline_budget=2.0, seed=seed),
        score_provider=score_provider,
    )
    return _GatewayState(sim, gateway, seed)


@dataclass
class _CallerLog:
    tips_ms: list[float] = field(default_factory=list)
    publish_ms: list[float] = field(default_factory=list)
    model_ms: list[float] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)
    bad_tips: int = 0
    exceptions: int = 0
    wall_s: float = 0.0


def _gateway_run(state: _GatewayState, params: dict, recorder) -> Outcome:
    gateway, tangle = state.gateway, state.sim.tangle
    iterations, keep_last = params["iterations"], params["keep_last"]
    num_clients = len(state.sim.clients)
    size_before = len(tangle)
    # The compaction is a rendezvous: both callers are between requests
    # when it starts and resume when it ends.  A caller still holding
    # tips from before the cut could otherwise publish onto a dropped
    # parent ("rejected"), and whether that happens would depend on
    # thread timing — counts must repeat exactly.
    before_compaction = threading.Barrier(CALLERS)
    after_compaction = threading.Barrier(CALLERS)
    compaction: dict[str, float] = {}
    logs = [_CallerLog() for _ in range(CALLERS)]

    def note(log: _CallerLog, response) -> None:
        log.statuses[response.status] = log.statuses.get(response.status, 0) + 1

    def caller(index: int) -> None:
        log = logs[index]
        rng = np.random.default_rng([state.seed, index])
        clock = time.perf_counter
        began = clock()
        try:
            for iteration in range(iterations):
                if iteration == iterations // 2:
                    before_compaction.wait()
                    if index == 0:
                        stall = clock()
                        report = gateway.compact(keep_last=keep_last)
                        compaction["stall_ms"] = (clock() - stall) * 1000.0
                        compaction["dropped"] = report.dropped
                    after_compaction.wait()
                with recorder.span("bench.loadgen"):
                    client_id = int(rng.integers(0, num_clients))
                    publish = rng.random() < PUBLISH_PROBABILITY
                sent = clock()
                response = gateway.tips(2, score_key=client_id)
                log.tips_ms.append((clock() - sent) * 1000.0)
                note(log, response)
                tips = response.body.get("tips") or []
                if response.ok and not (
                    len(tips) == 2 and all(tip in tangle for tip in tips)
                ):
                    log.bad_tips += 1
                if publish and response.ok:
                    with recorder.span("bench.loadgen"):
                        parents = list(dict.fromkeys(tips))
                        flat = np.mean(
                            [tangle.flat_weights(p) for p in parents], axis=0
                        ) + rng.normal(0.0, 0.01, size=tangle.spec.total)
                    sent = clock()
                    response = gateway.publish(flat, parents, issuer=client_id)
                    log.publish_ms.append((clock() - sent) * 1000.0)
                    note(log, response)
                if iteration % MODEL_EVERY == MODEL_EVERY - 1:
                    sent = clock()
                    response = gateway.current_model()
                    log.model_ms.append((clock() - sent) * 1000.0)
                    note(log, response)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            log.exceptions += 1
            before_compaction.abort()
            after_compaction.abort()
        log.wall_s = clock() - began

    threads = [
        threading.Thread(target=caller, args=(index,), name=f"caller-{index}")
        for index in range(CALLERS)
    ]
    recorder.start()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    recorder.stop()

    tips_ms = [ms for log in logs for ms in log.tips_ms]
    publish_ms = [ms for log in logs for ms in log.publish_ms]
    model_ms = [ms for log in logs for ms in log.model_ms]
    statuses: dict[str, int] = {}
    for log in logs:
        for status, count in log.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    exceptions = sum(log.exceptions for log in logs)
    requests = len(tips_ms) + len(publish_ms) + len(model_ms) + 1  # + compact
    dropped = int(compaction.get("dropped", 0))
    counts = dict(gateway.counts)
    coalescer, ladder = gateway.coalescer.stats, gateway.ladder.stats
    tail, percentile, samples = tail_percentile(tips_ms or [0.0])
    extras = {"compaction_stall_ms": compaction.get("stall_ms", 0.0)}
    if publish_ms:
        publish_tail, publish_pct, _ = tail_percentile(publish_ms)
        extras.update(
            publish_p50_ms=statistics.median(publish_ms),
            publish_tail_ms=publish_tail,
            publish_tail_percentile=publish_pct,
        )
    if model_ms:
        extras["current_model_p50_ms"] = statistics.median(model_ms)
    facts = {
        "arena_resident_mb": tangle.arena.resident_nbytes / 2**20,
        "coalescer_batches": float(coalescer["batches"]),
        "coalescer_requests": float(coalescer["requests"]),
        "coalescer_shed": float(
            coalescer["shed_queue_full"]
            + coalescer["shed_deadline_lapsed"]
            + coalescer["shed_crash"]
        ),
        "admission_shed": float(gateway.admission.shed),
    }
    for mode in ("accuracy", "weighted", "uniform", "degraded"):
        facts[f"ladder_{mode}"] = float(ladder[mode])
    return Outcome(
        wall_s=wall,
        ops=requests,
        op_p50_ms=statistics.median(tips_ms or [0.0]),
        op_tail_ms=tail,
        tail_percentile=percentile,
        tail_samples=samples,
        attempted=requests,
        failed=statuses.get("shed", 0) + statuses.get("rejected", 0) + exceptions,
        checks={
            "closed_status_taxonomy": set(statuses) <= STATUSES and not exceptions,
            "tips_are_two_known_ids": not any(log.bad_tips for log in logs),
            "published_equals_growth": counts["published"]
            == len(tangle) - size_before + dropped,
            "compaction_dropped_rows": dropped > 0,
        },
        # Thread interleaving picks the ids, so only counts are pinned.
        fingerprint=_digest(len(tips_ms), len(publish_ms), len(model_ms)),
        counts={
            "tips": len(tips_ms),
            "publishes": len(publish_ms),
            "current_model": len(model_ms),
            "published": counts["published"],
        },
        extras=extras,
        facts=facts,
        load_walls={thread.name: log.wall_s for thread, log in zip(threads, logs)},
    )


# ------------------------------------------------------------- registry
_PLANES_ON = DagConfig(walk_engine=True, training_plane=True)

WORKLOADS: dict[str, Workload] = {
    "rounds_mlp": Workload(
        why="FMNIST 100 clients, MLP, every fused plane on: walk and candidate "
        "scoring dominate; one snapshot per round serves all ten clients",
        ops_unit="rounds",
        params=_rounds_params(100, 0.9),
        setup=_rounds_setup("mlp", _PLANES_ON),
        run=_rounds_run(persist=True),
    ),
    "rounds_default": Workload(
        why="same rounds with DagConfig() defaults: sequential random_walk and "
        "per-client train_local, bypassing walk_engine and training_plane",
        ops_unit="rounds",
        params=_rounds_params(100, 0.9),
        setup=_rounds_setup("mlp", DagConfig()),
        run=_rounds_run(persist=False),
    ),
    "rounds_cnn": Workload(
        why="the paper's CNN: conv has no fused kernel, so nn training and "
        "per-model eval dominate and walk-engine or arena work should not show",
        ops_unit="rounds",
        params=_rounds_params(14, 0.3),
        setup=_rounds_setup("cnn", _PLANES_ON),
        run=_rounds_run(persist=False),
    ),
    "async_churn": Workload(
        why="event engine, 1000 clients, stragglers, churn, per-link views: one "
        "snapshot build per cycle, so snapshot/view/delivery dominate, nn under 10%",
        ops_unit="events",
        params=_async_params,
        setup=_async_setup,
        run=_async_run,
    ),
    "gateway_mixed": Workload(
        why="gateway closed loop, 2 callers: tips reads beside publish/compact "
        "writes on one lock; snapshot extend per publish epoch, arena growth",
        ops_unit="requests",
        params=_gateway_params,
        setup=_gateway_setup,
        run=_gateway_run,
    ),
}

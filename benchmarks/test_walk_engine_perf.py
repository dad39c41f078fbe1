"""Lockstep walk-engine benchmarks: frontier-batched tip selection.

The fused walk step batches a single step's candidate evaluations; the
engine (`repro.dag.walk_engine`) batches across a whole selection:
every particle advances in lockstep supersteps over a per-epoch CSR
snapshot, scores come from a memo (NaN = not yet scored at entry, an
explicit scored-mask after) prefilled from the client cache, and each
particle's next node is drawn by row-wise Gumbel-max — no per-step
Python dict walking, no ``rng.choice``.

Enforced floors, recorded to ``BENCH_walk_engine.json`` for CI:

- **Kernel**: a full ``select_tips(count=5)`` on the simulation-profile
  MLP tangle (mlp-100-16-10 models, round-grown DAG: 16 rounds x 8
  publications — the simulator's shape) must be >= 3x faster than the
  sequential per-particle walker in the steady-state regime (client
  cache warm, snapshot cached for the epoch).  The two walkers draw
  from the *same tip distribution* (asserted by total-variation
  distance over thousands of walks; the per-superstep transition law is
  pinned analytically in ``tests/property/test_properties_walk_engine.py``).
- **Narrow selection**: the same on ``select_tips(count=2)`` — the
  simulators' ``num_tips`` — where every superstep steps on Python
  scalars; floor ``NARROW_FLOOR``.  Next to it, ``stepper_crossover``
  records per live-particle count the smallest frontier block (cells =
  particles x widest candidate list) at which the vectorized stepper
  beats the scalar one, beside the engine's ``_SCALAR_BLOCK_CELLS``.

The sequential walker is the reference ``sequential_select_tips`` — no
configuration runs it, so there is no end-to-end pair to time here; the
whole-system number is ``benchmarks/e2e``'s ``rounds_*`` rows.

Also recorded (no floor): a shallow and a deep tangle shape, the
cold-cache variant (first-contact selections, where model evaluation
dominates both paths), and a "genesis fan" — the event engine's
~700-approver genesis, where the first superstep's frontier is widest.
Timings are best-of-N (the fan: p50) so a noisy-neighbor stall on a
shared CI runner cannot flake the comparison.
"""

import gc
import json
import os
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.dag import walk_engine
from repro.dag.random_walk import sequential_select_tips
from repro.dag.tangle import Tangle
from repro.dag.tip_selection import AccuracyTipSelector
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import batched_walk_starts, lockstep_walks, snapshot_for
from repro.fl import Client, TrainingConfig
from repro.nn import zoo

from benchmarks_shared import best_of

KERNEL_FLOOR = 3.0
NARROW_FLOOR = 2.75
COUNT = 5  # particles per selection
NARROW_COUNT = 2  # the simulators' num_tips
SELECTIONS = 20  # selections per timed batch
DISTRIBUTION_SELECTIONS = 300  # per walker, for the distribution assert
TV_LIMIT = 0.15

_RESULTS: dict = {}


class _Data:
    client_id = 0
    metadata: dict = {}

    def __init__(self, rng):
        self.x_train = rng.normal(size=(16, 100))
        self.y_train = rng.integers(0, 10, size=16)
        self.x_test = rng.normal(size=(8, 100))
        self.y_test = rng.integers(0, 10, size=8)


def _round_grown_tangle(model, rounds, per_round, sigma=0.05, seed=2):
    """A DAG with the simulator's shape: ``per_round`` publications per
    round, each approving two tips of the previous round's view — width
    ~per_round, depth ~rounds (uniform-parent growth is much shallower
    than anything the simulators produce)."""
    genesis = model.get_weights()
    tangle = Tangle([w.copy() for w in genesis])
    rng = np.random.default_rng(seed)
    ids = [GENESIS_ID]
    for round_index in range(rounds):
        tips = tangle.tips()
        batch = []
        for client in range(per_round):
            parents = tuple(
                dict.fromkeys(
                    tips[int(rng.integers(0, len(tips)))] for _ in range(2)
                )
            )
            perturbed = [w + rng.normal(0.0, sigma, size=w.shape) for w in genesis]
            batch.append(
                Transaction(
                    f"r{round_index}c{client}", parents, perturbed, client, round_index
                )
            )
        for tx in batch:  # barrier: the round's view excluded these
            tangle.add(tx)
            ids.append(tx.tx_id)
    return tangle, ids


def _selector(client, tangle):
    """Wired like ``repro.substrate.build_selector`` wires a client."""
    return AccuracyTipSelector(
        batch_accuracy_fn=lambda tx_ids: client.tx_accuracies(tangle, tx_ids),
        row_accuracy_fn=lambda tx_ids, arena_rows: client.tx_accuracies(
            tangle, tx_ids, arena_rows
        ),
        alpha=10.0,
        depth_range=(15, 25),
        score_cache_fn=client.tx_accuracy_map,
        cache_epoch_fn=lambda: client.cache_epoch,
    )


#: The two walkers as ``(selector, tangle, count, rng) -> tips``.
SEQUENTIAL, ENGINE = sequential_select_tips, AccuracyTipSelector.select_tips


def _tip_distribution(tips):
    counts: dict = {}
    for tip in tips:
        counts[tip] = counts.get(tip, 0) + 1
    return {tip: c / len(tips) for tip, c in counts.items()}


def _total_variation(p, q):
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def _measure_selection(rounds, per_round, count=COUNT):
    """(sequential_s, engine_s, tv) per SELECTIONS-batch on a warm client."""
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(16,), num_classes=10
    )
    tangle, ids = _round_grown_tangle(model, rounds, per_round)
    client = Client(_Data(np.random.default_rng(4)), model, TrainingConfig(), rng=1)
    client.tx_accuracies(tangle, ids)  # steady state: cache fully warm
    selector = _selector(client, tangle)
    selector.select_tips(tangle, count, np.random.default_rng(0))  # epoch snapshot

    def run(walker, seed, selections=SELECTIONS):
        rng = np.random.default_rng(seed)
        tips = []
        for _ in range(selections):
            tips.extend(walker(selector, tangle, count, rng))
        return tips

    sequential_s, _ = best_of(lambda: run(SEQUENTIAL, 3), 7)
    engine_s, _ = best_of(lambda: run(ENGINE, 3), 7)
    # The same number of tips per walker whatever the count.
    selections = DISTRIBUTION_SELECTIONS * COUNT // count
    tv = _total_variation(
        _tip_distribution(run(SEQUENTIAL, 11, selections)),
        _tip_distribution(run(ENGINE, 12, selections)),
    )
    return sequential_s, engine_s, tv, tangle


# ----------------------------------------------------------------- kernel
def test_lockstep_selection_speedup_and_distribution():
    """The enforced kernel floor: select_tips(count=5), warm client, on
    the 16x8 round-grown simulation-profile MLP tangle."""
    sequential_s, engine_s, tv, tangle = _measure_selection(16, 8)
    speedup = sequential_s / engine_s
    _RESULTS["lockstep_selection"] = {
        "workload": f"select_tips(count={COUNT}) x {SELECTIONS}, "
        f"mlp-100-16-10 models, round-grown tangle 16x8 ({len(tangle)} txs), "
        "warm cache + epoch snapshot",
        "sequential_ms": sequential_s / SELECTIONS * 1e3,
        "engine_ms": engine_s / SELECTIONS * 1e3,
        "speedup": speedup,
        "floor": KERNEL_FLOOR,
        "tip_distribution_tv": tv,
        "tv_limit": TV_LIMIT,
    }
    assert tv < TV_LIMIT, f"engine tip distribution diverged (TV={tv:.3f})"
    assert speedup >= KERNEL_FLOOR, (
        f"lockstep selection only {speedup:.2f}x over the sequential "
        f"walker (floor {KERNEL_FLOOR}x)"
    )


def test_narrow_selection_speedup_and_distribution():
    """The enforced narrow floor: select_tips(count=2) — two particles,
    every superstep on the scalar stepper — warm client, same tangle."""
    sequential_s, engine_s, tv, tangle = _measure_selection(16, 8, count=NARROW_COUNT)
    speedup = sequential_s / engine_s
    _RESULTS["narrow_selection"] = {
        "workload": f"select_tips(count={NARROW_COUNT}) x {SELECTIONS}, "
        f"mlp-100-16-10 models, round-grown tangle 16x8 ({len(tangle)} txs), "
        "warm cache + epoch snapshot",
        "sequential_ms": sequential_s / SELECTIONS * 1e3,
        "engine_ms": engine_s / SELECTIONS * 1e3,
        "speedup": speedup,
        "floor": NARROW_FLOOR,
        "tip_distribution_tv": tv,
        "tv_limit": TV_LIMIT,
    }
    assert tv < TV_LIMIT, f"engine tip distribution diverged (TV={tv:.3f})"
    assert speedup >= NARROW_FLOOR, (
        f"narrow selection only {speedup:.2f}x over the sequential "
        f"walker (floor {NARROW_FLOOR}x)"
    )


def _star(k):
    """Genesis approved by ``k`` tips: particles started on genesis face
    one ``k``-wide frontier, the whole walk one superstep."""
    tangle = Tangle([np.zeros(1)])
    for i in range(k):
        tangle.add(Transaction(f"s{i}", (GENESIS_ID,), [np.zeros(1)], i, 0))
    return tangle


def _superstep_s(snapshot, particles, cells, repeats=300):
    """Best-of-5 mean time of one warm-memo superstep of ``particles``
    walkers, with the scalar limit patched to ``cells`` (collector off,
    as ``timeit`` does)."""
    memo = np.random.default_rng(0).random(len(snapshot))
    starts = np.zeros(particles, dtype=np.int64)
    rng = np.random.default_rng(1)
    best = float("inf")
    gc.disable()
    try:
        with mock.patch.object(walk_engine, "_SCALAR_BLOCK_CELLS", cells):
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(repeats):
                    lockstep_walks(
                        snapshot, starts, None, alpha=10.0, rng=rng, score_memo=memo
                    )
                best = min(best, (time.perf_counter() - start) / repeats)
    finally:
        gc.enable()
    return best


def test_stepper_crossover_recorded():
    """Where the vectorized stepper starts beating the scalar one: per
    live-particle count, the smallest measured block (cells) from which
    on it is faster at every larger width.  Recorded, no floor — the
    engine's ``_SCALAR_BLOCK_CELLS`` is set from it."""
    widths = (2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128)
    snapshots = {k: snapshot_for(_star(k)) for k in widths}
    crossover = {}
    for particles in (1, 2, 4, 8):
        crossover[str(particles)] = None
        for k in reversed(widths):
            scalar_s = _superstep_s(snapshots[k], particles, 10**9)
            vector_s = _superstep_s(snapshots[k], particles, 0)
            if vector_s >= scalar_s:
                break
            crossover[str(particles)] = particles * k
    _RESULTS["stepper_crossover"] = {
        "workload": "one warm-memo superstep, p particles on a genesis "
        f"fan of k in {list(widths)} (cells = p x k)",
        "crossover_cells_by_particles": crossover,
        "scalar_block_cells": walk_engine._SCALAR_BLOCK_CELLS,
    }


def test_tangle_shape_sweep_recorded():
    """Shallow (young simulation) and deep (long simulation) shapes,
    recorded without floors — the trajectory should show where the
    frontier batching wins most."""
    for key, rounds, per_round in (("shallow_10x6", 10, 6), ("deep_30x8", 30, 8)):
        sequential_s, engine_s, tv, tangle = _measure_selection(rounds, per_round)
        _RESULTS[key] = {
            "workload": f"select_tips(count={COUNT}) x {SELECTIONS}, "
            f"round-grown tangle {rounds}x{per_round} ({len(tangle)} txs)",
            "sequential_ms": sequential_s / SELECTIONS * 1e3,
            "engine_ms": engine_s / SELECTIONS * 1e3,
            "speedup": sequential_s / engine_s,
            "tip_distribution_tv": tv,
        }
        assert tv < TV_LIMIT


def test_cold_cache_selection_recorded():
    """First-contact regime: the client has evaluated nothing, so model
    evaluation dominates both walkers.  The engine still batches wider
    (union frontiers) but the win honestly shrinks — recorded, no
    floor."""
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(16,), num_classes=10
    )
    tangle, _ = _round_grown_tangle(model, 16, 8)
    client = Client(_Data(np.random.default_rng(4)), model, TrainingConfig(), rng=1)

    def run(walker, seed):
        rng = np.random.default_rng(seed)
        tips = []
        for _ in range(5):
            # fresh cache AND fresh selector: the engine's epoch memo
            # must not carry scores past the reset
            client.reset_cache()
            tips.extend(walker(_selector(client, tangle), tangle, COUNT, rng))
        return tips

    sequential_s, _ = best_of(lambda: run(SEQUENTIAL, 3), 3)
    engine_s, _ = best_of(lambda: run(ENGINE, 3), 3)
    _RESULTS["cold_cache"] = {
        "workload": f"select_tips(count={COUNT}) x 5, cache cleared per "
        "selection (every candidate evaluated)",
        "sequential_ms": sequential_s / 5 * 1e3,
        "engine_ms": engine_s / 5 * 1e3,
        "speedup": sequential_s / engine_s,
        "note": "no floor: model evaluation dominates both walkers here",
    }


def _genesis_fan_tangle(model, fan, second, sigma=0.05, seed=3):
    """The event engine's early shape: ``fan`` transactions approving
    genesis alone (clients that only saw genesis when their cycle
    started), then ``second`` approving two of them — so every walk's
    first superstep scores a ``fan``-wide frontier."""
    genesis = model.get_weights()
    tangle = Tangle([w.copy() for w in genesis])
    rng = np.random.default_rng(seed)
    first = []
    for i in range(fan + second):
        parents = (GENESIS_ID,)
        if i >= fan:
            picks = rng.choice(fan, size=2, replace=False)
            parents = tuple(first[int(p)] for p in picks)
        weights = [w + rng.normal(0.0, sigma, size=w.shape) for w in genesis]
        tangle.add(Transaction(f"f{i}", parents, weights, i % 50, 0))
        if i < fan:
            first.append(f"f{i}")
    return tangle


def test_genesis_fan_selection_recorded():
    """Accuracy selections off a ~700-approver genesis: scoring resolves
    the candidates' arena rows in one stack and each superstep gathers
    its ``(L, kmax)`` frontier block from the approver CSR.  Recorded,
    no floor: p50 per selection on a cold and a warm client cache, and
    the largest frontier block a walk padded next to the whole-snapshot
    padded approver matrix the walk no longer builds."""
    fan, second = 700, 150
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(16,), num_classes=10
    )
    tangle = _genesis_fan_tangle(model, fan, second)
    client = Client(_Data(np.random.default_rng(4)), model, TrainingConfig(), rng=1)
    rng = np.random.default_rng(5)

    def p50(reset, selections=15):
        times = []
        for _ in range(selections):
            if reset:
                client.reset_cache()
            start = time.perf_counter()
            _selector(client, tangle).select_tips(tangle, COUNT, rng)
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    cold_s = p50(reset=True)
    warm_s = p50(reset=False)

    snapshot = snapshot_for(tangle)
    trace: list = []
    lockstep_walks(
        snapshot,
        batched_walk_starts(snapshot, COUNT, rng),
        lambda nodes: client.tx_accuracies(
            tangle, [snapshot.ids[node] for node in nodes]
        ),
        alpha=10.0,
        rng=rng,
        trace=trace,
    )
    itemsize = snapshot.approver_indices.itemsize
    _RESULTS["genesis_fan"] = {
        "workload": f"select_tips(count={COUNT}), mlp-100-16-10 models, "
        f"{fan} genesis approvers + {second} second-level ({len(tangle)} txs)",
        "p50_cold_ms": cold_s * 1e3,
        "p50_warm_ms": warm_s * 1e3,
        "peak_padded_bytes": max(
            len(step["nodes"]) * int(step["counts"].max()) * itemsize
            for step in trace
        ),
        "whole_padded_bytes": len(snapshot) * snapshot.max_approvers * itemsize,
    }
    assert snapshot.approver_counts[0] == fan


def test_zzz_emit_bench_walk_engine_json():
    """Write the trajectory file CI uploads (runs after the measurements;
    the zzz prefix keeps pytest's in-file ordering explicit)."""
    assert "lockstep_selection" in _RESULTS
    out = Path(
        os.environ.get(
            "BENCH_WALK_ENGINE_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_walk_engine.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    assert out.exists()

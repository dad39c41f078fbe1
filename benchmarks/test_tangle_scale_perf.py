"""Million-transaction trajectory: O(delta) growth, bounded residency.

PR 10 makes tangle growth cost proportional to the publish-epoch delta
instead of to history: the tangle *extends* its own CSR snapshot
with the new transactions (appending rows, patching the parent matrix
and the longest-path plane) rather than rebuilding from scratch, and
``Tangle.compact`` truncates confirmed history so resident arena bytes
stay bounded.
This file grows one tangle 100x (10^3 -> 10^5 transactions) and pins
the scaling story to ``BENCH_tangle_scale.json`` for CI:

- **Flat selection latency**: accuracy-mode ``select_tips`` p50 at
  10^5 transactions must stay within 1.5x of its 10^3-transaction
  value — the walk touches a depth-bounded neighborhood plus O(1)
  snapshot work, never the whole history.  Both legs run with every
  score already memoized and are timed in alternating windows.
- **Extend beats rebuild**: applying a publish-epoch delta to the
  cached snapshot must be >= 5x cheaper than a cold rebuild at 10^5
  transactions — and **bit-identical** to it (CSR arrays, parent
  matrix, longest paths, tip ordering; cumulative weights at the 10^3
  checkpoint where the cold bitset comparator is affordable).
- **Compaction bounds residency**: compacting to the newest 10% must
  leave < 50% (here ~10%) of the uncompacted resident arena bytes,
  with the tangle still serving selections afterwards.  The process's
  VmRSS before and after the cut is recorded beside it on Linux, for
  information only (no floor).

Timings are medians (p50) or best-of-N so a noisy CI neighbor cannot
flake the comparison.
"""

import gc
import json
import os
import time
import zlib
from pathlib import Path

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.tip_selection import AccuracyTipSelector
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import TangleSnapshot, snapshot_for

from benchmarks_shared import best_of

SMALL = 1_000
LARGE = 100_000
DELTA = 200  # one publish epoch's worth of growth at the large scale
WINDOW = 64  # parents attach among the newest WINDOW transactions
COUNT = 8  # particles per selection
SELECTIONS = 21  # per timed window
WINDOWS = 5  # timed windows per p50 leg, the two legs alternating
P50_RATIO_FLOOR = round(1 / 1.5, 6)  # p50_small/p50_large >= 1/1.5
EXTEND_FLOOR = 5.0
COMPACT_FLOOR = 2.0  # resident_before/resident_after >= 2 (< 50% kept)
DIM = 8

_RESULTS: dict = {}
_STATE: dict = {}

STRUCTURAL = (
    "parent_indptr",
    "parent_indices",
    "approver_indptr",
    "approver_indices",
    "tip_nodes",
    "sink_nodes",
)
PLANES = ("parents_padded", "longest_past_path")


def _grow(tangle, recent, rng, n):
    """Append ``n`` transactions, each approving two of the newest
    ``WINDOW`` — the recency bias every live tangle has, so depth keeps
    growing.  About 13% of them are never approved, so the tip set grows
    with history (see ``_warm_leg``)."""
    for _ in range(n):
        parents = tuple(
            dict.fromkeys(
                recent[int(rng.integers(0, len(recent)))] for _ in range(2)
            )
        )
        tx = Transaction(
            tangle.next_tx_id(int(rng.integers(0, 16))),
            parents,
            [rng.normal(size=DIM)],
            0,
            len(tangle) // 32,
        )
        tangle.add(tx)
        recent.append(tx.tx_id)
        del recent[:-WINDOW]


def _score(tx_id):
    # Deterministic-per-id synthetic accuracy: stable under caching,
    # zero model-evaluation cost, so timings isolate walk machinery.
    return (zlib.crc32(tx_id.encode()) % 997) / 997.0


def _selector(cache):
    def batch_scores(tx_ids):
        return np.array([_score(t) for t in tx_ids])

    return AccuracyTipSelector(
        batch_accuracy_fn=batch_scores,
        alpha=5.0,
        depth_range=(15, 25),
        score_cache_fn=lambda: cache,
        cache_epoch_fn=lambda: 0,
    )


def _warm_leg(tangle, seed):
    """A selector over ``tangle`` with every transaction's score already
    in its memo, and the rng its timed selects draw from.

    ``_grow`` leaves about 13% of all transactions unapproved (each sits
    among the newest ``WINDOW`` for 64 arrivals of 2 draws: e^-2), so
    walks start from tips spread over the whole history.  Scored on
    demand, the memo of a 10^5-transaction tangle keeps missing for
    thousands of selects (~2.7k new nodes per 21-select window), while a
    10^3 one is warm after a few windows: a large leg timed right after
    growth read that warm-up (1.5-1.8 ms instead of ~1.0 ms), not the
    walk.  Mirroring every score into the cache the memo is built from —
    what a client's accuracy cache holds in steady state — puts the leg
    past it before its first timed select.
    """
    cache = {tx.tx_id: _score(tx.tx_id) for tx in tangle.transactions()}
    selector = _selector(cache)
    rng = np.random.default_rng(seed)
    for _ in range(3):  # warm: snapshot cached, planes materialized
        selector.select_tips(tangle, COUNT, rng)
    return tangle, selector, rng


def _interleaved_p50s(legs):
    """Median select latency of each warmed leg, timed in alternating
    windows of ``SELECTIONS`` selects (``WINDOWS`` per leg), so a noisy
    stretch of the box lands on every leg alike."""
    times = [[] for _ in legs]
    for _ in range(WINDOWS):
        for (tangle, selector, rng), leg_times in zip(legs, times):
            for _ in range(SELECTIONS):
                start = time.perf_counter()
                selector.select_tips(tangle, COUNT, rng)
                leg_times.append(time.perf_counter() - start)
    return [float(np.median(leg_times)) for leg_times in times]


# -------------------------------------------------- flat select latency
def test_select_tips_p50_stays_flat_100x():
    # Two tangles from one seed: the small one is the large one's first
    # SMALL transactions, kept alive so both legs can be interleaved.
    small = Tangle([np.zeros(DIM)])
    _grow(small, [GENESIS_ID], np.random.default_rng(3), SMALL)
    rng = np.random.default_rng(3)
    tangle = Tangle([np.zeros(DIM)])
    recent = [GENESIS_ID]
    _grow(tangle, recent, rng, LARGE)
    assert len(tangle) == LARGE + 1
    p50_small, p50_large = _interleaved_p50s(
        [_warm_leg(small, seed=11), _warm_leg(tangle, seed=13)]
    )

    ratio = p50_small / p50_large
    _RESULTS["select_tips_p50"] = {
        "small_transactions": SMALL,
        "large_transactions": LARGE,
        "p50_small_s": p50_small,
        "p50_large_s": p50_large,
        "speedup": ratio,  # >= 1/1.5 means large stays within 1.5x small
        "floor": P50_RATIO_FLOOR,
    }
    _STATE["tangle"] = tangle
    _STATE["recent"] = recent
    _STATE["rng"] = rng
    assert ratio >= P50_RATIO_FLOOR, (
        f"select_tips p50 degraded 100x in: {p50_small * 1e3:.3f}ms @ "
        f"{SMALL} -> {p50_large * 1e3:.3f}ms @ {LARGE}"
    )


# ---------------------------------------------- extend vs cold rebuild
def test_snapshot_extend_beats_cold_rebuild_at_scale():
    tangle, recent, rng = _STATE["tangle"], _STATE["recent"], _STATE["rng"]
    base = snapshot_for(tangle)
    for name in PLANES:  # the maintained state extension must patch
        getattr(base, name)()
    _grow(tangle, recent, rng, DELTA)

    def extend():
        return base.extend(tangle)

    def rebuild():
        snapshot = TangleSnapshot.build(tangle)
        for name in PLANES:
            getattr(snapshot, name)()
        return snapshot

    extend_s, extended = best_of(extend, 5)
    rebuild_s, cold = best_of(rebuild, 3)

    # Bit-identity at full scale: the extended snapshot IS the rebuild.
    assert extended.ids == cold.ids
    for name in STRUCTURAL:
        np.testing.assert_array_equal(
            getattr(extended, name), getattr(cold, name), err_msg=name
        )
    for name in PLANES:
        np.testing.assert_array_equal(
            getattr(extended, name)(), getattr(cold, name)(), err_msg=name
        )

    speedup = rebuild_s / extend_s
    _RESULTS["snapshot_extend"] = {
        "transactions": len(tangle),
        "delta": DELTA,
        "extend_s": extend_s,
        "rebuild_s": rebuild_s,
        "speedup": speedup,
        "floor": EXTEND_FLOOR,
    }
    assert speedup >= EXTEND_FLOOR, (
        f"extend {extend_s * 1e3:.2f}ms vs rebuild {rebuild_s * 1e3:.2f}ms "
        f"= {speedup:.1f}x < {EXTEND_FLOOR}x"
    )


def test_extend_weights_bit_identical_at_checkpoint():
    """Cumulative weights: the incremental bitset extension equals the
    cold bitset pass — asserted at the 10^3 checkpoint, where the cold
    O(N^2/64) comparator is affordable."""
    rng = np.random.default_rng(5)
    tangle = Tangle([np.zeros(DIM)])
    recent = [GENESIS_ID]
    _grow(tangle, recent, rng, SMALL)
    base = snapshot_for(tangle)
    base.cumulative_weights()  # materialize, so extension must patch it
    _grow(tangle, recent, rng, DELTA)
    extended = base.extend(tangle)
    cold = TangleSnapshot.build(tangle)
    np.testing.assert_array_equal(
        extended.cumulative_weights(), cold.cumulative_weights()
    )
    _RESULTS["weight_bit_identity"] = {
        "transactions": len(tangle),
        "delta": DELTA,
        "asserted": True,
    }


# ------------------------------------------------- compaction residency
def _vm_rss_bytes() -> int | None:
    """This process's resident set size (``None`` without Linux /proc)."""
    gc.collect()
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def test_compaction_bounds_resident_arena_bytes():
    tangle, rng = _STATE["tangle"], _STATE["rng"]
    cache: dict = {}
    rss_before = _vm_rss_bytes()
    compact_s, report = best_of(lambda: tangle.compact(keep_last=LARGE // 10), 1)
    rss_after = _vm_rss_bytes()
    assert report.dropped > 0
    ratio = report.resident_before / report.resident_after
    # The compacted tangle still serves selections.
    selector = _selector(cache)
    tips = selector.select_tips(tangle, COUNT, np.random.default_rng(17))
    assert len(tips) == COUNT and all(t in tangle for t in tips)
    _RESULTS["arena_compaction"] = {
        "kept_transactions": report.kept,
        "dropped_transactions": report.dropped,
        "resident_before_bytes": report.resident_before,
        "resident_after_bytes": report.resident_after,
        "compact_s": compact_s,
        "speedup": ratio,  # >= 2 means < 50% of bytes stay resident
        "floor": COMPACT_FLOOR,
    }
    if rss_before is not None and rss_after is not None:
        _RESULTS["arena_compaction"].update(
            process_rss_before_bytes=rss_before, process_rss_after_bytes=rss_after
        )
    assert ratio >= COMPACT_FLOOR, (
        f"compaction kept {report.resident_after}/{report.resident_before} "
        f"bytes resident ({100 / ratio:.0f}%), floor is < 50%"
    )


# ------------------------------------------------------------- emission
def test_zzz_emit_bench_tangle_scale_json():
    out = Path(
        os.environ.get(
            "BENCH_TANGLE_SCALE_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_tangle_scale.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")
    assert out.exists()

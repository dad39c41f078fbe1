"""What the compaction drain keeps, and what it gives back.

``Tangle.compact`` drains the old arena block by block: a block's kept
rows are copied into the fresh arena, its transactions rebound, and the
block let go.  Readers pin what they read instead of the arena, so:

- a snapshot cut before the cut still walks and scores bit-identical
  rows after it;
- a dropped transaction a caller holds still returns its weights;
- a drained block's mapping is released exactly when its last reader
  lets go (``weakref.finalize`` on the block's buffer, never a timer);
- the process shrinks: VmRSS falls by most of the dropped bytes.
"""

import gc
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.dag.arena import WeightArena
from repro.dag.tangle import Tangle
from repro.dag.tip_selection import AccuracyTipSelector
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.utils import blocks


@pytest.fixture
def small_blocks(monkeypatch):
    """Four rows per block, so a 30-transaction tangle spans eight."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)


def build_tangle(n=30, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    tangle = Tangle([np.zeros(dim)])
    ids = [GENESIS_ID]
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tx = Transaction(
            tangle.next_tx_id(i % 4), parents, [rng.normal(size=dim)], i % 4, i // 10
        )
        tangle.add(tx)
        ids.append(tx.tx_id)
    return tangle, ids


def buffer_of(array):
    """The object that owns an array's memory: a block's mapping."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array


def row_selector():
    """An accuracy walk whose score of a model is read off its arena row
    (its first weight), as a client's ``tx_accuracies`` reads it."""

    def by_row(tx_ids, located):
        assert located is not None, "scored by id"
        arena, rows = located
        return arena.rows(rows)[:, 0]

    return AccuracyTipSelector(
        by_row,
        alpha=5.0,
        depth_range=(2, 6),
    )


def test_a_snapshot_cut_before_the_drain_still_walks_and_scores(small_blocks):
    tangle, ids = build_tangle()
    before = tangle.snapshot()
    models = {tx_id: tangle.flat_weights(tx_id).tobytes() for tx_id in ids}
    walked = row_selector().select_on_snapshot(before, 6, np.random.default_rng(3))

    tangle.compact(keep_last=5)

    arena, rows = before.arena_rows
    assert arena is not tangle.arena and len(arena) == len(ids)
    stacked = arena.rows(rows)
    for node, tx_id in enumerate(before.ids):
        assert stacked[node].tobytes() == models[tx_id]
    again = row_selector().select_on_snapshot(before, 6, np.random.default_rng(3))
    assert again == walked


def test_a_held_dropped_transaction_still_returns_its_weights(small_blocks):
    tangle, ids = build_tangle()
    held = [tangle.get(tx_id) for tx_id in ids[1:6]]
    expected = [[w.tobytes() for w in tx.model_weights] for tx in held]
    report = tangle.compact(keep_last=5)
    for tx, want in zip(held, expected):
        assert tx.tx_id in report.dropped_ids and tx.tx_id not in tangle
        assert [w.tobytes() for w in tx.model_weights] == want
        assert tx.flat_vector(tangle.spec).tobytes() == b"".join(want)


@pytest.mark.parametrize("shared", [False, True], ids=["mapped", "shared"])
def test_a_drained_block_is_released_once_its_readers_let_go(small_blocks, shared):
    tangle, ids = build_tangle()
    if shared:
        tangle.share_memory()
    released: set[int] = set()
    old_blocks = tangle.arena.pin()[0]
    for index, block in enumerate(old_blocks):
        weakref.finalize(buffer_of(block), released.add, index)
    del old_blocks, block
    snapshot = tangle.snapshot()
    held = tangle.get(ids[1])  # row 1: block 0, with genesis

    tangle.compact(keep_last=5)
    gc.collect()
    assert released == set()  # the snapshot pins every old block
    del snapshot
    gc.collect()
    assert released == set(range(1, 8))  # the held row pins block 0
    del held
    gc.collect()
    assert released == set(range(8))
    tangle.close()


def test_compaction_lets_each_block_go_before_it_reads_the_next(
    small_blocks, monkeypatch
):
    """With no outside reader, block ``k`` is already released when the
    drain copies block ``k + 1``: the kept copy and the old arena are
    never resident together."""
    tangle, _ = build_tangle()
    released = [False] * 8
    for index, block in enumerate(tangle.arena.pin()[0]):
        weakref.finalize(buffer_of(block), released.__setitem__, index, True)
    del block
    drain, seen = WeightArena.drain, []

    def watched(self, *args):
        for block_range in drain(self, *args):
            seen.append(sum(released))
            yield block_range

    monkeypatch.setattr(WeightArena, "drain", watched)
    tangle.compact(keep_last=5)
    assert seen == list(range(8)) and all(released)


def test_a_drain_spills_each_block_straight_into_the_file(small_blocks, tmp_path):
    tangle, ids = build_tangle()
    models = {tx_id: tangle.flat_weights(tx_id).tobytes() for tx_id in ids}
    report = tangle.compact(keep_last=5, spill_path=tmp_path / "dropped.bin")
    spill = report.spill
    assert spill.is_spilled and len(spill) == report.dropped == 25
    assert list(report.spill_rows) == ids[1:26]
    for tx_id, row in report.spill_rows.items():
        assert spill.row(row).tobytes() == models[tx_id]
    for tx in tangle.transactions():
        assert tx.flat_vector(tangle.spec).tobytes() == models[tx.tx_id]
    spill.close()


def test_a_drain_refuses_a_foreign_mask_and_an_attached_arena(small_blocks):
    tangle, _ = build_tangle(6)
    fresh = WeightArena(tangle.spec)
    with pytest.raises(ValueError, match="keep must have shape"):
        next(tangle.arena.drain(np.ones(3, dtype=bool), fresh))
    tangle.share_memory()
    attached = pickle.loads(pickle.dumps(tangle.arena))
    with pytest.raises(RuntimeError, match="owning process"):
        next(attached.drain(np.ones(len(attached), dtype=bool), fresh))
    assert len(tangle.arena) == 7 and len(fresh) == 0
    tangle.close()


def test_a_pickled_snapshot_ships_its_arena_handle_not_its_pinned_blocks():
    tangle, ids = build_tangle(dim=4096)
    tangle.share_memory()
    snapshot = tangle.snapshot()
    blob = pickle.dumps(snapshot)
    assert len(blob) < 8 * 4096  # not one row of the 32 KB-row blocks
    clone = pickle.loads(blob)
    arena, rows = clone.arena_rows
    assert arena.is_attached
    assert arena.rows(rows).tobytes() == tangle.arena.rows(range(len(ids))).tobytes()
    tangle.close()


def _vm_rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="VmRSS is a Linux /proc field"
)
def test_compaction_returns_dropped_rows_to_the_os(monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 16)
    width = 16384  # 128 KB rows, 2 MB blocks
    rng = np.random.default_rng(0)
    tangle = Tangle([np.zeros(width)])
    parent = GENESIS_ID
    for i in range(200):
        tx = Transaction(tangle.next_tx_id(0), (parent,), [rng.normal(size=width)], 0, i)
        tangle.add(tx)
        parent = tx.tx_id
    del tx
    gc.collect()
    before = _vm_rss_bytes()
    report = tangle.compact(keep_last=20)
    gc.collect()
    after = _vm_rss_bytes()
    dropped_bytes = report.dropped * width * 8
    assert before - after >= dropped_bytes // 2, (before, after, dropped_bytes)

"""Tangle compaction: truncating confirmed history in place.

``Tangle.compact`` keeps an insertion-order suffix plus genesis — a set
closed under approval, so the kept sub-DAG's structure and cumulative
weights are exactly what they were before the cut.  These tests pin the
re-rooting rules (parents below the cut collapse onto genesis), the
arena rebuild (rows freed or spilled, shared backing preserved), the
epoch/counter bookkeeping that keeps caches and checkpoints honest,
and the checkpoint round-trip through ``save_tangle``/``load_tangle``.
"""

import numpy as np
import pytest

from repro.dag.persistence import load_tangle, save_tangle
from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction


def build_tangle(n=30, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    tangle = Tangle([np.zeros(dim)])
    ids = [GENESIS_ID]
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tx = Transaction(
            tangle.next_tx_id(i % 4),
            parents,
            [rng.normal(size=dim)],
            i % 4,
            i // 10,
        )
        tangle.add(tx)
        ids.append(tx.tx_id)
    return tangle, ids


# ------------------------------------------------------------- the cut
def test_keep_last_keeps_suffix_plus_genesis():
    tangle, ids = build_tangle(30)
    report = tangle.compact(keep_last=10)
    assert report.dropped == 20 and report.kept == 11
    assert report.dropped_ids == tuple(ids[1:21])
    assert [tx.tx_id for tx in tangle.transactions()] == [GENESIS_ID] + ids[21:]
    for tx_id in ids[1:21]:
        assert tx_id not in tangle


def test_min_round_cuts_below_the_round():
    tangle, _ = build_tangle(30)  # rounds 0, 1, 2 (10 txs each)
    report = tangle.compact(min_round=2)
    assert report.dropped == 20
    assert all(
        tx.is_genesis or tx.round_index >= 2 for tx in tangle.transactions()
    )


def test_orphaned_parents_collapse_onto_genesis():
    tangle, ids = build_tangle(30)
    tangle.compact(keep_last=10)
    kept = set(tx.tx_id for tx in tangle.transactions())
    for tx in tangle.transactions():
        if tx.is_genesis:
            continue
        assert all(p in kept for p in tx.parents)
        assert len(set(tx.parents)) == len(tx.parents)  # dedup preserved
    # The oldest kept transaction necessarily re-parents onto genesis.
    oldest = tangle.transactions()[1]
    assert GENESIS_ID in oldest.parents


def test_kept_weights_and_tips_are_unchanged():
    """Approvers are always newer than what they approve, so a kept
    transaction's future cone — hence its cumulative weight — is intact;
    the tip set just loses the tips that fell below the cut."""
    tangle, ids = build_tangle(40)
    tips_before = tangle.tips()
    weights_before = {t: tangle.cumulative_weight(t) for t in ids[21:]}
    tangle.compact(keep_last=20)
    kept = set(ids[21:])
    assert tangle.tips() == [t for t in tips_before if t in kept]
    for tx_id, weight in weights_before.items():
        assert tangle.cumulative_weight(tx_id) == weight


def test_kept_model_weights_survive_arena_rebuild():
    tangle, ids = build_tangle(30)
    expected = {t: tangle.flat_weights(t).copy() for t in ids[21:]}
    tangle.compact(keep_last=10)
    for tx_id, flat in expected.items():
        np.testing.assert_array_equal(tangle.flat_weights(tx_id), flat)


def test_resident_arena_bytes_shrink():
    tangle, _ = build_tangle(40)
    report = tangle.compact(keep_last=10)
    assert report.resident_after < report.resident_before
    assert tangle.arena.resident_nbytes == report.resident_after


# -------------------------------------------------------- bookkeeping
def test_epoch_bumps_only_when_something_drops():
    tangle, _ = build_tangle(10)
    noop = tangle.compact(keep_last=50)
    assert noop.dropped == 0 and tangle.compaction_epoch == 0
    real = tangle.compact(keep_last=3)
    assert real.epoch == 1 and tangle.compaction_epoch == 1


def test_publish_counter_never_rewinds():
    """Ids burned below the cut stay burned: the next published id must
    not collide with a truncated one."""
    tangle, ids = build_tangle(20)
    tangle.compact(keep_last=5)
    fresh_id = tangle.next_tx_id(0)
    assert fresh_id not in ids
    tangle.add(
        Transaction(fresh_id, (tangle.tips()[0],), [np.zeros(4)], 0, 99)
    )


def test_exactly_one_cut_argument_required():
    tangle, _ = build_tangle(5)
    with pytest.raises(ValueError):
        tangle.compact()
    with pytest.raises(ValueError):
        tangle.compact(keep_last=2, min_round=1)
    with pytest.raises(ValueError):
        tangle.compact(keep_last=-1)


def test_compaction_preserves_shared_arena():
    tangle, _ = build_tangle(20)
    tangle.share_memory()
    try:
        assert tangle.arena.is_shared
        tangle.compact(keep_last=5)
        assert tangle.arena.is_shared
        assert len(tangle) == 6
    finally:
        tangle.close()


def test_spill_archives_dropped_rows(tmp_path):
    tangle, ids = build_tangle(20)
    dropped_weights = {t: tangle.flat_weights(t).copy() for t in ids[1:16]}
    spill_path = tmp_path / "dropped.bin"
    report = tangle.compact(keep_last=5, spill_path=spill_path)
    assert spill_path.exists()
    assert report.spill.is_spilled
    assert report.spill.resident_nbytes == 0
    for tx_id, row in report.spill_rows.items():
        np.testing.assert_array_equal(
            np.asarray(report.spill.row(row), dtype=np.float64),
            dropped_weights[tx_id],
        )
    report.spill.close()  # restores heap backing and deletes the file
    assert not spill_path.exists()


# ---------------------------------------------------------- checkpoint
def test_checkpoint_roundtrip_after_compaction(tmp_path):
    tangle, ids = build_tangle(25)
    tangle.compact(keep_last=8)
    path = save_tangle(tangle, tmp_path / "checkpoint")
    loaded = load_tangle(path)
    assert [tx.tx_id for tx in loaded.transactions()] == [
        tx.tx_id for tx in tangle.transactions()
    ]
    assert loaded.compaction_epoch == tangle.compaction_epoch == 1
    # Burned ids stay burned across the round-trip.
    fresh_id = loaded.next_tx_id(0)
    assert fresh_id not in ids
    loaded.add(
        Transaction(fresh_id, (loaded.tips()[0],), [np.zeros(4)], 0, 99)
    )
    # And the reloaded DAG walks: weights match the live tangle.
    for tx in tangle.transactions():
        np.testing.assert_allclose(
            loaded.flat_weights(tx.tx_id), tangle.flat_weights(tx.tx_id)
        )

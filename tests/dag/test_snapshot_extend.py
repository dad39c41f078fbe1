"""Incremental snapshot extension: O(delta) growth, bit-identical.

A tangle extends its snapshot with the publish-epoch delta instead of
rebuilding from scratch — but the extended snapshot must be
*indistinguishable* from a cold rebuild: same CSR arrays, same padded
parent matrix, same longest paths and cumulative weights, same tip ordering, so walk
distributions and Gumbel streams are unchanged.  Only the whole-tangle
snapshot extends; a view's snapshot is its restriction by the view's row
mask, so for views these tests pin that growth extends the whole-tangle
snapshot (never a cold rebuild) and that the restriction equals a cold
build of the view.  Plus the ownership contracts: a tangle's snapshot
dies with it, and a compacted tangle never resurrects a stale snapshot.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.view import TangleView, TimedTangleView
from repro.dag.walk_engine import (
    TangleSnapshot,
    batched_walk_starts,
    lockstep_walks,
    snapshot_for,
)


def weights():
    return [np.zeros(1)]


def grow(tangle, ids, n, *, seed, round_of=None, prefix="t", start=None):
    rng = np.random.default_rng(seed)
    if start is None:
        start = len(tangle) - 1
    for i in range(start, start + n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        round_index = i // 10 if round_of is None else round_of(i)
        tangle.add(
            Transaction(f"{prefix}{i}", parents, weights(), i % 5, round_index)
        )
        ids.append(f"{prefix}{i}")


@pytest.fixture
def snapshot_work(monkeypatch):
    """Counts of cold builds and extensions (reset it with ``clear()``
    before the call under test)."""
    calls: dict[str, int] = {}
    build, extend = TangleSnapshot.build.__func__, TangleSnapshot.extend

    def counting_build(cls, view):
        calls["build"] = calls.get("build", 0) + 1
        return build(cls, view)

    def counting_extend(self, tangle):
        calls["extend"] = calls.get("extend", 0) + 1
        return extend(self, tangle)

    monkeypatch.setattr(TangleSnapshot, "build", classmethod(counting_build))
    monkeypatch.setattr(TangleSnapshot, "extend", counting_extend)
    return calls


PLANES = ("cumulative_weights", "parents_padded", "longest_past_path")
ARRAYS = (
    "parent_indptr",
    "parent_indices",
    "approver_indptr",
    "approver_indices",
    "tip_nodes",
    "sink_nodes",
)


def assert_snapshot_equal(extended, cold):
    assert extended.ids == cold.ids
    assert extended.index == cold.index
    assert extended.max_approvers == cold.max_approvers
    for name in ARRAYS:
        np.testing.assert_array_equal(
            getattr(extended, name), getattr(cold, name), err_msg=name
        )
    for name in PLANES:
        np.testing.assert_array_equal(
            getattr(extended, name)(), getattr(cold, name)(), err_msg=name
        )


# ------------------------------------------------------------- bit identity
def test_extend_matches_cold_rebuild_on_whole_tangle(snapshot_work):
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 60, seed=1)
    base = snapshot_for(tangle)
    for name in PLANES:  # materialize so extension must patch, not defer
        getattr(base, name)()
    grow(tangle, ids, 35, seed=2)
    snapshot_work.clear()
    extended = snapshot_for(tangle)
    assert extended is not base
    assert snapshot_work == {"extend": 1}  # extended, not rebuilt
    assert_snapshot_equal(extended, TangleSnapshot.build(tangle))


def test_extend_defers_unmaterialized_planes():
    """Planes the base never computed stay lazy through extension and
    come out equal when finally demanded."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 40, seed=3)
    snapshot_for(tangle)
    grow(tangle, ids, 20, seed=4)
    extended = snapshot_for(tangle)
    assert extended._parents_padded is None
    assert extended._longest_past_path is None
    assert_snapshot_equal(extended, TangleSnapshot.build(tangle))


def test_extend_bitset_weights_match_authority():
    """The incremental bitset pass must agree with the from-scratch
    future-cone recount (the cold bitset pass is compared elsewhere)."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 50, seed=5)
    base = snapshot_for(tangle)
    base.cumulative_weights()  # materialize, so extension must patch it
    grow(tangle, ids, 30, seed=6)
    extended = snapshot_for(tangle)
    assert extended._cumulative is not None  # patched, not deferred
    expected = [tangle.recount_cumulative_weight(tx_id) for tx_id in extended.ids]
    np.testing.assert_array_equal(extended.cumulative_weights(), expected)


def test_extend_repeated_stages_stay_identical(snapshot_work):
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 20, seed=7)
    snapshot = snapshot_for(tangle)
    for name in PLANES:
        getattr(snapshot, name)()
    snapshot_work.clear()
    for stage in range(4):
        grow(tangle, ids, 15, seed=8 + stage)
        snapshot = snapshot_for(tangle)
    assert snapshot_work == {"extend": 4}  # every stage extended
    assert_snapshot_equal(snapshot, TangleSnapshot.build(tangle))


def test_extend_matches_cold_rebuild_on_view(snapshot_work):
    """A round-bound view hides the delta's too-new rounds: the growth
    extends the whole-tangle snapshot, and the view's restriction of it
    equals a cold build of the view."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 40, seed=9)  # rounds 0..3
    view = TangleView(tangle, max_round=5)
    base = snapshot_for(view)
    for name in PLANES:
        getattr(base, name)()
    grow(tangle, ids, 30, seed=10)  # rounds 4..6: round 6 is hidden
    snapshot_work.clear()
    extended = snapshot_for(TangleView(tangle, max_round=5))
    assert extended is not base
    assert snapshot_work == {"extend": 1}  # extended, not rebuilt
    assert len(extended) < len(tangle)
    assert_snapshot_equal(
        extended, TangleSnapshot.build(TangleView(tangle, max_round=5))
    )


def test_extend_across_increasing_view_bounds(snapshot_work):
    """A view that hides nothing is served the whole-tangle snapshot
    itself; a *wider* bound after growth is served its extension."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 30, seed=11)  # rounds 0..2
    base = snapshot_for(TangleView(tangle, max_round=2))
    assert base is snapshot_for(tangle)
    grow(tangle, ids, 30, seed=12)  # rounds 3..5
    snapshot_work.clear()
    extended = snapshot_for(TangleView(tangle, max_round=5))
    assert snapshot_work == {"extend": 1}  # extended, not rebuilt
    assert extended is snapshot_for(tangle)
    assert_snapshot_equal(
        extended, TangleSnapshot.build(TangleView(tangle, max_round=5))
    )


def test_extend_matches_cold_rebuild_on_timed_view(snapshot_work):
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 40, seed=13)
    visible_from = {tx_id: float(i) for i, tx_id in enumerate(ids[1:])}
    published_at = dict(visible_from)

    def timed(now):
        return TimedTangleView(
            tangle, visible_from, now, observer=0, published_at=published_at
        )

    base = snapshot_for(timed(100.0))
    for name in PLANES:
        getattr(base, name)()
    grow(tangle, ids, 25, seed=14)
    for i, tx_id in enumerate(ids[41:], start=40):
        visible_from[tx_id] = float(i)
        published_at[tx_id] = float(i)
    snapshot_work.clear()
    extended = snapshot_for(timed(150.0))
    assert extended is not base
    assert snapshot_work == {"extend": 1}  # extended, not rebuilt
    assert_snapshot_equal(extended, TangleSnapshot.build(timed(150.0)))


def test_parent_closed_restriction_inherits_longest_paths():
    """A round-bound view keeps every kept node's parents, hence its
    whole past cone: the restriction gathers the longest-path plane at
    restrict time, equal to a cold build's."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 50, seed=24)  # rounds 0..4
    restricted = snapshot_for(TangleView(tangle, max_round=2))
    assert len(restricted) < len(tangle)
    assert restricted._longest_past_path is not None
    assert_snapshot_equal(
        restricted, TangleSnapshot.build(TangleView(tangle, max_round=2))
    )


def test_orphaning_restriction_keeps_longest_paths_lazy():
    """A view that hides a parent but keeps its child orphans the child:
    its past cone shrinks, so the plane is left lazy — and still equals
    a cold build when demanded."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 50, seed=25)
    hidden = tangle.get(ids[-1]).parents[0]
    assert hidden != GENESIS_ID
    visible_from = {tx_id: 0.0 for tx_id in ids if tx_id != hidden}
    view = TimedTangleView(tangle, visible_from, 1.0)
    restricted = snapshot_for(view)
    assert ids[-1] in restricted.index and hidden not in restricted.index
    assert restricted._longest_past_path is None
    assert_snapshot_equal(restricted, TangleSnapshot.build(view))


def test_extend_empty_delta_returns_same_snapshot(snapshot_work):
    """Growth entirely invisible to the view extends the whole-tangle
    snapshot — no rebuild — and restricts back to the same content."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 30, seed=15)  # rounds 0..2
    view = TangleView(tangle, max_round=2)
    base = snapshot_for(view)
    grow(tangle, ids, 10, seed=16, round_of=lambda i: 9)  # all hidden
    snapshot_work.clear()
    again = snapshot_for(TangleView(tangle, max_round=2))
    assert snapshot_work == {"extend": 1}  # extended, not rebuilt
    assert_snapshot_equal(again, base)
    assert_snapshot_equal(again, TangleSnapshot.build(TangleView(tangle, max_round=2)))


def test_extended_snapshot_walks_identically():
    """Same Gumbel stream + same arrays => the same tips, particle for
    particle — the walk-level statement of bit identity."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 50, seed=17)
    base = snapshot_for(tangle)
    base.cumulative_weights()
    grow(tangle, ids, 30, seed=18)
    extended = snapshot_for(tangle)
    cold = TangleSnapshot.build(tangle)
    for snap in (extended, cold):  # identical RNG draws on both
        rng = np.random.default_rng(99)
        starts = batched_walk_starts(snap, 16, rng)
        finals = lockstep_walks(
            snap,
            starts,
            None,
            score_memo=snap.cumulative_weights_float(),
            alpha=0.8,
            rng=rng,
        )
        tips = [snap.ids[node] for node in finals]
        if snap is extended:
            extended_tips = tips
    assert extended_tips == tips


# ------------------------------------------------------------- ownership
def test_snapshot_cache_reaps_dead_anchors():
    """A tangle's snapshots, base and extended, are collected with it:
    no registry outside the tangle keeps them alive."""
    refs = []
    for seed in range(3):
        tangle = Tangle(weights())
        ids = [GENESIS_ID]
        grow(tangle, ids, 10, seed=seed)
        refs.append(weakref.ref(snapshot_for(tangle)))
        grow(tangle, ids, 5, seed=seed + 10, start=10)
        refs.append(weakref.ref(snapshot_for(tangle)))
        del tangle
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_compaction_never_resurrects_stale_snapshot(snapshot_work):
    """After a compaction that lands the tangle back on a previously
    snapshotted length, the tangle must build afresh — the old snapshot
    describes transactions that no longer exist."""
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 21, seed=19)
    stale = snapshot_for(tangle)  # len 22
    grow(tangle, ids, 10, seed=20)
    tangle.compact(keep_last=21)  # back to len 22, same object
    assert len(tangle) == len(stale)
    snapshot_work.clear()
    fresh = snapshot_for(tangle)
    assert snapshot_work == {"build": 1}
    assert fresh is not stale
    assert fresh.ids == [GENESIS_ID] + ids[-21:]
    # Growth after the compaction extends the fresh snapshot.
    kept = [GENESIS_ID] + ids[-21:]
    grow(tangle, kept, 5, seed=21, start=31)
    snapshot_work.clear()
    grown = snapshot_for(tangle)
    assert snapshot_work == {"extend": 1}
    assert_snapshot_equal(grown, TangleSnapshot.build(tangle))


def test_cache_hit_after_extension_is_exact():
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    grow(tangle, ids, 20, seed=22)
    snapshot_for(tangle)
    grow(tangle, ids, 10, seed=23)
    extended = snapshot_for(tangle)
    assert snapshot_for(tangle) is extended  # exact fingerprint hit

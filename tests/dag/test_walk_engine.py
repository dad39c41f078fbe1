"""The lockstep multi-walk engine: snapshots, starts, supersteps.

The sequential walker (`repro.dag.random_walk` + the per-particle
selectors) is the oracle throughout: the snapshot must expose exactly
the view's visible structure, walks must terminate on exactly the
view's tips, the weighted engine must read exactly the view's
cumulative weights, and — in the deterministic high-alpha regime, where
both walkers follow the unique argmax path — tips and evaluation
accounting must match the sequential walker *exactly*, not just in
distribution.  (Distributional parity in the stochastic regime lives in
``tests/property/test_properties_walk_engine.py``.)
"""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.dag.random_walk import sequential_select_tips
from repro.dag.tangle import Tangle
from repro.dag.tip_selection import AccuracyTipSelector, WeightedTipSelector
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


def grow_tangle(n=60, seed=4, num_issuers=10):
    rng = np.random.default_rng(seed)
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tangle.add(
            Transaction(f"t{i}", parents, weights(), i % num_issuers, i // num_issuers)
        )
        ids.append(f"t{i}")
    return tangle, ids


# -------------------------------------------------------------- snapshot
def test_snapshot_matches_tangle_structure():
    tangle, _ = grow_tangle()
    snapshot = TangleSnapshot.build(tangle)
    assert len(snapshot) == len(tangle)
    for node, tx_id in enumerate(snapshot.ids):
        assert snapshot.index[tx_id] == node
        approvers = {
            snapshot.ids[a]
            for a in snapshot.approver_indices[
                snapshot.approver_indptr[node] : snapshot.approver_indptr[node + 1]
            ]
        }
        assert approvers == set(tangle.approvers(tx_id))
        parents = {
            snapshot.ids[p]
            for p in snapshot.parent_indices[
                snapshot.parent_indptr[node] : snapshot.parent_indptr[node + 1]
            ]
        }
        assert parents == set(tangle.get(tx_id).parents)
    assert [snapshot.ids[t] for t in snapshot.tip_nodes] == tangle.tips()


def test_snapshot_respects_view_visibility():
    tangle, _ = grow_tangle()
    view = TangleView(tangle, max_round=2)
    snapshot = TangleSnapshot.build(view)
    visible_ids = {tx.tx_id for tx in view.transactions()}
    assert set(snapshot.ids) == visible_ids
    assert [snapshot.ids[t] for t in snapshot.tip_nodes] == view.tips()
    for node, tx_id in enumerate(snapshot.ids):
        approvers = {
            snapshot.ids[a]
            for a in snapshot.approver_indices[
                snapshot.approver_indptr[node] : snapshot.approver_indptr[node + 1]
            ]
        }
        assert approvers == set(view.approvers(tx_id))


def test_snapshot_cumulative_weights_match_index_and_view():
    tangle, _ = grow_tangle()
    full = TangleSnapshot.build(tangle)
    for node, tx_id in enumerate(full.ids):
        assert full.cumulative_weights()[node] == tangle.recount_cumulative_weight(
            tx_id
        )
    view = TangleView(tangle, max_round=3)
    truncated = TangleSnapshot.build(view)
    for node, tx_id in enumerate(truncated.ids):
        assert truncated.cumulative_weights()[node] == view.cumulative_weight(tx_id)


def test_snapshot_weights_stay_visible_scoped_after_tangle_grows():
    """A snapshot's weights are those of *its* transaction set: after
    the tangle grows, a snapshot cut before the growth (its weights
    not yet materialized) must not count the later approvers."""
    tangle, _ = grow_tangle(n=15)
    snapshot = TangleSnapshot.build(tangle)
    expected = [tangle.recount_cumulative_weight(tx_id) for tx_id in snapshot.ids]
    for tip in tangle.tips()[:2]:
        tangle.add(Transaction(f"late-{tip}", (tip,), weights(), 0, 99))
    np.testing.assert_array_equal(snapshot.cumulative_weights(), expected)


def test_snapshot_of_genesis_only_tangle():
    tangle = Tangle(weights())
    snapshot = TangleSnapshot.build(tangle)
    assert snapshot.ids == [GENESIS_ID]
    assert [snapshot.ids[t] for t in snapshot.tip_nodes] == [GENESIS_ID]
    starts = batched_walk_starts(snapshot, 5, np.random.default_rng(0))
    finals = lockstep_walks(
        snapshot,
        starts,
        lambda nodes: np.ones(len(nodes)),
        alpha=1.0,
        rng=np.random.default_rng(1),
    )
    assert [snapshot.ids[i] for i in finals] == [GENESIS_ID] * 5


# --------------------------------------------------------- epoch caching
def test_snapshot_cache_reuses_until_tangle_grows():
    tangle, _ = grow_tangle(n=10)
    first = snapshot_for(tangle)
    assert snapshot_for(tangle) is first  # same epoch: cached
    tangle.add(Transaction("fresh", (tangle.tips()[0],), weights(), 0, 2))
    second = snapshot_for(tangle)
    assert second is not first  # append invalidated the fingerprint
    assert "fresh" in second.index and "fresh" not in first.index


def test_snapshot_cache_purges_dead_tangles():
    """The snapshot is the tangle's own state: nothing outside the
    tangle keeps it alive once the tangle is gone."""
    tangle, _ = grow_tangle(n=5)
    snapshot = weakref.ref(snapshot_for(tangle))
    del tangle
    gc.collect()
    assert snapshot() is None


def test_snapshot_for_is_thread_safe_across_tangles():
    """Threads each growing and snapshotting their own tangle (plus
    short-lived extra tangles) never interfere: no exception, and every
    snapshot covers exactly its own tangle."""
    errors: list[BaseException] = []
    mismatches: list[tuple[int, int]] = []

    def worker(seed):
        try:
            tangle, ids = grow_tangle(n=1, seed=seed)
            rng = np.random.default_rng(seed)
            for i in range(600):
                parents = (ids[int(rng.integers(0, len(ids)))],)
                tangle.add(Transaction(f"s{seed}-{i}", parents, weights(), 0, i))
                ids.append(f"s{seed}-{i}")
                snapshot = snapshot_for(tangle)
                if len(snapshot) != len(tangle):
                    mismatches.append((len(snapshot), len(tangle)))
                if i % 50 == 0:
                    extra, _ = grow_tangle(n=3, seed=seed + i)
                    snapshot_for(extra)
                    del extra
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches, mismatches[:5]


def test_snapshot_is_derived_state_left_out_of_pickles_and_copies():
    """Pickling ships the tangle, never its snapshot; an unpickled or
    deep-copied tangle builds its own, equal to a cold build."""
    tangle, _ = grow_tangle(n=30)
    size = len(pickle.dumps(tangle))
    snapshot_for(tangle).cumulative_weights()
    assert len(pickle.dumps(tangle)) == size
    for clone in (pickle.loads(pickle.dumps(tangle)), copy.deepcopy(tangle)):
        served, cold = snapshot_for(clone), TangleSnapshot.build(clone)
        assert served is not snapshot_for(tangle)
        assert served.ids == cold.ids
        for name in ("parent_indices", "approver_indices", "tip_nodes"):
            np.testing.assert_array_equal(getattr(served, name), getattr(cold, name))
        np.testing.assert_array_equal(
            served.cumulative_weights(),
            [clone.recount_cumulative_weight(tx_id) for tx_id in served.ids],
        )


def test_snapshot_cache_distinguishes_view_bounds():
    tangle, _ = grow_tangle(n=20)
    low = snapshot_for(TangleView(tangle, max_round=0))
    high = snapshot_for(TangleView(tangle, max_round=10))
    assert len(low) < len(high)
    assert snapshot_for(TangleView(tangle, max_round=0)) is low


def test_snapshot_for_never_serves_a_freed_maps_snapshot():
    """Regression: timed views used to be cached under the ``id()`` of
    their visibility maps, so a map allocated at a freed map's address
    was served the freed map's snapshot — here the whole 6-node tangle
    for a view that sees only genesis.  A view's snapshot is now a mask
    computed from the maps' content, so every trial must match a cold
    build."""
    tangle, ids = grow_tangle(n=5)
    for _ in range(250):
        everything = {tx_id: 0.0 for tx_id in ids}
        assert len(snapshot_for(TimedTangleView(tangle, everything, 1.0))) == 6
        del everything
        view = TimedTangleView(tangle, {GENESIS_ID: 0.0}, 1.0)
        served, cold = snapshot_for(view), TangleSnapshot.build(view)
        assert served.ids == cold.ids == [GENESIS_ID]
        for name in ("parent_indptr", "approver_indptr", "tip_nodes"):
            np.testing.assert_array_equal(getattr(served, name), getattr(cold, name))


# ----------------------------------------------------------- walk starts
def test_batched_starts_match_sequential_distribution():
    """Vectorized Popov descent == per-particle sampler, distributionally."""
    from repro.dag.random_walk import sample_walk_start

    tangle, _ = grow_tangle(n=40)
    snapshot = snapshot_for(tangle)
    n = 3000
    engine_starts = batched_walk_starts(
        snapshot, n, np.random.default_rng(0), depth_range=(2, 4)
    )
    engine_counts: dict[str, int] = {}
    for node in engine_starts:
        engine_counts[snapshot.ids[node]] = engine_counts.get(snapshot.ids[node], 0) + 1
    rng = np.random.default_rng(1)
    seq_counts: dict[str, int] = {}
    for _ in range(n):
        tx_id = sample_walk_start(tangle, rng, depth_range=(2, 4))
        seq_counts[tx_id] = seq_counts.get(tx_id, 0) + 1
    support = set(engine_counts) | set(seq_counts)
    tv = 0.5 * sum(
        abs(engine_counts.get(t, 0) - seq_counts.get(t, 0)) / n for t in support
    )
    assert tv < 0.12, f"start distributions diverge (TV={tv:.3f})"


def test_batched_starts_depth_zero_are_tips():
    tangle, _ = grow_tangle(n=30)
    snapshot = snapshot_for(tangle)
    starts = batched_walk_starts(
        snapshot, 50, np.random.default_rng(2), depth_range=(0, 0)
    )
    tips = set(tangle.tips())
    assert all(snapshot.ids[node] in tips for node in starts)


def test_batched_starts_validate_depth_range():
    tangle, _ = grow_tangle(n=5)
    snapshot = snapshot_for(tangle)
    with pytest.raises(ValueError):
        batched_walk_starts(snapshot, 3, np.random.default_rng(0), depth_range=(3, 1))


# ------------------------------------------------------------- lockstep
def test_lockstep_walks_terminate_on_tips():
    tangle, ids = grow_tangle()
    snapshot = snapshot_for(tangle)
    scores = np.random.default_rng(5).random(len(ids))
    finals = lockstep_walks(
        snapshot,
        batched_walk_starts(snapshot, 200, np.random.default_rng(6)),
        lambda nodes: scores[nodes],
        alpha=5.0,
        rng=np.random.default_rng(7),
    )
    assert all(tangle.is_tip(snapshot.ids[node]) for node in finals)


def test_lockstep_trace_is_self_consistent():
    """The recorded supersteps replay to the returned tips, and the
    evaluation counter saw exactly the traced per-particle counts."""
    tangle, ids = grow_tangle()
    snapshot = snapshot_for(tangle)
    scores = np.random.default_rng(8).random(len(ids))
    counter_calls: list[int] = []
    trace: list[dict] = []
    starts = batched_walk_starts(snapshot, 20, np.random.default_rng(9))
    finals = lockstep_walks(
        snapshot,
        starts,
        lambda nodes: scores[nodes],
        alpha=2.0,
        rng=np.random.default_rng(10),
        evaluation_counter=counter_calls.append,
        trace=trace,
    )
    # replay: every particle's trajectory follows the traced choices
    current = np.array(starts, copy=True)
    traced_counts: list[int] = []
    for step in trace:
        np.testing.assert_array_equal(current[step["live"]], step["nodes"])
        traced_counts.extend(int(c) for c in step["counts"])
        # each chosen node is one of the particle's own candidates
        for i, chosen in enumerate(step["chosen"]):
            assert len(step["candidates"][i]) == step["counts"][i]
            assert chosen in step["candidates"][i]
        current[step["live"]] = step["chosen"]
    np.testing.assert_array_equal(current, finals)
    assert counter_calls == traced_counts


def test_deterministic_regime_equals_sequential_exactly():
    """With alpha huge and distinct scores both walkers follow the unique
    argmax path, so tips AND evaluation accounting match exactly."""
    tangle, ids = grow_tangle(n=50, seed=11)
    scores = {
        tx_id: float(v)
        for tx_id, v in zip(
            [GENESIS_ID] + [f"t{i}" for i in range(50)],
            np.random.default_rng(12).permutation(51) / 51.0,
        )
    }
    # depth 100 >> tangle depth: every start descends to genesis, so the
    # (different) start draws of the two walkers cannot matter.
    kwargs = dict(alpha=1e8, depth_range=(100, 100))
    by_id = lambda tx_ids, _arena_rows: [scores[tx_id] for tx_id in tx_ids]
    seq_calls: list[int] = []
    sequential = AccuracyTipSelector(
        by_id, evaluation_counter=seq_calls.append, **kwargs
    )
    eng_calls: list[int] = []
    engine = AccuracyTipSelector(
        by_id, evaluation_counter=eng_calls.append, **kwargs
    )
    seq_tips = sequential_select_tips(sequential, tangle, 5, np.random.default_rng(13))
    eng_tips = engine.select_tips(tangle, 5, np.random.default_rng(14))
    assert seq_tips == eng_tips
    assert sum(seq_calls) == sum(eng_calls)
    assert sorted(seq_calls) == sorted(eng_calls)


# ----------------------------------------------------- weighted selector
def test_weighted_engine_reaches_tips_and_prefers_heavy_branch():
    """On a tangle with a heavy and a light branch, the engine's
    weighted walk lands on the heavy branch's tip more often — the same
    bias direction as the sequential weighted walk."""
    tangle = Tangle(weights())
    # heavy chain of 12 under "a"; single light tip "b"
    tangle.add(Transaction("a", (GENESIS_ID,), weights(), 0, 0))
    tangle.add(Transaction("b", (GENESIS_ID,), weights(), 1, 0))
    previous = "a"
    for i in range(12):
        tangle.add(Transaction(f"h{i}", (previous,), weights(), 0, i + 1))
        previous = f"h{i}"
    counts = {"heavy": 0, "light": 0}
    selector = WeightedTipSelector(alpha=2.0, depth_range=(30, 30))
    rng = np.random.default_rng(15)
    for tip in selector.select_tips(tangle, 400, rng):
        counts["heavy" if tip == previous else "light"] += 1
    assert counts["heavy"] > counts["light"] * 2


def test_weighted_sequential_uses_batched_weight_query(monkeypatch):
    """The reference weighted walk must fetch a step's weights through
    one cumulative_weights call, not per-approver queries."""
    tangle, _ = grow_tangle(n=30)
    batched_calls = []
    original = Tangle.cumulative_weights

    def spy(self, tx_ids):
        batched_calls.append(list(tx_ids))
        return original(self, tx_ids)

    monkeypatch.setattr(Tangle, "cumulative_weights", spy)
    monkeypatch.setattr(
        Tangle,
        "cumulative_weight",
        lambda self, tx_id: pytest.fail("per-id weight query on the walk path"),
    )
    selector = WeightedTipSelector(alpha=0.5, depth_range=(2, 4))
    tips = sequential_select_tips(selector, tangle, 3, np.random.default_rng(16))
    assert len(tips) == 3
    assert batched_calls  # the walk actually went through the batch query


def test_engine_memo_invalidated_by_cache_epoch():
    """The selector keeps no scores between selections: once the
    scorer's values change (a client's cache reset after its data
    changed), the very next selection on the same snapshot follows the
    new values.  Deterministic high alpha makes a stale score visible."""
    tangle = Tangle(weights())
    tangle.add(Transaction("a", (GENESIS_ID,), weights(), 0, 0))
    tangle.add(Transaction("b", (GENESIS_ID,), weights(), 1, 0))
    scores = {GENESIS_ID: 0.1, "a": 0.9, "b": 0.2}
    selector = AccuracyTipSelector(
        lambda tx_ids, _arena_rows: [scores[tx_id] for tx_id in tx_ids],
        alpha=1e8,
        depth_range=(5, 5),
    )
    rng = np.random.default_rng(17)
    snapshot = snapshot_for(tangle)
    assert selector.select_on_snapshot(snapshot, 10, rng) == ["a"] * 10
    scores["a"], scores["b"] = 0.2, 0.9  # the client's data changed
    assert snapshot_for(tangle) is snapshot
    assert selector.select_on_snapshot(snapshot, 10, rng) == ["b"] * 10


def _valued_tangle(size=40, seed=21):
    """A random tangle whose ``t{i}`` holds the one-weight model
    ``[i + 1]``, and each id's value (genesis: 0.0)."""
    rng = np.random.default_rng(seed)
    tangle = Tangle(weights())
    ids, value = [GENESIS_ID], {GENESIS_ID: 0.0}
    for i in range(size):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        value[f"t{i}"] = float(i + 1)
        tangle.add(Transaction(f"t{i}", parents, [np.array([i + 1.0])], i % 5, i // 5))
        ids.append(f"t{i}")
    return tangle, value


def test_scorer_gets_the_walked_arena_rows_and_each_id_once():
    """On a whole-tangle snapshot and on a view's restriction the scorer
    receives each candidate's exact row in the tangle's arena, and the
    sequential step receives ``None``.  Within one selection no id is
    asked for twice."""
    tangle, value = _valued_tangle()
    calls: list[tuple[list[str], tuple | None]] = []

    def scores(tx_ids, arena_rows):
        calls.append((list(tx_ids), arena_rows))
        return np.array([value[tx_id] for tx_id in tx_ids]) / len(value)

    selector = AccuracyTipSelector(scores, alpha=2.0, depth_range=(3, 8))
    full = tangle.snapshot()
    view = TangleView(tangle, 4)
    assert 1 < len(snapshot_for(view)) < len(full)
    for walked in (tangle, view):
        calls.clear()
        selector.select_tips(walked, 30, np.random.default_rng(22))
        asked = [tx_id for tx_ids, _ in calls for tx_id in tx_ids]
        assert asked and len(asked) == len(set(asked))
        for tx_ids, (arena, rows) in calls:
            assert arena is tangle.arena
            assert rows.tolist() == [full.index[tx_id] for tx_id in tx_ids]
            assert arena.rows(rows)[:, 0].tolist() == [value[t] for t in tx_ids]
    calls.clear()
    sequential_select_tips(selector, tangle, 3, np.random.default_rng(23))
    assert calls and all(arena_rows is None for _, arena_rows in calls)


def test_cached_scores_prefill_each_selection_without_changing_a_draw():
    """``cached`` is read once per selection: the scorer is asked only
    for ids it lacks (each once), never when it holds every id, and the
    walk draws exactly what it draws with no ``cached`` at all."""
    tangle, value = _valued_tangle()
    asked: list[str] = []

    def scores(tx_ids, _arena_rows):
        asked.extend(tx_ids)
        return [value[tx_id] / len(value) for tx_id in tx_ids]

    def select(cached):
        asked.clear()
        selector = AccuracyTipSelector(
            scores, alpha=2.0, depth_range=(3, 8), cached=cached
        )
        rng = np.random.default_rng(24)
        return selector.select_tips(tangle, 30, rng), rng.bit_generator.state

    plain = select(None)
    unaided = set(asked)
    half = {tx_id: v / len(value) for tx_id, v in list(value.items())[::2]}
    assert unaided & set(half) and unaided - set(half)
    assert select(half) == plain
    assert len(asked) == len(set(asked))
    assert set(asked) == unaided - set(half)
    whole = {tx_id: v / len(value) for tx_id, v in value.items()}
    assert select(whole) == plain
    assert asked == []


def test_client_cache_epoch_bumps_on_reset_and_restore():
    from repro.fl import Client, TrainingConfig
    from repro.nn import zoo

    class _Data:
        client_id = 0
        metadata: dict = {}
        x_train = np.zeros((4, 100))
        y_train = np.zeros(4, dtype=int)
        x_test = np.zeros((4, 100))
        y_test = np.zeros(4, dtype=int)

    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(4,), num_classes=10
    )
    client = Client(_Data(), model, TrainingConfig(), rng=0)
    start = client.cache_epoch
    client.reset_cache()
    client.restore_tx_accuracy_cache({"x": 0.5})
    assert client.cache_epoch == start + 2


# ----------------------------------------------------- batched weight API
def test_tangle_cumulative_weights_batch_matches_scalar():
    tangle, ids = grow_tangle(n=25)
    batch = tangle.cumulative_weights(ids)
    np.testing.assert_array_equal(
        batch, [tangle.cumulative_weight(tx_id) for tx_id in ids]
    )
    assert batch.dtype == np.float64
    with pytest.raises(KeyError):
        tangle.cumulative_weights(["nope"])


def test_view_cumulative_weights_batch_matches_scalar():
    tangle, _ = grow_tangle(n=25)
    for bound in (3, 10**6):  # truncated and fully covering
        view = TangleView(tangle, max_round=bound)
        visible = [tx.tx_id for tx in view.transactions()]
        np.testing.assert_array_equal(
            view.cumulative_weights(visible),
            [view.cumulative_weight(tx_id) for tx_id in visible],
        )


# ------------------------------------------- non-finite scores (defense)
def test_nan_score_is_cached_not_mistaken_for_a_miss():
    """Regression: NaN used to double as the memo's "unknown" sentinel,
    so a score function legitimately returning NaN (a corrupted model)
    was re-evaluated on every superstep that saw the node.  The explicit
    scored-mask must query each node exactly once per call."""
    tangle, ids = grow_tangle()
    snapshot = snapshot_for(tangle)
    scores = np.random.default_rng(5).random(len(ids))
    queried: list[int] = []

    def score_fn(nodes):
        queried.extend(int(n) for n in nodes)
        out = scores[nodes].copy()
        out[:] = np.nan  # every score is "corrupt"
        return out

    finals = lockstep_walks(
        snapshot,
        batched_walk_starts(snapshot, 100, np.random.default_rng(6)),
        score_fn,
        alpha=5.0,
        rng=np.random.default_rng(7),
    )
    assert all(tangle.is_tip(snapshot.ids[node]) for node in finals)
    assert len(queried) == len(set(queried)), (
        "a NaN-scored node must be queried at most once per call"
    )


def test_all_nan_scores_degrade_to_uniform_not_first_candidate():
    """np.argmax treats NaN as maximal, so pre-fix a NaN candidate won
    every superstep deterministically.  With every score NaN the walk
    must degrade to a *uniform* choice: over many particles both
    children of a fork get visits."""
    tangle = Tangle(weights())
    tangle.add(Transaction("a", (GENESIS_ID,), weights(), 0, 0))
    tangle.add(Transaction("b", (GENESIS_ID,), weights(), 1, 0))
    snapshot = snapshot_for(tangle)
    finals = lockstep_walks(
        snapshot,
        np.zeros(200, dtype=np.int64),  # all particles start at genesis
        lambda nodes: np.full(len(nodes), np.nan),
        alpha=5.0,
        rng=np.random.default_rng(3),
    )
    reached = {snapshot.ids[n] for n in finals}
    assert reached == {"a", "b"}


def test_non_finite_candidates_never_attract_the_walk():
    """A corrupt (NaN or +inf scored) sibling must not bias the pick:
    finite candidates keep their relative odds, the corrupt one gets
    probability zero — under the scalar tail law and the vectorized
    block law."""
    tangle = Tangle(weights())
    for name, issuer in (("good", 0), ("bad", 1), ("ugly", 2)):
        tangle.add(Transaction(name, (GENESIS_ID,), weights(), issuer, 0))
    snapshot = snapshot_for(tangle)
    table = {"genesis": 0.5, "good": 0.9, "bad": np.nan, "ugly": np.inf}
    scores = np.array([table[tx_id] for tx_id in snapshot.ids])
    for count in (1, 64):  # one particle on scalars, a wide vectorized block
        finals = lockstep_walks(
            snapshot,
            np.zeros(count, dtype=np.int64),
            lambda nodes: scores[nodes],
            alpha=5.0,
            rng=np.random.default_rng(11),
        )
        assert {snapshot.ids[n] for n in finals} == {"good"}, (
            "only the finite candidate may be selected at high alpha"
        )


@pytest.mark.parametrize("normalization", ["standard", "dynamic"])
def test_mixed_finite_and_corrupt_rows_keep_finite_arithmetic(normalization):
    """One corrupt candidate in a row must not poison its siblings'
    normalization (row max/spread are computed over finite scores only)."""
    tangle, ids = grow_tangle(n=40, seed=21)
    rng_scores = np.random.default_rng(22).random(len(ids))
    corrupt = set(list(range(1, len(ids), 7)))

    def score_fn(nodes):
        out = rng_scores[nodes].copy()
        for i, n in enumerate(nodes):
            if int(n) in corrupt:
                out[i] = np.nan
        return out

    finals = lockstep_walks(
        snapshot_for(tangle),
        batched_walk_starts(
            snapshot_for(tangle), 50, np.random.default_rng(23)
        ),
        score_fn,
        alpha=3.0,
        normalization=normalization,
        rng=np.random.default_rng(24),
    )
    snapshot = snapshot_for(tangle)
    assert all(tangle.is_tip(snapshot.ids[node]) for node in finals)

"""Property tests pinning the lockstep engine to the sequential walker.

Three layers of equivalence, from exact to statistical:

1. **Bit-identical arithmetic**: the engine's row-wise padded score
   normalization must equal `normalize_standard` / `normalize_dynamic`
   applied per frontier row, bit for bit — same subtraction, same
   division, same zero-spread fallback.
2. **Exact transition law**: one superstep's Gumbel-max choice must draw
   from exactly the softmax distribution `accuracy_walk_weights`
   computes — verified against the *analytic* probabilities, so a bias
   in either the normalization or the sampling shows up directly.
3. **End-to-end distribution**: full `select_tips` over a grown tangle
   (and over a delay-bounded `TimedTangleView` with the own-publication
   exemption) must produce the sequential walker's tip distribution,
   tested over thousands of walks.

Underneath all three, a view's snapshot — the whole-tangle snapshot
restricted by the view's mask — must equal a cold build of exactly the
transactions the view sees, across growth and compaction.

And the engine's two steppers must draw exactly what the reference law
below draws: :func:`reference_lockstep_walks` is the all-numpy engine
(one padded block per superstep while two or more particles are live,
a scalar-by-numpy tail loop for the last one), kept here as the oracle
the scalar and vectorized steppers are pinned to.
"""

import os
from unittest import mock

import numpy as np
from hypothesis import event, given, settings, strategies as st

from repro.dag import walk_engine
from repro.dag.random_walk import sequential_select_tips
from repro.dag.tangle import Tangle
from repro.dag.tip_selection import (
    AccuracyTipSelector,
    accuracy_walk_weights,
    normalize_dynamic,
    normalize_standard,
)
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.view import TangleView, TimedTangleView
from repro.dag.walk_engine import (
    TangleSnapshot,
    batched_walk_starts,
    lockstep_walks,
    padded_normalize,
    snapshot_for,
)

# Tier-1 keeps the example budget small; the CI chaos job widens the
# sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))


def weights():
    return [np.zeros(1)]


def grow_tangle(n=60, seed=4):
    rng = np.random.default_rng(seed)
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tangle.add(Transaction(f"t{i}", parents, weights(), i % 10, i // 10))
        ids.append(f"t{i}")
    return tangle, ids


def tip_distribution(tips: list[str]) -> dict[str, float]:
    counts: dict[str, float] = {}
    for tip in tips:
        counts[tip] = counts.get(tip, 0.0) + 1.0
    return {tip: c / len(tips) for tip, c in counts.items()}


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


# ------------------------------------------------- 1. exact arithmetic
def test_padded_normalize_bit_identical_to_sequential():
    rng = np.random.default_rng(0)
    for normalization, reference in (
        ("standard", normalize_standard),
        ("dynamic", normalize_dynamic),
    ):
        for trial in range(30):
            rows = int(rng.integers(1, 12))
            kmax = int(rng.integers(2, 9))
            counts = rng.integers(1, kmax + 1, size=rows)
            scores = rng.random((rows, kmax))
            if trial % 5 == 0:  # exercise the zero-spread fallback
                scores[0] = 0.25
            if trial % 7 == 0:  # padding cells may hold anything
                scores[np.arange(kmax) >= counts[:, None]] = np.nan
            valid = np.arange(kmax) < counts[:, None]
            normalized = padded_normalize(scores, valid, normalization)
            for i in range(rows):
                np.testing.assert_array_equal(
                    normalized[i, : counts[i]],
                    reference(scores[i, : counts[i]]),
                )


# --------------------------------------------- 2. exact transition law
def test_superstep_choice_matches_analytic_softmax():
    """A star tangle (genesis -> k tips) makes one superstep the whole
    walk: the engine's empirical choice frequencies must match
    `accuracy_walk_weights` to Monte-Carlo accuracy."""
    k, n = 6, 20000
    tangle = Tangle(weights())
    for i in range(k):
        tangle.add(Transaction(f"t{i}", (GENESIS_ID,), weights(), i, 0))
    snapshot = snapshot_for(tangle)
    accuracies = np.random.default_rng(1).random(k)
    scores_by_node = np.zeros(len(snapshot))
    for i in range(k):
        scores_by_node[snapshot.index[f"t{i}"]] = accuracies[i]
    genesis_node = snapshot.index[GENESIS_ID]
    for normalization in ("standard", "dynamic"):
        for alpha in (0.0, 2.0, 10.0):
            finals = lockstep_walks(
                snapshot,
                np.full(n, genesis_node, dtype=np.int64),
                lambda nodes: scores_by_node[nodes],
                alpha=alpha,
                normalization=normalization,
                rng=np.random.default_rng(int(alpha * 10) + 2),
            )
            frequencies = np.bincount(finals, minlength=len(snapshot))[
                [snapshot.index[f"t{i}"] for i in range(k)]
            ] / n
            expected = accuracy_walk_weights(
                accuracies, alpha, normalization=normalization
            )
            # 5 sigma on the largest cell: sqrt(0.25 / n) ~ 0.0035
            np.testing.assert_allclose(
                frequencies, expected, atol=5 * np.sqrt(0.25 / n)
            )


# ------------------------------------------- 3. end-to-end distribution
def test_engine_tip_distribution_matches_sequential():
    """Full select_tips over a grown tangle, 3000 walks per walker."""
    tangle, ids = grow_tangle(n=60, seed=4)
    accuracies = {
        tx_id: float(v)
        for tx_id, v in zip(ids, np.random.default_rng(5).random(len(ids)))
    }
    for normalization in ("standard", "dynamic"):
        selector = AccuracyTipSelector(
            accuracies.__getitem__,
            alpha=5.0,
            normalization=normalization,
            depth_range=(15, 25),
        )
        n = 3000
        seq_tips = sequential_select_tips(selector, tangle, n, np.random.default_rng(6))
        eng_tips = selector.select_tips(tangle, n, np.random.default_rng(7))
        assert all(tangle.is_tip(t) for t in eng_tips)
        tv = total_variation(tip_distribution(seq_tips), tip_distribution(eng_tips))
        assert tv < 0.10, (
            f"tip distributions diverge under {normalization} (TV={tv:.3f})"
        )


def test_engine_matches_sequential_on_timed_view():
    """Delayed-visibility parity: both walkers see the same truncated
    tangle through a TimedTangleView and must produce the same tip
    distribution over it."""
    tangle, ids = grow_tangle(n=50, seed=8)
    rng = np.random.default_rng(9)
    # Every transaction becomes network-visible at a random time; cut at
    # the median so the view genuinely truncates the DAG.
    visible_from = {GENESIS_ID: 0.0}
    for i, tx_id in enumerate(ids[1:]):
        visible_from[tx_id] = float(i) + float(rng.random())
    now = 25.0
    view = TimedTangleView(tangle, visible_from, now)
    assert 1 < len(view.transactions()) < len(tangle)
    accuracies = {
        tx_id: float(v)
        for tx_id, v in zip(ids, np.random.default_rng(10).random(len(ids)))
    }
    selector = AccuracyTipSelector(
        accuracies.__getitem__, alpha=5.0, depth_range=(10, 20)
    )
    n = 1500
    seq_tips = sequential_select_tips(selector, view, n, np.random.default_rng(11))
    eng_tips = selector.select_tips(view, n, np.random.default_rng(12))
    visible_tips = set(view.tips())
    assert set(eng_tips) <= visible_tips and set(seq_tips) <= visible_tips
    tv = total_variation(tip_distribution(seq_tips), tip_distribution(eng_tips))
    assert tv < 0.10, f"timed-view tip distributions diverge (TV={tv:.3f})"


def test_both_walkers_survive_visible_child_invisible_parent():
    """The async race: a transaction can propagate before its parent
    (the issuer saw its own unpropagated tx and approved it).  Both
    walkers must treat the invisible-parent edge as absent — the
    sequential start sampler must not crash descending through it."""
    tangle = Tangle(weights())
    tangle.add(Transaction("slow", (GENESIS_ID,), weights(), 0, 0))
    tangle.add(Transaction("fast-child", ("slow",), weights(), 0, 1))
    # observer 1 at t=3: sees fast-child (delay 1) but not slow (delay 10)
    visible_from = {GENESIS_ID: 0.0, "slow": 10.0, "fast-child": 3.0}
    view = TimedTangleView(tangle, visible_from, 3.0, observer=1)
    assert "fast-child" in view and "slow" not in view
    accuracies = {GENESIS_ID: 0.1, "slow": 0.5, "fast-child": 0.9}
    selector = AccuracyTipSelector(
        accuracies.__getitem__, alpha=5.0, depth_range=(5, 10)
    )
    for select in (sequential_select_tips, AccuracyTipSelector.select_tips):
        tips = select(selector, view, 20, np.random.default_rng(14))
        assert set(tips) <= set(view.tips())


def test_snapshot_cache_distinguishes_visibility_maps():
    """Two TimedTangleViews over the same tangle at the same `now` but
    with different visibility maps are different views — the snapshot
    cache must not serve one's snapshot for the other."""
    tangle = Tangle(weights())
    tangle.add(Transaction("t", (GENESIS_ID,), weights(), 0, 0))
    early = TimedTangleView(tangle, {GENESIS_ID: 0.0, "t": 0.5}, 1.0)
    late = TimedTangleView(tangle, {GENESIS_ID: 0.0, "t": 5.0}, 1.0)
    assert "t" in snapshot_for(early).index
    assert "t" not in snapshot_for(late).index


def test_engine_honours_own_publication_exemption():
    """The PR 3 exemption: an issuer sees its own transaction before the
    network does.  The engine's snapshot must include it — and, when it
    is the best tip, select it — while a non-observer's snapshot must
    not contain it at all."""
    tangle = Tangle(weights())
    tangle.add(Transaction("shared", (GENESIS_ID,), weights(), 1, 0))
    tangle.add(Transaction("mine", ("shared",), weights(), 0, 1))
    visible_from = {GENESIS_ID: 0.0, "shared": 0.5, "mine": 9.0}  # still propagating
    published_at = {GENESIS_ID: 0.0, "shared": 0.2, "mine": 1.0}
    accuracies = {GENESIS_ID: 0.1, "shared": 0.5, "mine": 0.9}

    def run(observer):
        view = TimedTangleView(
            tangle, visible_from, 2.0, observer=observer, published_at=published_at
        )
        selector = AccuracyTipSelector(
            accuracies.__getitem__, alpha=1e8, depth_range=(10, 10)
        )
        return view, selector.select_tips(view, 20, np.random.default_rng(13))

    issuer_view, issuer_tips = run(observer=0)
    assert snapshot_for(issuer_view).index.get("mine") is not None
    assert issuer_tips == ["mine"] * 20  # its own tip, deterministically
    other_view, other_tips = run(observer=1)
    assert "mine" not in snapshot_for(other_view).index
    assert other_tips == ["shared"] * 20


# ------------------------------------------- 4. view snapshots are exact
class _Subset:
    """The cold-build oracle: exactly the transactions a plain per-id
    predicate keeps, written independently of the views' masks."""

    def __init__(self, tangle, keep):
        self._kept = [tx for tx in tangle.transactions() if keep(tx)]

    def transactions(self):
        return self._kept


SNAPSHOT_ARRAYS = (
    "parent_indptr",
    "parent_indices",
    "approver_indptr",
    "approver_indices",
    "tip_nodes",
    "sink_nodes",
)
SNAPSHOT_PLANES = (
    "cumulative_weights",
    "parents_padded",
    "longest_past_path",
)


def assert_snapshot_equal(served, cold):
    assert served.ids == cold.ids
    assert served.index == cold.index
    for name in SNAPSHOT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(served, name), getattr(cold, name), err_msg=name
        )
    for name in SNAPSHOT_PLANES:
        np.testing.assert_array_equal(
            getattr(served, name)(), getattr(cold, name)(), err_msg=name
        )


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 10)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(
        st.integers(1, 30), st.integers(1, 20), st.integers(0, 25), st.integers(1, 15)
    ),
    issuers=st.integers(1, 4),
    delay=st.floats(0.0, 8.0),
)
def test_view_snapshots_equal_cold_builds_across_growth_and_compaction(
    seed, sizes, issuers, delay
):
    """Random DAG, publish and visibility times and issuers; timed views
    with and without an observer, in both the id-keyed and the engine's
    column form, plus round-bounded views — at three stages: built,
    grown (served by extending the whole-tangle snapshot, never a cold
    build), and grown again after a compaction in between."""
    first, grown, keep_last, regrown = sizes
    rng = np.random.default_rng(seed)
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    published_at = {GENESIS_ID: 0.0}
    visible_from = {GENESIS_ID: 0.0}
    counter = iter(range(10**6))

    def grow(count):
        for _ in range(count):
            i = next(counter)
            parents = tuple(
                dict.fromkeys(
                    ids[int(rng.integers(0, len(ids)))]
                    for _ in range(int(rng.integers(1, 4)))
                )
            )
            tx_id = f"t{i}"
            tangle.add(
                Transaction(tx_id, parents, weights(), int(rng.integers(0, issuers)), i // 4)
            )
            ids.append(tx_id)
            published_at[tx_id] = i + float(rng.random())
            visible_from[tx_id] = published_at[tx_id] + delay * float(rng.random())

    def views():
        order = [tx.tx_id for tx in tangle.transactions()]
        columns = {
            "visible_from": np.array([visible_from[t] for t in order]),
            "published_at": np.array([published_at[t] for t in order]),
            "issuers": np.array([tangle.get(t).issuer for t in order]),
        }
        horizon = max(published_at.values()) + delay + 1.0
        for _ in range(3):
            now = float(rng.uniform(0.0, horizon))
            observer = int(rng.integers(0, issuers)) if rng.random() < 0.7 else None

            def keep(tx, now=now, observer=observer):
                if visible_from[tx.tx_id] <= now:
                    return True
                return (
                    observer is not None
                    and tx.issuer == observer
                    and published_at[tx.tx_id] <= now
                )

            yield TimedTangleView(
                tangle, visible_from, now, observer=observer, published_at=published_at
            ), keep
            yield TimedTangleView(
                tangle,
                columns["visible_from"],
                now,
                observer=observer,
                published_at=columns["published_at"],
                issuers=columns["issuers"],
            ), keep
        last_round = max(tx.round_index for tx in tangle.transactions())
        max_round = int(rng.integers(-2, last_round + 2))
        yield TangleView(tangle, max_round), (
            lambda tx: tx.is_genesis or tx.round_index <= max_round
        )

    def check_stage(*, may_build):
        for name in SNAPSHOT_PLANES:  # extension must patch, not defer
            getattr(snapshot_for(tangle), name)()
        guard = (
            mock.patch.object(TangleSnapshot, "build", side_effect=AssertionError)
            if not may_build
            else mock.patch.object(TangleSnapshot, "build", TangleSnapshot.build)
        )
        for view, keep in views():
            with guard:
                served = snapshot_for(view)
            if served is not snapshot_for(tangle):
                # Both restrict branches: parent-closed masks inherit
                # the longest-path plane, orphaning ones leave it lazy.
                inherited = served._longest_past_path is not None
                event(f"longest paths {'inherited' if inherited else 'lazy'}")
            assert_snapshot_equal(served, TangleSnapshot.build(_Subset(tangle, keep)))
        assert_snapshot_equal(snapshot_for(tangle), TangleSnapshot.build(tangle))
        order = [tx.tx_id for tx in tangle.transactions()]
        np.testing.assert_array_equal(
            tangle.cumulative_weights(order),
            [tangle.recount_cumulative_weight(tx_id) for tx_id in order],
        )

    grow(first)
    check_stage(may_build=True)
    grow(grown)
    check_stage(may_build=False)
    tangle.compact(keep_last=keep_last)
    ids[:] = [tx.tx_id for tx in tangle.transactions()]
    check_stage(may_build=True)
    grow(regrown)
    check_stage(may_build=False)


# ------------------------------------- 5. the steppers obey the oracle
def _reference_fill(score_memo, candidates, score_fn, known):
    missing = np.unique(candidates[~known[candidates]])
    if missing.size == 0:
        return
    score_memo[missing] = np.asarray(score_fn(missing), dtype=np.float64)
    known[missing] = True


def reference_lockstep_walks(
    snapshot, starts, score_fn, *, alpha, normalization, rng,
    evaluation_counter=None, score_memo=None, trace=None,
):
    """The reference law: one padded numpy block per superstep (the
    block law) and, once one untraced particle is left, a numpy tail
    loop (the tail law)."""
    current = np.array(starts, dtype=np.int64, copy=True)
    degrees = snapshot.approver_counts
    indptr, indices = snapshot.approver_indptr, snapshot.approver_indices
    if score_memo is None:
        score_memo = np.full(len(snapshot), np.nan)
    columns = np.arange(max(1, snapshot.max_approvers))
    rows = np.arange(len(current))
    known = ~np.isnan(score_memo)
    memo_may_miss = not known.all()
    live = np.flatnonzero(degrees[current] > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            if live.size == 1 and trace is None:
                particle = int(live[0])
                node = int(current[particle])
                while degrees[node] > 0:
                    k = int(degrees[node])
                    if evaluation_counter is not None:
                        evaluation_counter(k)
                    start = indptr[node]
                    if k == 1:
                        node = int(indices[start])
                        continue
                    row = indices[start : start + k]
                    scores = score_memo[row]
                    if memo_may_miss and not known[row].all():
                        _reference_fill(score_memo, row, score_fn, known)
                        scores = score_memo[row]
                    finite = np.isfinite(scores)
                    if finite.all():
                        normalized = padded_normalize(
                            scores[None, :], np.ones((1, k), dtype=bool), normalization
                        )[0]
                        logits = alpha * normalized
                    elif finite.any():
                        normalized = padded_normalize(
                            scores[None, :], finite[None, :], normalization
                        )[0]
                        logits = np.where(finite, alpha * normalized, -np.inf)
                    else:
                        logits = np.zeros(k)
                    z = logits - np.log(rng.standard_exponential(k))
                    node = int(row[int(z.argmax())])
                current[particle] = node
                break
            nodes = current[live]
            counts = degrees[nodes]
            if evaluation_counter is not None:
                for c in counts:
                    evaluation_counter(int(c))
            begins = indptr[nodes]
            chosen = indices[begins]
            kmax = int(counts.max())
            if kmax > 1:
                valid = columns[:kmax] < counts[:, None]
                lanes = np.where(valid, columns[:kmax], 0)
                candidates = indices[begins[:, None] + lanes]
                scores = score_memo[candidates]
                if memo_may_miss:
                    unknown = ~known[candidates] & valid
                    if unknown.any():
                        _reference_fill(
                            score_memo, candidates[unknown], score_fn, known
                        )
                        scores = score_memo[candidates]
                bad = ~np.isfinite(scores) & valid
                any_bad = bool(bad.any())
                if normalization == "standard":
                    logits = alpha * scores
                else:
                    norm_valid = valid & ~bad if any_bad else valid
                    logits = alpha * padded_normalize(scores, norm_valid, normalization)
                if any_bad:
                    logits = np.where(bad, -np.inf, logits)
                    alive = (valid & ~bad).any(axis=1)
                    if not alive.all():
                        logits = np.where(~alive[:, None] & valid, 0.0, logits)
                z = logits - np.log(rng.standard_exponential(valid.shape))
                picks = np.where(valid, z, -np.inf).argmax(axis=1)
                chosen = np.where(
                    counts > 1, candidates[rows[: len(nodes)], picks], chosen
                )
            if trace is not None:
                trace.append(
                    {
                        "live": live.copy(),
                        "nodes": nodes.copy(),
                        "counts": counts.copy(),
                        "candidates": [
                            indices[indptr[n] : indptr[n] + degrees[n]].copy()
                            for n in nodes
                        ],
                        "chosen": chosen.copy(),
                    }
                )
            current[live] = chosen
            live = live[degrees[chosen] > 0]
    return current


SCORE_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.5, 0.25]),
    st.floats(-1e300, 1e300),
)


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 60)
@given(
    seed=st.integers(0, 2**32 - 1),
    fan=st.integers(0, 90),
    grown=st.integers(0, 40),
    particles=st.integers(1, 8),
    normalization=st.sampled_from(["standard", "dynamic"]),
    alpha=st.sampled_from([0.0, 0.5, 10.0, 200.0]),
    warm=st.floats(0.0, 1.0),
    stepper=st.sampled_from(["measured", "scalar", "vectorized"]),
    traced=st.booleans(),
    data=st.data(),
)
def test_steppers_draw_exactly_what_the_reference_law_draws(
    seed, fan, grown, particles, normalization, alpha, warm, stepper, traced, data
):
    """Random DAGs under a genesis fan of up to 90 approvers (so a
    superstep's block spans both sides of the crossover), NaN and ±inf
    scores, cold and partly warm memos: finals, memo, the score_fn and
    evaluation_counter call sequences, the trace and the generator's
    state after the walk all equal the reference law's."""
    rng = np.random.default_rng(seed)
    tangle = Tangle(weights())
    ids = [GENESIS_ID]
    for i in range(fan + grown):
        if i < fan:
            parents = (GENESIS_ID,)
        else:
            parents = tuple(
                dict.fromkeys(
                    ids[int(rng.integers(0, len(ids)))]
                    for _ in range(int(rng.integers(1, 4)))
                )
            )
        tangle.add(Transaction(f"t{i}", parents, weights(), i % 7, i // 7))
        ids.append(f"t{i}")
    snapshot = TangleSnapshot.build(tangle)
    n = len(snapshot)
    scores = np.array(data.draw(st.lists(SCORE_VALUES, min_size=n, max_size=n)))
    memo = np.full(n, np.nan)
    prefilled = rng.random(n) < warm
    memo[prefilled] = scores[prefilled]
    starts = batched_walk_starts(
        snapshot, particles, np.random.default_rng(seed + 1), depth_range=(0, 6)
    )
    if rng.random() < 0.5:
        starts[:] = 0  # every particle faces the fan at once

    def run(walk, **patch):
        calls, counted = [], []
        walk_rng = np.random.default_rng(seed + 2)
        walk_memo = memo.copy()
        trace = [] if traced else None

        def score_fn(nodes):
            calls.append(nodes.copy())
            return scores[nodes]

        with mock.patch.object(walk_engine, "_SCALAR_BLOCK_CELLS", **patch):
            finals = walk(
                snapshot,
                starts,
                score_fn,
                alpha=alpha,
                normalization=normalization,
                rng=walk_rng,
                evaluation_counter=counted.append,
                score_memo=walk_memo,
                trace=trace,
            )
        return finals, walk_memo, calls, counted, trace, walk_rng.bit_generator.state

    cells = {"measured": walk_engine._SCALAR_BLOCK_CELLS, "scalar": 10**9, "vectorized": 0}
    event(f"stepper {stepper}")
    got = run(lockstep_walks, new=cells[stepper])
    want = run(reference_lockstep_walks, new=cells[stepper])
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])  # NaN-aware: equal_nan
    assert len(got[2]) == len(want[2])
    for mine, theirs in zip(got[2], want[2]):
        np.testing.assert_array_equal(mine, theirs)
    assert got[3] == want[3]
    if traced:
        assert len(got[4]) == len(want[4])
        for mine, theirs in zip(got[4], want[4]):
            for key in ("live", "nodes", "counts", "chosen"):
                np.testing.assert_array_equal(mine[key], theirs[key], err_msg=key)
            for a, b in zip(mine["candidates"], theirs["candidates"], strict=True):
                np.testing.assert_array_equal(a, b)
    assert got[5] == want[5]

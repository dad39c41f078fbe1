"""Tip selectors: normalizations, walk weights, selection behaviour."""

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.tip_selection import (
    AccuracyTipSelector,
    RandomTipSelector,
    WeightedTipSelector,
    accuracy_walk_weights,
    normalize_dynamic,
    normalize_standard,
)
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import lockstep_walks, snapshot_for


def weights():
    return [np.zeros(1)]


def fork_tangle():
    """genesis <- a, genesis <- b: two tips."""
    t = Tangle(weights())
    t.add(Transaction("a", (GENESIS_ID,), weights(), 0, 0))
    t.add(Transaction("b", (GENESIS_ID,), weights(), 1, 0))
    return t


# ----------------------------------------------------------- normalization
def test_standard_normalization_max_is_zero():
    accs = np.array([0.2, 0.5, 0.9])
    normalized = normalize_standard(accs)
    assert normalized.max() == 0.0
    np.testing.assert_allclose(normalized, [-0.7, -0.4, 0.0])


def test_dynamic_normalization_spread_is_one():
    accs = np.array([0.2, 0.5, 0.9])
    normalized = normalize_dynamic(accs)
    assert normalized.max() == 0.0
    assert normalized.min() == -1.0


def test_dynamic_normalization_scale_free():
    """Scaling accuracy differences must not change dynamic weights."""
    small = np.array([0.50, 0.51, 0.52])
    large = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(
        normalize_dynamic(small), normalize_dynamic(np.array([0.1, 0.5, 0.9]) )
    , atol=1e-12)
    np.testing.assert_allclose(normalize_dynamic(small), normalize_dynamic(large))


def test_dynamic_normalization_zero_spread():
    accs = np.array([0.4, 0.4])
    np.testing.assert_allclose(normalize_dynamic(accs), [0.0, 0.0])


# ------------------------------------------------------------ walk weights
def test_weights_sum_to_one(rng):
    probs = accuracy_walk_weights(rng.random(5), alpha=10.0)
    assert probs.sum() == pytest.approx(1.0)


def test_alpha_zero_is_uniform():
    probs = accuracy_walk_weights(np.array([0.1, 0.9]), alpha=0.0)
    np.testing.assert_allclose(probs, [0.5, 0.5])


def test_higher_alpha_more_deterministic():
    accs = np.array([0.5, 0.6])
    low = accuracy_walk_weights(accs, alpha=1.0)
    high = accuracy_walk_weights(accs, alpha=100.0)
    assert high[1] > low[1]
    assert high[1] > 0.99


def test_best_candidate_always_most_likely(rng):
    accs = rng.random(6)
    probs = accuracy_walk_weights(accs, alpha=5.0)
    assert probs.argmax() == accs.argmax()


def test_dynamic_beats_standard_for_tiny_gaps():
    """With tiny accuracy gaps, dynamic normalization keeps discrimination."""
    accs = np.array([0.500, 0.505])
    standard = accuracy_walk_weights(accs, alpha=1.0, normalization="standard")
    dynamic = accuracy_walk_weights(accs, alpha=1.0, normalization="dynamic")
    assert dynamic[1] > standard[1]


def test_walk_weights_validation(rng):
    with pytest.raises(ValueError, match="unknown normalization"):
        accuracy_walk_weights(np.array([0.5]), alpha=1.0, normalization="nope")
    with pytest.raises(ValueError, match="alpha"):
        accuracy_walk_weights(np.array([0.5]), alpha=-1.0)
    with pytest.raises(ValueError, match="non-empty"):
        accuracy_walk_weights(np.array([]), alpha=1.0)


# --------------------------------------------------------------- selectors
def test_random_selector_returns_distinct_when_possible(rng):
    tangle = fork_tangle()
    tips = RandomTipSelector().select_tips(tangle, 2, rng)
    assert set(tips) == {"a", "b"}


def test_random_selector_repeats_when_single_tip(rng):
    tangle = Tangle(weights())
    tips = RandomTipSelector().select_tips(tangle, 2, rng)
    assert tips == [GENESIS_ID, GENESIS_ID]


def _constant(tx_ids, _arena_rows):
    return np.full(len(tx_ids), 0.5)


def test_accuracy_selector_prefers_high_accuracy_tip(rng):
    tangle = fork_tangle()
    accuracy = {"a": 0.9, "b": 0.1, GENESIS_ID: 0.0}
    scores = lambda tx_ids, _arena_rows: [accuracy[tx] for tx in tx_ids]
    selector = AccuracyTipSelector(scores, alpha=100.0, depth_range=(0, 0))
    # depth (0,0) starts at a tip; force start at genesis via many walks
    selector = AccuracyTipSelector(scores, alpha=100.0, depth_range=(5, 10))
    picks = [selector.select_tips(tangle, 1, rng)[0] for _ in range(30)]
    assert picks.count("a") > 27


def test_accuracy_selector_alpha_zero_roughly_uniform(rng):
    tangle = fork_tangle()
    selector = AccuracyTipSelector(_constant, alpha=0.0, depth_range=(5, 10))
    picks = [selector.select_tips(tangle, 1, rng)[0] for _ in range(60)]
    assert 15 < picks.count("a") < 45


def test_accuracy_selector_counts_evaluations(rng):
    tangle = fork_tangle()
    counted = []
    selector = AccuracyTipSelector(
        _constant,
        alpha=1.0,
        depth_range=(5, 10),
        evaluation_counter=counted.append,
    )
    selector.select_tips(tangle, 1, rng)
    assert sum(counted) == 2  # one step from genesis with two candidates


def test_accuracy_selector_validation():
    with pytest.raises(ValueError):
        AccuracyTipSelector(_constant, alpha=-1.0)
    with pytest.raises(ValueError):
        AccuracyTipSelector(_constant, normalization="nope")


def _fan_of_four():
    """Four approvers of genesis, scored 0, 1/3, 2/3 and 1."""
    tangle = Tangle(weights())
    for i in range(4):
        tangle.add(Transaction(f"a{i}", (GENESIS_ID,), weights(), i, 0))
    return tangle


def _linspace(tx_ids, _arena_rows):
    return np.linspace(0.0, 1.0, len(tx_ids))


_WALKS = {
    "accuracy": lambda alpha: AccuracyTipSelector(
        _linspace, alpha=alpha, depth_range=(1, 1)
    ).select_tips(_fan_of_four(), 8, np.random.default_rng(0)),
    "weighted": lambda alpha: WeightedTipSelector(
        alpha, depth_range=(1, 1)
    ).select_tips(_fan_of_four(), 8, np.random.default_rng(0)),
    "lockstep_walks": lambda alpha: lockstep_walks(
        snapshot_for(_fan_of_four()),
        [0] * 8,
        lambda nodes: np.linspace(0.0, 1.0, len(nodes)),
        alpha=alpha,
        rng=np.random.default_rng(0),
    ),
}


@pytest.mark.parametrize("alpha", [-1.0, np.inf, np.nan])
@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_walks_reject_a_negative_or_non_finite_alpha(walk, alpha):
    """An infinite alpha turns the 0.0-scored candidate's logit into
    ``0 * inf = NaN``, which would win every argmax."""
    with pytest.raises(ValueError, match="alpha"):
        _WALKS[walk](alpha)


def test_a_large_finite_alpha_picks_the_best_candidate():
    assert _WALKS["accuracy"](1e8) == ["a3"] * 8


@pytest.mark.parametrize("depth_range", [(5, 2), (-1, 2), (1.5, 2)])
def test_walking_selectors_reject_a_bad_depth_range(depth_range):
    with pytest.raises(ValueError, match="depth_range"):
        AccuracyTipSelector(_linspace, depth_range=depth_range)
    with pytest.raises(ValueError, match="depth_range"):
        WeightedTipSelector(depth_range=depth_range)


def test_weighted_selector_prefers_heavy_subtangle(rng):
    """b carries a chain behind it -> cumulative weight pulls walks to it."""
    tangle = fork_tangle()
    prev = "b"
    for i in range(4):
        tx = Transaction(f"b{i}", (prev,), weights(), 1, i + 1)
        tangle.add(tx)
        prev = tx.tx_id
    selector = WeightedTipSelector(alpha=5.0, depth_range=(10, 12))
    picks = [selector.select_tips(tangle, 1, rng)[0] for _ in range(20)]
    assert picks.count("b3") > picks.count("a")


def test_weighted_selector_validation():
    with pytest.raises(ValueError):
        WeightedTipSelector(alpha=-0.1)

"""The degradation ladder: accuracy -> weighted -> uniform, always labeled."""

import numpy as np
import pytest

from repro.dag.tip_selection import AccuracyTipSelector, WeightedTipSelector
from repro.dag.walk_engine import TangleSnapshot
from repro.service.degradation import LADDER_MODES, DegradationLadder
from repro.service.resilience import CircuitBreaker, Deadline


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _score(tx_ids):
    return np.linspace(0.0, 1.0, len(tx_ids))


def _selector(score):
    return AccuracyTipSelector(
        lambda tx_ids, _arena_rows: score(tx_ids), depth_range=(2, 10)
    )


def _tip_ids(snapshot):
    return {snapshot.ids[node] for node in snapshot.tip_nodes}


@pytest.fixture
def snapshot(tangle):
    return TangleSnapshot.build(tangle)


def test_accuracy_mode_when_everything_is_healthy(snapshot):
    ladder = DegradationLadder()
    tips, mode, degraded, reason = ladder.select(
        snapshot, 10, np.random.default_rng(0), selector=_selector(_score)
    )
    assert mode == "accuracy" and not degraded and reason is None
    assert len(tips) == 10 and set(tips) <= _tip_ids(snapshot)
    assert ladder.stats["accuracy"] == 1 and ladder.stats["degraded"] == 0


def test_no_score_fn_means_weighted_is_native_not_degraded(snapshot):
    ladder = DegradationLadder()
    tips, mode, degraded, reason = ladder.select(
        snapshot, 6, np.random.default_rng(1)
    )
    assert mode == "weighted" and not degraded and reason is None
    assert len(tips) == 6 and set(tips) <= _tip_ids(snapshot)


def test_score_failure_degrades_to_weighted_with_reason(snapshot):
    ladder = DegradationLadder()

    def broken(tx_ids):
        raise RuntimeError("scoring plane crashed")

    tips, mode, degraded, reason = ladder.select(
        snapshot, 8, np.random.default_rng(2), selector=_selector(broken)
    )
    assert mode == "weighted" and degraded and reason == "score_failure"
    assert len(tips) == 8 and set(tips) <= _tip_ids(snapshot)
    assert ladder.stats["score_failures"] == 1
    assert ladder.stats["degraded"] == 1


def test_open_breaker_skips_accuracy_without_paying_for_it(snapshot):
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=99.0, clock=clock)
    breaker.record_failure()
    ladder = DegradationLadder(breaker=breaker)
    calls = []

    def counting(tx_ids):
        calls.append(tx_ids)
        return _score(tx_ids)

    tips, mode, degraded, reason = ladder.select(
        snapshot, 5, np.random.default_rng(3), selector=_selector(counting)
    )
    assert mode == "weighted" and degraded and reason == "breaker_open"
    assert len(tips) == 5 and set(tips) <= _tip_ids(snapshot)
    assert calls == []  # the sick plane was never touched


def test_repeated_score_failures_trip_the_breaker(snapshot):
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=99.0, clock=clock)
    ladder = DegradationLadder(breaker=breaker)

    def broken(tx_ids):
        raise RuntimeError("still down")

    for _ in range(2):
        ladder.select(
            snapshot, 4, np.random.default_rng(4), selector=_selector(broken)
        )
    assert breaker.state == "open"
    assert breaker.times_opened == 1
    # Third request: breaker_open, not score_failure — no new attempt.
    tips, mode, _, reason = ladder.select(
        snapshot, 4, np.random.default_rng(5), selector=_selector(broken)
    )
    assert mode == "weighted" and reason == "breaker_open"
    assert len(tips) == 4 and set(tips) <= _tip_ids(snapshot)
    assert ladder.stats["score_failures"] == 2


def test_expired_deadline_falls_all_the_way_to_uniform(snapshot):
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    clock.now = 2.0  # fully expired before the ladder starts
    ladder = DegradationLadder()
    tips, mode, degraded, reason = ladder.select(
        snapshot,
        7,
        np.random.default_rng(6),
        selector=_selector(_score),
        deadline=deadline,
    )
    assert mode == "uniform" and degraded
    assert reason == "accuracy_deadline"
    assert len(tips) == 7
    assert set(tips) <= _tip_ids(snapshot)  # uniform picks real tips
    assert ladder.stats["uniform"] == 1
    assert ladder.stats["deadline_trips"] >= 1
    assert ladder.stats["degraded"] == 1  # counted once, not per stage


@pytest.mark.parametrize("normalization", ["standard", "dynamic"])
def test_weighted_rung_is_the_simulators_weighted_walk(snapshot, normalization):
    # Eq. 1 whatever the configured normalization, which governs only
    # the accuracy rung.
    ladder = DegradationLadder(normalization=normalization, alpha=2.0)
    tips, mode, _, _ = ladder.select(snapshot, 9, np.random.default_rng(8))
    expected = WeightedTipSelector(2.0, depth_range=(2, 10)).select_on_snapshot(
        snapshot, 9, np.random.default_rng(8)
    )
    assert mode == "weighted" and tips == expected


def test_ladder_modes_are_quality_ordered():
    assert LADDER_MODES == ("accuracy", "weighted", "uniform")


def test_accuracy_fraction_validation():
    with pytest.raises(ValueError):
        DegradationLadder(accuracy_fraction=0.0)
    with pytest.raises(ValueError):
        DegradationLadder(accuracy_fraction=1.2)

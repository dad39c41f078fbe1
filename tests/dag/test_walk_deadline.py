"""Deadline propagation into the lockstep walk engine.

The service layer hands walks a budget object; the engine checks it at
superstep boundaries.  These tests pin the three contract points: an
expired budget aborts with :class:`WalkDeadlineExceeded` (from the
starts block and from any superstep boundary), a generous
budget changes *nothing* (bit-identical finals and rng stream), and the
check itself never consumes randomness.  Both walking selectors'
``select_on_snapshot`` forward the deadline and keep the same contract,
and so does a walk narrow enough to step on Python scalars.
"""

import numpy as np
import pytest

from repro.dag import walk_engine
from repro.dag.tangle import Tangle
from repro.dag.tip_selection import AccuracyTipSelector, WeightedTipSelector
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import (
    TangleSnapshot,
    WalkDeadlineExceeded,
    batched_walk_starts,
    lockstep_walks,
)


def _weights():
    return [np.zeros(1)]


def _grow(n=60, seed=4):
    rng = np.random.default_rng(seed)
    tangle = Tangle(_weights())
    ids = [GENESIS_ID]
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        tangle.add(Transaction(f"t{i}", parents, _weights(), i % 10, i // 10))
        ids.append(f"t{i}")
    return tangle


class _Budget:
    """Duck-typed deadline: expires after ``checks`` polls."""

    def __init__(self, checks):
        self.checks = checks
        self.polled = 0

    @property
    def expired(self):
        self.polled += 1
        return self.polled > self.checks


class _Never:
    expired = False


def _score(nodes):
    return np.linspace(0.0, 1.0, nodes.size)


def test_expired_deadline_aborts_walk_starts():
    snapshot = TangleSnapshot.build(_grow())
    with pytest.raises(WalkDeadlineExceeded, match="before walk starts"):
        batched_walk_starts(
            snapshot, 5, np.random.default_rng(0), deadline=_Budget(0)
        )


def test_deadline_mid_flight_aborts_superstep_loop():
    snapshot = TangleSnapshot.build(_grow())
    rng = np.random.default_rng(3)
    starts = batched_walk_starts(snapshot, 50, rng)
    with pytest.raises(WalkDeadlineExceeded, match="in flight"):
        lockstep_walks(
            snapshot,
            starts,
            _score,
            alpha=1.0,
            rng=rng,
            deadline=_Budget(1),  # survives one superstep, dies on the next
        )


def test_generous_deadline_is_bit_identical_to_none():
    snapshot = TangleSnapshot.build(_grow())

    def run(deadline):
        rng = np.random.default_rng(11)
        starts = batched_walk_starts(snapshot, 40, rng, deadline=deadline)
        finals = lockstep_walks(
            snapshot, starts, _score, alpha=2.0, rng=rng, deadline=deadline
        )
        return finals, rng.bit_generator.state

    bare_finals, bare_state = run(None)
    timed_finals, timed_state = run(_Never())
    np.testing.assert_array_equal(bare_finals, timed_finals)
    assert bare_state == timed_state  # the check draws nothing


def _selectors():
    return {
        "weighted": WeightedTipSelector(0.5, depth_range=(2, 10)),
        "accuracy": AccuracyTipSelector(
            lambda ids, _arena_rows: np.linspace(0.0, 1.0, len(ids)),
            depth_range=(2, 10),
        ),
    }


@pytest.mark.parametrize("name", ["weighted", "accuracy"])
@pytest.mark.parametrize("checks", [0, 1])
def test_selectors_raise_on_an_expired_deadline(name, checks):
    snapshot = TangleSnapshot.build(_grow())
    with pytest.raises(WalkDeadlineExceeded):
        _selectors()[name].select_on_snapshot(
            snapshot, 30, np.random.default_rng(0), deadline=_Budget(checks)
        )


@pytest.mark.parametrize("name", ["weighted", "accuracy"])
def test_selectors_with_a_live_deadline_match_no_deadline(name):
    snapshot = TangleSnapshot.build(_grow())

    def run(deadline):
        rng = np.random.default_rng(12)
        tips = _selectors()[name].select_on_snapshot(
            snapshot, 30, rng, deadline=deadline
        )
        return tips, rng.bit_generator.state

    assert run(None) == run(_Never())


def test_memo_scores_survive_an_aborted_walk():
    snapshot = TangleSnapshot.build(_grow())
    memo = np.full(len(snapshot), np.nan)
    rng = np.random.default_rng(7)
    starts = batched_walk_starts(snapshot, 50, rng)
    with pytest.raises(WalkDeadlineExceeded):
        lockstep_walks(
            snapshot,
            starts,
            _score,
            alpha=1.0,
            rng=rng,
            score_memo=memo,
            deadline=_Budget(1),
        )
    scored = ~np.isnan(memo)
    assert scored.any()  # the abort kept the work already paid for
    # ...and a rerun with the warm memo needs no new scoring calls for
    # those nodes: feed a poisoned score_fn limited to unscored nodes.
    calls = []

    def strict_score(nodes):
        calls.append(nodes)
        assert not np.isin(nodes, np.flatnonzero(scored)).any()
        return _score(nodes)

    lockstep_walks(
        snapshot,
        starts,
        strict_score,
        alpha=1.0,
        rng=np.random.default_rng(8),
        score_memo=memo,
    )


def test_deadline_between_scalar_supersteps_raises_and_keeps_the_memo(monkeypatch):
    """Two particles at genesis make a narrow block, so the walk steps on
    Python scalars; a deadline that fires after the first such superstep
    raises there, and the scores it already filled stay in the memo."""
    snapshot = TangleSnapshot.build(_grow())
    assert 1 < snapshot.approver_counts[0]
    assert 2 * snapshot.approver_counts[0] <= walk_engine._SCALAR_BLOCK_CELLS
    scalar_steps = []
    scalar = walk_engine._scalar_superstep

    def counted(*args):
        scalar_steps.append(args[0])
        return scalar(*args)

    monkeypatch.setattr(walk_engine, "_scalar_superstep", counted)
    memo = np.full(len(snapshot), np.nan)
    with pytest.raises(WalkDeadlineExceeded, match="2 particle"):
        lockstep_walks(
            snapshot,
            np.zeros(2, dtype=np.int64),
            _score,
            alpha=1.0,
            rng=np.random.default_rng(7),
            score_memo=memo,
            deadline=_Budget(1),
        )
    assert len(scalar_steps) == 1
    genesis_approvers = scalar_steps[0][0]
    scored = np.flatnonzero(~np.isnan(memo))
    np.testing.assert_array_equal(scored, np.unique(genesis_approvers))
    np.testing.assert_array_equal(memo[scored], _score(scored))

"""TangleView: round-bounded visibility."""

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.view import TangleView, TimedTangleView


def w():
    return [np.zeros(1)]


@pytest.fixture
def tangle():
    t = Tangle(w())
    t.add(Transaction("r0a", (GENESIS_ID,), w(), 0, 0))
    t.add(Transaction("r0b", (GENESIS_ID,), w(), 1, 0))
    t.add(Transaction("r1", ("r0a", "r0b"), w(), 2, 1))
    t.add(Transaction("r2", ("r1",), w(), 0, 2))
    return t


def test_view_hides_future_rounds(tangle):
    view = TangleView(tangle, 0)
    assert "r0a" in view
    assert "r1" not in view
    assert len(view) == 3  # genesis + two round-0 txs


def test_view_tips_are_unapproved_within_view(tangle):
    assert TangleView(tangle, 0).tips() == ["r0a", "r0b"]
    assert TangleView(tangle, 1).tips() == ["r1"]
    assert TangleView(tangle, 2).tips() == ["r2"]


def test_view_get_raises_for_hidden(tangle):
    view = TangleView(tangle, 0)
    with pytest.raises(KeyError, match="not visible"):
        view.get("r1")


def test_view_approvers_filtered(tangle):
    assert TangleView(tangle, 0).approvers("r0a") == []
    assert TangleView(tangle, 1).approvers("r0a") == ["r1"]


def test_genesis_always_visible(tangle):
    view = TangleView(tangle, -5)
    assert GENESIS_ID in view
    assert view.tips() == [GENESIS_ID]


def test_view_cumulative_weight(tangle):
    assert TangleView(tangle, 2).cumulative_weight("r0a") == 3  # self + r1 + r2
    assert TangleView(tangle, 1).cumulative_weight("r0a") == 2
    assert TangleView(tangle, 0).cumulative_weight("r0a") == 1


def test_view_is_tip(tangle):
    view = TangleView(tangle, 0)
    assert view.is_tip("r0a")
    assert not view.is_tip(GENESIS_ID)
    assert not view.is_tip("r1")  # hidden


def test_view_approval_edges(tangle):
    edges = {
        (a.tx_id, b.tx_id) for a, b in TangleView(tangle, 1).approval_edges()
    }
    assert edges == {("r1", "r0a"), ("r1", "r0b")}


def test_view_works_with_selectors(tangle, rng):
    from repro.dag.tip_selection import RandomTipSelector

    view = TangleView(tangle, 0)
    tips = RandomTipSelector().select_tips(view, 2, rng)
    assert set(tips) <= {"r0a", "r0b"}


def _naive_tips(view):
    """The historical quadratic formulation: per-transaction ``approvers``
    calls, each re-validating visibility through the view's ``get``."""
    return sorted(
        tx.tx_id for tx in view.transactions() if not view.approvers(tx.tx_id)
    )


def test_one_pass_tips_equal_naive_on_random_dags(rng):
    """The single filtered pass must agree with the naive per-transaction
    formulation on every visibility bound of randomized DAGs."""
    for trial in range(5):
        dag_rng = np.random.default_rng(100 + trial)
        tangle = Tangle(w())
        ids = [GENESIS_ID]
        for i in range(40):
            k = int(dag_rng.integers(1, 3))
            parents = tuple(
                dict.fromkeys(
                    ids[int(dag_rng.integers(0, len(ids)))] for _ in range(k)
                )
            )
            round_index = i // 5
            tangle.add(Transaction(f"t{i}", parents, w(), i % 4, round_index))
            ids.append(f"t{i}")
        for max_round in range(-1, 9):
            view = TangleView(tangle, max_round)
            assert view.tips() == _naive_tips(view)


def test_one_pass_tips_equal_naive_on_timed_views(rng):
    """Same pin for the async simulator's delay-bounded view, with and
    without an observer exemption."""
    dag_rng = np.random.default_rng(7)
    tangle = Tangle(w())
    ids = [GENESIS_ID]
    visible_from = {GENESIS_ID: 0.0}
    published_at = {GENESIS_ID: 0.0}
    for i in range(30):
        parents = tuple(
            dict.fromkeys(
                ids[int(dag_rng.integers(0, len(ids)))] for _ in range(2)
            )
        )
        tangle.add(Transaction(f"t{i}", parents, w(), i % 3, i))
        ids.append(f"t{i}")
        published_at[f"t{i}"] = float(i)
        visible_from[f"t{i}"] = float(i) + float(dag_rng.exponential(4.0))
    for now in [0.0, 5.0, 13.5, 40.0, 1e9]:
        for observer in [None, 0, 1]:
            view = TimedTangleView(
                tangle,
                visible_from,
                now,
                observer=observer,
                published_at=published_at,
            )
            assert view.tips() == _naive_tips(view)

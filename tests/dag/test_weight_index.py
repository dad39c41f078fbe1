"""Randomized verification of the tangle's cumulative weights.

Weights are a plane of the tangle's snapshot, extended with every
publish-epoch delta.  The invariant: after any interleaving of
``add()`` calls and queries, ``cumulative_weight(tx)`` equals the
from-scratch future-cone recount ``recount_cumulative_weight(tx)`` for
every transaction.
"""

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.view import TangleView


def random_tangle_ids(tangle, rng, count, *, start_index=0, max_parents=3):
    """Grow ``tangle`` by ``count`` random transactions; returns new ids."""
    ids = [tx.tx_id for tx in tangle.transactions()]
    new_ids = []
    for i in range(start_index, start_index + count):
        num_parents = int(rng.integers(1, max_parents + 1))
        parents = tuple(
            dict.fromkeys(
                ids[int(rng.integers(0, len(ids)))] for _ in range(num_parents)
            )
        )
        tx = Transaction(f"w{i}", parents, [np.zeros(1)], i % 7, i // 5)
        tangle.add(tx)
        ids.append(tx.tx_id)
        new_ids.append(tx.tx_id)
    return new_ids


def assert_index_matches_recount(tangle):
    for tx in tangle.transactions():
        assert tangle.cumulative_weight(tx.tx_id) == tangle.recount_cumulative_weight(
            tx.tx_id
        ), f"index diverged at {tx.tx_id}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_incremental_index_matches_recount_under_interleaving(seed):
    rng = np.random.default_rng(seed)
    tangle = Tangle([np.zeros(1)])
    grown = 0
    for _burst in range(6):
        burst = int(rng.integers(1, 20))
        random_tangle_ids(tangle, rng, burst, start_index=grown)
        grown += burst
        # interleaved queries: a random sample plus genesis every burst
        ids = [tx.tx_id for tx in tangle.transactions()]
        for tx_id in rng.choice(ids, size=min(10, len(ids)), replace=False):
            assert tangle.cumulative_weight(
                str(tx_id)
            ) == tangle.recount_cumulative_weight(str(tx_id))
        assert tangle.cumulative_weight(GENESIS_ID) == len(tangle)
    assert_index_matches_recount(tangle)


def test_genesis_weight_counts_everything():
    rng = np.random.default_rng(9)
    tangle = Tangle([np.zeros(1)])
    random_tangle_ids(tangle, rng, 40)
    # everything approves genesis transitively
    assert tangle.cumulative_weight(GENESIS_ID) == 41


def test_tip_weight_is_one():
    tangle = Tangle([np.zeros(1)])
    tangle.add(Transaction("a", (GENESIS_ID,), [np.zeros(1)], 0, 0))
    tangle.add(Transaction("b", ("a",), [np.zeros(1)], 0, 1))
    assert tangle.cumulative_weight("b") == 1
    assert tangle.cumulative_weight("a") == 2
    assert tangle.cumulative_weight(GENESIS_ID) == 3


def test_diamond_counts_shared_future_once():
    tangle = Tangle([np.zeros(1)])
    tangle.add(Transaction("a", (GENESIS_ID,), [np.zeros(1)], 0, 0))
    tangle.add(Transaction("b", (GENESIS_ID,), [np.zeros(1)], 1, 0))
    tangle.add(Transaction("c", ("a", "b"), [np.zeros(1)], 2, 1))
    # c approves both a and b; each of a, b has future cone {c}
    assert tangle.cumulative_weight("a") == 2
    assert tangle.cumulative_weight("b") == 2
    assert tangle.cumulative_weight(GENESIS_ID) == 4


def test_dirty_lazy_rebuild():
    rng = np.random.default_rng(5)
    tangle = Tangle([np.zeros(1)])
    random_tangle_ids(tangle, rng, 15)
    assert tangle.cumulative_weight(GENESIS_ID) == 16  # weights materialized
    # bulk growth with no query in between: adds do no weight work, and
    # the next query extends the weights by the whole delta at once
    random_tangle_ids(tangle, rng, 15, start_index=15)
    ids = [tx.tx_id for tx in tangle.transactions()]
    np.testing.assert_array_equal(
        tangle.cumulative_weights(ids),
        [tangle.recount_cumulative_weight(tx_id) for tx_id in ids],
    )


def test_unknown_id_raises():
    tangle = Tangle([np.zeros(1)])
    with pytest.raises(KeyError):
        tangle.cumulative_weight("nope")


def test_full_visibility_view_delegates_to_index():
    rng = np.random.default_rng(11)
    tangle = Tangle([np.zeros(1)])
    random_tangle_ids(tangle, rng, 30)
    view = TangleView(tangle, max(tx.round_index for tx in tangle.transactions()))
    for tx in tangle.transactions():
        assert view.cumulative_weight(tx.tx_id) == tangle.cumulative_weight(tx.tx_id)


def test_truncated_view_counts_only_visible():
    tangle = Tangle([np.zeros(1)])
    tangle.add(Transaction("a", (GENESIS_ID,), [np.zeros(1)], 0, 0))
    tangle.add(Transaction("b", ("a",), [np.zeros(1)], 0, 1))
    tangle.add(Transaction("c", ("b",), [np.zeros(1)], 0, 2))
    view = TangleView(tangle, 1)  # c (round 2) hidden
    assert view.cumulative_weight("a") == 2
    assert tangle.cumulative_weight("a") == 3

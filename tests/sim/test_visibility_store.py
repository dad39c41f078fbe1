"""The engine's visibility block stores.

Visibility columns and the per-link arrival table are
:class:`~repro.utils.blocks.BlockStore` s that grow by fixed blocks of
transaction rows.  Pinned here: the block size changes nothing
observable (trace and tangle are identical with tiny blocks), every
series read through the store equals a dense table built from the
writes, a view made early reads rows written after it, and the store
never holds more than one block of slack.
"""

import hashlib

import numpy as np
import pytest

from repro.dag.walk_engine import snapshot_for
from repro.sim import EventDrivenTangleLearning, FaultModel, SimConfig, StalenessPolicy
from repro.utils import blocks

LINK_FAULTS = SimConfig(
    quantum=0.5,
    staleness=StalenessPolicy(mode="polynomial"),
    faults=FaultModel(jitter=0.3, drop_rate=0.2, duplicate_rate=0.2),
)


def make_engine(sim_dataset, logistic_builder, sim_train_config, sim_dag_config):
    return EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config=LINK_FAULTS, seed=5,
    )


def fingerprint(engine) -> str:
    """sha256 over every event field and every published model."""
    digest = hashlib.sha256(repr([vars(e) for e in engine.events]).encode())
    for tx in engine.tangle.transactions():
        digest.update(tx.tx_id.encode())
        digest.update(engine.tangle.flat_weights(tx.tx_id).tobytes())
    return digest.hexdigest()


def rounded_up(rows: int, block: int) -> int:
    return -(-rows // block) * block


def allocated(store) -> int:
    return sum(block.nbytes for block in store.blocks)


def test_block_size_changes_nothing_observable(
    monkeypatch, sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    runs = []
    for block in (blocks.BLOCK_ROWS, 4):
        monkeypatch.setattr(blocks, "BLOCK_ROWS", block)
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config
        )
        engine.run_until(10.0)
        assert len(engine._arrival.blocks) == -(-len(engine.tangle) // block)
        runs.append((fingerprint(engine), dict(engine.fault_stats)))
    assert len(engine.tangle) > 3 * 4, "the run must cross several blocks"
    assert runs[0] == runs[1]
    assert runs[0][1]["dropped_links"] > 0 and runs[0][1]["duplicated_links"] > 0


def test_series_match_a_dense_table_of_the_writes(
    monkeypatch, sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)
    writes: dict[int, dict[int, np.ndarray]] = {}
    store_write = blocks.BlockStore.__setitem__

    def recording_write(column, row, value):
        writes.setdefault(id(column), {})[row] = np.array(value, copy=True)
        store_write(column, row, value)

    monkeypatch.setattr(blocks.BlockStore, "__setitem__", recording_write)
    engine = make_engine(sim_dataset, logistic_builder, sim_train_config, sim_dag_config)
    engine.run_until(2.0)
    slot = engine._slot[0]
    early = engine._view_for(0, engine.now, exempt=False)
    engine.run_until(10.0)
    rows = len(engine.tangle)
    assert rows > 3 * 4

    lanes = len(engine._client_order)
    dense = np.full((lanes, rows), np.inf)
    for row, arrivals in writes[id(engine._arrival)].items():
        dense[:, row] = arrivals
    for lane in range(lanes):
        np.testing.assert_array_equal(engine._arrival.head(rows, lane=lane), dense[lane])
    for store, fill in (
        (engine._visible_at, np.inf),
        (engine._published_at, np.nan),
        (engine._issuer, -1),
    ):
        reference = np.full(rows, fill, dtype=store.blocks[0].dtype)
        for row, value in writes[id(store)].items():
            reference[row] = value
        np.testing.assert_array_equal(store.head(rows), reference)

    # A view made before most rows existed reads them through the store.
    mask = early.mask(snapshot_for(engine.tangle))
    np.testing.assert_array_equal(mask, dense[slot] <= early.now)


@pytest.mark.parametrize("block", [4, 7])
def test_store_slack_is_at_most_one_block(
    monkeypatch, block, sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", block)
    engine = make_engine(sim_dataset, logistic_builder, sim_train_config, sim_dag_config)
    lanes = len(engine._client_order)
    seen_rows = set()
    while engine.now < 10.0:
        engine.step()
        rows = len(engine.tangle)
        seen_rows.add(rows)
        bound = rounded_up(rows, block) * 8
        assert allocated(engine._arrival) <= bound * lanes
        for store in (engine._visible_at, engine._published_at, engine._issuer):
            assert allocated(store) <= bound
    assert max(seen_rows) > 3 * block


def test_undelivered_rows_read_as_never_arrived(
    monkeypatch, sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Round barriers publish without per-link delivery: their arrival
    rows exist as soon as the transaction does, reading ``inf``."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)
    engine = make_engine(sim_dataset, logistic_builder, sim_train_config, sim_dag_config)
    engine.run_rounds(2, clients_per_round=4)
    rows = len(engine.tangle)
    assert rows > 4, "the barrier rows must open a second block"
    expected = np.r_[0.0, np.full(rows - 1, np.inf)]
    for lane in range(len(engine._client_order)):
        np.testing.assert_array_equal(engine._arrival.head(rows, lane=lane), expected)
    assert engine._view_for(0, 100.0, exempt=False).tips() == [engine.tangle.genesis.tx_id]

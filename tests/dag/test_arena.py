"""Weight arena: interning, views, growth, pickling, tangle integration."""

import io
import pickle
import zipfile

import numpy as np
import pytest

from repro.dag.arena import WeightArena, shared_rows
from repro.dag.persistence import save_tangle
from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.nn.serialization import FlatSpec
from repro.utils import blocks

SHAPES = ((3, 2), (2,))


@pytest.fixture
def spec():
    return FlatSpec(SHAPES)


def weight_list(rng):
    return [rng.normal(size=s) for s in SHAPES]


# ---------------------------------------------------------------- arena
def test_intern_and_row_roundtrip(spec, rng):
    arena = WeightArena(spec)
    flat = spec.flatten(weight_list(rng))
    row = arena.intern(flat)
    np.testing.assert_array_equal(arena.row(row), flat)
    assert len(arena) == 1


def test_rows_are_read_only_views(spec, rng):
    arena = WeightArena(spec)
    arena.intern(spec.flatten(weight_list(rng)))
    row = arena.row(0)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_growth_preserves_existing_rows(spec, rng, monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 2)
    arena = WeightArena(spec)
    flats = [spec.flatten(weight_list(rng)) for _ in range(9)]
    for f in flats:
        arena.intern(f)
    for i, f in enumerate(flats):
        np.testing.assert_array_equal(arena.row(i), f)


@pytest.mark.parametrize("shared", [False, True], ids=["heap", "shared"])
def test_row_views_survive_growth_past_a_block(spec, rng, monkeypatch, shared):
    """A written row never moves: a view taken before the arena grows
    past its first block still aliases the row afterwards."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)
    with WeightArena(spec) as arena:
        if shared:
            arena.to_shared()
        arena.intern(spec.flatten(weight_list(rng)))
        before = arena.row(0)
        run = arena.rows([0])
        for _ in range(9):
            arena.intern(spec.flatten(weight_list(rng)))
        assert np.shares_memory(before, arena.row(0))
        assert np.shares_memory(run, arena.row(0))


def test_contiguous_rows_slice_is_zero_copy(spec, rng, monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 8)
    arena = WeightArena(spec)
    for _ in range(12):
        arena.intern(spec.flatten(weight_list(rng)))
    block = arena.rows(range(2, 5))
    assert block.shape == (3, spec.total)
    assert np.shares_memory(block, arena.row(2))
    assert not block.flags.writeable
    gathered = arena.rows([0, 4, 2])  # arbitrary order pays one gather
    np.testing.assert_array_equal(gathered[1], arena.row(4))
    # Across blocks every row is copied once, runs included.
    for indices in ([6, 7, 8, 9], [11, 0, 9, 3]):
        stacked = arena.rows(indices)
        np.testing.assert_array_equal(
            stacked, np.stack([arena.row(i) for i in indices])
        )
        assert not np.shares_memory(stacked, arena.row(indices[0]))


def test_row_bounds_checked(spec):
    arena = WeightArena(spec)
    with pytest.raises(IndexError):
        arena.row(0)
    with pytest.raises(IndexError):
        arena.rows([0])


def test_float32_storage_rounds(spec, rng):
    arena = WeightArena(spec, dtype=np.float32)
    flat = spec.flatten(weight_list(rng))
    arena.intern(flat)
    assert arena.row(0).dtype == np.float32
    np.testing.assert_array_equal(arena.row(0), flat.astype(np.float32))
    with pytest.raises(ValueError, match="float64 or float32"):
        WeightArena(spec, dtype=np.int32)


def test_pickle_ships_only_live_rows(spec, rng, monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 64)
    arena = WeightArena(spec)
    arena.intern(spec.flatten(weight_list(rng)))
    payload = pickle.dumps(arena)
    # 1 live row of float64s (plus pickle framing), not the 64 rows of
    # its block
    assert len(payload) < 64 * spec.total * 8 // 2
    restored = pickle.loads(payload)
    assert len(restored) == 1
    np.testing.assert_array_equal(restored.row(0), arena.row(0))
    restored.intern(spec.flatten(weight_list(rng)))  # still appendable


# ----------------------------------------------------- tangle integration
def test_tangle_interns_transactions(rng):
    genesis = weight_list(rng)
    tangle = Tangle(genesis)
    assert tangle.genesis.arena_bound
    payload = weight_list(rng)
    tangle.add(Transaction("t1", (GENESIS_ID,), payload, 0, 0))
    tx = tangle.get("t1")
    assert tx.arena_bound
    assert len(tangle.arena) == 2
    # compatibility view: same values, zero-copy views into the arena row
    for stored, original in zip(tx.model_weights, payload):
        np.testing.assert_array_equal(stored, original)
        assert np.shares_memory(stored, tangle.arena.row(1))
    # interning copied: mutating the caller's arrays cannot reach the DAG
    payload[0][:] = 123.0
    assert not np.allclose(tx.model_weights[0], 123.0)


def test_model_views_survive_arena_growth(rng, monkeypatch):
    """Per-layer views taken before the arena grows past a block still
    alias the transaction's row afterwards."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 4)
    genesis = weight_list(rng)
    tangle = Tangle(genesis)
    before = tangle.genesis.model_weights
    for _ in range(9):
        tangle.add(
            Transaction(f"g{len(tangle)}", (GENESIS_ID,), weight_list(rng), 0, 0)
        )
    after = tangle.genesis.model_weights
    for b, a, g in zip(before, after, genesis):
        assert np.shares_memory(b, tangle.arena.row(0))
        assert np.shares_memory(a, tangle.arena.row(0))
        np.testing.assert_array_equal(a, g)


def test_tangle_flat_weights_accessor(rng):
    tangle = Tangle(weight_list(rng))
    flat = tangle.flat_weights(GENESIS_ID)
    np.testing.assert_array_equal(flat, tangle.spec.flatten(tangle.genesis.model_weights))
    with pytest.raises(KeyError):
        tangle.flat_weights("nope")


def _tangle_state(tangle):
    return len(tangle), tangle.tips(), len(tangle.arena), tangle.transactions()


def test_add_rejects_a_foreign_shaped_model(rng):
    """A model laid out unlike genesis never enters the tangle: ``add``
    raises before any state changes, so the arena rows stay the
    insertion positions."""
    tangle = Tangle(weight_list(rng))
    tangle.add(Transaction("t0", (GENESIS_ID,), weight_list(rng), 0, 0))
    before = _tangle_state(tangle)
    foreign = [
        Transaction("alien", ("t0",), [rng.normal(size=(5,))], 0, 0),
        Transaction.from_flat("flat", ("t0",), np.zeros(5), FlatSpec(((5,),)), 0, 0),
    ]
    for tx in foreign:
        with pytest.raises(ValueError):
            tangle.add(tx)
        assert _tangle_state(tangle) == before
        assert not tx.arena_bound and tx.tx_id not in tangle
    tangle.add(Transaction("t1", ("t0",), weight_list(rng), 0, 0))
    assert tangle.get("t1").arena_location() == (tangle.arena, 2)


def test_add_rejects_a_transaction_of_another_tangle(rng):
    tangle, other = Tangle(weight_list(rng)), Tangle(weight_list(rng))
    tx = Transaction("t0", (GENESIS_ID,), weight_list(rng), 0, 0)
    other.add(tx)
    before = _tangle_state(tangle)
    with pytest.raises(ValueError, match="another tangle"):
        tangle.add(tx)
    assert _tangle_state(tangle) == before
    assert tx.arena_location() == (other.arena, 1)


def test_shared_rows_stacks_one_arena_or_raises(rng):
    tangle = Tangle(weight_list(rng))
    for i in range(4):
        tangle.add(Transaction(f"t{i}", (GENESIS_ID,), weight_list(rng), 0, 0))
    txs = tangle.transactions()
    spec = tangle.spec
    block = shared_rows(txs[1:4], spec)  # contiguous: a zero-copy slice
    assert np.shares_memory(block, tangle.arena.row(1))
    scattered = shared_rows([txs[3], txs[0], txs[3]], spec)  # one gather
    np.testing.assert_array_equal(
        scattered, np.stack([tx.flat_vector(spec) for tx in (txs[3], txs[0], txs[3])])
    )
    other = Tangle(weight_list(rng))
    unbound = Transaction("u", (GENESIS_ID,), weight_list(rng), 0, 0)
    for batch, layout in (
        ([txs[1], other.genesis], spec),  # two arenas
        ([txs[1], unbound], spec),  # a transaction outside any tangle
        (txs, FlatSpec(((8,),))),  # another layout
        ([], spec),
    ):
        with pytest.raises(ValueError):
            shared_rows(batch, layout)


def test_transaction_from_flat(rng):
    tangle = Tangle(weight_list(rng))
    flat = tangle.spec.flatten(weight_list(rng))
    tx = Transaction.from_flat("f1", (GENESIS_ID,), flat, tangle.spec, 3, 0)
    # readable before interning, and after
    np.testing.assert_array_equal(tx.model_weights[1], flat[6:])
    tangle.add(tx)
    assert tx.arena_bound
    np.testing.assert_array_equal(tangle.flat_weights("f1"), flat)
    with pytest.raises(ValueError, match="vector"):
        Transaction.from_flat("f2", (), flat[:-1], tangle.spec, 0, 0)


def test_persistence_preserves_store_dtype(rng, tmp_path):
    from repro.dag.persistence import load_tangle, save_tangle

    tangle = Tangle(weight_list(rng), store_dtype=np.float32)
    tangle.add(Transaction("t0", (GENESIS_ID,), weight_list(rng), 0, 0))
    restored = load_tangle(save_tangle(tangle, tmp_path / "t32"))
    assert restored.arena.dtype == np.float32
    for a, b in zip(restored.get("t0").model_weights, tangle.get("t0").model_weights):
        np.testing.assert_array_equal(a, b)
    # float64 (default) round-trips as float64
    tangle64 = Tangle(weight_list(rng))
    assert load_tangle(save_tangle(tangle64, tmp_path / "t64")).arena.dtype == np.float64


def test_float32_tangle_stores_rounded_models(rng):
    genesis = weight_list(rng)
    tangle = Tangle(genesis, store_dtype=np.float32)
    assert tangle.arena.dtype == np.float32
    stored = tangle.genesis.model_weights
    for s, g in zip(stored, genesis):
        assert s.dtype == np.float32
        np.testing.assert_array_equal(s, g.astype(np.float32))


def test_pickled_tangle_roundtrips_models(rng):
    tangle = Tangle(weight_list(rng))
    for i in range(4):
        tangle.add(Transaction(f"t{i}", (GENESIS_ID,), weight_list(rng), i, 0))
    restored = pickle.loads(pickle.dumps(tangle))
    assert len(restored) == len(tangle)
    for tx_id in ["genesis", "t0", "t3"]:
        for a, b in zip(
            restored.get(tx_id).model_weights, tangle.get(tx_id).model_weights
        ):
            np.testing.assert_array_equal(a, b)
    assert restored.get("t1").arena_bound


# ------------------------------------------------------------ block size
def _arena_observables(block_rows, monkeypatch, tmp_path):
    """Rows, pickles, checkpoint members and a compaction of one fixed
    tangle built with ``block_rows``-row blocks."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(11)
    tangle = Tangle(weight_list(rng))
    for i in range(23):
        tangle.add(
            Transaction(f"t{i}", (tangle.tips()[0],), weight_list(rng), 0, i)
        )
    arena = tangle.arena
    index_sets = [np.arange(len(arena)), [3, 4, 5, 6, 7, 8], [20, 1, 13, 1], [9]]
    stacks = [arena.rows(indices).tobytes() for indices in index_sets]
    pickles = (pickle.dumps(arena), pickle.dumps(tangle))
    path = save_tangle(tangle, tmp_path / f"blocks{block_rows}")
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    tangle.compact(keep_last=10, spill_path=tmp_path / f"spill{block_rows}.bin")
    compacted = (
        tangle.arena.rows(np.arange(len(tangle))).tobytes(),
        pickle.dumps(tangle.arena),
    )
    return stacks, pickles, members, compacted


def test_block_size_changes_nothing_observable(monkeypatch, tmp_path):
    runs = [
        _arena_observables(block_rows, monkeypatch, tmp_path)
        for block_rows in (blocks.BLOCK_ROWS, 4, 7)
    ]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    members = runs[0][2]
    assert sorted(members) == ["__tangle_meta__.npy", "rows.npy"]
    rows = np.load(io.BytesIO(members["rows.npy"]))
    assert rows.shape == (24, FlatSpec(SHAPES).total)

"""Shared-memory arena backing: handles, growth, attachment, lifecycle."""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.dag.arena import HANDLE_NBYTES, WeightArena
from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.nn.serialization import FlatSpec
from repro.utils import blocks
from repro.utils import shm as shm_registry

SHAPES = ((3, 2), (2,))


@pytest.fixture
def spec():
    return FlatSpec(SHAPES)


def weight_list(rng):
    return [rng.normal(size=s) for s in SHAPES]


def segment_exists(name: str) -> bool:
    return Path("/dev/shm", name).exists()


# ------------------------------------------------------------ lifecycle
def test_to_shared_is_idempotent_and_bit_exact(spec, rng):
    with WeightArena(spec) as arena:
        flats = [spec.flatten(weight_list(rng)) for _ in range(3)]
        for f in flats:
            arena.intern(f)
        assert arena.to_shared() is arena
        assert arena.is_shared and not arena.is_attached
        names = arena.segment_names
        assert arena.to_shared() is arena  # second call: no-op
        assert arena.segment_names == names
        for i, f in enumerate(flats):
            np.testing.assert_array_equal(arena.row(i), f)
        arena.intern(flats[0])  # owners still append after migration
        assert len(arena) == 4


def test_close_unlinks_and_reverts_to_heap(spec, rng):
    arena = WeightArena(spec).to_shared()
    flat = spec.flatten(weight_list(rng))
    arena.intern(flat)
    (name,) = arena.segment_names
    assert segment_exists(name)
    arena.close()
    assert not segment_exists(name)
    assert not arena.is_shared and arena.segment_names == ()
    # still fully usable — and re-shareable under a fresh name
    np.testing.assert_array_equal(arena.row(0), flat)
    arena.intern(flat)
    arena.to_shared()
    assert arena.segment_names != (name,)
    arena.close()
    arena.close()  # idempotent


def test_shared_growth_republishes_segment(spec, rng, monkeypatch):
    """Shared growth publishes each new block as its own segment: the
    segments already published keep their names and are never unlinked
    or republished, and close() unlinks every block's segment."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 2)
    arena = WeightArena(spec).to_shared()
    flats = [spec.flatten(weight_list(rng)) for _ in range(7)]
    for f in flats[:2]:
        arena.intern(f)
    first = arena.segment_names
    for f in flats[2:]:
        arena.intern(f)
    names = arena.segment_names
    assert len(first) == 1 and len(names) == 4
    assert names[:1] == first  # appended, never republished
    assert all(segment_exists(name) for name in names)
    for i, f in enumerate(flats):
        np.testing.assert_array_equal(arena.row(i), f)
    arena.close()
    assert not any(segment_exists(name) for name in names)


def test_stale_generation_reattaches_after_growth(spec, rng, monkeypatch):
    """A handle pickled before growth keeps reading its rows; a handle
    pickled after growth attaches the new segments and reads them all;
    attached mappings stay valid after the owner unlinks."""
    monkeypatch.setattr(blocks, "BLOCK_ROWS", 2)
    arena = WeightArena(spec).to_shared()
    flats = [spec.flatten(weight_list(rng)) for _ in range(7)]
    for f in flats[:2]:
        arena.intern(f)
    early = pickle.loads(pickle.dumps(arena))  # round 1 attach
    for f in flats[2:]:
        arena.intern(f)

    assert len(early) == 2
    for i, f in enumerate(flats[:2]):
        np.testing.assert_array_equal(early.row(i), f)
    late = pickle.loads(pickle.dumps(arena))  # next round's handle
    assert late.segment_names == arena.segment_names and len(late) == 7
    for i, f in enumerate(flats):
        np.testing.assert_array_equal(late.row(i), f)

    arena.close()
    for i, f in enumerate(flats):  # attached mappings stay valid
        np.testing.assert_array_equal(late.row(i), f)
    for i, f in enumerate(flats[:2]):
        np.testing.assert_array_equal(early.row(i), f)


# ------------------------------------------------------------- pickling
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_shared_pickle_is_attach_by_name_handle(spec, rng, dtype):
    with WeightArena(spec, dtype=dtype).to_shared() as arena:
        flats = [spec.flatten(weight_list(rng)) for _ in range(3)]
        for f in flats:
            arena.intern(f)
        payload = pickle.dumps(arena)
        # a handle, not a slab: a few hundred bytes regardless of rows
        assert len(payload) < 4 * HANDLE_NBYTES
        restored = pickle.loads(payload)
        assert restored.is_attached and restored.is_shared
        assert restored.dtype == np.dtype(dtype)
        assert len(restored) == 3
        for i, f in enumerate(flats):
            np.testing.assert_array_equal(restored.row(i), f.astype(dtype))
        # same bytes, not a copy: attachments view the owner's memory
        assert restored.segment_names == arena.segment_names
        with pytest.raises(RuntimeError, match="read-only attached"):
            restored.intern(flats[0])


def test_heap_pickle_form_unchanged_by_shm_plane(spec, rng):
    arena = WeightArena(spec)
    arena.intern(spec.flatten(weight_list(rng)))
    restored = pickle.loads(pickle.dumps(arena))
    assert not restored.is_shared and not restored.is_attached
    np.testing.assert_array_equal(restored.row(0), arena.row(0))


# ------------------------------------------------------- cross-process
def _read_rows(handle_bytes):
    """Worker body: attach by handle and report what it sees."""
    arena = pickle.loads(handle_bytes)
    return len(arena), [np.array(arena.row(i)) for i in range(len(arena))]


@pytest.fixture
def fork_pool():
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("platform without fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        yield pool


def test_rows_visible_across_processes_after_intern(spec, rng, fork_pool):
    with WeightArena(spec).to_shared() as arena:
        flats = [spec.flatten(weight_list(rng)) for _ in range(2)]
        for f in flats:
            arena.intern(f)
        count, rows = fork_pool.submit(_read_rows, pickle.dumps(arena)).result()
        assert count == 2
        for got, want in zip(rows, flats):
            np.testing.assert_array_equal(got, want)

        # rows interned between rounds become visible through the *same*
        # segment — the persistent worker re-reads, nothing re-ships
        late = spec.flatten(weight_list(rng))
        arena.intern(late)  # same block: no new segment
        count, rows = fork_pool.submit(_read_rows, pickle.dumps(arena)).result()
        assert count == 3
        np.testing.assert_array_equal(rows[2], late)


def _tangle_row(payload):
    tangle = pickle.loads(payload)
    return np.array(tangle.flat_weights("t0"))


def test_shared_tangle_ships_handle_to_workers(rng, fork_pool):
    with Tangle(weight_list(rng)) as tangle:
        tangle.add(Transaction("t0", (GENESIS_ID,), weight_list(rng), 0, 0))
        tangle.share_memory()
        assert tangle.arena.is_shared
        payload = pickle.dumps(tangle)
        got = fork_pool.submit(_tangle_row, payload).result()
        np.testing.assert_array_equal(got, tangle.flat_weights("t0"))


def test_attachments_never_unlink_owner_segments(spec, rng):
    with WeightArena(spec).to_shared() as arena:
        arena.intern(spec.flatten(weight_list(rng)))
        attached = pickle.loads(pickle.dumps(arena))
        attached.close()  # attached side: must be a no-op
        assert attached.is_attached and attached.is_shared
        assert all(segment_exists(name) for name in arena.segment_names)


def test_registry_release_all_reaps_owned_segments(spec, rng):
    arena = WeightArena(spec).to_shared()  # deliberately never closed
    arena.intern(spec.flatten(weight_list(rng)))
    (name,) = arena.segment_names
    assert name in shm_registry.owned_segment_names()
    shm_registry.release_all()  # the atexit safety net
    assert not segment_exists(name)
    assert name not in shm_registry.owned_segment_names()

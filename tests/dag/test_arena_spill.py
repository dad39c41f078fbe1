"""WeightArena spill backing: the archive tier of the storage ladder.

``to_spilled`` moves an arena's rows into a memory-mapped file — the
cold end of heap -> shm -> mmap.  A spilled arena is a frozen archive:
zero resident bytes, read-only (``intern`` refuses), picklable as a
tiny attach-by-path handle, and restorable to heap backing (deleting
the file) via ``close``.  These tests pin that lifecycle plus the
unnamed-spill hygiene (temp files tracked and reaped).
"""

import os
import pickle

import numpy as np
import pytest

from repro.dag import arena as arena_mod
from repro.dag.arena import WeightArena
from repro.nn.serialization import FlatSpec


@pytest.fixture
def arena():
    spec = FlatSpec(((3, 2), (2,)))
    a = WeightArena(spec, dtype=np.float64)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a.intern(rng.normal(size=spec.total))
    return a


def test_to_spilled_moves_rows_to_disk(arena, tmp_path):
    rows_before = [np.array(arena.row(i)) for i in range(5)]
    path = tmp_path / "arena.bin"
    result = arena.to_spilled(path)
    assert result is arena  # fluent, like to_shared
    assert arena.is_spilled and arena.spill_path == path
    assert arena.resident_nbytes == 0
    assert path.stat().st_size > 0
    for i, expected in enumerate(rows_before):
        np.testing.assert_array_equal(arena.row(i), expected)


def test_to_spilled_is_idempotent(arena, tmp_path):
    arena.to_spilled(tmp_path / "a.bin")
    arena.to_spilled(tmp_path / "b.bin")  # no-op: already spilled
    assert arena.spill_path == tmp_path / "a.bin"
    assert not (tmp_path / "b.bin").exists()
    arena.close()


def test_spilled_arena_refuses_intern(arena, tmp_path):
    arena.to_spilled(tmp_path / "arena.bin")
    with pytest.raises(RuntimeError, match="archival"):
        arena.intern(np.zeros(arena.spec.total))
    arena.close()


def test_spilled_arena_refuses_to_share(arena, tmp_path):
    """Sharing an archive would leave it both spilled and shared, with
    resident bytes misreported as 0 and the file surviving one close."""
    path = tmp_path / "arena.bin"
    arena.to_spilled(path)
    with pytest.raises(RuntimeError, match="archival"):
        arena.to_shared()
    assert arena.is_spilled and not arena.is_shared
    arena.close()  # one close restores heap and deletes the file
    assert not arena.is_spilled and not path.exists()
    assert arena.resident_nbytes == arena.nbytes > 0


def test_close_restores_heap_and_deletes_file(arena, tmp_path):
    rows_before = [np.array(arena.row(i)) for i in range(5)]
    path = tmp_path / "arena.bin"
    arena.to_spilled(path)
    arena.close()
    assert not path.exists()
    assert not arena.is_spilled
    assert arena.resident_nbytes > 0
    for i, expected in enumerate(rows_before):
        np.testing.assert_array_equal(arena.row(i), expected)
    # Heap backing is live again: appends work.
    arena.intern(np.zeros(arena.spec.total))


def test_pickle_ships_a_handle_not_the_slab(arena, tmp_path):
    arena.to_spilled(tmp_path / "arena.bin")
    blob = pickle.dumps(arena)
    assert len(blob) < 1024  # a path, not megabytes of rows
    clone = pickle.loads(blob)
    assert clone.is_spilled and clone.resident_nbytes == 0
    for i in range(5):
        np.testing.assert_array_equal(clone.row(i), arena.row(i))
    # The attached clone is read-only and must NOT delete the owner's
    # file on close.
    with pytest.raises(RuntimeError):
        clone.intern(np.zeros(arena.spec.total))
    clone.close()
    assert (tmp_path / "arena.bin").exists()
    arena.close()


def test_unnamed_spill_uses_tracked_temp_file(arena):
    arena.to_spilled()
    path = arena.spill_path
    assert path is not None and path.exists()
    assert path in arena_mod._TEMP_SPILLS
    arena.close()
    assert not os.path.exists(path)
    assert path not in arena_mod._TEMP_SPILLS


def test_spill_after_shared_releases_the_segment(arena, tmp_path):
    arena.to_shared()
    assert arena.is_shared
    arena.to_spilled(tmp_path / "arena.bin")
    assert not arena.is_shared and arena.is_spilled
    arena.close()


def test_attached_arena_cannot_spill(arena, tmp_path):
    """Only the owner picks the backing: a shm-attached clone may not
    migrate the segment out from under the owner.  (A clone of an
    already-spilled arena is simply a no-op — idempotence wins.)"""
    arena.to_shared()
    try:
        clone = pickle.loads(pickle.dumps(arena))
        with pytest.raises(RuntimeError):
            clone.to_spilled(tmp_path / "other.bin")
        clone.close()
    finally:
        arena.close()
    assert not (tmp_path / "other.bin").exists()

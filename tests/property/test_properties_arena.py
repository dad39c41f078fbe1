"""A stateful model check of the weight arena (hypothesis).

A ``RuleBasedStateMachine`` drives one :class:`WeightArena` through
random interleavings of intern, row, rows (contiguous runs and index
sets, inside one block and across blocks), to_shared, to_spilled,
close, drain and a pickle round trip, on tiny blocks so every run
crosses several.  After every step the arena must agree with a plain list of
the rows it was given:

- every row and every stacked read equals the list;
- ``len``, the backing flags and ``resident_nbytes`` agree with the
  backing the machine chose;
- a row view taken while the backing stays the same still aliases the
  row, however far the arena grew since;
- a spilled arena refuses ``intern`` and ``to_shared``;
- ``close`` unlinks every block segment or deletes the spill file;
- ``drain`` moves the kept rows, in order, into a fresh arena of the
  same tier and the others into an archive, leaves the old arena empty
  with its segments unlinked and its spill file deleted, while row
  views and a pin taken before it still read the old rows — and every
  old block's buffer is released once those readers let go.
"""

import gc
import os
import pickle
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.dag.arena import WeightArena
from repro.nn.serialization import FlatSpec
from repro.utils import blocks
from repro.utils import shm as shm_registry

# Tier-1 keeps the example budget small; the dedicated CI chaos job
# widens the sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))

SPEC = FlatSpec(((2, 2), (3,)))
BLOCK_ROWS = 3


class ArenaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arena = WeightArena(SPEC)
        self.rows: list[np.ndarray] = []
        self.views: list[tuple[int, np.ndarray]] = []  # taken this backing
        self.tmp = tempfile.TemporaryDirectory(prefix="repro-arena-sm-")

    def expected(self, indices) -> np.ndarray:
        return np.array([self.rows[i] for i in indices]).reshape(-1, SPEC.total)

    @rule(seed=st.integers(0, 2**16))
    def intern(self, seed):
        flat = np.random.default_rng(seed).normal(size=SPEC.total)
        if self.arena.is_spilled:
            with pytest.raises(RuntimeError, match="archival"):
                self.arena.intern(flat)
            return
        assert self.arena.intern(flat) == len(self.rows)
        self.rows.append(flat)

    @rule(data=st.data())
    def row(self, data):
        index = data.draw(st.integers(-1, len(self.rows)))
        if not 0 <= index < len(self.rows):
            with pytest.raises(IndexError):
                self.arena.row(index)
            return
        view = self.arena.row(index)
        np.testing.assert_array_equal(view, self.rows[index])
        assert not view.flags.writeable
        self.views.append((index, view))

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def contiguous_rows(self, data):
        start = data.draw(st.integers(0, len(self.rows) - 1))
        stop = data.draw(st.integers(start, len(self.rows)))
        stacked = self.arena.rows(range(start, stop))
        np.testing.assert_array_equal(stacked, self.expected(range(start, stop)))

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def scattered_rows(self, data):
        indices = data.draw(
            st.lists(st.integers(0, len(self.rows) - 1), min_size=1, max_size=8)
        )
        np.testing.assert_array_equal(
            self.arena.rows(indices), self.expected(indices)
        )

    @rule(past_end=st.booleans())
    def out_of_range_rows(self, past_end):
        bad = len(self.rows) if past_end else -1
        with pytest.raises(IndexError):
            self.arena.rows([0, bad] if self.rows else [bad])

    @rule()
    def to_shared(self):
        if self.arena.is_spilled:
            with pytest.raises(RuntimeError, match="archival"):
                self.arena.to_shared()
            return
        if not self.arena.is_shared:
            self.views.clear()
        assert self.arena.to_shared() is self.arena

    @rule(named=st.booleans())
    def to_spilled(self, named):
        path = Path(self.tmp.name, "spill.bin") if named else None
        if not self.arena.is_spilled:
            self.views.clear()
        assert self.arena.to_spilled(path) is self.arena

    @rule()
    def close(self):
        if self.arena.is_shared or self.arena.is_spilled:
            self.views.clear()
        names, path = self.arena.segment_names, self.arena.spill_path
        self.arena.close()
        assert not self.arena.is_shared and not self.arena.is_spilled
        assert not set(names) & shm_registry.owned_segment_names()
        assert path is None or not path.exists()

    @rule(data=st.data(), archive=st.booleans())
    def drain(self, data, archive):
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(self.rows), max_size=len(self.rows))
        )
        old, fresh = self.arena, WeightArena(SPEC)
        if old.is_shared:
            fresh.to_shared()
        dropped = [row for row, kept in zip(self.rows, keep) if not kept]
        spill = None
        if archive:
            spill = old.spill_target(len(dropped), Path(self.tmp.name, "archive.bin"))
        pin = old.pin()
        released = watch_release(pin[0])
        names, path, shared = old.segment_names, old.spill_path, old.is_shared

        ranges = list(old.drain(keep, fresh, spill))
        assert [start for start, _ in ranges] == list(
            range(0, len(self.rows), BLOCK_ROWS)
        )
        assert len(old) == 0 and not old.is_shared and not old.is_spilled
        assert not set(names) & shm_registry.owned_segment_names()
        assert path is None or not path.exists()
        assert fresh.is_shared == shared
        everything = range(len(self.rows))
        assert (old.pinned(pin) is old) == (not self.rows)  # only an empty pin
        np.testing.assert_array_equal(
            old.pinned(pin).rows(everything), self.expected(everything)
        )
        assert all((view == self.rows[index]).all() for index, view in self.views)
        if spill is not None:
            assert len(spill) == len(dropped) and spill.is_spilled
            np.testing.assert_array_equal(
                spill.rows(range(len(dropped))),
                np.array(dropped).reshape(-1, SPEC.total),
            )
            spill.close()

        self.arena = fresh
        self.rows = [row for row, kept in zip(self.rows, keep) if kept]
        self.views.clear()
        del pin
        gc.collect()
        assert all(released.values())

    @rule()
    def pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(self.arena))
        assert len(clone) == len(self.rows)
        assert clone.is_shared == self.arena.is_shared
        assert clone.is_spilled == self.arena.is_spilled
        assert clone.is_attached == (self.arena.is_shared or self.arena.is_spilled)
        everything = range(len(self.rows))
        np.testing.assert_array_equal(clone.rows(everything), self.expected(everything))
        clone.close()  # an attached clone never unlinks or deletes
        assert set(self.arena.segment_names) <= shm_registry.owned_segment_names()

    @invariant()
    def agrees_with_the_list(self):
        arena = self.arena
        assert len(arena) == len(self.rows)
        assert not (arena.is_shared and arena.is_spilled)
        assert arena.nbytes == len(self.rows) * SPEC.total * 8
        assert arena.resident_nbytes == (0 if arena.is_spilled else arena.nbytes)
        assert arena.is_spilled == (arena.spill_path is not None)
        if arena.is_spilled:
            assert arena.spill_path.exists()
        for index, view in self.views:
            assert np.shares_memory(view, arena.row(index))

    def teardown(self):
        self.arena.close()
        self.tmp.cleanup()


def buffer_of(array):
    """The object that owns an array's memory: a block's mapping."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array


def watch_release(arrays) -> dict[int, bool]:
    """``{id: released}`` for the buffers of ``arrays``, each flipped to
    True by ``weakref.finalize`` when its buffer is freed."""
    released: dict[int, bool] = {}
    for buffer in map(buffer_of, arrays):
        if id(buffer) not in released:
            released[id(buffer)] = False
            weakref.finalize(buffer, released.__setitem__, id(buffer), True)
    return released


def test_arena_agrees_with_a_list_of_rows():
    with mock.patch.object(blocks, "BLOCK_ROWS", BLOCK_ROWS):
        run_state_machine_as_test(
            ArenaMachine,
            settings=settings(
                deadline=None,
                max_examples=CHAOS_EXAMPLES or 15,
                stateful_step_count=30,
            ),
        )

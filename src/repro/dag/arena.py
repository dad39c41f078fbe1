"""The per-tangle weight arena: one flat row per transaction.

Every transaction of a tangle carries a model with the same architecture
(the genesis model's).  Storing each model as its own list of per-layer
arrays scatters the hottest data in the system across thousands of small
allocations and makes every boundary crossing — aggregation, walk
evaluation, process-pool pickling, persistence — pay per-array overhead.

The :class:`WeightArena` instead keeps all models as flat
(:class:`~repro.nn.serialization.FlatSpec`) rows of one
:class:`~repro.utils.blocks.BlockStore`.  Row ``i`` is the transaction
at insertion position ``i`` (:meth:`~repro.dag.tangle.Tangle.add`
rejects any model it cannot store so).  Like the DAG itself the arena
is append-only: growth appends a block and never moves a written row,
so a row view stays valid for the arena's lifetime, transactions hand
out zero-copy per-layer views, stacked aggregation over rows of one
block is a slice away, and pickling a tangle ships one contiguous
buffer instead of re-pickling every model.

``dtype`` defaults to ``float64`` (bit-identical to the historical
list-of-arrays path).  ``float32`` halves memory and IPC volume at the
cost of rounding every stored model to single precision — evaluation
accuracy is unaffected in practice, but results are no longer
bit-comparable with float64 runs.

**Shared-memory backing.**  :meth:`to_shared` moves each block into its
own named ``multiprocessing.shared_memory`` segment (one bit-exact copy),
and every later block is a new segment.  The pickle form is then an
**attach-by-name handle** (segment names, row count): a few hundred
bytes however many models the tangle holds.  Workers attach each
segment once through :func:`repro.utils.shm.attach_cached` and reuse
the mapping across rounds; a segment never grows or moves, so a handle
pickled before growth keeps reading its rows while the next names one
more segment.  Attached arenas are read-only: only the owner interns.
:meth:`close` unlinks every block's segment (idempotent; live views
stay valid), and the :mod:`repro.utils.shm` registry unlinks anything
left at interpreter exit.

**Spill backing.**  :meth:`to_spilled` copies the rows, block by block,
into one memory-mapped file (``numpy.memmap``) whose block views become
the store: the rows leave RAM — :attr:`resident_nbytes` drops to 0, the
kernel pages them in on demand and may evict them at will — while every
read keeps working unchanged.  This is the cold end of the storage
ladder (heap → shm → mmap): :meth:`~repro.dag.tangle.Tangle.compact`
uses it to archive the model rows of truncated history without holding
them resident.  Spilled arenas are **archival**: :meth:`intern` and
:meth:`to_shared` raise, pickling ships an open-by-path handle (the
receiver maps the file read-only), and :meth:`close` copies the rows
back to heap and deletes the file.  Unnamed spills go to temp files
that are removed at interpreter exit.

**Drain.**  Every block is its own mapping
(:func:`~repro.utils.blocks.mapped_block`, or a shared segment's), so
memory follows references: :meth:`drain` empties the arena block by
block — copying a block's kept rows into another arena, and the rest
into a :meth:`spill_target` archive, before it lets go of the block —
and a block returns to the operating system once no reader holds it.
Readers that must outlive a drain pin what they read: a :meth:`pin`
(the blocks of the current rows, read back through :meth:`pinned`) or
a row view.  This is how :meth:`~repro.dag.tangle.Tangle.compact`
shrinks the process.
"""

from __future__ import annotations

import atexit
import operator
import os
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.nn.serialization import FlatSpec
from repro.utils import shm as shm_registry
from repro.utils.blocks import BlockStore, mapped_block

__all__ = ["WeightArena", "locate_rows", "shared_rows"]

#: Auto-created (unnamed) spill files, removed at interpreter exit so a
#: benchmark or test that never calls close() cannot litter the disk.
_TEMP_SPILLS: set = set()


def _purge_temp_spills() -> None:
    for path in list(_TEMP_SPILLS):
        try:
            os.unlink(path)
        except OSError:
            pass
    _TEMP_SPILLS.clear()


atexit.register(_purge_temp_spills)

#: Estimated pickle size of an attach-by-name handle (segment names,
#: shape metadata) — what a shared arena costs on the wire instead of its rows.
HANDLE_NBYTES = 256


def locate_rows(transactions) -> tuple["WeightArena", np.ndarray]:
    """``(arena, rows)`` — the one arena the transactions' models live
    in and their rows in it, in order.  Raises ``ValueError`` when they
    are not all rows of one arena (a transaction outside any tangle,
    models of two tangles, no transactions at all)."""
    arena, rows = None, []
    for tx in transactions:
        location = tx.arena_location()
        if location is None or (arena is not None and location[0] is not arena):
            raise ValueError(
                f"{tx.tx_id!r} is not a row of the arena its batch shares"
            )
        arena = location[0]
        rows.append(location[1])
    if arena is None:
        raise ValueError("no transactions to locate")
    return arena, np.array(rows, dtype=np.int64)


def shared_rows(transactions, spec: FlatSpec) -> np.ndarray:
    """``(k, P)`` stack of the transactions' models off the one arena
    they share (:meth:`WeightArena.rows`).  Raises ``ValueError`` as
    :func:`locate_rows` does, or when that arena is not laid out by
    ``spec``."""
    arena, rows = locate_rows(transactions)
    if arena.spec != spec:
        raise ValueError("the arena's layout is not the requested spec")
    return arena.rows(rows)


class WeightArena:
    """Append-only store of flat model-weight rows."""

    def __init__(self, spec: FlatSpec, *, dtype: np.dtype | type = np.float64):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"arena dtype must be float64 or float32, got {dtype}")
        self.spec = spec
        self.dtype = dtype
        self._rows = 0
        self._store = BlockStore((spec.total,), dtype)
        # One segment name per block while shared (None = not shared).
        self._segments: list[str] | None = None
        self._mmap_path: Path | None = None  # spill file backing the rows
        self._attached = False  # True in worker processes (read-only)

    def _segment_block(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """The store's allocator while shared: one new segment per block."""
        count = int(np.prod(shape))
        name, mapping = shm_registry.create_mapped_segment(count * dtype.itemsize)
        self._segments.append(name)
        return np.frombuffer(mapping, dtype, count=count).reshape(shape)

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self._rows

    @property
    def nbytes(self) -> int:
        """Bytes of live (written) rows."""
        return self._rows * self.spec.total * self.dtype.itemsize

    @property
    def resident_nbytes(self) -> int:
        """Bytes of live rows held resident in RAM.

        Equal to :attr:`nbytes` for heap and shared-memory arenas; 0
        for spilled ones, whose pages are file-backed and reclaimable
        by the kernel (touched pages may transiently occupy page cache,
        but nothing is pinned)."""
        return 0 if self._mmap_path is not None else self.nbytes

    @property
    def is_shared(self) -> bool:
        """True when the rows live in named shared-memory segments."""
        return self._segments is not None

    @property
    def is_spilled(self) -> bool:
        """True when the rows live in a memory-mapped spill file."""
        return self._mmap_path is not None

    @property
    def spill_path(self) -> Path | None:
        """Path of the backing spill file (None unless spilled)."""
        return self._mmap_path

    @property
    def is_attached(self) -> bool:
        """True for read-only attachments to another process's
        segments or spill file."""
        return self._attached

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of the block segments, in block order (empty unless
        shared)."""
        return tuple(self._segments or ())

    def row(self, index: int) -> np.ndarray:
        """Read-only 1-D view of one stored model."""
        if not 0 <= index < self._rows:
            raise IndexError(f"arena row {index} out of range (have {self._rows})")
        block, offset = divmod(index, self._store.block_rows)
        view = self._store.blocks[block][offset]
        view.flags.writeable = False
        return view

    def rows(self, indices) -> np.ndarray:
        """Stacked ``(k, total)`` matrix of the given rows.

        ``indices`` is an int array (or any sequence of ints).  An
        ascending run inside one block comes back as a read-only
        zero-copy slice; any other index set pays one gather inside one
        block, or one copy per row across blocks.
        """
        return self._store.take(np.asarray(indices, dtype=np.int64), self._rows)

    # ------------------------------------------------------------ mutation
    def intern(self, flat: np.ndarray) -> int:
        """Copy a flat vector into the next row; returns its index."""
        if self._attached:
            raise RuntimeError(
                "cannot intern into a read-only attached arena; only the "
                "owning process appends rows"
            )
        if self._mmap_path is not None:
            raise RuntimeError(
                "spilled arenas are archival (read-only); close() restores "
                "heap backing before appending"
            )
        flat = np.asarray(flat)
        if flat.shape != (self.spec.total,):
            raise ValueError(
                f"expected a ({self.spec.total},) vector, got shape {flat.shape}"
            )
        self._store[self._rows] = flat
        self._rows += 1
        return self._rows - 1

    # ------------------------------------------- shared-memory lifecycle
    def to_shared(self) -> "WeightArena":
        """Move every block into its own shared-memory segment
        (idempotent); later blocks are allocated as segments too.

        One bit-exact copy of the live rows.  Returns ``self`` for
        chaining.
        """
        if self._segments is not None:
            return self
        if self._attached:
            raise RuntimeError("attached arenas are already shared")
        if self._mmap_path is not None:
            raise RuntimeError(
                "spilled arenas are archival (read-only); close() restores "
                "heap backing before sharing"
            )
        self._segments = []
        self._store.reback(self._segment_block, self._rows)
        return self

    # ------------------------------------------------ spill (mmap) backing
    def to_spilled(self, path=None) -> "WeightArena":
        """Move the rows into a memory-mapped file (idempotent).

        One bit-exact copy of the live rows, block by block, into
        ``path`` (a temp file when omitted, removed at interpreter
        exit), after which the arena's rows are file-backed:
        :attr:`resident_nbytes` is 0 and the kernel pages rows in on
        demand.  Spilled arenas are frozen archives (:meth:`intern`
        raises), and shared-memory segments, if any, are unlinked once
        their contents land in the file.  Returns ``self`` for chaining.
        """
        if self._mmap_path is not None:
            return self
        if self._attached:
            raise RuntimeError(
                "attached arenas cannot be spilled; only the owner "
                "chooses the backing"
            )
        spilled = self._open_spill(path, self._rows)
        for start, rows in self._store.runs(self._rows):
            spilled[start : start + len(rows)] = rows
        spilled.flush()
        self._store.adopt(spilled, self._rows)
        self._release_segments()
        return self

    def _open_spill(self, path, rows: int) -> np.memmap:
        """A new writable spill file for ``rows`` rows at ``path`` (a
        tracked temp file when ``None``), recorded as this arena's
        backing."""
        if path is None:
            fd, name = tempfile.mkstemp(prefix="repro-spill-", suffix=".bin")
            os.close(fd)
            path = Path(name)
            _TEMP_SPILLS.add(path)
        else:
            path = Path(path)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
        self._mmap_path = path
        return np.memmap(
            path, dtype=self.dtype, mode="w+", shape=(max(1, rows), self.spec.total)
        )

    def spill_target(self, rows: int, path=None) -> "WeightArena":
        """An empty spilled arena laid out like this one, its file at
        ``path`` (a tracked temp file when omitted) sized for ``rows``
        rows: the archive a :meth:`drain` writes dropped rows into."""
        archive = WeightArena(self.spec, dtype=self.dtype)
        archive._store.adopt(archive._open_spill(path, rows), rows)
        return archive

    # ------------------------------------------------------------ drain
    def pin(self) -> tuple:
        """``(blocks, rows)``: the blocks holding the current rows, and
        how many rows there are.  Holding a pin keeps those blocks'
        memory alive whatever this arena does later (a :meth:`drain`
        lets go of its own references, a backing change swaps its
        blocks); :meth:`pinned` reads the rows back."""
        return tuple(self._store.blocks), self._rows

    def pinned(self, pin: tuple) -> "WeightArena":
        """An arena that reads a :meth:`pin`'s rows: this one while it
        still holds the pinned blocks, else a read-only one over them."""
        blocks, mine = pin[0], self._store.blocks
        if len(mine) >= len(blocks) and all(map(operator.is_, blocks, mine)):
            return self
        reader = WeightArena(self.spec, dtype=self.dtype)
        reader._attached = True
        reader._store.block_rows = self._store.block_rows
        reader._store.blocks, reader._rows = list(blocks), pin[1]
        return reader

    def drain(
        self, keep, into: "WeightArena", spill: "WeightArena | None" = None
    ) -> Iterator[tuple[int, int]]:
        """Move every row out, block by block in row order, and leave
        this arena empty.

        Row ``i`` is interned into ``into`` when ``keep[i]`` is true and
        otherwise appended to ``spill`` (a :meth:`spill_target`), or let
        go when no spill is given.  Once a block's rows are copied the
        generator yields its row range ``(start, stop)`` — the caller
        rebinds the readers of those rows — and, when resumed, drops its
        own reference to the block, unlinking the block's segment when
        shared.  The block's memory returns to the operating system when
        no reader pins it any more (a :meth:`pin`, a row view), so the
        kept copy and the whole old arena are never resident together.
        A spill file backing this arena is deleted at the end.  Iterate
        the generator to its end.
        """
        if self._attached:
            raise RuntimeError("only the owning process drains an arena")
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self._rows,):
            raise ValueError(f"keep must have shape ({self._rows},), got {keep.shape}")
        blocks, block_rows = self._store.blocks, self._store.block_rows
        for index in range(len(blocks)):
            start = index * block_rows
            stop = min(start + block_rows, self._rows)
            block = blocks[index]
            for row in range(start, stop):
                if keep[row]:
                    into.intern(block[row - start])
                elif spill is not None:
                    spill._store[spill._rows] = block[row - start]
                    spill._rows += 1
            del block
            yield start, stop
            blocks[index] = None
            if self._segments:
                shm_registry.unlink_segment(self._segments[index])
        if spill is not None and spill._rows:
            spill._store.blocks[0].flush()  # a view of the whole file's map
        self._rows = 0
        self._store.allocate, self._store.blocks = mapped_block, []
        self._segments = None
        self._delete_spill()

    def _release_segments(self) -> None:
        """Unlink the block segments of a shared owner (if any)."""
        segments, self._segments = self._segments or (), None
        for name in segments:
            shm_registry.unlink_segment(name)

    def close(self) -> None:
        """Release any non-heap backing and revert to heap (idempotent).

        The inverse of :meth:`to_shared` / :meth:`to_spilled`: live rows
        are copied back to heap blocks (so the arena stays fully usable
        — and re-shareable or re-spillable — afterwards, never pickling
        a handle to a name that no longer exists), then every block
        segment is unlinked or the spill file deleted.  Mappings held by
        attached workers stay valid; the memory is reclaimed when the
        last one is collected.  Attached arenas never unlink or delete:
        the owner does.
        """
        if self._attached or (
            self._segments is None and self._mmap_path is None
        ):
            return
        self._store.reback(mapped_block, self._rows)
        self._release_segments()
        self._delete_spill()

    def _delete_spill(self) -> None:
        """Delete the spill file backing the rows, if any."""
        path, self._mmap_path = self._mmap_path, None
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
            _TEMP_SPILLS.discard(path)

    def __enter__(self) -> "WeightArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------- cost model
    def _cost_footprint(self, walk) -> tuple[int, int]:
        """(bytes actually shipped, dense working-set bytes) — the
        :mod:`repro.substrate.cost` hook.  Shared and spilled arenas
        ship a few-hundred-byte attach handle instead of the rows."""
        handle = self._segments is not None or self._mmap_path is not None
        return (HANDLE_NBYTES if handle else self.nbytes, self.nbytes)

    # ------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        state = {
            "spec_shapes": self.spec.shapes,
            "dtype": self.dtype.str,
            "rows": self._rows,
        }
        if self._segments is not None:
            # Attach-by-name handle: the receiver maps the block
            # segments, it never receives the bytes.
            state["segments"] = self.segment_names
            state["block_rows"] = self._store.block_rows
        elif self._mmap_path is not None:
            # Attach-by-path handle: the receiver maps the spill file
            # read-only; the bytes stay on disk.
            state["path"] = str(self._mmap_path)
        else:
            # One contiguous buffer of the live rows, never the slack of
            # the last block.
            state["slab"] = np.ascontiguousarray(
                self.rows(np.arange(self._rows))
            )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            FlatSpec(state["spec_shapes"]), dtype=np.dtype(state["dtype"])
        )
        self._rows = state["rows"]
        if "segments" in state:
            self._attached = True
            self._segments = list(state["segments"])
            self._store.block_rows = state["block_rows"]
            self._store.blocks = [
                np.ndarray(
                    (self._store.block_rows, self.spec.total),
                    dtype=self.dtype,
                    buffer=shm_registry.attach_cached(name).buf,
                )
                for name in self._segments
            ]
        elif "path" in state:
            self._attached = True
            self._mmap_path = Path(state["path"])
            spilled = np.memmap(
                self._mmap_path,
                dtype=self.dtype,
                mode="r",
                shape=(max(1, self._rows), self.spec.total),
            )
            self._store.adopt(spilled, self._rows)
        else:
            self._store.adopt(state["slab"], self._rows)
            self._store.reback(mapped_block, self._rows)

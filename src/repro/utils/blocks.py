"""Append-only rows of one shape in fixed blocks: a written row never moves.

Every append-only array of the library lives in a :class:`BlockStore`:
the weight arena's model rows (:mod:`repro.dag.arena`) and the event
engine's visibility columns and per-link arrival table
(:mod:`repro.sim.engine`).  Row ``i`` sits at offset ``i % block_rows``
of block ``i // block_rows``.  Growth appends one block and copies
nothing, so a view of a written row stays valid however far the store
grows, and the slack beyond the last row is at most one block.

A new block comes from the store's ``allocate`` hook (by default
:func:`mapped_block`: an anonymous mapping of its own; a shared arena
hands out one shared-memory segment per block) and is preset to
``fill`` when one is given, so unwritten rows read as ``fill``.
:meth:`BlockStore.reback` moves the written rows under another
allocator (mapped memory to shared memory and back) and
:meth:`BlockStore.adopt` makes the blocks views of one existing array (a
spill file, a received pickle).

A block is only memory while something reads it: the store holds one
reference, and every view of its rows (a row handed out, a reader that
pinned the store's blocks) holds another.  A block that is its own
mapping goes back to the operating system the moment the last of them
lets go, which is what lets :meth:`repro.dag.tangle.Tangle.compact`
shrink the process, not only the arena's accounting.

``BLOCK_ROWS`` is read when a store is built, so a test may shrink it
for the stores it builds next.
"""

from __future__ import annotations

import mmap
from typing import Callable, Iterator

import numpy as np

__all__ = ["BLOCK_ROWS", "BlockStore", "mapped_block", "warm_malloc"]

#: Rows per block: a 1000-client arrival block is 2 MB, a block of
#: 53 k-parameter float64 models 108 MB of address space that is only
#: paged in as rows are written.
BLOCK_ROWS = 256

Allocator = Callable[[tuple, np.dtype], np.ndarray]


def warm_malloc(nbytes: int) -> None:
    """Allocate and free one untouched ``nbytes`` buffer on the malloc
    heap.

    glibc serves a request of at least its mmap threshold (128 KB at
    start) with a fresh mapping, and raises that threshold — and its
    heap-trim threshold to twice it — to the size of the largest mapped
    chunk it frees (up to 32 MB).  Blocks are mappings malloc never
    sees, so without this step nothing large is ever freed, the
    thresholds stay at 128 KB, and every training and scoring temporary
    of 128 KB or more becomes a fresh page-faulting mapping: 217 k minor
    faults per e2e ``rounds_mlp`` run instead of 6 k.  Freeing one
    block-sized buffer per block keeps those temporaries on the reused
    heap.
    """
    np.empty(nbytes, np.uint8)


def mapped_block(shape: tuple, dtype: np.dtype) -> np.ndarray:
    """A writable zeroed block that is its own anonymous mapping, so
    dropping its last view unmaps it and returns its pages to the
    operating system (a malloc-heap block would stay in the heap).

    Preceded by :func:`warm_malloc` of the block's size; a block of 4 MB
    or more asks for transparent huge pages as numpy's own allocator
    does for arrays that large."""
    count = int(np.prod(shape))
    nbytes = max(1, count * dtype.itemsize)
    warm_malloc(nbytes)
    # Private, like heap memory: a forked worker's copy is copy-on-write.
    mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if nbytes >= 4 << 20 and hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype, count=count).reshape(shape)


class BlockStore:
    """Rows of shape ``row_shape`` held as fixed blocks of
    ``block_rows`` rows (see the module docstring)."""

    def __init__(self, row_shape: tuple = (), dtype=np.float64, *, fill=None):
        self.block_rows = BLOCK_ROWS
        self.row_shape = tuple(row_shape)
        self.dtype = np.dtype(dtype)
        self.fill = fill
        self.allocate: Allocator = mapped_block
        self.blocks: list[np.ndarray] = []

    def reserve(self, row: int) -> tuple[np.ndarray, int]:
        """(block, offset) of ``row``, appending its block (unwritten rows
        read as ``fill``) if new."""
        index, offset = divmod(row, self.block_rows)
        if index == len(self.blocks):
            block = self.allocate((self.block_rows, *self.row_shape), self.dtype)
            if self.fill is not None:
                block[...] = self.fill
            self.blocks.append(block)
        return self.blocks[index], offset

    def __setitem__(self, row: int, value) -> None:
        block, offset = self.reserve(row)
        block[offset] = value

    def runs(self, n: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, rows)`` for each block holding some of the first
        ``n`` rows: its first row's index and a view of those rows."""
        for index in range(-(-n // self.block_rows)):
            start = index * self.block_rows
            yield start, self.blocks[index][: n - start]

    def head(self, n: int, lane: int | None = None) -> np.ndarray:
        """A copy of the first ``n`` rows, or of one ``lane`` (column)
        of them: one concatenate over the blocks they span."""
        return np.concatenate(
            [rows if lane is None else rows[:, lane] for _, rows in self.runs(n)]
        )

    def take(self, indices: np.ndarray, limit: int) -> np.ndarray:
        """The rows at ``indices`` (int64) stacked in order; raises
        ``IndexError`` for any row outside ``[0, limit)``.

        Inside one block an ascending run is a read-only zero-copy slice
        and any other index set one gather; across blocks every row is
        copied once into a preallocated output.
        """
        if indices.size == 0:
            return np.empty((0, *self.row_shape), dtype=self.dtype)
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= limit:
            bad = low if low < 0 else high
            raise IndexError(f"row {bad} out of range (have {limit})")
        index, offset = divmod(low, self.block_rows)
        if high - low < self.block_rows - offset:
            block = self.blocks[index]
            if (
                high - low == indices.size - 1
                and int(indices[0]) == low
                and (indices.size < 3 or (np.diff(indices) == 1).all())
            ):
                view = block[offset : offset + indices.size]
                view.flags.writeable = False
                return view
            return block[indices - index * self.block_rows]
        # One gather per stretch of indices that stay in one block, so a
        # sorted index set costs one gather per block it spans.
        which = indices // self.block_rows
        cuts = (np.flatnonzero(which[1:] != which[:-1]) + 1).tolist()
        out = np.empty((indices.size, *self.row_shape), dtype=self.dtype)
        for start, stop in zip([0, *cuts], [*cuts, indices.size]):
            index = int(which[start])
            np.take(
                self.blocks[index],
                indices[start:stop] - index * self.block_rows,
                axis=0,
                out=out[start:stop],
                mode="clip",  # bounds are checked above; "raise" buffers out
            )
        return out

    def reback(self, allocate: Allocator, n: int) -> None:
        """Copy the first ``n`` rows into blocks from ``allocate``, which
        also serves every later block; the old blocks are dropped."""
        runs = list(self.runs(n))
        self.allocate, self.blocks = allocate, []
        for start, rows in runs:
            block, _ = self.reserve(start)
            block[: len(rows)] = rows

    def adopt(self, array: np.ndarray, n: int) -> None:
        """Make the blocks views of the first ``n`` rows of ``array``
        (no copy; the last block may be short, so this store is then
        read-only until a :meth:`reback`)."""
        self.allocate = mapped_block
        self.blocks = [
            array[start : start + self.block_rows]
            for start in range(0, n, self.block_rows)
        ]

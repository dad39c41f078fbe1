"""Append-only rows of one shape in fixed blocks: a written row never moves.

Every append-only array of the library lives in a :class:`BlockStore`:
the weight arena's model rows (:mod:`repro.dag.arena`) and the event
engine's visibility columns and per-link arrival table
(:mod:`repro.sim.engine`).  Row ``i`` sits at offset ``i % block_rows``
of block ``i // block_rows``.  Growth appends one block and copies
nothing, so a view of a written row stays valid however far the store
grows, and the slack beyond the last row is at most one block.

A new block comes from the store's ``allocate`` hook (heap memory by
default; a shared arena hands out one shared-memory segment per block)
and is preset to ``fill`` when one is given, so unwritten rows read as
``fill``.  :meth:`BlockStore.reback` moves the written rows under
another allocator (heap to shared memory and back) and
:meth:`BlockStore.adopt` makes the blocks views of one existing array (a
spill file, a received pickle).

``BLOCK_ROWS`` is read when a store is built, so a test may shrink it
for the stores it builds next.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = ["BLOCK_ROWS", "BlockStore", "heap_block"]

#: Rows per block: a 1000-client arrival block is 2 MB, a block of
#: 53 k-parameter float64 models 108 MB of address space that is only
#: paged in as rows are written.
BLOCK_ROWS = 256

Allocator = Callable[[tuple, np.dtype], np.ndarray]


def heap_block(shape: tuple, dtype: np.dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` after freeing one untouched buffer of
    that size: glibc sets its mmap and heap-trim thresholds from the
    largest mapping it has freed (up to 32 MB), and a store that never
    frees would leave them at 128 KB, making every larger temporary
    elsewhere a fresh page-faulting mapping (217 k minor faults per e2e
    ``rounds_mlp`` run instead of 6 k)."""
    np.empty(shape, dtype)
    return np.empty(shape, dtype)


class BlockStore:
    """Rows of shape ``row_shape`` held as fixed blocks of
    ``block_rows`` rows (see the module docstring)."""

    def __init__(self, row_shape: tuple = (), dtype=np.float64, *, fill=None):
        self.block_rows = BLOCK_ROWS
        self.row_shape = tuple(row_shape)
        self.dtype = np.dtype(dtype)
        self.fill = fill
        self.allocate: Allocator = heap_block
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
        self.allocate = heap_block
        self.blocks = [
            array[start : start + self.block_rows]
            for start in range(0, n, self.block_rows)
        ]

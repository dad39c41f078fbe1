"""The per-tangle weight arena: contiguous row-per-transaction storage.

Every transaction of a tangle carries a model with the same architecture
(the genesis model's).  Storing each model as its own list of per-layer
arrays scatters the hottest data in the system across thousands of small
allocations and makes every boundary crossing — aggregation, walk
evaluation, process-pool pickling, persistence — pay per-array overhead.

The :class:`WeightArena` instead keeps all models in one 2-D slab, one
row per transaction, in flat (:class:`~repro.nn.serialization.FlatSpec`)
order.  Rows are immutable once written and exposed as read-only views,
so transactions can hand out zero-copy per-layer views; stacked
aggregation over arena-resident models is a row-slice away; and pickling
a tangle ships one contiguous buffer instead of re-pickling every model.

``dtype`` defaults to ``float64`` (bit-identical to the historical
list-of-arrays path).  ``float32`` halves memory and IPC volume at the
cost of rounding every stored model to single precision — evaluation
accuracy is unaffected in practice, but results are no longer
bit-comparable with float64 runs.

**Shared-memory backing.**  :meth:`to_shared` migrates the slab into a
named ``multiprocessing.shared_memory`` segment (one copy, bit-exact).
From then on the arena's pickle form is an **attach-by-name handle** —
uid, segment name, generation, row count — instead of the slab bytes,
so shipping a round context to a pool worker costs a few hundred bytes
no matter how many models the tangle holds.  Workers attach once per
``(uid, segment)`` through :func:`repro.utils.shm.attach_cached` and
reuse the mapping across rounds; capacity growth allocates a fresh,
larger segment, copies the live rows, unlinks the old name and bumps
``generation`` — a worker holding the superseded mapping keeps reading
it safely (POSIX keeps unlinked mappings alive) and re-attaches when the
next round's handle names the new segment.  Attached arenas are
read-only: only the owning process interns.  :meth:`close` unlinks the
owner's segment (idempotent; live views stay valid), and the
:mod:`repro.utils.shm` registry unlinks anything left at interpreter
exit.

**Spill backing.**  :meth:`to_spilled` migrates the slab into a
memory-mapped file (``numpy.memmap``) instead of a shared-memory
segment: the rows leave RAM — :attr:`resident_nbytes` drops to 0, the
kernel pages them in on demand and may evict them at will — while every
read keeps working unchanged.  This is the cold end of the storage
ladder (heap → shm → mmap): :meth:`~repro.dag.tangle.Tangle.compact`
uses it to archive the model rows of truncated history without holding
them resident.  Spilled arenas are **archival**: :meth:`intern` raises,
pickling ships an open-by-path handle (the receiver maps the file
read-only), and :meth:`close` copies the rows back to heap and deletes
the file.  Unnamed spills go to temp files that are removed at
interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.nn.serialization import FlatSpec
from repro.utils import shm as shm_registry

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

#: Estimated pickle size of an attach-by-name handle (name, uid, shape
#: metadata) — what a shared arena costs on the wire instead of its slab.
HANDLE_NBYTES = 256


def locate_rows(transactions) -> tuple["WeightArena", np.ndarray] | None:
    """``(arena, rows)`` — the one arena the transactions' models live
    in and their rows in it, in order — or ``None`` when they are not
    all rows of one arena (unbound models, a second arena, none)."""
    arena, rows = None, []
    for tx in transactions:
        location = tx.arena_location()
        if location is None or (arena is not None and location[0] is not arena):
            return None
        arena = location[0]
        rows.append(location[1])
    if arena is None:
        return None
    return arena, np.array(rows, dtype=np.int64)


def shared_rows(transactions, spec: FlatSpec) -> np.ndarray | None:
    """``(k, P)`` stack of the transactions' models off the one arena
    they share (:meth:`WeightArena.rows`), or ``None`` when they are not
    all rows of one arena laid out by ``spec`` — the caller's cue to
    take its per-model path."""
    located = locate_rows(transactions)
    if located is None or located[0].spec != spec:
        return None
    return located[0].rows(located[1])


class WeightArena:
    """Append-only 2-D slab of flat model-weight rows."""

    def __init__(
        self,
        spec: FlatSpec,
        *,
        dtype: np.dtype | type = np.float64,
        initial_capacity: int = 16,
        shared: bool = False,
    ):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"arena dtype must be float64 or float32, got {dtype}")
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self.spec = spec
        self.dtype = dtype
        self._rows = 0
        self._shm = None  # SharedMemory backing the slab (None = heap)
        self._mmap_path: Path | None = None  # spill file backing the slab
        self._attached = False  # True in worker processes (read-only)
        self.uid: str | None = None
        # Bumped whenever the slab moves (growth or shared migration):
        # holders of cached row views use it to notice their base buffer
        # is a superseded generation and rebuild, so old slabs are not
        # kept alive indefinitely through stale views.
        self.generation = 0
        if shared:
            self.uid = shm_registry.new_uid()
            self._shm = shm_registry.create_segment(
                initial_capacity * spec.total * dtype.itemsize
            )
            self._slab = self._segment_slab(self._shm, initial_capacity)
        else:
            self._slab = np.empty((initial_capacity, spec.total), dtype=dtype)

    def _segment_slab(self, segment, capacity: int) -> np.ndarray:
        """Numpy view of ``capacity`` rows over a segment's buffer."""
        return np.ndarray(
            (capacity, self.spec.total), dtype=self.dtype, buffer=segment.buf
        )

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self._rows

    @property
    def capacity(self) -> int:
        return self._slab.shape[0]

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
        """True when the slab lives in a named shared-memory segment."""
        return self._shm is not None

    @property
    def is_spilled(self) -> bool:
        """True when the slab lives in a memory-mapped spill file."""
        return self._mmap_path is not None

    @property
    def spill_path(self) -> Path | None:
        """Path of the backing spill file (None unless spilled)."""
        return self._mmap_path

    @property
    def is_attached(self) -> bool:
        """True for read-only worker-side attachments to another
        process's segment."""
        return self._attached

    @property
    def segment_name(self) -> str | None:
        """Name of the backing segment (None for heap arenas)."""
        return self._shm.name if self._shm is not None else None

    def row(self, index: int) -> np.ndarray:
        """Read-only 1-D view of one stored model."""
        if not 0 <= index < self._rows:
            raise IndexError(f"arena row {index} out of range (have {self._rows})")
        view = self._slab[index]
        view.flags.writeable = False
        return view

    def rows(self, indices) -> np.ndarray:
        """Stacked ``(k, total)`` matrix of the given rows.

        ``indices`` is an int array (or any sequence of ints).  A
        contiguous ascending range comes back as a zero-copy slice of
        the slab; arbitrary indices pay one gather.  Bounds and
        contiguity are checked vectorized.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return self._slab[:0]
        first, last = int(indices[0]), int(indices[-1])
        if last - first == indices.size - 1 and (
            indices.size < 3 or (np.diff(indices) == 1).all()
        ):
            if first < 0 or last >= self._rows:
                raise IndexError(
                    f"arena row {first if first < 0 else last} out of range "
                    f"(have {self._rows})"
                )
            view = self._slab[first : last + 1]
            view.flags.writeable = False
            return view
        out_of_range = (indices < 0) | (indices >= self._rows)
        if out_of_range.any():
            bad = int(indices[out_of_range.argmax()])
            raise IndexError(f"arena row {bad} out of range (have {self._rows})")
        return self._slab[indices]

    # ------------------------------------------------------------ mutation
    def intern(self, flat: np.ndarray) -> int:
        """Copy a flat vector into the slab; returns its row index."""
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
        if self._rows == self._slab.shape[0]:
            self._grow(max(2 * self._slab.shape[0], 1))
        self._slab[self._rows] = flat
        self._rows += 1
        return self._rows - 1

    def _grow(self, capacity: int) -> None:
        """Reallocate the slab to ``capacity`` rows (generation bump)."""
        if self._shm is not None:
            old = self._shm
            grown_shm = shm_registry.create_segment(
                capacity * self.spec.total * self.dtype.itemsize
            )
            grown = self._segment_slab(grown_shm, capacity)
            grown[: self._rows] = self._slab[: self._rows]
            self._slab = grown
            self._shm = grown_shm
            # The old name disappears from /dev/shm immediately; workers
            # still mapping it keep reading valid memory and re-attach to
            # the new name when the next handle arrives.
            shm_registry.unlink_segment(old.name)
        else:
            grown = np.empty((capacity, self.spec.total), dtype=self.dtype)
            grown[: self._rows] = self._slab[: self._rows]
            self._slab = grown
        self.generation += 1

    # ------------------------------------------- shared-memory lifecycle
    def to_shared(self) -> "WeightArena":
        """Migrate the slab into a shared-memory segment (idempotent).

        One bit-exact copy of the live rows plus the growth headroom;
        bumps ``generation`` so cached row views rebuild against the new
        buffer.  Returns ``self`` for chaining.
        """
        if self._shm is not None:
            return self
        if self._attached:
            raise RuntimeError("attached arenas are already shared")
        self.uid = shm_registry.new_uid()
        segment = shm_registry.create_segment(
            self.capacity * self.spec.total * self.dtype.itemsize
        )
        slab = self._segment_slab(segment, self.capacity)
        slab[: self._rows] = self._slab[: self._rows]
        self._slab = slab
        self._shm = segment
        self.generation += 1
        return self

    # ------------------------------------------------ spill (mmap) backing
    def to_spilled(self, path=None) -> "WeightArena":
        """Migrate the slab into a memory-mapped file (idempotent).

        One bit-exact copy of the live rows into ``path`` (a temp file
        when omitted, removed at interpreter exit), after which the
        arena's rows are file-backed: :attr:`resident_nbytes` is 0 and
        the kernel pages rows in on demand.  The growth headroom is
        trimmed — spilled arenas are frozen archives (:meth:`intern`
        raises) — and a shared-memory segment, if any, is unlinked once
        its contents land in the file.  Bumps ``generation`` so cached
        row views rebuild.  Returns ``self`` for chaining.
        """
        if self._mmap_path is not None:
            return self
        if self._attached:
            raise RuntimeError(
                "attached arenas cannot be spilled; only the owner "
                "chooses the backing"
            )
        if path is None:
            fd, name = tempfile.mkstemp(prefix="repro-spill-", suffix=".bin")
            os.close(fd)
            path = Path(name)
            _TEMP_SPILLS.add(path)
        else:
            path = Path(path)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
        slab = np.memmap(
            path,
            dtype=self.dtype,
            mode="w+",
            shape=(max(1, self._rows), self.spec.total),
        )
        slab[: self._rows] = self._slab[: self._rows]
        slab.flush()
        if self._shm is not None:
            old_name = self._shm.name
            self._shm = None
            self.uid = None
            shm_registry.unlink_segment(old_name)
        self._slab = slab
        self._mmap_path = path
        self.generation += 1
        return self

    def close(self) -> None:
        """Release any non-heap backing and revert to heap (idempotent).

        The inverse of :meth:`to_shared` / :meth:`to_spilled`: live rows
        are copied back to a heap slab (so the arena stays fully usable
        — and re-shareable or re-spillable — afterwards, never pickling
        a handle to a name that no longer exists), then the
        shared-memory segment is unlinked or the spill file deleted.
        Mappings held by attached workers stay valid; the memory is
        reclaimed when the last one is collected.  Attached arenas never
        unlink or delete: the owner does.
        """
        if self._attached:
            return
        if self._shm is not None:
            heap = np.empty((self.capacity, self.spec.total), dtype=self.dtype)
            heap[: self._rows] = self._slab[: self._rows]
            old_name = self._shm.name
            self._slab = heap
            self._shm = None
            self.uid = None
            self.generation += 1
            shm_registry.unlink_segment(old_name)
            return
        if self._mmap_path is not None:
            heap = np.empty(
                (max(1, self._rows), self.spec.total), dtype=self.dtype
            )
            heap[: self._rows] = self._slab[: self._rows]
            path = self._mmap_path
            self._slab = heap
            self._mmap_path = None
            self.generation += 1
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
        ship a few-hundred-byte attach handle instead of the slab."""
        handle = self._shm is not None or self._mmap_path is not None
        return (HANDLE_NBYTES if handle else self.nbytes, self.nbytes)

    # ------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        if self._shm is not None:
            # Attach-by-name handle: the receiver maps the segment, it
            # never receives the bytes.
            return {
                "mode": "shm",
                "uid": self.uid,
                "name": self._shm.name,
                "generation": self.generation,
                "rows": self._rows,
                "capacity": self.capacity,
                "spec_shapes": self.spec.shapes,
                "dtype": self.dtype.str,
            }
        if self._mmap_path is not None:
            # Attach-by-path handle: the receiver maps the spill file
            # read-only; the bytes stay on disk.
            return {
                "mode": "mmap",
                "path": str(self._mmap_path),
                "generation": self.generation,
                "rows": self._rows,
                "spec_shapes": self.spec.shapes,
                "dtype": self.dtype.str,
            }
        # Ship only the written rows, never the growth headroom: a pickled
        # arena is exactly one contiguous buffer of live models.
        return {
            "spec_shapes": self.spec.shapes,
            "dtype": self.dtype.str,
            "slab": np.ascontiguousarray(self._slab[: self._rows]),
        }

    def __setstate__(self, state: dict) -> None:
        self.spec = FlatSpec(state["spec_shapes"])
        self.dtype = np.dtype(state["dtype"])
        self._mmap_path = None
        if state.get("mode") == "shm":
            self.uid = state["uid"]
            segment = shm_registry.attach_cached(self.uid, state["name"])
            self._shm = segment
            self._attached = True
            capacity = min(
                state["capacity"],
                segment.size // (self.spec.total * self.dtype.itemsize),
            )
            self._slab = self._segment_slab(segment, capacity)
            self._rows = state["rows"]
            self.generation = state["generation"]
            return
        if state.get("mode") == "mmap":
            self._mmap_path = Path(state["path"])
            self._rows = state["rows"]
            self._slab = np.memmap(
                self._mmap_path,
                dtype=self.dtype,
                mode="r",
                shape=(max(1, self._rows), self.spec.total),
            )
            self._shm = None
            self._attached = True
            self.uid = None
            self.generation = state["generation"]
            return
        slab = state["slab"]
        self._slab = np.array(slab, dtype=self.dtype, copy=True)
        self._rows = slab.shape[0]
        self._shm = None
        self._attached = False
        self.uid = None
        self.generation = 0

"""Executors: how a round's per-client work units get run.

The simulators describe *what* each active client does in a round
(:mod:`repro.substrate.round_plan`); an executor decides *how* those
descriptions are evaluated — in-process one after another
(:class:`SerialExecutor`) or over a process pool that routes each batch
by a payload cost model (:class:`ParallelExecutor`).  Both produce the
same results for the same inputs: work units are pure functions of a
frozen tangle view plus per-client state, and every random draw comes
from a stream keyed by ``(round, client)``, so evaluation order cannot
leak into the outcome.

The caller asks an executor one question, :meth:`Executor.runs_in_process`
— will mapping these items stay in this process? — and ``map`` routes by
the same answer.
"""

from __future__ import annotations

import logging
import math
import os
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, TypeVar

from repro.substrate.cost import estimate_payload
from repro.utils.validation import check_count

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_LOG = logging.getLogger(__name__)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "available_cores",
    "check_parallelism",
    "make_executor",
]

#: :class:`ParallelExecutor` runs batches smaller than this in-process.
MIN_UNITS = 4
#: ... and batches whose pickled payload would exceed this many bytes.
IPC_BUDGET = 8 << 20
#: ... and batches whose dense working set is below this many bytes.
MIN_WORK_BYTES = 1 << 20


def available_cores() -> int:
    """Cores actually usable by this process (affinity-mask aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platform without affinity masks
        return os.cpu_count() or 1


def check_parallelism(parallelism: int) -> None:
    """Reject a ``parallelism`` setting that is not an int >= 0
    (``0`` = machine-sized; a ``bool``, a float or a string fails)."""
    check_count("parallelism", parallelism, 0)


T = TypeVar("T")
R = TypeVar("R")


class Executor(Protocol):
    """Strategy for evaluating a batch of independent work units."""

    #: Number of concurrent workers this executor targets (1 = serial).
    parallelism: int

    def runs_in_process(self, items: Sequence) -> bool:
        """Whether :meth:`map` over ``items`` runs them in this process,
        on the caller's own objects."""
        ...

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Evaluate ``fn`` over ``items``, preserving input order."""
        ...

    def close(self) -> None:
        """Release any worker resources (idempotent)."""
        ...


class SerialExecutor:
    """Evaluate work units one after another in the calling process.

    The reference implementation: the parallel executor is correct
    exactly when it is indistinguishable from this one.
    """

    parallelism = 1

    def runs_in_process(self, items: Sequence) -> bool:
        return True

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]

    def close(self) -> None:  # nothing to release
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ParallelExecutor:
    """Evaluate work units in a process pool when it measurably pays.

    Uses :class:`concurrent.futures.ProcessPoolExecutor` with the
    ``fork`` start method where available (cheap workers sharing the
    parent's loaded modules) and the platform default elsewhere.  The
    pool — and with it ``multiprocessing`` and :mod:`concurrent.futures`,
    which this module does not import at load time — is created lazily
    on first use and reused across rounds; call
    :meth:`close` (or use the executor as a context manager) to shut the
    workers down.  ``workers`` defaults to the cores this process may
    use (:func:`available_cores`).

    ``fn`` and the items must be picklable; items are distributed in
    one contiguous chunk per worker so per-round payload shared between
    units is serialized once per chunk rather than once per unit — with
    the flat-weight plane, the shared :class:`RoundContext`'s tangle
    pickles its whole model store as **one contiguous arena slab** per
    chunk instead of one small array per layer per transaction (or, once
    the tangle has been :meth:`~repro.dag.tangle.Tangle.share_memory`'d,
    as a few-hundred-byte attach-by-name handle), and each result
    returns at most one model vector.

    :meth:`map` is the one place that routes: items for which
    :meth:`runs_in_process` answers yes run in the calling process, the
    rest go to the pool.  The pool only pays off when the bytes work
    out: what crosses the process boundary must be small relative to
    the work the units represent.  So :meth:`runs_in_process` runs the
    :func:`repro.substrate.cost.estimate_payload` cost model over the
    actual payloads, producing ``(ipc, dense)`` — bytes that would
    pickle vs. the dense working set the units touch — and answers yes
    when

    - the pool has one worker (on a single-core machine time-slicing
      makes a parallel win physically impossible), or
    - the batch has fewer than :data:`MIN_UNITS` items (too few to
      amortize pool coordination), or
    - ``ipc`` exceeds :data:`IPC_BUDGET` (shipping the payload would
      cost more than the pool saves; an *unshared* tangle or dataset
      lands here, which is why coordinators export to shared memory
      before routing), or
    - ``dense`` is below :data:`MIN_WORK_BYTES` (the working set is too
      small for per-unit compute to amortize coordination).

    Because work units draw from keyed rng streams, the route cannot
    affect results, only wall-clock.  ``last_estimate`` keeps the most
    recent ``(ipc, dense)`` pair; ``mode_counts`` / ``last_mode`` record
    every decision as ``"serial"``, ``"parallel"`` or ``"fallback"``.

    **Worker-crash resilience.**  A worker dying mid-round (OOM killer,
    segfault, ``os._exit``) breaks the whole pool —
    :class:`~concurrent.futures.process.BrokenProcessPool`.  Because
    work units are pure functions of their pickled payload (workers
    never mutate coordinator state), the round can be re-run serially
    in-process with bit-identical results: :meth:`map` does exactly
    that, discards the broken pool (a fresh one is created lazily on
    the next round), and records the event as ``"fallback"``.
    """

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.parallelism = workers or available_cores()
        self._pool: ProcessPoolExecutor | None = None
        self.mode_counts = {"serial": 0, "parallel": 0, "fallback": 0}
        self.last_mode: str | None = None
        self.last_estimate: tuple[int, int] | None = None
        self.shutdown_errors = 0

    def runs_in_process(self, items: Sequence) -> bool:
        if self.parallelism == 1 or len(items) < MIN_UNITS:
            return True
        ipc, dense = self.last_estimate = estimate_payload(items)
        return ipc > IPC_BUDGET or dense < MIN_WORK_BYTES

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.parallelism, mp_context=context
            )
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if self.runs_in_process(items):
            mode, results = "serial", [fn(item) for item in items]
        else:
            from concurrent.futures.process import BrokenProcessPool

            chunksize = math.ceil(len(items) / self.parallelism)
            try:
                results = list(self._ensure_pool().map(fn, items, chunksize=chunksize))
                mode = "parallel"
            except BrokenProcessPool:
                # A worker died mid-round.  Nothing it did is visible to
                # the coordinator (workers only mutate their pickled
                # copies), so re-running the whole batch serially
                # in-process is bit-identical to a successful round.
                self._discard_broken_pool()
                mode, results = "fallback", [fn(item) for item in items]
        self.last_mode = mode
        self.mode_counts[mode] += 1
        return results

    def _note_swallowed_shutdown(self, where: str, exc: BaseException) -> None:
        """A pool shutdown failed but must not mask the caller's work:
        count it (``shutdown_errors``) and log the type, so the event is
        observable instead of silently vanishing."""
        self.shutdown_errors += 1
        _LOG.warning(
            "pool shutdown in %s raised %s: %s", where, type(exc).__name__, exc
        )

    def _discard_broken_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False)
            except (OSError, RuntimeError) as exc:
                # The concrete ways tearing down an already-broken pool
                # fails (dead pipes, double-shutdown races).  Anything
                # else is a programming error and propagates.
                self._note_swallowed_shutdown("_discard_broken_pool", exc)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        if getattr(self, "_pool", None) is None:
            return  # nothing held, or __init__ never finished
        try:
            self.close()
        except (OSError, RuntimeError) as exc:
            # Close at garbage-collection time can race interpreter or
            # worker teardown; those concrete failures are counted and
            # logged, not silenced wholesale.
            self._note_swallowed_shutdown("__del__", exc)


def make_executor(parallelism: int) -> Executor:
    """Executor for a ``parallelism`` setting (see :func:`check_parallelism`).

    ``1`` (the default everywhere) is the serial reference path, ``n > 1``
    a routed process pool with ``n`` workers, and ``0`` one sized to the
    cores this process may use (:func:`available_cores`) — which on a
    single-core machine keeps every batch in-process.
    """
    check_parallelism(parallelism)
    if parallelism == 1:
        return SerialExecutor()
    return ParallelExecutor(workers=parallelism or None)

"""Executors: how a round's per-client work units get run.

The simulators describe *what* each active client does in a round
(:mod:`repro.substrate.round_plan`); an executor decides *how* those
descriptions are evaluated — in-process one after another
(:class:`SerialExecutor`) or fanned out over worker processes
(:class:`ParallelExecutor`).  Both produce the same results for the same
inputs: work units are pure functions of a frozen tangle view plus
per-client state, and every random draw comes from a stream keyed by
``(round, client)``, so evaluation order cannot leak into the outcome.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Protocol, Sequence, TypeVar

from repro.substrate.cost import estimate_payload

_LOG = logging.getLogger(__name__)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "AutoExecutor",
    "available_cores",
    "make_executor",
]


def available_cores() -> int:
    """Cores actually usable by this process (affinity-mask aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platform without affinity masks
        return os.cpu_count() or 1

T = TypeVar("T")
R = TypeVar("R")


class Executor(Protocol):
    """Strategy for evaluating a batch of independent work units."""

    #: Number of concurrent workers this executor targets (1 = serial).
    parallelism: int

    #: True when work units run on the caller's own objects (no pickling),
    #: so coordinators can skip state snapshot/restore round-trips.
    shares_memory: bool

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
    shares_memory = True

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]

    def close(self) -> None:  # nothing to release
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ParallelExecutor:
    """Evaluate work units concurrently in a process pool.

    Uses :class:`concurrent.futures.ProcessPoolExecutor` with the
    ``fork`` start method where available (cheap workers sharing the
    parent's loaded modules) and the platform default elsewhere.  The
    pool is created lazily on first use and reused across rounds; call
    :meth:`close` (or use the executor as a context manager) to shut the
    workers down.

    ``fn`` and the items must be picklable; items are distributed in
    contiguous chunks so per-round payload shared between units is
    serialized once per chunk rather than once per unit — with the
    flat-weight plane, the shared :class:`RoundContext`'s tangle pickles
    its whole model store as **one contiguous arena slab** per chunk
    instead of one small array per layer per transaction (or, once the
    tangle has been :meth:`~repro.dag.tangle.Tangle.share_memory`'d, as
    a few-hundred-byte attach-by-name handle), and each result returns
    at most one model vector.  ``chunksize`` overrides the default
    one-chunk-per-worker split (useful when unit runtimes are very
    uneven).

    **Worker-crash resilience.**  A worker dying mid-round (OOM killer,
    segfault, ``os._exit``) breaks the whole pool —
    :class:`~concurrent.futures.process.BrokenProcessPool`.  Because
    work units are pure functions of their pickled payload (workers
    never mutate coordinator state), the round can be re-run serially
    in-process with bit-identical results: :meth:`map` does exactly
    that, discards the broken pool (a fresh one is created lazily on
    the next round), and records the event in
    ``mode_counts["fallback"]``.
    """

    shares_memory = False

    def __init__(self, workers: int | None = None, *, chunksize: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.parallelism = workers or (os.cpu_count() or 2)
        self.chunksize = chunksize
        self._pool: ProcessPoolExecutor | None = None
        self.mode_counts = {"parallel": 0, "fallback": 0, "shutdown_error": 0}
        self.last_mode: str | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
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
        if not items:
            return []
        if len(items) == 1:  # pool overhead buys nothing
            return [fn(items[0])]
        chunksize = self.chunksize or max(1, math.ceil(len(items) / self.parallelism))
        try:
            results = list(self._ensure_pool().map(fn, items, chunksize=chunksize))
        except BrokenProcessPool:
            # A worker died mid-round.  Nothing it did is visible to the
            # coordinator (workers only mutate their pickled copies), so
            # re-running the whole batch serially in-process is
            # bit-identical to a successful parallel round.
            self._discard_broken_pool()
            self.last_mode = "fallback"
            self.mode_counts["fallback"] += 1
            return [fn(item) for item in items]
        self.last_mode = "parallel"
        self.mode_counts["parallel"] += 1
        return results

    def _note_swallowed_shutdown(self, where: str, exc: BaseException) -> None:
        """A pool shutdown failed but must not mask the caller's work:
        count it (``mode_counts["shutdown_error"]``) and log the type,
        so the event is observable instead of silently vanishing."""
        self.mode_counts["shutdown_error"] += 1
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


class AutoExecutor:
    """Route each round to serial or parallel execution by measured fit.

    The process pool only pays off when (a) the machine has at least two
    usable cores — on a single-core box time-slicing makes a parallel
    win physically impossible, the regression ``BENCH_substrate.json``
    recorded — (b) the round plan has enough units to amortize pool
    coordination, and (c) the *bytes* work out: what crosses the process
    boundary must be small relative to the work the units represent.
    The old router could only see the unit count; this one runs the
    :func:`repro.substrate.cost.estimate_payload` cost model over the
    actual payloads, producing ``(ipc, dense)`` — bytes that would
    pickle vs. the dense working set the units touch — and routes
    serial when

    - the machine is single-core (unless ``workers`` overrides), or
    - the batch has fewer than ``min_units`` items, or
    - ``ipc`` exceeds ``ipc_budget`` (shipping the payload would cost
      more than the pool saves; an *unshared* tangle or dataset lands
      here, which is why coordinators export to shared memory before
      routing), or
    - ``dense`` is below ``min_work_bytes`` (the round's working set is
      too small for per-unit compute to amortize coordination).

    Larger rounds fan out over a lazily created machine-sized
    :class:`ParallelExecutor`.  Because work units draw from keyed rng
    streams, the route cannot affect results — only wall-clock.

    ``mode_counts`` / ``last_mode`` record the decisions (including
    mid-round worker-crash ``"fallback"`` degradations, see
    :class:`ParallelExecutor`) so benchmarks and experiments can report
    which mode auto picked; ``last_estimate`` keeps the most recent
    ``(ipc, dense)`` pair.

    Passing ``workers`` explicitly is an override of the machine
    sizing, *including* the single-core guard: ``AutoExecutor(workers=2)``
    will route large batches to a 2-worker pool even on a one-core
    machine.  Leave it unset to get the guarded default.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        min_units: int = 4,
        ipc_budget: int = 8 << 20,
        min_work_bytes: int = 1 << 20,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if min_units < 1:
            raise ValueError(f"min_units must be >= 1, got {min_units}")
        if ipc_budget < 0 or min_work_bytes < 0:
            raise ValueError("ipc_budget and min_work_bytes must be >= 0")
        self.cores = available_cores()
        self.parallelism = workers or (self.cores if self.cores >= 2 else 1)
        self.min_units = min_units
        self.ipc_budget = ipc_budget
        self.min_work_bytes = min_work_bytes
        self._serial = SerialExecutor()
        self._parallel: ParallelExecutor | None = None
        self.mode_counts = {"serial": 0, "parallel": 0, "fallback": 0}
        self.last_mode: str | None = None
        self.last_estimate: tuple[int, int] | None = None

    @property
    def shares_memory(self) -> bool:
        # Only claim in-process execution when parallel routing is
        # impossible; otherwise coordinators that cannot predict the
        # batch must capture state deltas, because any given round may
        # cross a process boundary.  Coordinators that do hold the
        # payloads should ask :meth:`will_run_in_process_payloads` and
        # skip the snapshot/restore round-trip for serial-routed rounds.
        return self.parallelism == 1

    def _route_in_process(self, items: Sequence) -> bool:
        """The routing decision :meth:`map` uses — True means serial.

        Deterministic in the payloads, so probing before ``map`` with
        the same items always agrees with the dispatch itself.
        """
        if self.parallelism == 1 or len(items) < self.min_units:
            return True
        ipc, dense = estimate_payload(items)
        self.last_estimate = (ipc, dense)
        return ipc > self.ipc_budget or dense < self.min_work_bytes

    def will_run_in_process_payloads(self, items: Sequence) -> bool:
        """Payload-aware probe: mirrors :meth:`map`'s routing exactly."""
        return self._route_in_process(items)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if self._route_in_process(items):
            self.last_mode = "serial"
            self.mode_counts["serial"] += 1
            return self._serial.map(fn, items)
        if self._parallel is None:
            self._parallel = ParallelExecutor(workers=self.parallelism)
        fallbacks_before = self._parallel.mode_counts["fallback"]
        results = self._parallel.map(fn, items)
        if self._parallel.mode_counts["fallback"] > fallbacks_before:
            self.last_mode = "fallback"
            self.mode_counts["fallback"] += 1
        else:
            self.last_mode = "parallel"
            self.mode_counts["parallel"] += 1
        return results

    def close(self) -> None:
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    def __enter__(self) -> "AutoExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def make_executor(parallelism: int | str) -> Executor:
    """Executor for a ``parallelism`` knob value.

    ``1`` (the default everywhere) is the serial reference path, ``n > 1``
    a process pool with ``n`` workers, ``0`` a process pool sized to
    the machine (``os.cpu_count()``), and ``"auto"`` an
    :class:`AutoExecutor` that falls back to serial on single-core
    machines and for rounds too small to amortize pool coordination.
    """
    if isinstance(parallelism, str):
        if parallelism != "auto":
            raise ValueError(
                f"parallelism must be an int >= 0 or 'auto', got {parallelism!r}"
            )
        return AutoExecutor()
    if parallelism < 0:
        raise ValueError(f"parallelism must be >= 0, got {parallelism}")
    if parallelism == 1:
        return SerialExecutor()
    return ParallelExecutor(workers=parallelism or None)

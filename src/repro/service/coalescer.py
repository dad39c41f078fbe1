"""Request coalescing: many concurrent tip requests, one lockstep superstep.

The walk engine's throughput comes from width — one selection call
advances *all* its particles together, scoring each superstep's union
frontier in one fused batch.  A per-request dispatch wastes that:
every request pays its own walk-start block, its own superstep loop,
its own memo probes, for a handful of particles.  The
:class:`TipCoalescer` turns concurrency into width instead:

- callers :meth:`submit` a request (count, scoring key, deadline) and
  block on an event;
- a single worker thread claims **everything pending** (up to
  ``max_batch``) the moment it goes idle, groups the claims by scoring
  key, and runs each group's combined particle count through **one**
  :meth:`~repro.service.degradation.DegradationLadder.select` over the
  shared epoch snapshot — under load, batch width grows automatically
  because requests pile up while the previous batch executes (adaptive
  batching, no artificial delay window);
- a group whose key has a scorer walks with the simulator's
  :class:`~repro.dag.tip_selection.AccuracyTipSelector` over it: the
  walk's memo scores each transaction once per group, and across
  batches the scorer's own per-tx-id cache dedups.  The coalescer
  keeps no score state, so a compaction owes it nothing.

Resilience is built into the same loop: admission is bounded
(``max_pending``; beyond it, submit sheds immediately with a
retry-after hint), each claimed request whose deadline lapsed while
queued is shed rather than walked, the batch runs at the degradation
ladder's best affordable mode, and a worker crash — injected by chaos
or real — resolves the in-flight batch as explicit retryable sheds,
after which the supervisor (every submitter and waiter re-checks
liveness) respawns the worker.  No caller ever hangs on a dead worker.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dag.tip_selection import AccuracyTipSelector
from repro.dag.walk_engine import snapshot_for
from repro.service.degradation import DegradationLadder
from repro.service.resilience import Deadline

__all__ = ["TipsOutcome", "TipCoalescer"]

#: How often blocked submitters re-check worker liveness and their own
#: deadline (seconds).  Small enough that crash recovery is prompt,
#: large enough that waiting is not a spin.
_WAIT_SLICE = 0.02


@dataclass
class TipsOutcome:
    """What one submitted request resolved to."""

    status: str  # "ok" | "shed"
    tips: list[str] | None = None
    mode: str | None = None  # LADDER_MODES entry when status == "ok"
    degraded: bool = False
    reason: str | None = None
    retry_after: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Pending:
    count: int
    score_key: object
    deadline: Deadline | None
    event: threading.Event = field(default_factory=threading.Event)
    outcome: TipsOutcome | None = None
    claimed: bool = False

    def resolve(self, outcome: TipsOutcome) -> None:
        self.outcome = outcome
        self.event.set()


class TipCoalescer:
    """Batch concurrent tip-selection requests over a shared snapshot.

    ``score_provider(score_key)`` returns a batch scorer (tx ids ->
    accuracies, cached per tx id: the
    :meth:`repro.fl.client.Client.tx_accuracies` contract) or ``None``
    for keys that should walk by cumulative weight.  ``tangle_lock``
    serializes snapshot builds against publishes mutating the tangle.
    ``crash_hook`` is the chaos plane's injection point, invoked once
    per claimed batch.

    ``max_batch=1`` degenerates to per-request dispatch through the
    same machinery — the benchmark's baseline, so the coalescing
    speedup isolates batching rather than coordination differences.
    """

    def __init__(
        self,
        tangle,
        *,
        ladder: DegradationLadder,
        score_provider=None,
        seed: int = 0,
        max_batch: int = 64,
        max_pending: int = 256,
        tangle_lock: threading.RLock | None = None,
        crash_hook=None,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._tangle = tangle
        self._ladder = ladder
        self._score_provider = score_provider
        self._rng = np.random.default_rng(seed)
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._tangle_lock = tangle_lock or threading.RLock()
        self._crash_hook = crash_hook
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: list[_Pending] = []
        self._worker: threading.Thread | None = None
        self._closed = False
        self.stats = {
            "batches": 0,
            "requests": 0,
            "coalesced": 0,  # requests that shared a batch with another
            "max_batch_size": 0,
            "shed_queue_full": 0,
            "shed_deadline_lapsed": 0,
            "shed_crash": 0,
            "restarts": 0,
        }

    # ------------------------------------------------------------ admission
    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    def submit(
        self,
        count: int,
        *,
        score_key: object = None,
        deadline: Deadline | None = None,
    ) -> TipsOutcome:
        """Block until the batch containing this request resolves.

        Sheds immediately (never blocks) when the pending queue is at
        capacity; sheds from the queue when the deadline lapses before
        a worker claims the request.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        request = _Pending(count=count, score_key=score_key, deadline=deadline)
        with self._cond:
            if self._closed:
                return TipsOutcome(status="shed", reason="shutdown")
            if len(self._queue) >= self.max_pending:
                self.stats["shed_queue_full"] += 1
                return TipsOutcome(
                    status="shed",
                    reason="queue_full",
                    retry_after=_WAIT_SLICE * 2,
                )
            self._queue.append(request)
            self._ensure_worker_locked()
            self._cond.notify()
        while not request.event.wait(_WAIT_SLICE):
            # The supervisor loop: a crashed worker is respawned by
            # whoever is still waiting, and a request whose deadline
            # lapsed before being claimed is shed instead of walked.
            with self._cond:
                if not request.claimed and request.outcome is None:
                    if deadline is not None and deadline.expired:
                        self._queue.remove(request)
                        self.stats["shed_deadline_lapsed"] += 1
                        request.resolve(
                            TipsOutcome(
                                status="shed", reason="deadline_lapsed_in_queue"
                            )
                        )
                        break
                self._ensure_worker_locked()
                self._cond.notify()
        return request.outcome

    # ------------------------------------------------------------ lifecycle
    def _ensure_worker_locked(self) -> None:
        if self._closed:
            return
        if self._worker is None or not self._worker.is_alive():
            if self._worker is not None:
                self.stats["restarts"] += 1
            self._worker = threading.Thread(
                target=self._worker_loop, name="tip-coalescer", daemon=True
            )
            self._worker.start()

    def close(self) -> None:
        """Stop the worker and shed anything still queued (idempotent)."""
        with self._cond:
            self._closed = True
            queued, self._queue = self._queue, []
            worker = self._worker
            self._cond.notify_all()
        for request in queued:
            request.resolve(TipsOutcome(status="shed", reason="shutdown"))
        if worker is not None and worker.is_alive():
            worker.join(timeout=5)

    def __enter__(self) -> "TipCoalescer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ worker
    def _worker_loop(self) -> None:
        while True:
            batch: list[_Pending] = []
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait(0.1)
                if self._closed:
                    return
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
                for request in batch:
                    request.claimed = True
            try:
                self._execute(batch)
            except Exception:
                # Crash (injected or real): the in-flight batch resolves
                # as explicit retryable sheds — never an opaque hang or
                # a 5xx-equivalent — and this thread dies.  Submitters
                # and waiters respawn a fresh worker for what remains
                # queued (supervisor-restart semantics).
                for request in batch:
                    if request.outcome is None:
                        self.stats["shed_crash"] += 1
                        request.resolve(
                            TipsOutcome(
                                status="shed",
                                reason="coalescer_restart",
                                retry_after=_WAIT_SLICE,
                            )
                        )
                return

    def _execute(self, batch: list[_Pending]) -> None:
        if self._crash_hook is not None:
            self._crash_hook()
        self.stats["batches"] += 1
        self.stats["requests"] += len(batch)
        if len(batch) > 1:
            self.stats["coalesced"] += len(batch)
        self.stats["max_batch_size"] = max(
            self.stats["max_batch_size"], len(batch)
        )
        live: list[_Pending] = []
        for request in batch:
            if request.deadline is not None and request.deadline.expired:
                self.stats["shed_deadline_lapsed"] += 1
                request.resolve(
                    TipsOutcome(status="shed", reason="deadline_lapsed_in_queue")
                )
            else:
                live.append(request)
        if not live:
            return
        with self._tangle_lock:
            snapshot = snapshot_for(self._tangle)
        # Group by scoring key: one lockstep call per distinct key, each
        # covering every member request's particles.
        groups: dict[object, list[_Pending]] = {}
        for request in live:
            groups.setdefault(request.score_key, []).append(request)
        for score_key, members in groups.items():
            self._run_group(snapshot, score_key, members)

    def _run_group(self, snapshot, score_key, members: list[_Pending]) -> None:
        total = sum(request.count for request in members)
        # The tightest member deadline governs the whole group: a batch
        # either meets its most impatient member's budget or degrades
        # for everyone (labeled on every response).
        deadline = None
        for request in members:
            if request.deadline is not None and (
                deadline is None
                or request.deadline.remaining() < deadline.remaining()
            ):
                deadline = request.deadline
        ladder = self._ladder
        scorer = None
        if self._score_provider is not None:
            scorer = self._score_provider(score_key)
        selector = None
        if scorer is not None:
            # The provider's scorer takes ids only; the walk's arena
            # rows are not part of the gateway's contract.
            selector = AccuracyTipSelector(
                lambda tx_ids, _arena_rows: scorer(tx_ids),
                alpha=ladder.alpha,
                normalization=ladder.normalization,
                depth_range=ladder.depth_range,
            )
        tips, mode, degraded, reason = ladder.select(
            snapshot, total, self._rng, selector=selector, deadline=deadline
        )
        start = 0
        for request in members:
            end = start + request.count
            request.resolve(
                TipsOutcome(
                    status="ok",
                    tips=tips[start:end],
                    mode=mode,
                    degraded=degraded,
                    reason=reason,
                )
            )
            start = end

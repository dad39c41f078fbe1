"""Tangle-as-a-service: the gateway and its in-process API.

The gateway turns a live :class:`~repro.dag.tangle.Tangle` into a
service surface — ``publish``, ``tips``, ``current_model``, ``health``,
``ready`` — with the resilience layer composed around every request:

- chaos (when enabled) fires at the boundary, so drops, jitter and
  payload corruption hit the service exactly where a real network
  would inject them;
- admission is bounded (:class:`~repro.service.resilience.AdmissionGate`
  at the gateway, ``max_pending`` inside the coalescer): overload sheds
  immediately and explicitly with a retry-after hint instead of growing
  a queue whose tail cannot meet any deadline;
- every tip request carries a :class:`~repro.service.resilience.Deadline`
  that is *propagated into the walk engine* and stage-budgeted by the
  degradation ladder, so the response arrives within budget at the best
  affordable quality, labeled when degraded;
- corrupt publishes are quarantined at the gate
  (:func:`~repro.dag.transaction.payload_error`) as explicit
  400-equivalents, never admitted and never a crash.

The resulting outcome taxonomy is closed: every request resolves to
``"ok"`` (possibly degraded), ``"shed"`` (explicit, retryable), or
``"rejected"`` (the payload itself is invalid).  There is no error
status — the chaos suite asserts the taxonomy stays closed under load.

This module is transport-free by design: tests and benchmarks drive the
in-process API directly; :mod:`repro.service.http` bolts a stdlib HTTP
front onto the same object.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.tip_selection import check_walk_settings
from repro.dag.transaction import Transaction, payload_error
from repro.dag.walk_engine import snapshot_for
from repro.fl.aggregation import mean_flat
from repro.service.coalescer import TipCoalescer, TipsOutcome
from repro.service.degradation import DegradationLadder
from repro.service.resilience import AdmissionGate, CircuitBreaker, Deadline
from repro.utils.validation import check_count, check_positive

__all__ = ["GatewayConfig", "ServiceResponse", "TangleGateway"]

_HTTP_STATUS = {"ok": 200, "shed": 429, "rejected": 400}


@dataclass(frozen=True)
class GatewayConfig:
    """Resilience knobs, all in one place (and one docs table).

    ``deadline_budget`` is the default per-request time budget for tip
    selection; ``accuracy_fraction`` is the slice of it the accuracy
    walk may burn before the ladder falls back (the rest is the
    fallback's reserve, which is what keeps p99 under the budget).
    """

    deadline_budget: float = 0.25
    accuracy_fraction: float = 0.5
    admission_capacity: int = 128
    max_pending: int = 256
    max_batch: int = 64
    alpha: float = 10.0
    normalization: str = "standard"
    depth_range: tuple[int, int] = (2, 10)
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        # Walk settings reach no component before the first tips request.
        check_positive("deadline_budget", self.deadline_budget, finite=True)
        check_positive("alpha", self.alpha, strict=False, finite=True)
        check_walk_settings(self.normalization, self.depth_range)
        check_count("admission_capacity", self.admission_capacity, 1)
        check_count("max_pending", self.max_pending, 1)
        check_count("max_batch", self.max_batch, 1)
        check_count("breaker_failure_threshold", self.breaker_failure_threshold, 1)


@dataclass
class ServiceResponse:
    """One request's resolution — the closed outcome taxonomy."""

    status: str  # "ok" | "shed" | "rejected"
    body: dict = field(default_factory=dict)
    degraded: bool = False
    reason: str | None = None
    retry_after: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def http_status(self) -> int:
        return _HTTP_STATUS[self.status]


class TangleGateway:
    """Serve a live tangle behind the resilience layer.

    ``score_provider(score_key)`` (optional) maps a request's scoring
    key to a batch tx-id scorer for accuracy-biased selection (or
    ``None``: walk by cumulative weight).  The gateway walks with
    :class:`~repro.dag.tip_selection.AccuracyTipSelector` and keeps no
    score cache of its own, so the scorer must cache per tx id, as that
    selector requires and :meth:`repro.fl.client.Client.tx_accuracies`
    does.  ``config.normalization`` governs that walk only; the weighted
    fallback uses Eq. 1, like the simulator's weighted walk.
    ``chaos`` (optional) is a :class:`~repro.service.chaos.ServiceChaos`
    whose injections fire inside the request path.  All endpoints are
    thread-safe; publishes serialize against snapshot builds on one
    internal lock.
    """

    def __init__(
        self,
        tangle: Tangle,
        *,
        config: GatewayConfig | None = None,
        score_provider=None,
        chaos=None,
        clock=time.monotonic,
    ):
        self.tangle = tangle
        self.config = config or GatewayConfig()
        self.chaos = chaos
        self._clock = clock
        self._lock = threading.RLock()
        self._closed = False
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout,
            clock=clock,
        )
        self.ladder = DegradationLadder(
            alpha=self.config.alpha,
            normalization=self.config.normalization,
            depth_range=self.config.depth_range,
            accuracy_fraction=self.config.accuracy_fraction,
            breaker=self.breaker,
        )
        self.admission = AdmissionGate(self.config.admission_capacity)
        self.coalescer = TipCoalescer(
            tangle,
            ladder=self.ladder,
            score_provider=score_provider,
            seed=self.config.seed,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            tangle_lock=self._lock,
            crash_hook=None if chaos is None else chaos.maybe_crash,
            clock=clock,
        )
        self.counts = {
            "ok": 0,
            "shed": 0,
            "rejected": 0,
            "degraded": 0,
            "published": 0,
            "quarantined": 0,
            "compactions": 0,
            "compacted_dropped": 0,
        }
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------ plumbing
    def _chaos_entry(self, kind: str) -> None:
        if self.chaos is not None:
            self.chaos.before_request(kind)

    def _account(self, response: ServiceResponse) -> ServiceResponse:
        with self._counts_lock:
            self.counts[response.status] += 1
            if response.degraded:
                self.counts["degraded"] += 1
        return response

    def close(self) -> None:
        self._closed = True
        self.coalescer.close()

    def __enter__(self) -> "TangleGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ endpoints
    def tips(
        self,
        count: int = 2,
        *,
        score_key: object = None,
        budget: float | None = None,
    ) -> ServiceResponse:
        """Select ``count`` tips within a deadline budget.

        The request rides the coalescer: concurrent callers share one
        lockstep superstep over the epoch snapshot.  May raise
        :class:`~repro.service.chaos.TransportDropped` (chaos ate the
        request in flight — a transport event, not a response).
        """
        self._chaos_entry("tips")
        if not self.admission.try_acquire():
            return self._account(
                ServiceResponse(
                    status="shed",
                    reason="admission_full",
                    retry_after=self.config.deadline_budget,
                )
            )
        try:
            deadline = Deadline(
                budget if budget is not None else self.config.deadline_budget,
                clock=self._clock,
            )
            outcome: TipsOutcome = self.coalescer.submit(
                count, score_key=score_key, deadline=deadline
            )
            return self._account(
                ServiceResponse(
                    status=outcome.status,
                    body={"tips": outcome.tips, "mode": outcome.mode},
                    degraded=outcome.degraded,
                    reason=outcome.reason,
                    retry_after=outcome.retry_after,
                )
            )
        finally:
            self.admission.release()

    def publish(
        self,
        flat: np.ndarray,
        parents: list[str],
        *,
        issuer: int = 0,
        round_index: int = 0,
        tags: dict | None = None,
    ) -> ServiceResponse:
        """Admit one model transaction through the publish gate.

        Chaos may corrupt the payload in flight; the gate then
        quarantines it (an explicit ``"rejected"``), which is the whole
        point — corruption is caught at the boundary, not downstream.
        """
        self._chaos_entry("publish")
        flat = np.asarray(flat, dtype=np.float64)
        if self.chaos is not None:
            flat, _ = self.chaos.corrupt_payload(flat)
        error = payload_error(flat, self.tangle.spec, self.tangle.arena.dtype)
        if error is not None:
            with self._counts_lock:
                self.counts["quarantined"] += 1
            return self._account(
                ServiceResponse(
                    status="rejected", reason=f"quarantined: {error}"
                )
            )
        with self._lock:
            try:
                tx = Transaction.from_flat(
                    self.tangle.next_tx_id(issuer),
                    # Same convention as every in-repo publish site: two
                    # walks may land on the same tip; collapse them.
                    tuple(dict.fromkeys(parents)),
                    flat,
                    self.tangle.spec,
                    issuer=issuer,
                    round_index=round_index,
                    tags=dict(tags or {}),
                )
                self.tangle.add(tx)
            except ValueError as exc:
                # Unknown/duplicate parents, malformed structure: the
                # request is invalid, the service is fine.
                return self._account(
                    ServiceResponse(status="rejected", reason=str(exc))
                )
            with self._counts_lock:
                self.counts["published"] += 1
            return self._account(
                ServiceResponse(status="ok", body={"tx_id": tx.tx_id})
            )

    def current_model(self) -> ServiceResponse:
        """The tangle's consensus read: the mean of the current tips.

        Cheap by construction — tip rows are a zero-copy arena gather
        and :func:`mean_flat` is one reduction, so this endpoint stays
        responsive even while walks degrade.
        """
        self._chaos_entry("current-model")
        with self._lock:
            tip_ids = self.tangle.tips() or [self.tangle.genesis.tx_id]
            stacked = np.stack(
                [self.tangle.flat_weights(tx_id) for tx_id in tip_ids]
            )
        return self._account(
            ServiceResponse(
                status="ok",
                body={
                    "model": mean_flat(stacked),
                    "tips": tip_ids,
                    "size": len(self.tangle),
                },
            )
        )

    def compact(
        self,
        *,
        keep_last: int | None = None,
        min_round: int | None = None,
        spill_path=None,
    ):
        """Truncate confirmed history while the service stays live.

        Runs :meth:`repro.dag.tangle.Tangle.compact` under the same
        lock that serializes publishes against snapshot builds.
        In-flight requests finish on the snapshot they captured; the
        next batch re-snapshots at the new compaction epoch, so no
        dropped id reaches a scorer again.  Returns the
        :class:`~repro.dag.tangle.CompactionReport`.
        """
        with self._lock:
            report = self.tangle.compact(
                keep_last=keep_last,
                min_round=min_round,
                spill_path=spill_path,
            )
        if report.dropped:
            with self._counts_lock:
                self.counts["compactions"] += 1
                self.counts["compacted_dropped"] += report.dropped
        return report

    def health(self) -> ServiceResponse:
        """Liveness + the full resilience telemetry (never sheds)."""
        body = {
            "status": "closed" if self._closed else "live",
            "tangle_size": len(self.tangle),
            "compaction_epoch": self.tangle.compaction_epoch,
            "arena_resident_bytes": self.tangle.arena.resident_nbytes,
            "breaker": self.breaker.state,
            "breaker_times_opened": self.breaker.times_opened,
            "counts": dict(self.counts),
            "ladder": dict(self.ladder.stats),
            "coalescer": dict(self.coalescer.stats),
            "admission_depth": self.admission.depth,
            "admission_shed": self.admission.shed,
        }
        if self.chaos is not None:
            body["chaos"] = dict(self.chaos.stats)
        return ServiceResponse(status="ok", body=body)

    def ready(self) -> ServiceResponse:
        """Readiness: can this gateway usefully take *more* load now?

        Not ready while closed, while admission is saturated, or while
        the coalescer queue is at capacity — the backpressure signal a
        load balancer would act on.  Reported in the body (the HTTP
        front maps ``ready: False`` to 503) rather than as a shed, so
        probes never inflate shed counts.
        """
        saturated = (
            self.admission.depth >= self.admission.capacity
            or self.coalescer.pending >= self.coalescer.max_pending
        )
        ready = not self._closed and not saturated
        return ServiceResponse(
            status="ok",
            body={
                "ready": ready,
                "admission_depth": self.admission.depth,
                "queue_depth": self.coalescer.pending,
            },
        )

    # ------------------------------------------------------------ helpers
    def snapshot(self):
        """The tangle's current walk snapshot (test/benchmark aid)."""
        with self._lock:
            return snapshot_for(self.tangle)

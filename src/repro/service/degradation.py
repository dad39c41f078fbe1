"""Graceful degradation: the tip-selection quality ladder.

The gateway never answers a tip request with an error while the tangle
is servable — it answers with the *best selection mode the budget and
the walk engine's health allow*, and labels which one it used:

1. ``"accuracy"`` — the paper's accuracy-biased walk: the request's
   :class:`~repro.dag.tip_selection.AccuracyTipSelector`, the same
   selector the simulator walks with.  The expensive, high-quality
   mode; it gets a :meth:`~repro.service.resilience.Deadline.sub` slice
   of the request budget and runs only while the circuit breaker around
   the scoring plane is closed (or admits a half-open probe).
2. ``"weighted"`` — the classic cumulative-weight walk
   (:class:`~repro.dag.tip_selection.WeightedTipSelector`, Eq. 1) over
   the same snapshot.  Near-free: the snapshot's weight array *is* a
   complete score memo, so no scoring round-trips happen at all.
3. ``"uniform"`` — a uniform draw over the snapshot's tips.  Never
   fails, costs one ``rng.integers`` block.

A fall *down* the ladder is recorded per response (``degraded=True``
plus the reason), never silent; the breaker is fed from the accuracy
stage's outcome, so repeated deadline trips or scoring crashes open it
and subsequent requests skip straight to step 2 without paying the
failed attempt first.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.dag.tip_selection import AccuracyTipSelector, WeightedTipSelector
from repro.dag.walk_engine import TangleSnapshot, WalkDeadlineExceeded
from repro.service.resilience import CircuitBreaker, Deadline

__all__ = ["DegradationLadder", "LADDER_MODES"]

#: Quality-ordered selection modes (best first).
LADDER_MODES = ("accuracy", "weighted", "uniform")


class DegradationLadder:
    """Run one coalesced batch of walk particles at the best mode the
    budget and breaker allow (see module docstring).

    ``stats`` counts per-mode selections, degradations, deadline trips,
    and scoring failures; the tally is cheap and thread-safe (the
    coalescer calls :meth:`select` from its single worker thread, but
    health probes read the stats concurrently).
    """

    def __init__(
        self,
        *,
        alpha: float = 10.0,
        normalization: str = "standard",
        depth_range: tuple[int, int] = (2, 10),
        accuracy_fraction: float = 0.5,
        breaker: CircuitBreaker | None = None,
    ):
        if not 0 < accuracy_fraction <= 1:
            raise ValueError(
                f"accuracy_fraction must be in (0, 1], got {accuracy_fraction}"
            )
        self.alpha = alpha
        self.normalization = normalization
        self.depth_range = depth_range
        self.accuracy_fraction = accuracy_fraction
        self.breaker = breaker
        self.weighted = WeightedTipSelector(alpha, depth_range=depth_range)
        self._lock = threading.Lock()
        self.stats = {
            "accuracy": 0,
            "weighted": 0,
            "uniform": 0,
            "degraded": 0,
            "deadline_trips": 0,
            "score_failures": 0,
        }

    def _count(self, key: str, by: int = 1) -> None:
        with self._lock:
            self.stats[key] += by

    def select(
        self,
        snapshot: TangleSnapshot,
        total: int,
        rng: np.random.Generator,
        *,
        selector: AccuracyTipSelector | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[list[str], str, bool, str | None]:
        """``total`` tip ids at the best affordable mode.

        Returns ``(tips, mode, degraded, reason)``.  ``degraded`` is
        True only when a *better* mode was applicable but had to be
        skipped or abandoned — a request with no accuracy ``selector``
        gets ``"weighted"`` as its native, non-degraded mode.
        """
        reason: str | None = None
        if selector is not None:
            if self.breaker is None or self.breaker.allow():
                try:
                    tips = selector.select_on_snapshot(
                        snapshot,
                        total,
                        rng,
                        deadline=None if deadline is None
                        else deadline.sub(self.accuracy_fraction),
                    )
                    if self.breaker is not None:
                        self.breaker.record_success()
                    self._count("accuracy")
                    return tips, "accuracy", False, None
                except WalkDeadlineExceeded:
                    self._count("deadline_trips")
                    reason = "accuracy_deadline"
                except Exception:
                    # A crashing scoring plane degrades service quality;
                    # it must not become a 5xx.  The breaker keeps a
                    # persistently sick plane from being re-probed on
                    # every request.
                    self._count("score_failures")
                    reason = "score_failure"
                if self.breaker is not None:
                    self.breaker.record_failure()
            else:
                reason = "breaker_open"
        degraded = reason is not None
        try:
            tips = self.weighted.select_on_snapshot(
                snapshot, total, rng, deadline=deadline
            )
            self._count("weighted")
            if degraded:
                self._count("degraded")
            return tips, "weighted", degraded, reason
        except WalkDeadlineExceeded:
            self._count("deadline_trips")
            reason = reason or "weighted_deadline"
        # Uniform: never fails, no deadline check — one integers block.
        tips = snapshot.tip_nodes
        finals = tips[rng.integers(0, len(tips), size=total)]
        self._count("uniform")
        self._count("degraded")
        return [snapshot.ids[node] for node in finals], "uniform", True, reason

"""Resilience primitives: deadlines, circuit breaking, admission, retries.

Small, independently testable mechanisms the gateway composes into its
request path.  All of them take an injectable clock (``time.monotonic``
by default) so tests drive state transitions deterministically without
sleeping.

- :class:`Deadline` — a request's time budget, propagated *into* the
  compute it triggers: the walk engine checks ``expired`` at superstep
  boundaries, and :meth:`Deadline.sub` slices the remaining budget so an
  expensive stage (the accuracy walk) can be given only a fraction,
  reserving the rest for its cheaper fallback.
- :class:`CircuitBreaker` — classic closed / open / half-open breaker
  around the walk engine: consecutive failures open it, requests then
  skip straight to degraded selection instead of queueing behind a sick
  dependency, and a single half-open probe per ``reset_timeout`` checks
  for recovery.
- :class:`AdmissionGate` — the bounded-admission counter behind
  backpressure: when the pending count hits capacity, new work is shed
  immediately (a 429-style explicit rejection) instead of growing an
  unbounded queue whose tail can never meet its deadline.
- :class:`RetryPolicy` — capped exponential backoff with jitter for the
  bundled client: retries are the *client's* half of load shedding, and
  jitter keeps a shed burst from re-arriving as a synchronized stampede.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

__all__ = [
    "Deadline",
    "CircuitBreaker",
    "AdmissionGate",
    "RetryPolicy",
]


class Deadline:
    """A monotonic time budget, checkable by anything it is handed to.

    Exposes the duck-typed surface the walk engine polls (``expired``)
    plus ``remaining()`` for queue-wait accounting and ``sub()`` for
    stage budgeting.  Immutable after construction; thread-safe because
    it only ever reads the clock.
    """

    __slots__ = ("budget", "_expires_at", "_clock")

    def __init__(self, budget: float, *, clock=time.monotonic):
        if not (math.isfinite(budget) and budget > 0):  # NaN/inf never expire
            raise ValueError(f"deadline budget must be finite and > 0, got {budget}")
        self.budget = float(budget)
        self._clock = clock
        self._expires_at = clock() + self.budget

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def remaining(self) -> float:
        """Seconds left, clamped at zero."""
        return max(0.0, self._expires_at - self._clock())

    def sub(self, fraction: float) -> "Deadline":
        """A child deadline over ``fraction`` of the remaining budget.

        The stage-budgeting primitive: giving the accuracy walk
        ``deadline.sub(0.5)`` guarantees that even when the walk burns
        its whole slice, half the parent budget is still left for the
        degraded fallback — so the *request* meets its deadline even
        though a stage inside it missed one.  The child can never
        outlive the parent.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        child = Deadline.__new__(Deadline)
        child.budget = max(self.remaining() * fraction, 1e-9)
        child._clock = self._clock
        child._expires_at = min(
            self._expires_at, self._clock() + child.budget
        )
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget:.3f}, remaining={self.remaining():.3f})"


class CircuitBreaker:
    """Closed / open / half-open breaker around a fallible dependency.

    ``failure_threshold`` *consecutive* failures open the breaker;
    while open, :meth:`allow` answers False (callers degrade without
    touching the dependency).  After ``reset_timeout`` seconds one
    half-open probe is admitted: its success closes the breaker, its
    failure re-opens it for another full timeout.  Thread-safe.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.times_opened = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state_locked()

    def _peek_state_locked(self) -> str:
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.reset_timeout
        ):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """May the protected call proceed right now?

        In half-open state, exactly one caller at a time gets a True
        (the probe); everyone else keeps degrading until the probe's
        verdict is recorded.
        """
        with self._lock:
            state = self._peek_state_locked()
            if state == "closed":
                return True
            if state == "half_open" and not self._probe_in_flight:
                self._state = "half_open"
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            if self._state == "half_open":
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self.times_opened += 1


class AdmissionGate:
    """Bounded admission: at most ``capacity`` requests pending at once.

    The backpressure mechanism: :meth:`try_acquire` answers False the
    moment the gate is full, so the caller sheds the request with an
    explicit retryable rejection instead of queueing work that cannot
    meet its deadline.  ``depth`` feeds the readiness probe.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._depth = 0
        self.shed = 0

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def try_acquire(self) -> bool:
        with self._lock:
            if self._depth >= self.capacity:
                self.shed += 1
                return False
            self._depth += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._depth <= 0:
                raise RuntimeError("release() without a matching acquire")
            self._depth -= 1


class RetryPolicy:
    """Capped exponential backoff with jitter (the bundled client's half
    of load shedding).

    Attempt ``n`` (0-based) backs off ``base_delay * multiplier**n``
    capped at ``max_delay``, then scaled by a uniform jitter factor in
    ``[1 - jitter, 1]`` — de-synchronizing retry stampedes without ever
    waiting longer than the deterministic schedule.  A server-supplied
    ``retry_after`` hint overrides the computed delay when larger.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 4,
        base_delay: float = 0.01,
        multiplier: float = 2.0,
        max_delay: float = 0.5,
        jitter: float = 0.5,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0 <= jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter

    def delay(
        self,
        attempt: int,
        rng: np.random.Generator,
        *,
        retry_after: float | None = None,
    ) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        backoff = min(
            self.max_delay, self.base_delay * self.multiplier**attempt
        )
        backoff *= 1.0 - self.jitter * float(rng.random())
        if retry_after is not None:
            backoff = max(backoff, retry_after)
        return backoff

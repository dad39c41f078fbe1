"""Unit tests for the resilience primitives (fake clocks throughout)."""

import numpy as np
import pytest

from repro.service.resilience import (
    AdmissionGate,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------- Deadline
def test_deadline_expires_exactly_at_budget():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    assert not deadline.expired
    assert deadline.remaining() == pytest.approx(1.0)
    clock.advance(0.999)
    assert not deadline.expired
    clock.advance(0.001)
    assert deadline.expired
    assert deadline.remaining() == 0.0


def test_deadline_sub_slices_remaining_budget():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    clock.advance(0.5)
    child = deadline.sub(0.5)  # half of the remaining half
    assert child.remaining() == pytest.approx(0.25)
    clock.advance(0.25)
    assert child.expired
    assert not deadline.expired  # the reserve is intact for the fallback
    assert deadline.remaining() == pytest.approx(0.25)


def test_deadline_child_never_outlives_parent():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    clock.advance(0.9)
    child = deadline.sub(1.0)
    clock.advance(0.2)
    assert deadline.expired
    assert child.expired


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_deadline_rejects_budgets_that_never_expire_or_already_have(budget):
    # NaN and inf compare as "not yet" forever: accepting them would
    # silently switch the walk deadline off.
    with pytest.raises(ValueError):
        Deadline(budget, clock=FakeClock())


def test_deadline_validates_inputs():
    with pytest.raises(ValueError):
        Deadline(0.0)
    with pytest.raises(ValueError):
        Deadline(1.0, clock=FakeClock()).sub(0.0)
    with pytest.raises(ValueError):
        Deadline(1.0, clock=FakeClock()).sub(1.5)


# ---------------------------------------------------------- CircuitBreaker
def test_breaker_opens_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0, clock=clock)
    assert breaker.state == "closed"
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_success()  # success resets the consecutive count
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.times_opened == 1
    assert not breaker.allow()


def test_breaker_half_open_admits_single_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(1.0)
    assert breaker.state == "half_open"
    assert breaker.allow()  # the probe
    assert not breaker.allow()  # everyone else keeps degrading
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_failed_probe_retrips_for_full_timeout():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_failure()  # probe failed
    assert breaker.state == "open"
    assert breaker.times_opened == 2
    clock.advance(0.5)
    assert not breaker.allow()
    clock.advance(0.5)
    assert breaker.allow()  # next probe window


def test_breaker_validates_inputs():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(reset_timeout=0.0)


# ------------------------------------------------------------ AdmissionGate
def test_admission_gate_bounds_and_counts_sheds():
    gate = AdmissionGate(2)
    assert gate.try_acquire() and gate.try_acquire()
    assert gate.depth == 2
    assert not gate.try_acquire()
    assert gate.shed == 1
    gate.release()
    assert gate.try_acquire()  # capacity freed
    assert gate.shed == 1


def test_admission_gate_release_underflow_raises():
    gate = AdmissionGate(1)
    with pytest.raises(RuntimeError):
        gate.release()
    with pytest.raises(ValueError):
        AdmissionGate(0)


# -------------------------------------------------------------- RetryPolicy
def test_retry_backoff_grows_and_caps():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0
    )
    rng = np.random.default_rng(0)
    delays = [policy.delay(n, rng) for n in range(5)]
    assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])


def test_retry_jitter_only_shrinks_within_bounds():
    policy = RetryPolicy(base_delay=0.1, multiplier=1.0, max_delay=0.1, jitter=0.5)
    rng = np.random.default_rng(1)
    for attempt in range(50):
        delay = policy.delay(attempt, rng)
        assert 0.05 <= delay <= 0.1  # never longer than the schedule


def test_retry_honors_server_retry_after_hint():
    policy = RetryPolicy(base_delay=0.01, max_delay=0.02, jitter=0.0)
    rng = np.random.default_rng(2)
    assert policy.delay(0, rng, retry_after=0.3) == pytest.approx(0.3)
    assert policy.delay(0, rng, retry_after=0.001) == pytest.approx(0.01)


def test_retry_policy_validates_inputs():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=0.2, max_delay=0.1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)

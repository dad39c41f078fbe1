"""Unit tests for the executor layer."""

import pytest

from repro.substrate import (
    ParallelExecutor,
    SerialExecutor,
    available_cores,
    check_parallelism,
    executor,
    make_executor,
)
from repro.substrate.executor import IPC_BUDGET, MIN_UNITS, MIN_WORK_BYTES


def square(x):
    return x * x


def test_serial_map_preserves_order():
    ex = SerialExecutor()
    assert ex.map(square, [3, 1, 2]) == [9, 1, 4]
    ex.close()  # idempotent no-op


def test_make_executor_selects_strategy():
    assert isinstance(make_executor(1), SerialExecutor)
    parallel = make_executor(3)
    assert isinstance(parallel, ParallelExecutor)
    assert parallel.parallelism == 3
    machine = make_executor(0)
    assert isinstance(machine, ParallelExecutor)
    assert machine.parallelism >= 1
    with pytest.raises(ValueError):
        make_executor(-1)


def test_parallel_map_matches_serial(pool_route):
    with ParallelExecutor(workers=2) as ex:
        assert ex.map(square, list(range(10))) == [square(x) for x in range(10)]
        assert ex.mode_counts["parallel"] == 1
        # empty and singleton batches
        assert ex.map(square, []) == []
        assert ex.map(square, [5]) == [25]


def test_parallel_pool_survives_close_and_reuse(pool_route):
    ex = ParallelExecutor(workers=2)
    assert ex.map(square, [1, 2]) == [1, 4]
    ex.close()
    assert ex.map(square, [3, 4]) == [9, 16]
    assert ex.mode_counts["parallel"] == 2
    ex.close()


def test_parallel_rejects_bad_worker_count():
    for workers in (0, -3):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=workers)


@pytest.mark.parametrize("parallelism", [2.5, 1.0, True, False, "2", None, -1])
def test_make_executor_rejects_non_integer_parallelism(parallelism):
    # A float would fail only in the first pool round, inside
    # ProcessPoolExecutor; True would silently mean serial.
    with pytest.raises(ValueError, match="parallelism"):
        check_parallelism(parallelism)
    with pytest.raises(ValueError, match="parallelism"):
        make_executor(parallelism)


@pytest.mark.parametrize("mask", [{0}, {0, 1, 2}])
def test_machine_sized_settings_follow_the_affinity_mask(monkeypatch, mask):
    # parallelism=0 sizes the pool from the cores this process may run
    # on, not from the host's CPU count; a one-core mask keeps even a
    # batch the cost model would ship in process.
    monkeypatch.setattr(executor.os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 64)
    assert available_cores() == len(mask)
    with make_executor(0) as ex:
        assert ex.parallelism == len(mask)
        big = [FakePayload(10, MIN_WORK_BYTES) for _ in range(MIN_UNITS)]
        assert ex.runs_in_process(big) == (len(mask) == 1)


def test_parallel_runs_single_items_in_process():
    with ParallelExecutor(workers=2) as ex:
        assert ex.runs_in_process([]) and ex.runs_in_process([5])
        # a pair is below MIN_UNITS; a full batch of cheap items has
        # too little dense work to pay for the pool
        assert ex.runs_in_process([1, 2])
        assert ex.runs_in_process([FakePayload(10, 10) for _ in range(MIN_UNITS)])
        assert ex.map(square, [5]) == [25]
        assert ex.last_mode == "serial"
        assert ex.mode_counts == {"serial": 1, "parallel": 0, "fallback": 0}
        assert ex._pool is None  # never built for an in-process batch


@pytest.mark.parametrize("knob", ["min_units", "ipc_budget", "min_work_bytes", "chunksize"])
@pytest.mark.parametrize("cls", [ParallelExecutor])
def test_executor_constructors_take_only_workers(cls, knob):
    # The routing thresholds are module constants, not per-executor knobs.
    with pytest.raises(TypeError):
        cls(workers=2, **{knob: 1})


# ------------------------------------------------------------- routing
def test_make_executor_auto_and_rejects_unknown_strings():
    # Only integers select an executor: every pool routes itself, so
    # there is no "auto" setting left to ask for.
    for setting in ("auto", "turbo"):
        with pytest.raises(ValueError, match="parallelism"):
            check_parallelism(setting)
        with pytest.raises(ValueError, match="parallelism"):
            make_executor(setting)


@pytest.fixture
def count_routing(monkeypatch):
    """Byte thresholds zeroed: only the unit count decides the route."""
    monkeypatch.setattr(executor, "MIN_WORK_BYTES", 0)


def test_auto_small_batches_route_serial(count_routing):
    with ParallelExecutor(workers=2) as ex:
        assert ex.runs_in_process([1, 2, 3])
        assert not ex.runs_in_process([1, 2, 3, 4])
        assert ex.map(square, [1, 2, 3]) == [1, 4, 9]
        assert ex.last_mode == "serial"
        assert ex.mode_counts == {"serial": 1, "parallel": 0, "fallback": 0}
        # small batches never pay for a pool
        assert ex._pool is None


def test_auto_large_batches_route_parallel_when_multicore(count_routing):
    # Bare ints carry no dense work, so the byte thresholds are zeroed
    # to expose the count-based leg of the routing on its own.
    with ParallelExecutor(workers=2) as ex:
        result = ex.map(square, list(range(8)))
        assert result == [square(x) for x in range(8)]
        assert ex.last_mode == "parallel"
        assert ex.mode_counts["parallel"] == 1
        assert not ex.runs_in_process(list(range(8)))  # crosses a boundary


def test_auto_single_core_always_serial(monkeypatch):
    monkeypatch.setattr(executor, "MIN_UNITS", 1)
    ex = ParallelExecutor(workers=1)
    assert ex.runs_in_process(list(range(10)))  # parallel routing impossible
    assert ex.map(square, list(range(10))) == [square(x) for x in range(10)]
    assert ex.mode_counts == {"serial": 1, "parallel": 0, "fallback": 0}
    ex.close()


def test_auto_defaults_track_machine_size():
    ex = ParallelExecutor()
    assert ex.parallelism == available_cores()
    big = [FakePayload(10, MIN_WORK_BYTES) for _ in range(MIN_UNITS)]
    assert ex.runs_in_process(big) == (ex.parallelism == 1)
    ex.close()


# ------------------------------------------------- cost-model routing
class FakePayload:
    """Synthetic work item with an explicit (ipc, dense) footprint."""

    def __init__(self, ipc, dense):
        self._ipc = ipc
        self._dense = dense

    def _cost_footprint(self, walk):
        return self._ipc, self._dense


def identity(x):
    return x


# The pinned decision table for ParallelExecutor(workers=2) over MIN_UNITS
# synthetic items, scaled to the module's IPC_BUDGET / MIN_WORK_BYTES:
# (per-item ipc, per-item dense) -> expected route.
ROUTING_TABLE = [
    # cheap to ship, plenty of work: the pool pays off
    ((10, MIN_WORK_BYTES), "parallel"),
    # shipping alone blows the budget: pickling eats the speedup
    ((IPC_BUDGET // 2, 100 * MIN_WORK_BYTES), "serial"),
    # nothing to compute: coordination cannot amortize
    ((10, 10), "serial"),
    # boundary: ipc exactly at budget still ships, dense exactly at
    # the work floor still runs
    ((IPC_BUDGET // MIN_UNITS, MIN_WORK_BYTES // MIN_UNITS), "parallel"),
]


@pytest.mark.parametrize("footprint,expected", ROUTING_TABLE)
def test_auto_routing_decision_table(footprint, expected):
    items = [FakePayload(*footprint) for _ in range(MIN_UNITS)]
    ex = ParallelExecutor(workers=2)
    try:
        # the query is the routing map itself performs
        assert ex.runs_in_process(items) == (expected == "serial")
        ex.map(identity, items)
        assert ex.last_mode == expected
        assert ex.last_estimate == (footprint[0] * MIN_UNITS, footprint[1] * MIN_UNITS)
    finally:
        ex.close()


# ------------------------------------------------- crash resilience
def _boom(x):
    import os

    # Suicide only inside pool workers; the in-process fallback rerun
    # (same pid as the coordinator) computes normally.
    if os.getpid() != _boom.main_pid:
        os._exit(1)
    return x * x


_boom.main_pid = None


def test_parallel_broken_pool_degrades_to_serial_and_recovers(pool_route):
    import os

    _boom.main_pid = os.getpid()
    with ParallelExecutor(workers=2) as ex:
        results = ex.map(_boom, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]  # in-process rerun, bit-identical
        assert ex.mode_counts["fallback"] == 1
        assert ex.last_mode == "fallback"
        assert ex._pool is None  # broken pool discarded
        # the next round builds a fresh pool and runs normally
        assert ex.map(square, [5, 6]) == [25, 36]
        assert ex.mode_counts["parallel"] == 1
        assert ex.last_mode == "parallel"


def test_auto_records_fallback_rounds(pool_route):
    import os

    _boom.main_pid = os.getpid()
    with ParallelExecutor(workers=2) as ex:
        assert ex.map(_boom, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert ex.mode_counts == {"serial": 0, "parallel": 0, "fallback": 1}
        assert ex.last_mode == "fallback"
        assert ex.map(square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert ex.mode_counts == {"serial": 0, "parallel": 1, "fallback": 1}


# ------------------------------------------------- swallowed shutdown errors
class _ShutdownRaises:
    """Stand-in pool whose shutdown fails with a configurable error."""

    def __init__(self, exc: BaseException):
        self.exc = exc
        self.calls = 0

    def shutdown(self, wait=True):
        self.calls += 1
        raise self.exc


def test_discard_broken_pool_counts_and_logs_concrete_failures(caplog):
    ex = ParallelExecutor(workers=2)
    fake = _ShutdownRaises(OSError("pipe already closed"))
    ex._pool = fake
    with caplog.at_level("WARNING", logger="repro.substrate.executor"):
        ex._discard_broken_pool()
    assert ex._pool is None  # the pool is discarded despite the failure
    assert fake.calls == 1
    assert ex.shutdown_errors == 1
    assert "OSError" in caplog.text  # the swallowed type is named


def test_discard_broken_pool_propagates_unexpected_errors():
    # The old bare `except Exception` hid programming errors; the
    # narrowed handler lets anything that is not a concrete pool
    # teardown failure surface.
    ex = ParallelExecutor(workers=2)
    ex._pool = _ShutdownRaises(ValueError("not a pool failure"))
    with pytest.raises(ValueError):
        ex._discard_broken_pool()
    ex._pool = None  # keep the poisoned fake from re-raising at GC time


def test_del_counts_swallowed_close_failure(caplog):
    ex = ParallelExecutor(workers=2)
    ex._pool = _ShutdownRaises(RuntimeError("cannot schedule new futures"))
    with caplog.at_level("WARNING", logger="repro.substrate.executor"):
        ex.__del__()  # must not raise
    assert ex.shutdown_errors == 1
    assert "RuntimeError" in caplog.text


def test_del_without_pool_is_inert():
    ex = ParallelExecutor(workers=2)
    assert ex._pool is None
    ex.__del__()  # no pool, nothing to count
    assert ex.shutdown_errors == 0

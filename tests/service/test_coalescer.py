"""The tip coalescer: batching proof, crash/restart, queue discipline."""

import threading
import time

import numpy as np
import pytest

import repro.service.coalescer as coalescer_mod
from repro.data.base import ClientData
from repro.fl import TrainingConfig
from repro.fl.client import Client
from repro.nn import zoo
from repro.service.chaos import InjectedCoalescerCrash
from repro.service.coalescer import TipCoalescer
from repro.service.degradation import DegradationLadder
from repro.service.resilience import Deadline


@pytest.fixture
def ladder():
    return DegradationLadder()


def _submit_concurrently(coalescer, n, count=2, **kwargs):
    outcomes = [None] * n
    barrier = threading.Barrier(n)

    def worker(slot):
        barrier.wait()
        outcomes[slot] = coalescer.submit(count, **kwargs)

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def test_concurrent_requests_coalesce_into_fewer_walks(
    tangle, ladder, monkeypatch
):
    walk_calls = []
    real = coalescer_mod.DegradationLadder.select

    def counting(self, snapshot, total, rng, **kwargs):
        walk_calls.append(total)
        return real(self, snapshot, total, rng, **kwargs)

    monkeypatch.setattr(coalescer_mod.DegradationLadder, "select", counting)
    with TipCoalescer(tangle, ladder=ladder, max_batch=64) as coalescer:
        outcomes = _submit_concurrently(coalescer, 24, count=2)
    assert all(outcome.ok for outcome in outcomes)
    assert all(len(outcome.tips) == 2 for outcome in outcomes)
    # 24 requests resolved in strictly fewer ladder walks, and the
    # particle totals account for every request exactly.
    assert len(walk_calls) < 24
    assert sum(walk_calls) == 48
    assert coalescer.stats["coalesced"] > 0
    assert coalescer.stats["max_batch_size"] > 1


def test_max_batch_one_degenerates_to_per_request_dispatch(tangle, ladder):
    with TipCoalescer(tangle, ladder=ladder, max_batch=1) as coalescer:
        outcomes = _submit_concurrently(coalescer, 8)
        assert all(outcome.ok for outcome in outcomes)
        assert coalescer.stats["batches"] == 8
        assert coalescer.stats["max_batch_size"] == 1
        assert coalescer.stats["coalesced"] == 0


def test_each_request_gets_its_own_slice_of_the_batch(tangle, ladder):
    with TipCoalescer(tangle, ladder=ladder) as coalescer:
        counts = [1, 2, 5, 3]
        outcomes = [None] * len(counts)
        barrier = threading.Barrier(len(counts))

        def worker(slot):
            barrier.wait()
            outcomes[slot] = coalescer.submit(counts[slot])

        threads = [
            threading.Thread(target=worker, args=(s,))
            for s in range(len(counts))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for outcome, count in zip(outcomes, counts):
        assert outcome.ok and len(outcome.tips) == count
        assert all(tip in tangle for tip in outcome.tips)


def test_one_batch_hands_each_member_a_disjoint_slice(
    tangle, ladder, monkeypatch
):
    monkeypatch.setattr(
        coalescer_mod.DegradationLadder,
        "select",
        lambda self, snapshot, total, rng, **kwargs: (
            [f"x{i}" for i in range(total)], "weighted", False, None
        ),
    )
    parked, release = threading.Event(), threading.Event()

    def park_first_batch():
        if not parked.is_set():
            parked.set()
            release.wait(10)

    outcomes = {}
    with TipCoalescer(
        tangle, ladder=ladder, crash_hook=park_first_batch
    ) as coalescer:

        def submit(count):
            outcomes[count] = coalescer.submit(count)

        threads = [threading.Thread(target=submit, args=(c,)) for c in (1, 2, 3)]
        threads[0].start()
        assert parked.wait(5)
        for thread in threads[1:]:  # queue behind the parked batch...
            thread.start()
        deadline = time.monotonic() + 5
        while coalescer.pending < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()  # ...and get claimed together
        for thread in threads:
            thread.join(timeout=5)
        assert coalescer.stats["max_batch_size"] == 2
    assert outcomes[1].tips == ["x0"]
    shared = outcomes[2].tips + outcomes[3].tips
    assert sorted(shared) == [f"x{i}" for i in range(5)]


def test_crash_resolves_in_flight_as_shed_and_restarts(tangle, ladder):
    crashes = iter([True, False, False, False, False])

    def crash_hook():
        if next(crashes, False):
            raise InjectedCoalescerCrash("chaos")

    with TipCoalescer(
        tangle, ladder=ladder, crash_hook=crash_hook
    ) as coalescer:
        first = coalescer.submit(2)
        assert first.status == "shed"
        assert first.reason == "coalescer_restart"
        assert first.retry_after is not None
        # The supervisor respawns a worker; the next submit succeeds.
        second = coalescer.submit(2)
        assert second.ok
        assert coalescer.stats["restarts"] == 1
        assert coalescer.stats["shed_crash"] == 1


def test_queue_full_sheds_immediately_without_blocking(tangle, ladder):
    entered = threading.Event()
    release = threading.Event()

    def blocking_hook():
        entered.set()
        release.wait(10)

    coalescer = TipCoalescer(
        tangle, ladder=ladder, max_pending=2, crash_hook=blocking_hook
    )
    try:
        # One request gets claimed and its batch sticks in the hook...
        stuck = [threading.Thread(target=coalescer.submit, args=(1,))]
        stuck[0].start()
        assert entered.wait(5)
        # ...so these two stay queued behind it, filling max_pending...
        for _ in range(2):
            thread = threading.Thread(target=coalescer.submit, args=(1,))
            thread.start()
            stuck.append(thread)
        deadline = time.monotonic() + 5
        while coalescer.pending < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert coalescer.pending == 2
        # ...and the next submit sheds instantly instead of queueing.
        start = time.monotonic()
        outcome = coalescer.submit(1)
        elapsed = time.monotonic() - start
        assert outcome.status == "shed"
        assert outcome.reason == "queue_full"
        assert outcome.retry_after is not None
        assert elapsed < 1.0  # shed, not queued behind the stuck batch
        assert coalescer.stats["shed_queue_full"] == 1
    finally:
        release.set()
        for thread in stuck:
            thread.join(timeout=5)
        coalescer.close()


def test_deadline_lapsed_in_queue_is_shed_not_walked(tangle, ladder):
    entered = threading.Event()
    release = threading.Event()

    def blocking_hook():
        entered.set()
        release.wait(10)

    coalescer = TipCoalescer(
        tangle, ladder=ladder, max_batch=1, crash_hook=blocking_hook
    )
    try:
        stuck = threading.Thread(target=coalescer.submit, args=(1,))
        stuck.start()
        assert entered.wait(5)
        # Queued behind the stuck batch with a budget too small to wait.
        outcome = coalescer.submit(1, deadline=Deadline(0.05))
        assert outcome.status == "shed"
        assert outcome.reason == "deadline_lapsed_in_queue"
    finally:
        release.set()
        stuck.join(timeout=5)
        coalescer.close()


def test_close_sheds_queued_requests_and_rejects_new_ones(tangle, ladder):
    coalescer = TipCoalescer(tangle, ladder=ladder)
    coalescer.close()
    outcome = coalescer.submit(1)
    assert outcome.status == "shed" and outcome.reason == "shutdown"
    coalescer.close()  # idempotent


def _scoring_client():
    """A real ``Client`` whose model fits the fixture tangle (3 -> 2)."""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(20, 3)), rng.integers(0, 2, size=20)
    return Client(
        ClientData(0, x, y, x, y, cluster_id=0),
        zoo.build_logistic_regression(rng, in_features=3, num_classes=2),
        TrainingConfig(),
        rng,
    )


def test_score_memo_persists_across_batches(tangle, ladder):
    """Across batches, dedup is the scorer's own per-tx-id cache: with a
    ``Client.tx_accuracies`` provider each model is evaluated once ever,
    and within one batch the walk memo asks for no id twice."""
    client = _scoring_client()
    batches: list[list[str]] = []

    def provider(score_key):
        def batch(tx_ids):
            batches[-1].extend(tx_ids)
            return client.tx_accuracies(tangle, tx_ids)

        return batch

    with TipCoalescer(
        tangle, ladder=ladder, score_provider=provider
    ) as coalescer:
        for _ in range(5):
            batches.append([])
            assert coalescer.submit(4, score_key="k").mode == "accuracy"
    for scored in batches:
        assert len(set(scored)) == len(scored)
    distinct = set().union(*batches)
    # Later batches re-asked for scored ids, and none cost an evaluation.
    assert sum(map(len, batches)) > len(distinct)
    assert client.evaluations == len(distinct)


def test_validation(tangle, ladder):
    with pytest.raises(ValueError):
        TipCoalescer(tangle, ladder=ladder, max_batch=0)
    with pytest.raises(ValueError):
        TipCoalescer(tangle, ladder=ladder, max_pending=0)
    with TipCoalescer(tangle, ladder=ladder) as coalescer:
        with pytest.raises(ValueError):
            coalescer.submit(0)

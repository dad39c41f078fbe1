"""The paper's asynchronous deployment model: the event engine, one cycle
at a time, under :meth:`SimConfig.async_compat`."""

import heapq
import itertools

import numpy as np
import pytest

from repro.dag.view import TimedTangleView
from repro.fl import DagConfig
from repro.sim import EventDrivenTangleLearning, SimConfig
from repro.sim.engine import _RANK, _Event


def make_sim(
    dataset, builder, train_config, dag_config=DagConfig(), *, seed=0, **latency
):
    return EventDrivenTangleLearning(
        dataset, builder, train_config, dag_config,
        sim_config=SimConfig.async_compat(**latency), seed=seed,
    )


@pytest.fixture
def async_sim(tiny_fmnist, mlp_builder, fast_train_config):
    return make_sim(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        seed=0,
        mean_think_time=1.0,
        mean_train_time=1.0,
        mean_propagation_delay=0.2,
    )


def test_events_are_time_ordered(async_sim):
    events = async_sim.run_cycles(20)
    times = [e.time for e in events]
    assert times == sorted(times)


def test_run_until_respects_horizon(async_sim):
    events = async_sim.run_until(10.0)
    assert all(e.time <= 10.0 for e in events)
    assert async_sim.now >= 10.0


def test_every_client_eventually_trains(async_sim):
    events = async_sim.run_cycles(40)
    assert {e.client_id for e in events} == set(async_sim.clients)


def test_published_transactions_enter_tangle(async_sim):
    events = async_sim.run_cycles(15)
    published = [e for e in events if e.published]
    assert published
    for event in published:
        assert event.tx_id in async_sim.tangle


def test_propagation_delay_hides_fresh_transactions(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """With a huge propagation delay, no client ever sees another
    client's transactions: every approved parent is either genesis or an
    earlier transaction of the *same* issuer (a client's own
    publications are local state, exempt from network delay)."""
    sim = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        seed=0,
        mean_propagation_delay=1e9,
    )
    sim.run_cycles(12)
    for tx in sim.tangle.transactions():
        if tx.is_genesis:
            continue
        for parent in tx.parents:
            parent_tx = sim.tangle.get(parent)
            assert parent_tx.is_genesis or parent_tx.issuer == tx.issuer


def test_issuer_sees_own_transactions_immediately(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """Self-visibility regression (fails on the pre-fix code): even when
    the network propagation delay hides a publication from everyone
    else, the publishing client's own subsequent walks must see it — a
    real client's local tangle always contains its own publications.
    With an effectively infinite delay, clients that publish repeatedly
    therefore chain onto their own transactions instead of re-approving
    genesis forever."""
    sim = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5), publish_gate=False),
        seed=0,
        mean_propagation_delay=1e9,
    )
    events = sim.run_cycles(30)
    published_per_client: dict[int, int] = {}
    for event in events:
        if event.published:
            published_per_client[event.client_id] = (
                published_per_client.get(event.client_id, 0) + 1
            )
    assert max(published_per_client.values()) >= 2  # workload sanity
    own_chained = [
        tx
        for tx in sim.tangle.transactions()
        if not tx.is_genesis
        and any(
            sim.tangle.get(p).issuer == tx.issuer
            for p in tx.parents
            if p != "genesis"
        )
    ]
    assert own_chained, (
        "no client ever approved its own earlier transaction — the "
        "global propagation delay is hiding publishers' own transactions "
        "from their own walks"
    )


def test_issuer_exemption_does_not_leak_to_other_clients(rng):
    """The exemption is per-observer: another client's view still honors
    the network delay, and the issuer's view does not show unpublished
    ids."""
    from repro.dag.tangle import Tangle
    from repro.dag.transaction import GENESIS_ID, Transaction

    tangle = Tangle([np.zeros(1)])
    tangle.add(Transaction("a", (GENESIS_ID,), [np.zeros(1)], issuer=3, round_index=0))
    visible_from = {GENESIS_ID: 0.0, "a": 50.0}  # published at 1.0, delay 49
    published_at = {GENESIS_ID: 0.0, "a": 1.0}
    issuer_view = TimedTangleView(
        tangle, visible_from, now=2.0, observer=3, published_at=published_at
    )
    other_view = TimedTangleView(
        tangle, visible_from, now=2.0, observer=4, published_at=published_at
    )
    assert "a" in issuer_view
    assert issuer_view.tips() == ["a"]
    assert "a" not in other_view
    assert other_view.tips() == [GENESIS_ID]
    # Before its publication time, not even the issuer sees it.
    early_view = TimedTangleView(
        tangle, visible_from, now=0.5, observer=3, published_at=published_at
    )
    assert "a" not in early_view


def test_async_published_transactions_are_arena_bound(async_sim):
    """Async publications take the flat plane: every published
    transaction is interned as an arena row with the tangle's dtype
    policy (float64 default), same as round-simulator publications."""
    events = async_sim.run_cycles(15)
    published = [e for e in events if e.published]
    assert published
    arena = async_sim.tangle.arena
    assert arena.dtype == np.dtype(np.float64)
    for event in published:
        tx = async_sim.tangle.get(event.tx_id)
        assert tx.arena_bound
        location = tx.arena_location()
        assert location is not None and location[0] is arena
        flat = tx.flat_vector(async_sim.tangle.spec)
        assert flat.dtype == arena.dtype
    # One arena row per transaction, nothing bypassed the arena.
    assert len(arena) == len(async_sim.tangle)


def test_zero_delay_allows_chaining(tiny_fmnist, mlp_builder, fast_train_config):
    sim = make_sim(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        seed=0,
        mean_propagation_delay=0.0,
        mean_think_time=2.0,
        mean_train_time=0.1,
    )
    sim.run_cycles(25)
    non_genesis_parents = [
        p
        for tx in sim.tangle.transactions()
        for p in tx.parents
        if p != "genesis"
    ]
    assert non_genesis_parents  # later txs build on earlier ones


def test_accuracy_timeline_buckets(async_sim):
    async_sim.run_until(8.0)
    timeline = async_sim.accuracy_timeline(bucket=2.0)
    assert timeline
    times = [t for t, _ in timeline]
    assert times == sorted(times)
    assert all(0.0 <= acc <= 1.0 for _, acc in timeline)
    with pytest.raises(ValueError):
        async_sim.accuracy_timeline(bucket=0.0)


def test_learning_progresses_asynchronously(async_sim):
    events = async_sim.run_cycles(60)
    early = float(np.mean([e.accuracy for e in events[:10]]))
    late = float(np.mean([e.accuracy for e in events[-10:]]))
    assert late > early


def test_deterministic_under_seed(tiny_fmnist, mlp_builder, fast_train_config):
    def run():
        sim = make_sim(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(alpha=10.0, depth_range=(2, 5)), seed=42,
        )
        events = sim.run_cycles(10)
        return [(e.time, e.client_id, e.tx_id) for e in events]

    assert run() == run()


def test_parameter_validation(tiny_fmnist, mlp_builder, fast_train_config):
    with pytest.raises(ValueError):
        make_sim(
            tiny_fmnist, mlp_builder, fast_train_config, seed=0, mean_think_time=0.0
        )
    with pytest.raises(ValueError):
        make_sim(
            tiny_fmnist, mlp_builder, fast_train_config, seed=0,
            mean_propagation_delay=-1.0,
        )


def test_timed_view_visibility(rng):
    from repro.dag.tangle import Tangle
    from repro.dag.transaction import GENESIS_ID, Transaction

    tangle = Tangle([np.zeros(1)])
    tangle.add(Transaction("a", (GENESIS_ID,), [np.zeros(1)], 0, 0))
    visible_from = {GENESIS_ID: 0.0, "a": 5.0}
    early = TimedTangleView(tangle, visible_from, now=1.0)
    late = TimedTangleView(tangle, visible_from, now=6.0)
    assert "a" not in early
    assert early.tips() == [GENESIS_ID]
    assert "a" in late
    assert late.tips() == ["a"]
    assert late.cumulative_weight(GENESIS_ID) == 2
    with pytest.raises(KeyError):
        early.get("a")


def cycle_event(finish, client_id, seq, start):
    return _Event(finish, _RANK["cycle"], client_id, seq, "cycle", start_time=start)


def test_scheduled_cycle_ties_break_by_client_id_not_push_order():
    """Ties at equal finish time must pop by client id: the client id
    outranks the push sequence, so pop order never depends on the
    incidental push order — here client 7 (pushed first, seq 0) must
    not beat client 2."""
    queue = []
    heapq.heappush(queue, cycle_event(5.0, 7, 0, 4.0))
    heapq.heappush(queue, cycle_event(5.0, 2, 1, 4.5))
    assert heapq.heappop(queue).client_id == 2
    assert heapq.heappop(queue).client_id == 7


def test_scheduled_cycle_order_invariant_to_insertion_order():
    cycles = [
        cycle_event(2.0, 3, 0, 1.0),
        cycle_event(2.0, 1, 1, 1.5),
        cycle_event(1.0, 5, 2, 0.5),
        cycle_event(2.0, 4, 3, 1.2),
    ]
    expected = None
    for permutation in itertools.permutations(cycles):
        queue = []
        for cycle in permutation:
            heapq.heappush(queue, cycle)
        popped = [heapq.heappop(queue).client_id for _ in range(len(queue))]
        if expected is None:
            expected = popped
        assert popped == expected
    assert expected == [5, 1, 3, 4]

"""Mid-run churn and staleness-aware reference aggregation."""

import numpy as np
import pytest

from repro.fl import DagConfig
from repro.fl.aggregation import REFERENCE_AGGREGATORS
from repro.sim import (
    ChurnEvent,
    EventDrivenTangleLearning,
    LatencyModel,
    SimConfig,
    StalenessPolicy,
    random_churn,
)
from repro.substrate import reference_flat


def constant_schedule(**kwargs):
    return SimConfig(
        think=LatencyModel("constant", 1.0),
        train=LatencyModel("constant", 1.0),
        propagation=LatencyModel("constant", 0.0),
        **kwargs,
    )


def make_engine(dataset, builder, train_config, dag_config, sim_config, seed=0):
    return EventDrivenTangleLearning(
        dataset, builder, train_config, dag_config, sim_config=sim_config, seed=seed
    )


def test_leave_cancels_outstanding_cycle(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Client 0's first cycle would finish at t=2; leaving at t=1.5
    cancels it, and rejoining at t=5 restarts think+train from scratch
    so its only training completion lands at t=7."""
    sim_config = constant_schedule(
        churn=(ChurnEvent(1.5, "leave", 0), ChurnEvent(5.0, "join", 0))
    )
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, sim_config
    )
    engine.run_until(8.0)
    times = [e.time for e in engine.events if e.kind == "train" and e.client_id == 0]
    assert times == [7.0]


def test_leave_at_exact_finish_time_wins_the_tie(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Churn outranks cycle completions at equal timestamps: a client
    leaving at exactly its cycle's finish time never publishes it."""
    sim_config = constant_schedule(churn=(ChurnEvent(2.0, "leave", 3),))
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, sim_config
    )
    engine.run_until(4.0)
    assert not any(
        e.kind == "train" and e.client_id == 3 for e in engine.events
    )
    assert 3 not in engine.active_clients


@pytest.mark.parametrize("quantum", [0.0, 0.8])
def test_churned_client_silent_while_away(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, quantum
):
    sim_config = SimConfig(
        quantum=quantum,
        churn=(ChurnEvent(2.0, "leave", 1), ChurnEvent(6.0, "join", 1)),
    )
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config, seed=9,
    )
    engine.run_until(12.0)
    kinds = {e.kind for e in engine.events}
    assert {"leave", "join"} <= kinds
    for event in engine.events:
        if event.kind == "train" and event.client_id == 1:
            assert not 2.0 <= event.time < 6.0
    # Membership reflected live at the boundary events.
    leave = next(e for e in engine.events if e.kind == "leave")
    join = next(e for e in engine.events if e.kind == "join")
    assert leave.time == 2.0 and join.time == 6.0


def test_join_of_active_client_is_idempotent(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Joining an already-active client must not double its cycles."""
    sim_config = constant_schedule(churn=(ChurnEvent(0.5, "join", 2),))
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, sim_config
    )
    engine.run_until(2.5)
    times = [e.time for e in engine.events if e.kind == "train" and e.client_id == 2]
    assert times == [2.0]


def test_round_mode_applies_due_churn(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Rounds never consume the cycle events the constructor queues, so
    a membership change scheduled after the first cycle's finish time
    used to sit behind them forever.  Leaves due by a round's start
    apply before that round samples, and a rejoin brings a client
    back."""
    churn = [ChurnEvent(2.0, "leave", c) for c in range(4)]
    churn.append(ChurnEvent(4.0, "join", 0))
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(churn=churn),
    )
    try:
        records = engine.run_rounds(6, clients_per_round=8)
    finally:
        engine.close()
    everyone = sorted(engine.clients)
    assert [r.active_clients for r in records[:2]] == [everyone, everyone]
    assert [r.active_clients for r in records[2:4]] == [[4, 5, 6, 7]] * 2
    assert [r.active_clients for r in records[4:]] == [[0, 4, 5, 6, 7]] * 2
    assert engine.active_clients == {0, 4, 5, 6, 7}
    membership = [(e.time, e.kind, e.client_id) for e in engine.events if e.kind != "train"]
    assert membership == [(2.0, "leave", c) for c in range(4)] + [(4.0, "join", 0)]


def test_random_churn_schedule_shape():
    rng = np.random.default_rng(17)
    schedule = random_churn(
        range(6), mean_uptime=3.0, mean_downtime=1.0, horizon=20.0, rng=rng
    )
    assert schedule
    times = [e.time for e in schedule]
    assert times == sorted(times)
    assert all(0.0 <= t < 20.0 for t in times)
    by_client: dict[int, list[str]] = {}
    for event in schedule:
        by_client.setdefault(event.client_id, []).append(event.action)
    for actions in by_client.values():
        # Everyone starts up, so per-client actions strictly alternate
        # beginning with a leave.
        expected = ["leave", "join"] * (len(actions) // 2 + 1)
        assert actions == expected[: len(actions)]
    with pytest.raises(ValueError):
        random_churn(range(3), mean_uptime=0.0, mean_downtime=1.0, horizon=5.0, rng=rng)


def test_churn_event_validation():
    with pytest.raises(ValueError):
        ChurnEvent(1.0, "crash", 0)
    with pytest.raises(ValueError):
        ChurnEvent(-1.0, "leave", 0)


def test_staleness_weights_normalize():
    staleness = np.array([0.0, 1.0, 3.0, 10.0])
    for policy in (
        StalenessPolicy("none"),
        StalenessPolicy("constant"),
        StalenessPolicy("polynomial", alpha=0.7),
        StalenessPolicy("hinge", alpha=0.5, beta=2.0),
    ):
        weights = policy.weights(staleness)
        assert weights.shape == staleness.shape
        assert np.all(weights > 0)
        assert np.isclose(weights.sum(), 1.0)
    with pytest.raises(ValueError):
        StalenessPolicy().weights(np.array([]))


def test_staleness_weights_monotone_non_increasing():
    staleness = np.linspace(0.0, 12.0, 25)
    for policy in (
        StalenessPolicy("polynomial", alpha=0.5),
        StalenessPolicy("hinge", alpha=0.5, beta=4.0),
    ):
        weights = policy.weights(staleness)
        assert np.all(np.diff(weights) <= 1e-12)
    # Hinge is flat inside the grace period.
    hinge = StalenessPolicy("hinge", alpha=0.5, beta=4.0)
    flat = hinge.weights(np.array([0.0, 2.0, 4.0]))
    assert np.allclose(flat, flat[0])


def list_reference(engine, tips, aggregator, policy):
    """The per-layer oracle of a cycle's reference at ``engine.now``:
    the reference aggregator, or — under a staleness policy — the
    per-layer sum weighted by ``policy.weights`` of each parent's age
    (publish times read off the trace)."""
    models = [engine.tangle.get(t).model_weights for t in tips]
    if policy.mode == "none":
        return REFERENCE_AGGREGATORS[aggregator](models)
    published = {"genesis": 0.0} | {
        e.tx_id: e.time for e in engine.events if e.tx_id is not None
    }
    weights = policy.weights(np.array([engine.now - published[t] for t in tips]))
    return [
        sum(w * layer for w, layer in zip(weights, layers))
        for layers in zip(*models)
    ]


def test_constant_staleness_matches_mean_aggregator(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Uniform staleness weights reproduce the default mean aggregator
    (so "constant" is a measured-but-ignored variant of "none")."""
    policy = StalenessPolicy("constant")
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(staleness=policy), seed=6,
    )
    engine.run_cycles(10)
    tips = [tx.tx_id for tx in engine.tangle.transactions()][-2:]
    weighted = list_reference(engine, tips, "mean", policy)
    mean = list_reference(engine, tips, "mean", StalenessPolicy("none"))
    for got, expected in zip(weighted, mean):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    flat = reference_flat(
        engine.clients[0],
        [engine.tangle.get(t) for t in tips],
        "mean",
        engine._staleness_weights(tips, engine.now),
    )
    np.testing.assert_allclose(
        flat, engine.model.flat_spec.flatten(mean), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("aggregator", ["mean", "median", "trimmed_mean"])
@pytest.mark.parametrize("mode", ["none", "constant", "polynomial", "hinge"])
def test_flat_reference_equals_list_reference(
    sim_dataset, logistic_builder, sim_train_config, aggregator, mode
):
    """Every cycle aggregates its reference over the parents' stacked
    arena rows; it must be the flattened per-layer oracle, for every
    aggregator and staleness policy — two parents, a repeated pick, and
    a wider parent set.  Bit for bit, except where the legacy mean's
    sequential Python sum over more than two parents rounds in another
    order (bounded at one-ulp scale, as in the aggregation suite)."""
    policy = StalenessPolicy(mode, alpha=0.5, beta=1.0)
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config,
        DagConfig(alpha=5.0, depth_range=(2, 5), aggregator=aggregator),
        SimConfig(staleness=policy), seed=6,
    )
    engine.run_cycles(12)
    ids = [tx.tx_id for tx in engine.tangle.transactions()]
    assert len(ids) >= 5
    client = engine.clients[0]
    spec = client.model.flat_spec
    for tips in (ids[-2:], [ids[-1], ids[-1]], ids[-5:]):
        flat = reference_flat(
            client,
            [engine.tangle.get(t) for t in tips],
            aggregator,
            engine._staleness_weights(tips, engine.now),
        )
        expected = spec.flatten(list_reference(engine, tips, aggregator, policy))
        assert flat.dtype == expected.dtype
        if mode == "none" and aggregator == "mean" and len(tips) > 2:
            np.testing.assert_allclose(flat, expected, rtol=1e-12, atol=1e-12)
        else:
            assert flat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", ["polynomial", "hinge"])
def test_staleness_modes_run_and_publish(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, mode
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(staleness=StalenessPolicy(mode, alpha=0.5, beta=1.0)), seed=12,
    )
    events = engine.run_cycles(12)
    assert any(e.published for e in events)
    assert len(engine.tangle) > 1


def test_full_scenario_with_everything_on(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Churn + stragglers + heterogeneity + staleness + batching all at
    once: the run completes, stays deterministic, and honors churn."""
    rng = np.random.default_rng(21)
    sim_config = SimConfig(
        quantum=0.6,
        rate_spread=0.3,
        straggler_fraction=0.25,
        straggler_slowdown=3.0,
        churn=random_churn(
            range(8), mean_uptime=6.0, mean_downtime=2.0, horizon=10.0, rng=rng
        ),
        staleness=StalenessPolicy("polynomial", alpha=0.5),
    )

    def trace():
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            sim_config, seed=30,
        )
        engine.run_until(10.0)
        away: set[int] = set()
        for event in engine.events:
            if event.kind == "leave":
                away.add(event.client_id)
            elif event.kind == "join":
                away.discard(event.client_id)
            elif event.kind == "train":
                assert event.client_id not in away
        return [
            (e.time, e.kind, e.client_id, e.published, e.accuracy, e.tx_id)
            for e in engine.events
        ]

    first = trace()
    assert any(kind == "train" for _, kind, *_ in first)
    assert first == trace()

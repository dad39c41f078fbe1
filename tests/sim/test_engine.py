"""Behavior of the event engine across its operating regimes."""

import numpy as np
import pytest

from repro.fl import DagConfig
from repro.fl.aggregation import REFERENCE_AGGREGATORS
from repro.sim import (
    ChurnEvent,
    EventDrivenTangleLearning,
    FaultModel,
    LatencyModel,
    SimConfig,
    SimEvent,
    StalenessPolicy,
)


def make_engine(dataset, builder, train_config, dag_config, sim_config, seed=0):
    return EventDrivenTangleLearning(
        dataset, builder, train_config, dag_config, sim_config=sim_config, seed=seed
    )


@pytest.mark.parametrize("quantum", [0.0, 0.75])
def test_run_until_respects_horizon(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, quantum
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(quantum=quantum),
    )
    events = engine.run_until(8.0)
    assert events
    assert all(e.time <= 8.0 for e in events)
    assert engine.now >= 8.0


def test_sequential_events_are_time_ordered(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, SimConfig()
    )
    events = engine.run_cycles(20)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert engine.completed_cycles == 20


def test_batched_run_cycles_may_overshoot_but_never_undershoots(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(quantum=1.0),
    )
    events = engine.run_cycles(10)
    assert len(events) >= 10
    assert engine.completed_cycles == len(events)


@pytest.mark.parametrize("quantum", [0.0, 0.75])
def test_published_transactions_enter_tangle(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, quantum
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(quantum=quantum),
    )
    events = engine.run_cycles(16)
    published = [e for e in events if e.published]
    assert published
    for event in published:
        assert event.tx_id in engine.tangle
        tx = engine.tangle.get(event.tx_id)
        assert tx.issuer == event.client_id
        assert tx.arena_bound
    unpublished = [e for e in events if not e.published]
    assert all(e.tx_id is None for e in unpublished)


def test_batch_freeze_hides_same_batch_publications(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """An effectively infinite quantum turns the first superstep into
    one giant batch; nothing published inside it is visible to its own
    members, so every first-batch transaction approves only genesis."""
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(quantum=1e9),
    )
    count = len(engine.clients)
    events = engine.run_cycles(count)
    first_batch = events[:count]
    assert {e.client_id for e in first_batch} == set(engine.clients)
    for event in first_batch:
        if event.published:
            assert engine.tangle.get(event.tx_id).parents == ("genesis",)


def test_quantum_batches_share_one_training_pass(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, monkeypatch
):
    """The whole superstep's local training goes through a single
    train_grouped call (the training-plane fusion the batching exists
    for)."""
    from repro.substrate import round_plan

    calls = []
    original = round_plan.train_grouped

    def counting(jobs_by_model):
        calls.append(sum(len(jobs) for _, jobs in jobs_by_model))
        return original(jobs_by_model)

    monkeypatch.setattr(round_plan, "train_grouped", counting)
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(
            think=LatencyModel("constant", 1.0),
            train=LatencyModel("constant", 1.0),
            propagation=LatencyModel("constant", 0.0),
            quantum=0.5,
        ),
    )
    engine.run_cycles(len(engine.clients))
    # The uniform schedule puts every client in the first window.
    assert calls[0] == len(engine.clients)
    assert len(calls) == 1


@pytest.mark.parametrize("personal_params", [0, 1])
def test_batched_reference_is_flat_unless_personalized(
    sim_dataset, logistic_builder, sim_train_config, monkeypatch, personal_params
):
    """Every honest cycle — sequential or batched, personalized or not —
    builds its reference through ``reference_flat``, which must equal
    the per-layer oracle: the reference aggregator, with a personalized
    client's own tail grafted on."""
    from repro.substrate import round_plan

    calls = []
    original = round_plan.reference_flat

    def counting(client, parents, aggregator, weights=None):
        calls.append(client.client_id)
        return original(client, parents, aggregator, weights)

    monkeypatch.setattr(round_plan, "reference_flat", counting)
    dag_config = DagConfig(
        alpha=5.0, depth_range=(2, 5), personal_params=personal_params
    )
    for quantum in (0.0, 0.75):
        calls.clear()
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, dag_config,
            SimConfig(quantum=quantum),
        )
        events = engine.run_cycles(16)
        assert calls == [e.client_id for e in events]
    client = engine.clients[0]
    parents = list(engine.tangle.transactions())[-2:]
    flat = original(client, parents, "mean")
    spec = client.model.flat_spec
    listed = spec.flatten(
        REFERENCE_AGGREGATORS["mean"]([tx.model_weights for tx in parents])
    )
    if personal_params:
        listed = spec.flatten(
            spec.unflatten(listed)[:-personal_params] + client.personal_tail
        )
    assert flat.tobytes() == listed.tobytes()


def test_supersteps_and_rounds_reach_the_one_pipeline(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, monkeypatch
):
    """Both schedulers feed the round plan: every superstep of a
    quantum-batched run and every in-process round is exactly one
    ``run_training_plane_round`` call over its cycles or clients."""
    from repro.substrate import round_plan

    units = []
    original = round_plan.run_training_plane_round

    def counting(executor, payloads, clients):
        units.append([unit.client_id for _, _, unit in payloads])
        return original(executor, payloads, clients)

    monkeypatch.setattr(round_plan, "run_training_plane_round", counting)
    batched = []
    original_batch = EventDrivenTangleLearning._process_batch

    def superstep(self, ready, ordered, windowed):
        batched.append([event.client_id for event in ready])
        return original_batch(self, ready, ordered, windowed)

    monkeypatch.setattr(EventDrivenTangleLearning, "_process_batch", superstep)
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(quantum=0.75),
    )
    events = engine.run_until(8.0)
    assert any(len(members) > 1 for members in batched)
    assert units == [members for members in batched if members]
    assert sum(map(len, units)) == len(events)

    units.clear()
    with make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, SimConfig()
    ) as rounds:
        records = rounds.run_rounds(3, clients_per_round=4)
    assert units == [record.active_clients for record in records]


def test_weighted_selector_batches_walks_per_group(
    sim_dataset, logistic_builder, sim_train_config, monkeypatch
):
    """With the weighted selector, a superstep's walks collapse into one
    lockstep_walks call per shared-view group (num_tips * members
    particles), not one call per member."""
    from repro.dag import walk_engine

    particle_counts = []
    original = walk_engine.lockstep_walks

    def counting(snapshot, starts, *args, **kwargs):
        particle_counts.append(len(starts))
        return original(snapshot, starts, *args, **kwargs)

    monkeypatch.setattr(walk_engine, "lockstep_walks", counting)
    dag_config = DagConfig(selector="weighted", depth_range=(2, 5))
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, dag_config,
        SimConfig(
            think=LatencyModel("constant", 1.0),
            train=LatencyModel("constant", 1.0),
            propagation=LatencyModel("constant", 0.0),
            quantum=0.5,
        ),
    )
    count = len(engine.clients)
    engine.run_cycles(count)
    assert particle_counts[0] == dag_config.num_tips * count
    assert len(particle_counts) == 1


def test_stragglers_complete_fewer_cycles(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    sim_config = SimConfig(straggler_fraction=0.25, straggler_slowdown=8.0)
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config, seed=5,
    )
    assert len(engine.stragglers) == 2  # 25% of 8
    engine.run_until(25.0)
    cycles: dict[int, int] = {cid: 0 for cid in engine.clients}
    for event in engine.events:
        if event.kind == "train":
            cycles[event.client_id] += 1
    straggler_mean = np.mean([cycles[c] for c in engine.stragglers])
    fast_mean = np.mean(
        [cycles[c] for c in engine.clients if c not in engine.stragglers]
    )
    assert straggler_mean < fast_mean


def test_rate_spread_keeps_homogeneous_default(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, SimConfig()
    )
    assert all(rate == 1.0 for rate in engine._rate.values())
    spread = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(rate_spread=0.5),
    )
    assert all(rate > 0 for rate in spread._rate.values())
    assert len(set(spread._rate.values())) > 1


def test_initially_active_restricts_membership(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(initially_active=frozenset({0, 1, 2})),
    )
    assert engine.active_clients == frozenset({0, 1, 2})
    events = engine.run_cycles(12)
    assert {e.client_id for e in events} <= {0, 1, 2}


def test_accuracy_timeline(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, SimConfig()
    )
    engine.run_until(8.0)
    timeline = engine.accuracy_timeline(bucket=2.0)
    assert timeline
    assert [t for t, _ in timeline] == sorted(t for t, _ in timeline)
    assert all(0.0 <= acc <= 1.0 for _, acc in timeline)
    with pytest.raises(ValueError):
        engine.accuracy_timeline(bucket=0.0)


def test_step_raises_when_queue_empty(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(initially_active=frozenset()),
    )
    with pytest.raises(RuntimeError):
        engine.step()


def test_views_refuse_a_tangle_compacted_under_the_engine(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Visibility rows are insertion positions: once the tangle is
    compacted behind the engine's back they no longer line up, and the
    next view must fail loudly rather than mask the wrong rows."""
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, SimConfig()
    )
    engine.run_cycles(12)
    assert engine.tangle.compact(keep_last=2).dropped
    with pytest.raises(RuntimeError, match="no longer line up"):
        engine.run_cycles(1)


def test_config_validation():
    with pytest.raises(ValueError):
        LatencyModel("gaussian", 1.0)
    with pytest.raises(ValueError):
        LatencyModel("exponential", -1.0)
    with pytest.raises(ValueError):
        SimConfig(quantum=-0.1)
    with pytest.raises(ValueError):
        SimConfig(
            think=LatencyModel("constant", 0.0), train=LatencyModel("constant", 0.0)
        )
    with pytest.raises(ValueError):
        SimConfig(straggler_fraction=1.5)
    with pytest.raises(ValueError):
        SimConfig(straggler_slowdown=0.5)
    with pytest.raises(ValueError):
        StalenessPolicy("linear")



NAN = float("nan")


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (LatencyModel, {"mean": NAN}),
        (LatencyModel, {"sigma": NAN}),
        (StalenessPolicy, {"alpha": NAN}),
        (StalenessPolicy, {"beta": NAN}),
        (ChurnEvent, {"time": NAN, "action": "join", "client_id": 0}),
        (SimConfig, {"quantum": NAN}),
        (SimConfig, {"rate_spread": NAN}),
        (SimConfig, {"straggler_slowdown": NAN}),
        (FaultModel, {"jitter": NAN}),
        (FaultModel, {"recovery": NAN}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else next(iter(v)),
)
def test_nan_settings_are_rejected(cls, kwargs):
    """NaN fails every ``x < 0`` comparison; each field rejects it at
    construction instead of deep inside a run (or not at all)."""
    field = next(iter(kwargs))
    with pytest.raises(ValueError, match=field):
        cls(**kwargs)

def test_engine_validates_unknown_clients(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    with pytest.raises(ValueError):
        make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            SimConfig(initially_active=frozenset({99})),
        )
    with pytest.raises(ValueError):
        make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            SimConfig(churn=(ChurnEvent(1.0, "leave", 99),)),
        )


def test_latency_model_sampling_laws(rng):
    assert LatencyModel("constant", 2.5).sample(rng) == 2.5
    assert LatencyModel("exponential", 0.0).sample(rng) == 0.0
    state_before = rng.bit_generator.state
    LatencyModel("constant", 1.0).sample(rng)
    assert rng.bit_generator.state == state_before  # constant draws nothing
    values = [LatencyModel("uniform", 1.0).sample(rng) for _ in range(50)]
    assert all(0.0 <= v <= 2.0 for v in values)
    values = [LatencyModel("lognormal", 1.0, 0.3).sample(rng) for _ in range(50)]
    assert all(v > 0 for v in values)


def test_sim_event_is_frozen():
    event = SimEvent(time=1.0, kind="train", client_id=0)
    with pytest.raises(AttributeError):
        event.time = 2.0

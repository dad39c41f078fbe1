"""The fault-injection plane: determinism, semantics, and defenses.

Three families of guarantees are pinned here:

- **Determinism** — a fault schedule is a pure function of
  ``(seed, SimConfig)``: identical runs replay identically (trace,
  quarantine flags, fault counters) at ``quantum = 0`` and
  ``quantum > 0``; knobs at their inert defaults — and the full
  delivery machinery under ``always_on`` with zero rates — leave the
  clean trace untouched, bit for bit.
- **Semantics** — crashes lose in-flight state (unlike graceful churn
  leaves) and recover later; total drop isolates clients to their own
  publications; duplication rescues dropped messages; partitions block
  cross-group visibility while live.
- **Defense** — corrupt (non-finite / misshapen) payloads are
  quarantined at the publish path: counted, surfaced on the
  ``SimEvent``, and never admitted into the tangle's weight arena;
  finite garbage is admitted and left to the accuracy-biased walk.
"""

import numpy as np
import pytest

from repro.data import make_fedprox_synthetic
from repro.fl import DagConfig
from repro.sim import (
    ChurnEvent,
    EventDrivenTangleLearning,
    FaultModel,
    LatencyModel,
    Partition,
    SimConfig,
)


def full_trace(events):
    """Every SimEvent field, for bit-for-bit trace comparison."""
    return [
        (
            e.time,
            e.kind,
            e.client_id,
            e.published,
            e.accuracy,
            e.reference_accuracy,
            e.tx_id,
            e.start_time,
            e.quarantined,
        )
        for e in events
    ]


def make_engine(sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
                sim_config, seed=11):
    return EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config=sim_config, seed=seed,
    )


COMPOSED_FAULTS = FaultModel(
    drop_rate=0.2,
    duplicate_rate=0.2,
    jitter=0.3,
    crash_rate=0.15,
    recovery=1.0,
    corruption_rate=0.3,
    corruption_mode="nan",
    partitions=(Partition(2.0, 4.0, (frozenset(range(4)), frozenset(range(4, 8)))),),
)


# ------------------------------------------------------------ determinism
@pytest.mark.parametrize("quantum", [0.0, 0.5])
def test_fault_schedule_replays_identically(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, quantum
):
    """Same (config, seed) -> same trace, same quarantines, same counters
    — the composed scenario exercises every fault knob plus an attacker."""
    config = SimConfig(quantum=quantum, faults=COMPOSED_FAULTS, attackers={7})
    runs = []
    for _ in range(2):
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config, config
        )
        engine.run_until(10.0)
        runs.append((full_trace(engine.events), dict(engine.fault_stats),
                     [tx.tx_id for tx in engine.tangle.transactions()]))
    assert runs[0] == runs[1]
    trace, stats, _ = runs[0]
    assert stats["crashes"] > 0
    assert stats["quarantined"] > 0
    assert any(q for *_, q in trace), "quarantined events must surface in the trace"


def test_inert_fault_knobs_reproduce_clean_trace(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Zero rates (even with non-default inert parameters like the
    recovery mean or corruption mode) keep the engine on the clean code
    path: not one rng draw shifts."""
    base = SimConfig.async_compat()
    inert = SimConfig(
        think=base.think, train=base.train, propagation=base.propagation,
        faults=FaultModel(recovery=9.9, corruption_mode="inf"),
    )
    traces = []
    for config in (base, inert):
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config, config
        )
        traces.append(full_trace(engine.run_cycles(15)))
    assert traces[0] == traces[1]


@pytest.mark.parametrize("quantum", [0.0, 0.5])
def test_always_on_delivery_machinery_matches_clean_trace(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, quantum
):
    """``always_on`` activates the per-link delivery fan-out with zero
    fault rates: pure bookkeeping overhead, identical behavior — the
    property the robustness benchmark's overhead floor relies on."""
    traces = []
    for faults in (FaultModel(), FaultModel(always_on=True)):
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            SimConfig(quantum=quantum, faults=faults),
        )
        engine.run_until(8.0)
        traces.append(full_trace(engine.events))
    assert traces[0] == traces[1]


def test_fault_schedules_differ_across_seeds(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    config = SimConfig(faults=COMPOSED_FAULTS)
    traces = []
    for seed in (1, 2):
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            config, seed=seed,
        )
        engine.run_until(8.0)
        traces.append(full_trace(engine.events))
    assert traces[0] != traces[1]


# -------------------------------------------------------- crash semantics
def test_crash_loses_in_flight_state_unlike_graceful_leave(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """A crash aborts the running cycle unpublished and wipes the
    client's evaluation cache; a graceful churn leave does neither."""
    crashing = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(faults=FaultModel(crash_rate=1.0, recovery=1e6)),
    )
    for client in crashing.clients.values():
        client._tx_accuracy_cache["sentinel"] = 0.5
    crashing.run_until(10.0)
    kinds = {e.kind for e in crashing.events}
    assert kinds == {"crash"}, "every first cycle crashes; nothing publishes"
    assert crashing.fault_stats["crashes"] == len(crashing.clients)
    assert crashing.fault_stats["recoveries"] == 0
    assert len(crashing.tangle) == 1  # genesis only
    for client in crashing.clients.values():
        assert "sentinel" not in client._tx_accuracy_cache

    leaving = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(churn=tuple(
            ChurnEvent(0.01, "leave", cid) for cid in range(8)
        )),
    )
    for client in leaving.clients.values():
        client._tx_accuracy_cache["sentinel"] = 0.5
    leaving.run_until(10.0)
    for client in leaving.clients.values():
        assert client._tx_accuracy_cache["sentinel"] == 0.5


def test_crashed_clients_recover_and_train_again(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(faults=FaultModel(crash_rate=0.4, recovery=0.5)),
    )
    engine.run_until(25.0)
    assert engine.fault_stats["crashes"] > 0
    assert engine.fault_stats["recoveries"] > 0
    recover_times = {}
    for event in engine.events:
        if event.kind == "recover":
            recover_times.setdefault(event.client_id, event.time)
    trained_after = [
        e for e in engine.events
        if e.kind == "train" and e.client_id in recover_times
        and e.time > recover_times[e.client_id]
    ]
    assert trained_after, "recovered clients train again"


def test_scheduled_leave_during_a_crash_sticks(logistic_builder, sim_train_config):
    """Client 0 crashes before its scheduled leave at t=2 and recovers
    while away: the recovery must not bring it back before its
    scheduled join at t=9, which still does."""
    engine = EventDrivenTangleLearning(
        make_fedprox_synthetic(num_clients=4, mean_samples=20, seed=3),
        logistic_builder,
        sim_train_config,
        DagConfig(alpha=5.0, depth_range=(2, 5)),
        sim_config=SimConfig(
            faults=FaultModel(crash_rate=0.5, recovery=1.0),
            churn=(ChurnEvent(2.0, "leave", 0), ChurnEvent(9.0, "join", 0)),
        ),
        seed=0,
    )
    engine.run_until(8.9)
    own = [(e.time, e.kind) for e in engine.events if e.client_id == 0]
    crash = next(t for t, kind in own if kind == "crash")
    recover = next(t for t, kind in own if kind == "recover")
    assert crash < 2.0 < recover < 8.9, own
    assert [t for t, kind in own if kind == "train" and t >= 2.0] == []
    assert 0 not in engine.active_clients
    engine.run_until(9.0)
    assert 0 in engine.active_clients
    engine.run_until(20.0)
    assert any(
        e.kind == "train" and e.client_id == 0 and e.time > 9.0
        for e in engine.events
    )


# ----------------------------------------------------------- link faults
def test_total_drop_isolates_clients_to_their_own_publications(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """With every link dropping, a client only ever sees genesis and its
    own transactions — so every parent must be genesis or same-issuer."""
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(faults=FaultModel(drop_rate=1.0)),
    )
    engine.run_until(12.0)
    assert engine.fault_stats["dropped_links"] > 0
    issuer_of = {tx.tx_id: tx.issuer for tx in engine.tangle.transactions()}
    assert len(engine.tangle) > 1
    for tx in engine.tangle.transactions():
        for parent in tx.parents:
            assert issuer_of[parent] in (-1, tx.issuer)


def test_duplication_rescues_dropped_messages(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """The duplicate copy has its own propagation delay; when the
    primary copy drops, the duplicate still arrives — so with both
    rates at 1.0, cross-client approvals reappear."""
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(faults=FaultModel(drop_rate=1.0, duplicate_rate=1.0)),
    )
    engine.run_until(12.0)
    stats = engine.fault_stats
    assert stats["dropped_links"] > 0 and stats["duplicated_links"] > 0
    issuer_of = {tx.tx_id: tx.issuer for tx in engine.tangle.transactions()}
    cross = [
        tx for tx in engine.tangle.transactions()
        if any(issuer_of[p] not in (-1, tx.issuer) for p in tx.parents)
    ]
    assert cross, "duplicates must restore cross-client visibility"


def test_partition_blocks_cross_group_approvals_while_live(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """During the window, messages crossing group boundaries are held:
    transactions published inside it only approve genesis or same-side
    parents."""
    groups = (frozenset(range(4)), frozenset(range(4, 8)))
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(
            propagation=LatencyModel("constant", 0.0),
            faults=FaultModel(partitions=(Partition(0.0, 100.0, groups),)),
        ),
    )
    engine.run_until(20.0)
    assert len(engine.tangle) > 1
    side = {cid: 0 if cid < 4 else 1 for cid in range(8)}
    issuer_of = {tx.tx_id: tx.issuer for tx in engine.tangle.transactions()}
    for tx in engine.tangle.transactions():
        for parent in tx.parents:
            issuer = issuer_of[parent]
            if issuer != -1:
                assert side[issuer] == side[tx.issuer]


# ------------------------------------------------------------ quarantine
@pytest.mark.parametrize("mode", ["nan", "inf"])
def test_non_finite_corruption_is_quarantined(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, mode
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(faults=FaultModel(corruption_rate=1.0, corruption_mode=mode)),
    )
    events = engine.run_cycles(10)
    train = [e for e in events if e.kind == "train"]
    assert train and all(
        e.published is False and e.quarantined is True and e.tx_id is None
        for e in train
    )
    assert len(engine.tangle) == 1, "nothing corrupt reaches the arena"
    assert engine.fault_stats["quarantined"] == len(train)
    assert engine.fault_stats["corrupted"] == len(train)


def test_finite_noise_corruption_is_admitted(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Finite garbage passes validation — rejecting it is the walk's
    job (accuracy bias), not the publish gate's."""
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(faults=FaultModel(corruption_rate=1.0, corruption_mode="noise")),
    )
    events = engine.run_cycles(10)
    train = [e for e in events if e.kind == "train"]
    assert train and all(e.published and e.quarantined is None for e in train)
    assert engine.fault_stats["quarantined"] == 0
    assert engine.fault_stats["corrupted"] == len(train)
    spec = engine.model.flat_spec
    for tx in engine.tangle.transactions():
        assert np.isfinite(tx.flat_vector(spec)).all()


def test_fault_stats_surface_in_runner_metrics(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    from repro.experiments.runner import run_async_dag_with_metrics

    bundle = run_async_dag_with_metrics(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config=SimConfig(
            faults=FaultModel(corruption_rate=1.0, corruption_mode="nan")
        ),
        horizon=5.0, seed=11,
    )
    assert bundle["fault_stats"]["quarantined"] > 0


@pytest.mark.parametrize("publish_gate", [True, False])
def test_round_barrier_quarantines_non_finite_rows(publish_gate):
    """Round commits share the cycles' publish path: a step size of
    1e308 overflows every trained row, and each one that clears the
    publish gate is quarantined — counted, flagged on its event, left
    out of the round record and never added to the tangle."""
    from repro.fl import TangleLearning, TrainingConfig
    from repro.nn import zoo

    dataset = make_fedprox_synthetic(num_clients=6, mean_samples=20, seed=3)
    features = dataset.clients[0].x_train.shape[1]
    sim = TangleLearning(
        dataset,
        lambda rng: zoo.build_logistic_regression(
            rng, in_features=features, num_classes=10
        ),
        TrainingConfig(learning_rate=1e308, local_epochs=5, batch_size=4),
        DagConfig(publish_gate=publish_gate),
        clients_per_round=4,
        seed=0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        records = sim.run(3)
    train = [e for e in sim.events if e.kind == "train"]
    assert len(train) == 12
    assert all(not record.published for record in records)
    assert len(sim.tangle) == 1, "nothing non-finite reaches the arena"
    assert all(e.published is False and e.tx_id is None for e in train)
    quarantined = [e for e in train if e.quarantined]
    assert sim.fault_stats["quarantined"] == len(quarantined)
    if not publish_gate:
        assert len(quarantined) == len(train)


# ------------------------------------------------------------- attackers
def test_attacker_cycles_publish_malicious_transactions(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = make_engine(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        SimConfig(attackers={2}),
    )
    events = engine.run_cycles(20)
    attacker_events = [e for e in events if e.client_id == 2 and e.kind == "train"]
    assert attacker_events
    for event in attacker_events:
        assert event.published and event.accuracy is None
    malicious = [
        tx for tx in engine.tangle.transactions() if tx.tags.get("malicious")
    ]
    assert {tx.issuer for tx in malicious} == {2}
    assert all(t is not None for _, t in engine.accuracy_timeline())


@pytest.mark.parametrize("quantum", [0.0, 0.6])
def test_attackers_run_under_quantum_batching(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config, quantum
):
    config = SimConfig(quantum=quantum, attackers={0, 5})
    runs = []
    for _ in range(2):
        engine = make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config, config
        )
        engine.run_until(8.0)
        runs.append(full_trace(engine.events))
    assert runs[0] == runs[1]
    attacker_publishes = [
        t for t in runs[0] if t[1] == "train" and t[2] in (0, 5) and t[3]
    ]
    assert attacker_publishes, "attackers publish under batching too"


def test_unknown_attacker_ids_are_rejected(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    with pytest.raises(ValueError, match="unknown attacker"):
        make_engine(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            SimConfig(attackers={99}),
        )


def test_run_rounds_attacker_parity_with_round_simulator(
    sim_dataset, logistic_builder, sim_train_config, sequential_walks
):
    """The round path routes attackers through the round substrate's own
    attack units — records and tangle match the digest recorded from the
    legacy ``TangleLearning(attackers={3: "random_weights"})``."""
    from .test_parity import LEGACY_DIGESTS, SCENARIOS

    assert (
        SCENARIOS["attacker"](sim_dataset, logistic_builder, sim_train_config)
        == LEGACY_DIGESTS["attacker"]
    )

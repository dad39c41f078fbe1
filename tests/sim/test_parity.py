"""Parity: the event engine reproduces the retired fixed-schedule simulators.

The engine is the repo's only cycle/round implementation; the two
simulators it replaced stay the reference **as data**.  The digests
below were recorded from ``AsyncTangleLearning`` / ``TangleLearning``
themselves at the last commit that shipped them (the generating snippet
and its output are quoted in CHANGES.md, PR 13):

- sequential mode (``quantum = 0``) under :meth:`SimConfig.async_compat`
  — same publish trace, same transaction ids, same accuracies;
- round mode (:meth:`run_rounds`) — identical round records (modulo
  wall-clock walk timings) and tangles, across the training-plane and
  walk-engine variants.

Everything the engine adds (latency models, churn, staleness, quantum
batching) must therefore be strictly additive: inert knobs cannot shift
a single rng draw.
"""

import hashlib
import json

import pytest

from repro.fl import DagConfig
from repro.sim import EventDrivenTangleLearning, LatencyModel, SimConfig

#: sha256 over ``json.dumps([trace_or_records, tangle_ids])`` as produced
#: by the legacy simulators (seeds and drives as in the tests below).
LEGACY_DIGESTS = {
    "cycles": "4b2a0c5d30d25420282cb1e35a8959e7885476c0a781f2dfb6df8e60d551711e",
    "custom-latency": "3c5f9cb500abed0d4a9ee401b73cb38a506267136a828c439b9e96175cbfe240",
    "zero-propagation": "a1fb59c79a8f293b0bee9b2a6edb2fcebbe5382e70bc2e8f69aa74867af2d411",
    "accuracy": "206c5f0e385981fc82ab1b08148a0134be38545eb15dbac9c2247e368191ee12",
    "training-plane": "206c5f0e385981fc82ab1b08148a0134be38545eb15dbac9c2247e368191ee12",
    "weighted-engine": "9f0636ec9d240861c2381743f9ad8a99fa19fbf226c37dd38f7be4b25d059203",
    "attacker": "46b25e554e6d9521382f8c89e94722ea48c280a65a883cb7fabfbfe0b9c14308",
}


def publish_trace(events):
    return [
        (e.time, e.client_id, e.published, e.accuracy, e.reference_accuracy, e.tx_id)
        for e in events
    ]


def tangle_ids(tangle):
    return [tx.tx_id for tx in tangle.transactions()]


def record_key(record):
    """Everything in a RoundRecord except wall-clock walk timings."""
    return (
        record.round_index,
        record.active_clients,
        record.client_accuracy,
        record.client_loss,
        record.reference_accuracy,
        record.published,
        record.walk_evaluations,
    )


def digest(*parts):
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


@pytest.mark.parametrize("training_plane", [False, True])
def test_sequential_mode_matches_async_simulator(
    sim_dataset, logistic_builder, sim_train_config, training_plane
):
    """The training plane is bit-identical, so both variants hit the
    one digest the legacy simulator produced for either."""
    dag_config = DagConfig(
        alpha=5.0, depth_range=(2, 5), training_plane=training_plane
    )
    engine = EventDrivenTangleLearning(
        sim_dataset,
        logistic_builder,
        sim_train_config,
        dag_config,
        sim_config=SimConfig.async_compat(),
        seed=11,
    )
    trace = publish_trace(engine.run_cycles(25))
    assert digest(trace, tangle_ids(engine.tangle)) == LEGACY_DIGESTS["cycles"]


def test_sequential_parity_with_custom_latency_means(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Non-default means flow through to the same draws."""
    engine = EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config=SimConfig.async_compat(
            mean_think_time=0.5, mean_train_time=2.0,
            train_time_sigma=0.5, mean_propagation_delay=0.3,
        ),
        seed=4,
    )
    trace = publish_trace(engine.run_until(12.0))
    assert (
        digest(trace, tangle_ids(engine.tangle)) == LEGACY_DIGESTS["custom-latency"]
    )
    assert engine.now == 12.0


def test_sequential_parity_with_zero_propagation_delay(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """The zero-delay case skips the propagation draw — a
    stream-alignment trap the LatencyModel must reproduce."""
    engine = EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config=SimConfig.async_compat(mean_propagation_delay=0.0),
        seed=8,
    )
    trace = publish_trace(engine.run_cycles(20))
    assert (
        digest(trace, tangle_ids(engine.tangle)) == LEGACY_DIGESTS["zero-propagation"]
    )


ROUND_SCENARIOS = {
    "accuracy": DagConfig(alpha=5.0, depth_range=(2, 5)),
    "training-plane": DagConfig(alpha=5.0, depth_range=(2, 5), training_plane=True),
    "weighted-engine": DagConfig(
        selector="weighted", depth_range=(2, 5), walk_engine=True
    ),
}


@pytest.mark.parametrize("scenario", list(ROUND_SCENARIOS))
def test_round_mode_matches_round_simulator(
    sim_dataset, logistic_builder, sim_train_config, scenario
):
    engine = EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, ROUND_SCENARIOS[scenario],
        seed=7,
    )
    try:
        records = engine.run_rounds(4, clients_per_round=5)
    finally:
        engine.close()
    assert (
        digest([record_key(r) for r in records], tangle_ids(engine.tangle))
        == LEGACY_DIGESTS[scenario]
    )
    assert engine.round_history == records


def test_round_mode_events_mirror_records(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    engine = EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config, seed=2
    )
    try:
        records = engine.run_rounds(3, clients_per_round=4)
    finally:
        engine.close()
    train_events = [e for e in engine.events if e.kind == "train"]
    assert len(train_events) == sum(len(r.active_clients) for r in records)
    published_ids = [e.tx_id for e in train_events if e.published]
    assert published_ids == [tx for r in records for tx in r.published]
    assert engine.now == float(len(records))


def test_inert_knobs_do_not_shift_streams(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Heterogeneity draws come from a dedicated stream: a zero-impact
    rate spread plus an all-ones slowdown must leave the trace alone."""
    base = SimConfig.async_compat()
    inert = SimConfig(
        think=base.think,
        train=base.train,
        propagation=base.propagation,
        straggler_fraction=0.5,
        straggler_slowdown=1.0,  # flagged as stragglers, but not slowed
    )
    trace = []
    for config in (base, inert):
        engine = EventDrivenTangleLearning(
            sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
            sim_config=config, seed=13,
        )
        trace.append(publish_trace(engine.run_cycles(15)))
    assert trace[0] == trace[1]


def test_uniform_schedule_processes_clients_in_id_order(
    sim_dataset, logistic_builder, sim_train_config, sim_dag_config
):
    """Constant latencies collapse every client onto the same finish
    time; the tie-break must order the trace by client id."""
    engine = EventDrivenTangleLearning(
        sim_dataset, logistic_builder, sim_train_config, sim_dag_config,
        sim_config=SimConfig(
            think=LatencyModel("constant", 1.0),
            train=LatencyModel("constant", 1.0),
            propagation=LatencyModel("constant", 0.0),
        ),
        seed=0,
    )
    events = engine.run_cycles(len(engine.clients))
    assert [e.time for e in events] == [2.0] * len(engine.clients)
    assert [e.client_id for e in events] == sorted(engine.clients)

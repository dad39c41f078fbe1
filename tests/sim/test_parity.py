"""Parity: the event engine reproduces the retired fixed-schedule simulators.

The engine is the repo's only cycle/round implementation; the two
simulators it replaced stay the reference **as data**.  The digests
below were recorded from ``AsyncTangleLearning`` / ``TangleLearning``
themselves at the last commit that shipped them (the generating snippet
and its output are quoted in CHANGES.md, PR 13):

- sequential mode (``quantum = 0``) under :meth:`SimConfig.async_compat`
  — same publish trace, same transaction ids, same accuracies;
- round mode (:meth:`run_rounds`) — identical round records (modulo
  wall-clock walk timings) and tangles.

Everything the engine adds (latency models, churn, staleness, quantum
batching) must therefore be strictly additive: inert knobs cannot shift
a single rng draw.

The legacy simulators walked sequentially (except ``weighted-engine``),
so their digests hold under the ``sequential_walks`` fixture, unchanged
— the proof that retiring the ``walk_engine`` knob moved the walker and
no scheduler stream.  ``ENGINE_DIGESTS`` pins the same scenarios on the
walker the library runs (snippet and output in CHANGES.md, PR 16).
"""

import hashlib
import json

import pytest

from repro.fl import DagConfig
from repro.sim import (
    EventDrivenTangleLearning,
    FaultModel,
    LatencyModel,
    Partition,
    SimConfig,
    StalenessPolicy,
)

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


#: The same scenarios under the lockstep walker (``weighted-engine``
#: always used it, so it has the one digest above).
ENGINE_DIGESTS = {
    "cycles": "d9b8c11de7cd28f7d39714823d2a5b62cdb709303340cb0dd519cec55830f666",
    "custom-latency": "ac304dfa59f0846df4a3f1307795d9f136edfd3fd0310c5c428becd9e27df6f4",
    "zero-propagation": "7bbbe68d4b9850ba1c732ab01588f3e3e2692b8de0ceb4abedbbb1bad4966fec",
    "accuracy": "f121830607cedbfabb64ca62b0aebcabba1ccf91dbf322a358a70e893c60ac2e",
    "attacker": "ffd80ade119215084be5f71f7bb001c52d48b2016aa87f5c940cec74ac2e0153",
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


def cycles_digest(dataset, builder, train_config):
    engine = EventDrivenTangleLearning(
        dataset,
        builder,
        train_config,
        DagConfig(alpha=5.0, depth_range=(2, 5)),
        sim_config=SimConfig.async_compat(),
        seed=11,
    )
    trace = publish_trace(engine.run_cycles(25))
    return digest(trace, tangle_ids(engine.tangle))


def custom_latency_digest(dataset, builder, train_config):
    """Non-default means flow through to the same draws."""
    engine = EventDrivenTangleLearning(
        dataset, builder, train_config, DagConfig(alpha=5.0, depth_range=(2, 5)),
        sim_config=SimConfig.async_compat(
            mean_think_time=0.5, mean_train_time=2.0,
            train_time_sigma=0.5, mean_propagation_delay=0.3,
        ),
        seed=4,
    )
    trace = publish_trace(engine.run_until(12.0))
    assert engine.now == 12.0
    return digest(trace, tangle_ids(engine.tangle))


def zero_propagation_digest(dataset, builder, train_config):
    """The zero-delay case skips the propagation draw — a
    stream-alignment trap the LatencyModel must reproduce."""
    engine = EventDrivenTangleLearning(
        dataset, builder, train_config, DagConfig(alpha=5.0, depth_range=(2, 5)),
        sim_config=SimConfig.async_compat(mean_propagation_delay=0.0),
        seed=8,
    )
    trace = publish_trace(engine.run_cycles(20))
    return digest(trace, tangle_ids(engine.tangle))


def rounds_digest(
    dataset, builder, train_config, dag_config, sim_config=SimConfig(), modes=None
):
    """Digest of four rounds; ``modes``, when given, receives the pool
    executor's ``mode_counts``."""
    engine = EventDrivenTangleLearning(
        dataset, builder, train_config, dag_config, sim_config=sim_config, seed=7
    )
    try:
        records = engine.run_rounds(4, clients_per_round=5)
    finally:
        engine.close()
    if modes is not None:
        modes.update(engine.executor.mode_counts)
    assert engine.round_history == records
    return digest([record_key(r) for r in records], tangle_ids(engine.tangle))


#: The legacy simulator's two training paths are the two routes of
#: ``execute_round`` now: its per-client loop ("accuracy") is what a
#: round crossing to the pool runs in its workers, its lockstep plane
#: ("training-plane") is what an in-process round runs.
ROUND_SCENARIOS = {
    "accuracy": DagConfig(alpha=5.0, depth_range=(2, 5), parallelism=2),
    "training-plane": DagConfig(alpha=5.0, depth_range=(2, 5)),
    "weighted-engine": DagConfig(selector="weighted", depth_range=(2, 5)),
}

#: Every scenario as a ``(dataset, builder, train_config) -> digest``
#: callable; ``attacker`` is the round path through the substrate's own
#: attack units (legacy ``TangleLearning(attackers={3: "random_weights"})``).
SCENARIOS = {
    "cycles": cycles_digest,
    "custom-latency": custom_latency_digest,
    "zero-propagation": zero_propagation_digest,
    "accuracy": lambda *fixtures: rounds_digest(
        *fixtures, ROUND_SCENARIOS["training-plane"]
    ),
    "attacker": lambda *fixtures: rounds_digest(
        *fixtures, ROUND_SCENARIOS["training-plane"], SimConfig(attackers={3})
    ),
}


def test_sequential_mode_matches_async_simulator(
    sim_dataset, logistic_builder, sim_train_config, sequential_walks
):
    fixtures = (sim_dataset, logistic_builder, sim_train_config)
    assert SCENARIOS["cycles"](*fixtures) == LEGACY_DIGESTS["cycles"]


def test_sequential_parity_with_custom_latency_means(
    sim_dataset, logistic_builder, sim_train_config, sequential_walks
):
    fixtures = (sim_dataset, logistic_builder, sim_train_config)
    assert SCENARIOS["custom-latency"](*fixtures) == LEGACY_DIGESTS["custom-latency"]


def test_sequential_parity_with_zero_propagation_delay(
    sim_dataset, logistic_builder, sim_train_config, sequential_walks
):
    fixtures = (sim_dataset, logistic_builder, sim_train_config)
    assert (
        SCENARIOS["zero-propagation"](*fixtures) == LEGACY_DIGESTS["zero-propagation"]
    )


@pytest.mark.parametrize("scenario", list(ROUND_SCENARIOS))
def test_round_mode_matches_round_simulator(
    sim_dataset, logistic_builder, sim_train_config, scenario, request
):
    if scenario != "weighted-engine":  # that one was recorded on the engine
        request.getfixturevalue("sequential_walks")
    modes = None
    if scenario == "accuracy":  # tiny payloads: force the pool route
        request.getfixturevalue("pool_route")
        modes = {}
    assert (
        rounds_digest(
            sim_dataset,
            logistic_builder,
            sim_train_config,
            ROUND_SCENARIOS[scenario],
            modes=modes,
        )
        == LEGACY_DIGESTS[scenario]
    )
    if modes is not None:
        assert modes["parallel"] == 4


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_engine_walker_digests(
    sim_dataset, logistic_builder, sim_train_config, scenario
):
    """The same scenarios on the walker the library runs."""
    fixtures = (sim_dataset, logistic_builder, sim_train_config)
    assert SCENARIOS[scenario](*fixtures) == ENGINE_DIGESTS[scenario]


#: Superstep walks (``quantum > 0``) never went through a sequential
#: walker: recorded at PR 16's parent, where the engine still walked its
#: batches inline, and unchanged by routing them through the selectors.
QUANTUM_REPLAY_DIGESTS = {
    "accuracy": "95fbcb8700d8a65013f5e3a547a5916cc7a16ea8a602899f9543e81ba89f652f",
    "weighted": "bda9d8e09a8b8e7684856a313de1d383d3194cd22c297991039158311f8be071",
    "random": "93029ccdde6bd58af1b60f5683ed36e131ab296eb323ef01b3b8cfa1c0f77cba",
}


def quantum_replay_digest(dataset, builder, train_config, selector):
    engine = EventDrivenTangleLearning(
        dataset, builder, train_config,
        DagConfig(alpha=5.0, depth_range=(2, 5), selector=selector),
        sim_config=SimConfig(quantum=0.6, attackers={2}),
        seed=5,
    )
    trace = publish_trace(engine.run_until(14.0))
    assert any(e.client_id == 2 and e.published for e in engine.events)
    return digest(trace, tangle_ids(engine.tangle))


@pytest.mark.parametrize("selector", list(QUANTUM_REPLAY_DIGESTS))
def test_quantum_batches_replay_draw_for_draw(
    sim_dataset, logistic_builder, sim_train_config, selector
):
    fixtures = (sim_dataset, logistic_builder, sim_train_config)
    assert quantum_replay_digest(*fixtures, selector) == QUANTUM_REPLAY_DIGESTS[selector]


def engine_trace_digest(
    dataset, builder, train_config, dag_config, sim_config, *, seed, steps=None
):
    """Digest of a whole engine trace (membership, crash and quarantine
    events included), the tangle with each transaction's squared weight
    norm to ten significant digits (blind to summation-order ulps, not
    to a different model; a plain sum would be, since softmax SGD
    conserves it), and the fault counters: ``steps`` :meth:`step`
    calls, or ``run_until(10.0)`` when ``None``."""
    engine = EventDrivenTangleLearning(
        dataset, builder, train_config, dag_config, sim_config=sim_config, seed=seed
    )
    if steps is None:
        engine.run_until(10.0)
    else:
        for _ in range(steps):
            engine.step()
    trace = [
        (
            e.time, e.kind, e.client_id, e.published, e.accuracy,
            e.reference_accuracy, e.tx_id, e.quarantined,
        )
        for e in engine.events
    ]
    spec = engine.tangle.spec
    norms = [
        f"{float(flat @ flat):.10g}"
        for flat in (tx.flat_vector(spec) for tx in engine.tangle.transactions())
    ]
    return digest(trace, tangle_ids(engine.tangle), norms, engine.fault_stats)


_ACCURACY = DagConfig(alpha=5.0, depth_range=(2, 5))
_WEIGHTED = DagConfig(selector="weighted", depth_range=(2, 5))
_RANDOM = DagConfig(selector="random")
_COMPOSED_FAULTS = FaultModel(
    drop_rate=0.2,
    duplicate_rate=0.2,
    jitter=0.3,
    partitions=(Partition(2.0, 5.0, (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))),),
    crash_rate=0.2,
    recovery=0.5,
    corruption_rate=0.2,
)

#: Single-cycle regimes — ``quantum = 0`` and :meth:`step` at any
#: quantum — as ``(dag_config, sim_config, seed, steps)``, one per
#: reference, training and walk branch a single cycle can take.
SINGLE_CYCLE_SCENARIOS = {
    "accuracy": (_ACCURACY, SimConfig(), 21, None),
    "weighted": (_WEIGHTED, SimConfig(), 22, None),
    "random": (_RANDOM, SimConfig(), 23, None),
    "personalized": (
        DagConfig(alpha=5.0, depth_range=(2, 5), personal_params=1),
        SimConfig(),
        24,
        None,
    ),
    "median-polynomial": (
        DagConfig(alpha=5.0, depth_range=(2, 5), aggregator="median"),
        SimConfig(staleness=StalenessPolicy("polynomial", alpha=0.5)),
        25,
        None,
    ),
    "composed-faults": (
        _ACCURACY, SimConfig(faults=_COMPOSED_FAULTS, attackers={2}), 26, None
    ),
    "weighted-always-on": (
        _WEIGHTED, SimConfig(faults=FaultModel(always_on=True)), 27, None
    ),
    "step-accuracy": (_ACCURACY, SimConfig(quantum=0.6), 28, 20),
    "step-weighted": (_WEIGHTED, SimConfig(quantum=0.6), 29, 20),
    "step-random": (_RANDOM, SimConfig(quantum=0.6), 30, 20),
}

#: Recorded at the parent of the commit that routed single cycles
#: through the superstep pipeline, where they still ran their own
#: per-layer reference and ``Client.train`` path.
SINGLE_CYCLE_DIGESTS = {
    "accuracy": "a3be0a10884a644fe37b0242f74891f431b96a35a863a8f30f860a5342b264cb",
    "weighted": "b4c40beb5a425fab230fce0b660e88f60dffd8dd84c795eda79bd5b3fe3ebc6b",
    "random": "89884f3ea1bdaaaccc4137c5a29dfd87445783954ea68878594608e564d5f8c2",
    "personalized": "2bba3c54a4fc51ac6d1550bc14ed427dba77f1140d901a600d2da058de39198f",
    "median-polynomial": "8add14de855909d7c1dbd644f3847df92d612f5d7136225e0e1ed4d28a315eed",
    "composed-faults": "9f91b8cf64b2151862a2037105de68e1c31e2f3f0218b558627cf30f9567398e",
    "weighted-always-on": "674f1b8c26d7d55265d011f8c4da820e454a6f41fd190e34c433ce532aea2cb1",
    "step-accuracy": "78f63065200d5928882f641a1a62fcbacd5b84b969b007a77d37142987ae63b1",
    "step-weighted": "6016e013c5ebc57f53eda1cd2b06ccfd69820d01078fe9e5c4534cdebd0da0cc",
    "step-random": "86e948c1dc932f25539a8266be0d6649fdd965fb623dee25c87be95d8cea7c87",
}


@pytest.mark.parametrize("scenario", list(SINGLE_CYCLE_SCENARIOS))
def test_single_cycle_digests(
    sim_dataset, logistic_builder, sim_train_config, scenario
):
    dag_config, sim_config, seed, steps = SINGLE_CYCLE_SCENARIOS[scenario]
    assert (
        engine_trace_digest(
            sim_dataset, logistic_builder, sim_train_config, dag_config,
            sim_config, seed=seed, steps=steps,
        )
        == SINGLE_CYCLE_DIGESTS[scenario]
    )


def windowed(dag_config, sim_config, seed):
    """A ``run_until(10.0)`` trace digest of one windowed regime."""
    return lambda *fixtures: engine_trace_digest(
        *fixtures, dag_config, sim_config, seed=seed
    )


#: Regimes no earlier pin covered, as ``(dataset, builder,
#: train_config) -> digest`` callables: the windowed superstep with
#: per-client groups (link machinery on, the ``async_churn`` regime),
#: with composed faults and an attacker, with personalization and
#: staleness weights, with a fused weighted draw plus staleness weights,
#: and a round whose view lags one round behind.
PIPELINE_SCENARIOS = {
    "windowed-always-on": windowed(
        _ACCURACY, SimConfig(quantum=0.5, faults=FaultModel(always_on=True)), 31
    ),
    "windowed-composed-faults": windowed(
        _ACCURACY,
        SimConfig(quantum=0.5, faults=_COMPOSED_FAULTS, attackers={2}),
        32,
    ),
    "windowed-personalized-polynomial": windowed(
        DagConfig(alpha=5.0, depth_range=(2, 5), personal_params=1),
        SimConfig(quantum=0.5, staleness=StalenessPolicy("polynomial", alpha=0.5)),
        33,
    ),
    "windowed-weighted-polynomial": windowed(
        _WEIGHTED,
        SimConfig(quantum=0.5, staleness=StalenessPolicy("polynomial", alpha=0.5)),
        34,
    ),
    "rounds-visibility-delay": lambda *fixtures: rounds_digest(
        *fixtures,
        DagConfig(alpha=5.0, depth_range=(2, 5), visibility_delay=1),
        SimConfig(attackers={3}),
    ),
}

#: Recorded at the parent of the commit that made the round plan the one
#: runner of a cycle's and a round's work (engine-side walks, reference
#: and ``train_grouped`` call for cycles; a separate round commit).
PIPELINE_DIGESTS = {
    "windowed-always-on": "cf8f05c3dd49319b83a46bfd03e31f7bf84d98bdc77cf172755387a2606db8d7",
    "windowed-composed-faults": "988967db1275b13970c978893e699b5a9ebb62fddc2536f62f1b03a6a131807b",
    "windowed-personalized-polynomial": "835e5c03756a5f8a0e4605e17e4a7a40220648176e4dbedd1b73e02ee397ed35",
    "windowed-weighted-polynomial": "788bc1a1733821a48bf569a4779f5875e249963de3951c7141c8b3931b5c39ef",
    "rounds-visibility-delay": "c6c81ada027211dd8732cb0d07d4d8cf52bd9b0ea04301084b7a57668e32ed41",
}


@pytest.mark.parametrize("scenario", list(PIPELINE_SCENARIOS))
def test_pipeline_digests(sim_dataset, logistic_builder, sim_train_config, scenario):
    fixtures = (sim_dataset, logistic_builder, sim_train_config)
    assert PIPELINE_SCENARIOS[scenario](*fixtures) == PIPELINE_DIGESTS[scenario]


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


def digest_tables(fixtures) -> dict[str, dict]:
    """Every digest table above, recomputed on the current tree."""
    from repro.dag.random_walk import sequential_select_tips
    from repro.dag.tip_selection import AccuracyTipSelector, WeightedTipSelector

    def legacy(name):
        if name in ROUND_SCENARIOS:
            return rounds_digest(*fixtures, ROUND_SCENARIOS[name])
        return SCENARIOS[name](*fixtures)

    selectors = (AccuracyTipSelector, WeightedTipSelector)
    originals = [selector.select_tips for selector in selectors]
    for selector in selectors:
        selector.select_tips = sequential_select_tips
    try:
        legacy_table = {
            name: legacy(name) for name in LEGACY_DIGESTS if name != "weighted-engine"
        }
    finally:
        for selector, original in zip(selectors, originals):
            selector.select_tips = original
    legacy_table["weighted-engine"] = legacy("weighted-engine")
    return {
        "LEGACY_DIGESTS": {name: legacy_table[name] for name in LEGACY_DIGESTS},
        "ENGINE_DIGESTS": {name: SCENARIOS[name](*fixtures) for name in ENGINE_DIGESTS},
        "QUANTUM_REPLAY_DIGESTS": {
            name: quantum_replay_digest(*fixtures, name)
            for name in QUANTUM_REPLAY_DIGESTS
        },
        "SINGLE_CYCLE_DIGESTS": {
            name: engine_trace_digest(
                *fixtures, dag_config, sim_config, seed=seed, steps=steps
            )
            for name, (dag_config, sim_config, seed, steps) in (
                SINGLE_CYCLE_SCENARIOS.items()
            )
        },
        "PIPELINE_DIGESTS": {
            name: scenario(*fixtures) for name, scenario in PIPELINE_SCENARIOS.items()
        },
    }


if __name__ == "__main__":  # re-record: PYTHONPATH=src python <this file>
    from repro.data import make_fedprox_synthetic
    from repro.fl import TrainingConfig
    from repro.nn import zoo

    dataset = make_fedprox_synthetic(num_clients=8, mean_samples=20, seed=3)
    features = dataset.clients[0].x_train.shape[1]
    fixtures = (
        dataset,
        lambda rng: zoo.build_logistic_regression(
            rng, in_features=features, num_classes=10
        ),
        TrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
    )
    for table, digests in digest_tables(fixtures).items():
        print(f"{table} = {{")
        for name, value in digests.items():
            print(f'    "{name}": "{value}",')
        print("}")

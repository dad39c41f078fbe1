"""Property-based tests for the event-driven simulator (hypothesis).

The engine's contract is that a trace is a pure function of
``(seed, SimConfig, DagConfig)``:

- identical seeds give identical traces, at any quantum;
- the heap's ``(time, rank, client_id, seq)`` ordering makes the trace
  invariant to the *insertion order* of the churn schedule;
- a churned client never trains while away, crashes or not;
- staleness weights are a probability vector, non-increasing in age.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import make_fedprox_synthetic
from repro.fl import DagConfig, TrainingConfig
from repro.nn import zoo
from repro.sim import (
    ChurnEvent,
    EventDrivenTangleLearning,
    FaultModel,
    SimConfig,
    StalenessPolicy,
)

# Tier-1 keeps the engine properties' example budget small; the
# dedicated CI chaos job widens the sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))

DATASET = make_fedprox_synthetic(num_clients=6, mean_samples=10, seed=3)
FEATURES = DATASET.clients[0].x_train.shape[1]
TRAIN_CONFIG = TrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05)
DAG_CONFIG = DagConfig(alpha=5.0, depth_range=(2, 4))


def builder(rng):
    return zoo.build_logistic_regression(rng, in_features=FEATURES, num_classes=10)


def run_trace(sim_config, seed, horizon=5.0):
    engine = EventDrivenTangleLearning(
        DATASET, builder, TRAIN_CONFIG, DAG_CONFIG,
        sim_config=sim_config, seed=seed,
    )
    engine.run_until(horizon)
    return [
        (e.time, e.kind, e.client_id, e.published, e.accuracy, e.tx_id)
        for e in engine.events
    ]


churn_events = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=4.5),
        st.sampled_from(["leave", "join"]),
        st.integers(0, 5),
    ),
    max_size=6,
)


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 5)
@given(seed=st.integers(0, 2**16), quantum=st.sampled_from([0.0, 0.4, 1.3]))
def test_trace_is_a_pure_function_of_seed(seed, quantum):
    config = SimConfig(quantum=quantum)
    assert run_trace(config, seed) == run_trace(config, seed)


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 5)
@given(schedule=churn_events, seed=st.integers(0, 2**16))
def test_trace_invariant_to_churn_insertion_order(schedule, seed):
    """The heap tie-break (time, rank, client, seq) makes pop order —
    and hence the whole trace — independent of how the churn schedule
    was written down."""
    forward = tuple(ChurnEvent(*spec) for spec in schedule)
    reversed_ = tuple(reversed(forward))
    trace_a = run_trace(SimConfig(churn=forward), seed)
    trace_b = run_trace(SimConfig(churn=reversed_), seed)
    assert trace_a == trace_b


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 5)
@given(
    leave=st.floats(min_value=0.5, max_value=2.5),
    gap=st.floats(min_value=0.5, max_value=6.0),
    client=st.integers(0, 5),
    quantum=st.sampled_from([0.0, 0.7]),
    crash_rate=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_churned_client_never_trains_while_away(
    leave, gap, client, quantum, crash_rate, seed
):
    """A crash recovery landing in the absence must not bring the
    client back before its scheduled join."""
    config = SimConfig(
        quantum=quantum,
        faults=FaultModel(crash_rate=crash_rate),
        churn=(
            ChurnEvent(leave, "leave", client),
            ChurnEvent(leave + gap, "join", client),
        ),
    )
    for time, kind, client_id, *_ in run_trace(config, seed, horizon=leave + gap + 3):
        if kind == "train" and client_id == client:
            assert not leave <= time < leave + gap


staleness_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100)
@given(
    staleness=staleness_vectors,
    mode=st.sampled_from(["none", "constant", "polynomial", "hinge"]),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    beta=st.floats(min_value=0.0, max_value=10.0),
)
def test_staleness_weights_are_a_probability_vector(staleness, mode, alpha, beta):
    weights = StalenessPolicy(mode, alpha=alpha, beta=beta).weights(
        np.array(staleness)
    )
    assert weights.shape == (len(staleness),)
    assert np.all(weights > 0)
    assert np.isclose(weights.sum(), 1.0)


@settings(max_examples=100)
@given(
    staleness=staleness_vectors,
    mode=st.sampled_from(["polynomial", "hinge"]),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    beta=st.floats(min_value=0.0, max_value=10.0),
)
def test_staleness_weights_non_increasing_in_age(staleness, mode, alpha, beta):
    ages = np.sort(np.array(staleness))
    weights = StalenessPolicy(mode, alpha=alpha, beta=beta).weights(ages)
    assert np.all(np.diff(weights) <= 1e-9)

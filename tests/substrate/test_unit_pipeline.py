"""Every unit runs the one pipeline, and ships state only from a worker.

``execute_unit`` is ``run_training_plane_round`` over a single payload:
for honest, attacker, personalized and reference-carrying (FedProx-style
``proximal_mu``) units the two produce the same result field for field
and leave the client in the same state.  A unit returns a
``ClientStateDelta`` exactly when it ran outside the process that built
its ``RoundContext``: never in the coordinator (serial executor, a
pool's single-item map, the broken-pool rerun), always in a pool worker.
"""

import contextlib
import dataclasses
import os

import numpy as np
import pytest

from repro.fl import DagConfig, TangleLearning
from repro.substrate import (
    ClientWorkUnit,
    ParallelExecutor,
    RoundContext,
    SerialExecutor,
    execute_prep_unit,
    execute_unit,
    run_training_plane_round,
)


def warmed_sim(tiny_fmnist, mlp_builder, fast_train_config, **dag_overrides):
    """A sim two rounds in, so walks have a tangle to walk."""
    sim = TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5), **dag_overrides),
        clients_per_round=4,
        seed=0,
    )
    sim.run(2)
    return sim


def payloads_for(sim, units):
    context = RoundContext(view=sim.tangle, config=sim.dag_config, rng_factory=sim._rngs)
    return [
        (context, None if unit.attack else sim.clients[unit.client_id], unit)
        for unit in units
    ]


def honest(sim, client_id):
    return ClientWorkUnit(client_id, ("walk", sim.round_index, client_id))


UNITS = {
    "honest": honest,
    "attacker": lambda sim, client_id: dataclasses.replace(
        honest(sim, client_id), attack="random_weights"
    ),
    "personalized": honest,
    "reference-proximal": lambda sim, client_id: ClientWorkUnit(
        client_id,
        (),
        reference=sim.tangle.flat_weights(sim.tangle.genesis.tx_id).copy(),
        proximal_mu=0.1,
    ),
}


def assert_results_equal(a, b):
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if field.name == "walk_duration":  # wall clock
            assert (left is None) == (right is None)
        elif isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            np.testing.assert_array_equal(left, right)
        else:
            assert left == right, field.name


def assert_clients_equal(a, b):
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.evaluations == b.evaluations
    assert a.tx_accuracy_cache() == b.tx_accuracy_cache()
    assert (a.personal_tail is None) == (b.personal_tail is None)
    for x, y in zip(a.personal_tail or (), b.personal_tail or ()):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("kind", list(UNITS))
def test_execute_unit_is_a_one_payload_training_plane_round(
    tiny_fmnist, mlp_builder, fast_train_config, kind
):
    overrides = {"personal_params": 2} if kind == "personalized" else {}
    unit_sim = warmed_sim(tiny_fmnist, mlp_builder, fast_train_config, **overrides)
    plane_sim = warmed_sim(tiny_fmnist, mlp_builder, fast_train_config, **overrides)
    client_id = sorted(unit_sim.clients)[1]
    try:
        [unit_payload] = payloads_for(unit_sim, [UNITS[kind](unit_sim, client_id)])
        [plane_payload] = payloads_for(plane_sim, [UNITS[kind](plane_sim, client_id)])
        by_unit = execute_unit(unit_payload)
        [by_plane] = run_training_plane_round(
            SerialExecutor(), [plane_payload], plane_sim.clients
        )
    finally:
        unit_sim.close()
        plane_sim.close()
    assert_results_equal(by_unit, by_plane)
    assert by_unit.state is None  # ran in the coordinator
    if kind == "personalized":
        assert unit_sim.clients[client_id].personal_tail is not None
    assert_clients_equal(unit_sim.clients[client_id], plane_sim.clients[client_id])


@pytest.fixture
def round_payloads(tiny_fmnist, mlp_builder, fast_train_config):
    """A round's payloads: three honest units and one attacker."""
    sim = warmed_sim(tiny_fmnist, mlp_builder, fast_train_config)
    ids = sorted(sim.clients)[:4]
    units = [honest(sim, client_id) for client_id in ids[:3]]
    units.append(UNITS["attacker"](sim, ids[3]))
    yield payloads_for(sim, units)
    sim.close()


def test_units_in_the_coordinator_ship_no_state(round_payloads):
    assert all(r.state is None for r in SerialExecutor().map(execute_unit, round_payloads))
    with ParallelExecutor(workers=2) as ex:
        [result] = ex.map(execute_unit, round_payloads[:1])
        assert ex.last_mode == "serial"
    assert result.state is None


def test_broken_pool_rerun_ships_no_state(round_payloads, pool_route):
    with ParallelExecutor(workers=2) as ex:
        doomed = ex._ensure_pool().submit(os._exit, 1)
        with contextlib.suppress(Exception):
            doomed.result(timeout=60)  # the pool is broken now
        results = ex.map(execute_unit, round_payloads)
        assert ex.last_mode == "fallback"
    assert all(r.state is None for r in results)


def test_units_in_a_pool_worker_ship_state(round_payloads, pool_route):
    with ParallelExecutor(workers=2) as ex:
        results = ex.map(execute_unit, round_payloads)
        preps = ex.map(execute_prep_unit, round_payloads)
        assert ex.mode_counts["parallel"] == 2
    # Honest units return a delta; the attacker carries no client state.
    assert [r.state is not None for r in results] == [True, True, True, False]
    assert [p.state is not None for p in preps] == [True, True, True, False]

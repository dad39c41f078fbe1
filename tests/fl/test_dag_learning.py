"""TangleLearning simulator semantics."""

import numpy as np
import pytest

from repro.dag.transaction import GENESIS_ID
from repro.fl import DagConfig, TangleLearning, TrainingConfig


def test_round_record_bookkeeping(small_sim):
    record = small_sim.run_round()
    assert record.round_index == 0
    assert len(record.active_clients) == 4
    assert set(record.client_accuracy) == set(record.active_clients)
    assert set(record.walk_duration) == set(record.active_clients)
    assert all(d >= 0 for d in record.walk_duration.values())


def test_transactions_added_after_round(small_sim):
    assert len(small_sim.tangle) == 1
    record = small_sim.run_round()
    assert len(small_sim.tangle) == 1 + len(record.published)
    assert record.published  # first round always improves over genesis


def test_published_approve_snapshot_transactions(small_sim):
    """Round-r transactions may only approve transactions from rounds < r,
    modelling concurrent publication."""
    small_sim.run(3)
    for tx in small_sim.tangle.transactions():
        if tx.is_genesis:
            continue
        for parent in tx.parents:
            parent_tx = small_sim.tangle.get(parent)
            assert parent_tx.round_index < tx.round_index


def test_first_round_approves_genesis(small_sim):
    record = small_sim.run_round()
    for tx_id in record.published:
        assert small_sim.tangle.get(tx_id).parents == (GENESIS_ID,)


def test_history_accumulates(small_sim):
    small_sim.run(3)
    assert [r.round_index for r in small_sim.history] == [0, 1, 2]


def test_accuracy_improves_over_rounds(ran_sim):
    first = ran_sim.history[0].mean_accuracy
    last = ran_sim.history[-1].mean_accuracy
    assert last > first


def test_deterministic_under_seed(tiny_fmnist, mlp_builder, fast_train_config):
    def run():
        sim = TangleLearning(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(alpha=10.0, depth_range=(2, 5)),
            clients_per_round=4, seed=123,
        )
        sim.run(3)
        return [t.tx_id for t in sim.tangle.transactions()], [
            r.mean_accuracy for r in sim.history
        ]

    ids_a, acc_a = run()
    ids_b, acc_b = run()
    assert ids_a == ids_b
    assert acc_a == acc_b


def _force_evaluation_pattern(sim, reference_acc, trained_acc):
    """Patch every client's two gate evaluations.

    run_round scores the flat reference (merged-parent) model through
    the loss-free ``accuracy_of_flat`` path and the freshly trained row
    through ``evaluate_flat`` (the finalizer both routes share) — the
    round record needs its loss; this pins the gate's comparison seam
    as a behavioural contract.  The per-layer twins are patched alike,
    so a route that went back to lists could not slip past the gate.
    """
    for client in sim.clients.values():
        client.accuracy_of_flat = lambda flat, _acc=reference_acc: _acc
        client.accuracy_of_weights = lambda weights, _acc=reference_acc: _acc
        client.evaluate_weights = lambda weights, _acc=trained_acc: (0.0, _acc)
        client.evaluate_flat = lambda flat, _acc=trained_acc: (0.0, _acc)


def test_publish_gate_blocks_strictly_worse_models(
    tiny_fmnist, mlp_builder, fast_train_config
):
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4, seed=0,
    )
    _force_evaluation_pattern(sim, reference_acc=0.9, trained_acc=0.1)
    record = sim.run_round()
    assert record.published == []


def test_publish_gate_publishes_ties(tiny_fmnist, mlp_builder, fast_train_config):
    """Equal accuracy publishes: early rounds would deadlock otherwise."""
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4, seed=0,
    )
    _force_evaluation_pattern(sim, reference_acc=0.5, trained_acc=0.5)
    record = sim.run_round()
    assert len(record.published) == 4


def test_gate_disabled_publishes_everything(tiny_fmnist, mlp_builder):
    destructive = TrainingConfig(
        local_epochs=1, local_batches=3, batch_size=8, learning_rate=1e4
    )
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, destructive,
        DagConfig(alpha=10.0, depth_range=(2, 5), publish_gate=False),
        clients_per_round=4, seed=0,
    )
    records = sim.run(2)
    assert all(len(r.published) == 4 for r in records)


def test_num_tips_one_creates_chains(tiny_fmnist, mlp_builder, fast_train_config):
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(alpha=10.0, num_tips=1, depth_range=(2, 5)),
        clients_per_round=4, seed=0,
    )
    sim.run(3)
    for tx in sim.tangle.transactions():
        assert len(tx.parents) <= 1


def test_selector_variants_run(tiny_fmnist, mlp_builder, fast_train_config):
    for selector in ("random", "weighted"):
        sim = TangleLearning(
            tiny_fmnist, mlp_builder, fast_train_config,
            DagConfig(selector=selector, depth_range=(2, 5)),
            clients_per_round=3, seed=0,
        )
        records = sim.run(2)
        assert len(records) == 2


def test_reference_tip_is_a_tip(ran_sim):
    tip = ran_sim.reference_tip(0)
    assert ran_sim.tangle.is_tip(tip)


def test_consensus_accuracy_in_unit_interval(ran_sim):
    acc = ran_sim.consensus_accuracy(0)
    assert 0.0 <= acc <= 1.0


def test_clients_per_round_clamped(tiny_fmnist, mlp_builder, fast_train_config):
    sim = TangleLearning(
        tiny_fmnist, mlp_builder, fast_train_config,
        DagConfig(depth_range=(2, 5)), clients_per_round=100, seed=0,
    )
    record = sim.run_round()
    assert len(record.active_clients) == tiny_fmnist.num_clients


def test_walk_evaluations_counted(small_sim):
    small_sim.run(2)
    record = small_sim.history[-1]
    assert all(v >= 0 for v in record.walk_evaluations.values())
    assert sum(record.walk_evaluations.values()) > 0


def test_walk_engine_rounds_run_and_account_evaluations(
    tiny_fmnist, mlp_builder, fast_train_config
):
    """The lockstep engine drives full rounds: transactions publish,
    parents come from the frozen view, and the Figure 15 accounting
    (walk_evaluations) stays populated per client."""
    sim = TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4,
        seed=0,
    )
    records = sim.run(3)
    assert any(r.published for r in records)
    for record in records:
        assert set(record.walk_evaluations) == set(record.active_clients)
        assert all(v >= 0 for v in record.walk_evaluations.values())
    # rounds stay deterministic for a fixed seed with the engine on
    rerun = TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4,
        seed=0,
    )
    for a, b in zip(records, rerun.run(3)):
        assert a.client_accuracy == b.client_accuracy
        assert a.published == b.published
        assert a.walk_evaluations == b.walk_evaluations

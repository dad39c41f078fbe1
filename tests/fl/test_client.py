"""Client: training, evaluation, caching."""

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import snapshot_for
from repro.fl import Client, DagConfig, TangleLearning, TrainingConfig
from repro.nn import zoo
from repro.nn.serialization import weights_allclose


@pytest.fixture
def client(tiny_fmnist, mlp_builder):
    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig(local_epochs=1, local_batches=3, batch_size=8, learning_rate=0.1)
    return Client(tiny_fmnist.clients[0], model, config, rng=1)


def test_evaluate_weights_returns_loss_and_accuracy(client):
    loss, acc = client.evaluate_weights(client.model.get_weights())
    assert loss > 0 and 0.0 <= acc <= 1.0


def test_train_returns_new_weights(client):
    start = client.model.get_weights()
    trained, loss = client.train(start)
    assert not weights_allclose(trained, start)
    assert loss > 0


def test_train_does_not_mutate_input_weights(client):
    start = client.model.get_weights()
    snapshot = [w.copy() for w in start]
    client.train(start)
    assert weights_allclose(start, snapshot)


def test_proximal_training_stays_closer_to_reference(client):
    from repro.nn.serialization import weights_l2_distance

    start = client.model.get_weights()
    free, _ = client.train(start)
    # mu must satisfy lr * mu < 1 for the proximal pull to be contractive
    anchored, _ = client.train(start, proximal_mu=5.0)
    assert weights_l2_distance(anchored, start) < weights_l2_distance(free, start)


def test_epochs_override(client, tiny_fmnist, mlp_builder):
    """More epochs -> more movement from the starting weights."""
    from repro.nn.serialization import weights_l2_distance

    start = client.model.get_weights()
    one, _ = client.train(start, epochs_override=1)
    # fresh client with same rng seed for a fair comparison
    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig(local_epochs=1, local_batches=3, batch_size=8, learning_rate=0.1)
    client2 = Client(tiny_fmnist.clients[0], model, config, rng=1)
    five, _ = client2.train(start, epochs_override=5)
    assert weights_l2_distance(five, start) > weights_l2_distance(one, start)


def test_tx_accuracy_cached(client):
    tangle = Tangle(client.model.get_weights())
    before = client.evaluations
    first = client.tx_accuracy(tangle, GENESIS_ID)
    after_first = client.evaluations
    second = client.tx_accuracy(tangle, GENESIS_ID)
    assert first == second
    assert after_first == before + 1
    assert client.evaluations == after_first  # cache hit: no new evaluation


def test_reset_cache_forces_reevaluation(client):
    tangle = Tangle(client.model.get_weights())
    client.tx_accuracy(tangle, GENESIS_ID)
    count = client.evaluations
    client.reset_cache()
    client.tx_accuracy(tangle, GENESIS_ID)
    assert client.evaluations == count + 1


def test_different_transactions_evaluated_separately(client, rng):
    tangle = Tangle(client.model.get_weights())
    other = [w + rng.normal(size=w.shape) for w in client.model.get_weights()]
    tangle.add(Transaction("t1", (GENESIS_ID,), other, 5, 0))
    a = client.tx_accuracy(tangle, GENESIS_ID)
    b = client.tx_accuracy(tangle, "t1")
    assert client.evaluations >= 2
    assert isinstance(a, float) and isinstance(b, float)


# ----------------------------------------------------- fused walk evaluation
def _grown_tangle(client, n=6, seed=0):
    tangle = Tangle(client.model.get_weights())
    rng = np.random.default_rng(seed)
    ids = [GENESIS_ID]
    for i in range(n):
        perturbed = [
            w + rng.normal(0.0, 0.1, size=w.shape)
            for w in client.model.get_weights()
        ]
        tangle.add(Transaction(f"t{i}", (ids[-1],), perturbed, i % 3, i))
        ids.append(f"t{i}")
    return tangle, ids


def _sequential_reference(client, tangle, tx_ids):
    """tx_accuracy per id on a fresh cache — the pre-fusion semantics."""
    return np.array(
        [client.tx_accuracy(tangle, tx_id) for tx_id in tx_ids], dtype=np.float64
    )


def test_tx_accuracies_fused_matches_sequential_loop(client):
    tangle, ids = _grown_tangle(client)
    assert client.model.supports_fused_eval
    batched = client.tx_accuracies(tangle, ids)
    client.reset_cache()
    np.testing.assert_array_equal(
        batched, _sequential_reference(client, tangle, ids)
    )


def test_tx_accuracies_k1_and_duplicates(client):
    tangle, ids = _grown_tangle(client)
    single = client.tx_accuracies(tangle, [ids[1]])
    assert single.shape == (1,)
    assert client.evaluations == 1  # one fused evaluation for K=1
    repeated = client.tx_accuracies(tangle, [ids[2], ids[1], ids[2], ids[2]])
    assert client.evaluations == 2  # duplicates deduplicated, ids[1] cached
    assert repeated[0] == repeated[2] == repeated[3]
    assert repeated[1] == single[0]


def test_tx_accuracies_all_cached_step_touches_nothing(client):
    tangle, ids = _grown_tangle(client)
    first = client.tx_accuracies(tangle, ids)
    count = client.evaluations
    again = client.tx_accuracies(tangle, ids)
    assert client.evaluations == count  # pure dictionary lookups
    np.testing.assert_array_equal(first, again)


def test_tx_accuracies_empty_step(client):
    tangle, _ = _grown_tangle(client, n=1)
    out = client.tx_accuracies(tangle, [])
    assert out.shape == (0,)
    assert client.evaluations == 0


def test_tx_accuracies_mixed_cached_uncached(client):
    tangle, ids = _grown_tangle(client)
    warm = client.tx_accuracies(tangle, ids[:3])
    count = client.evaluations
    mixed = client.tx_accuracies(tangle, ids)
    assert client.evaluations == count + len(ids) - 3
    np.testing.assert_array_equal(mixed[:3], warm)
    client.reset_cache()
    np.testing.assert_array_equal(
        mixed, _sequential_reference(client, tangle, ids)
    )


def test_tx_accuracies_fused_populates_cache_for_tx_accuracy(client):
    tangle, ids = _grown_tangle(client)
    batched = client.tx_accuracies(tangle, ids)
    count = client.evaluations
    for tx_id, expected in zip(ids, batched):
        assert client.tx_accuracy(tangle, tx_id) == expected
    assert client.evaluations == count


class _Store:
    """A ``get``-able store mixing storage regimes: the walk reads
    candidates through any object with ``get``."""

    def __init__(self, *groups):
        self._txs = {tx.tx_id: tx for group in groups for tx in group}

    def get(self, tx_id):
        return self._txs[tx_id]


def test_bulk_scoring_is_the_per_model_path_bit_for_bit(
    tiny_fmnist, mlp_builder, rng
):
    """One batch mixing arena rows, a second arena's row, unbound flat
    and list models, duplicates and already-cached ids scores exactly
    as ``tx_accuracy`` per id — values, evaluation count and cache.  A
    foreign architecture raises on both paths with the same side
    effects."""
    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig(local_epochs=1, local_batches=3, batch_size=8)
    bulk, single = (
        Client(tiny_fmnist.clients[0], model, config, rng=1) for _ in range(2)
    )
    tangle, ids = _grown_tangle(bulk)
    spec = model.flat_spec

    def perturbed():
        return [w + rng.normal(0.0, 0.1, size=w.shape) for w in model.get_weights()]

    other = Tangle(perturbed())  # same layout, a second arena
    other.add(Transaction("other", (GENESIS_ID,), perturbed(), 7, 0))
    unbound = [
        Transaction.from_flat(
            "flat", (GENESIS_ID,), spec.flatten(perturbed()), spec, 8, 0
        ),
        Transaction("list", (GENESIS_ID,), perturbed(), 9, 0),
    ]
    store = _Store(tangle.transactions(), [other.get("other")], unbound)
    batch = [ids[3], "flat", ids[1], ids[3], "other", "list", ids[0], "flat", ids[5]]
    for client in (bulk, single):
        client.tx_accuracy(store, ids[0])  # already cached
        client.tx_accuracy(store, ids[5])

    got = bulk.tx_accuracies(store, batch)
    expected = np.array([single.tx_accuracy(store, t) for t in batch])
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    assert bulk.evaluations == single.evaluations
    assert bulk.tx_accuracy_cache() == single.tx_accuracy_cache()

    alien = Transaction("alien", (GENESIS_ID,), [rng.normal(size=(5,))], 10, 0)
    store = _Store(tangle.transactions(), [alien])
    batch = [ids[2], ids[4], ids[2], "alien"]
    with pytest.raises(ValueError):
        bulk.tx_accuracies(store, batch)
    with pytest.raises(ValueError):
        [single.tx_accuracy(store, t) for t in batch]
    assert bulk.evaluations == single.evaluations
    assert bulk.tx_accuracy_cache() == single.tx_accuracy_cache()


class _ReshapedData:
    """One client's data with the feature arrays swapped out."""

    def __init__(self, data, x_train, x_test):
        self.client_id = data.client_id
        self.x_train, self.y_train = x_train, data.y_train
        self.x_test, self.y_test = x_test, data.y_test
        self.metadata = data.metadata


def _assert_batched_matches_sequential(data, model):
    config = TrainingConfig(local_epochs=1, local_batches=2, batch_size=8)
    client = Client(data, model, config, rng=1)
    tangle, ids = _grown_tangle(client, n=3)
    batched = client.tx_accuracies(tangle, ids)
    client.reset_cache()
    np.testing.assert_array_equal(
        batched, _sequential_reference(client, tangle, ids)
    )
    by_row, by_id = (Client(data, model, config, rng=1) for _ in range(2))
    _score_both_ways(by_row, by_id, tangle, snapshot_for(tangle), ids)


def test_tx_accuracies_conv_model_is_fused(tiny_fmnist):
    """The CNN evaluates all of a step's candidates in one fused pass,
    bit-identical to the per-model loop."""
    model = zoo.build_fmnist_cnn(
        np.random.default_rng(0), image_size=10, size="small"
    )
    assert model.supports_fused_eval
    data = tiny_fmnist.clients[0]
    # Conv models consume (N, C, H, W); reshape the flat client data.
    conv_data = _ReshapedData(
        data,
        data.x_train.reshape(-1, 1, 10, 10),
        data.x_test.reshape(-1, 1, 10, 10),
    )
    _assert_batched_matches_sequential(conv_data, model)


def test_tx_accuracies_unfused_model_falls_back(tiny_fmnist):
    """An LSTM model has no fused kernels; the batched entry point must
    route through the per-model loop with identical results."""
    model = zoo.build_poets_lstm(
        np.random.default_rng(0), vocab_size=10, embedding_dim=4
    )
    assert not model.supports_fused_eval
    data = tiny_fmnist.clients[0]
    # Token sequences over the label alphabet stand in for text.
    rng = np.random.default_rng(5)
    token_data = _ReshapedData(
        data,
        rng.integers(0, 10, size=(len(data.y_train), 6)),
        rng.integers(0, 10, size=(len(data.y_test), 6)),
    )
    _assert_batched_matches_sequential(token_data, model)


def test_tx_accuracies_personalization_falls_back(client):
    tangle, ids = _grown_tangle(client)
    client.enable_personalization(2, client.model.get_weights())
    batched = client.tx_accuracies(tangle, ids)
    client.reset_cache()
    np.testing.assert_array_equal(
        batched, _sequential_reference(client, tangle, ids)
    )


# ------------------------------------------------- scoring by arena row
class _CountingStore:
    """``tangle`` behind a ``get`` that counts its calls."""

    def __init__(self, tangle):
        self.tangle, self.gets = tangle, 0

    def get(self, tx_id):
        self.gets += 1
        return self.tangle.get(tx_id)


def _score_both_ways(by_row, by_id, tangle, snapshot, batch) -> int:
    """Score ``batch`` with the snapshot's arena rows on one client and by
    id alone on its twin: values, cache entries (in insertion order) and
    evaluation counts must agree.  Returns the ``get`` calls the row
    call made."""
    arena, rows = snapshot.arena_rows()
    store = _CountingStore(tangle)
    nodes = [snapshot.index[tx_id] for tx_id in batch]
    got = by_row.tx_accuracies(store, batch, (arena, rows[nodes]))
    want = by_id.tx_accuracies(tangle, batch)
    assert got.tobytes() == want.tobytes()
    assert by_row.evaluations == by_id.evaluations
    assert list(by_row.tx_accuracy_cache().items()) == list(
        by_id.tx_accuracy_cache().items()
    )
    return store.gets


def _twins(tiny_fmnist, model):
    config = TrainingConfig(local_epochs=1, local_batches=3, batch_size=8)
    return [Client(tiny_fmnist.clients[0], model, config, rng=1) for _ in range(2)]


def test_row_scoring_equals_id_scoring_and_resolves_no_id(tiny_fmnist, mlp_builder):
    by_row, by_id = _twins(tiny_fmnist, mlp_builder(np.random.default_rng(0)))
    tangle, ids = _grown_tangle(by_row)
    for client in (by_row, by_id):
        client.tx_accuracy(tangle, ids[2])  # already cached
    snapshot = snapshot_for(tangle)
    batch = [ids[4], ids[2], ids[1], ids[4], ids[6], ids[0]]  # gathered
    assert _score_both_ways(by_row, by_id, tangle, snapshot, batch) == 0
    assert _score_both_ways(by_row, by_id, tangle, snapshot, ids[3:6]) == 0  # sliced
    assert _score_both_ways(by_row, by_id, tangle, snapshot, ids) == 0  # all cached


def test_row_scoring_falls_back_under_personalization(tiny_fmnist, mlp_builder):
    by_row, by_id = _twins(tiny_fmnist, mlp_builder(np.random.default_rng(0)))
    tangle, ids = _grown_tangle(by_row)
    for client in (by_row, by_id):
        client.enable_personalization(2, client.model.get_weights())
    assert _score_both_ways(by_row, by_id, tangle, snapshot_for(tangle), ids) > 0


def test_row_scoring_after_a_spilling_compaction(tiny_fmnist, mlp_builder, tmp_path):
    """Rows of the snapshot cut before ``compact(spill_path=...)`` and of
    the one built after it both score like the ids do."""
    model = mlp_builder(np.random.default_rng(0))
    tangle, ids = _grown_tangle(_twins(tiny_fmnist, model)[0], n=8)
    before = snapshot_for(tangle)
    before.arena_rows()
    report = tangle.compact(keep_last=4, spill_path=tmp_path / "spill.bin")
    assert report.spill is not None and report.spill.is_spilled
    after = snapshot_for(tangle)
    assert after.arena_rows()[0] is tangle.arena is not before.arena_rows()[0]
    kept = ids[-4:]
    for snapshot in (before, after):
        by_row, by_id = _twins(tiny_fmnist, model)
        _score_both_ways(by_row, by_id, tangle, snapshot, kept)
    report.spill.close()


def test_row_scoring_falls_back_for_a_foreign_architecture(tiny_fmnist, mlp_builder):
    """A model laid out unlike the arena never reads its rows: both calls
    take the per-model path and fail alike."""
    tangle, ids = _grown_tangle(_twins(tiny_fmnist, mlp_builder(np.random.default_rng(0)))[0])
    foreign = zoo.build_mlp(
        np.random.default_rng(1), in_features=100, hidden=(8,), num_classes=10
    )
    by_row, by_id = _twins(tiny_fmnist, foreign)
    snapshot = snapshot_for(tangle)
    arena, rows = snapshot.arena_rows()
    nodes = [snapshot.index[tx_id] for tx_id in ids[1:4]]
    with pytest.raises(ValueError):
        by_row.tx_accuracies(tangle, ids[1:4], (arena, rows[nodes]))
    with pytest.raises(ValueError):
        by_id.tx_accuracies(tangle, ids[1:4])
    assert by_row.evaluations == by_id.evaluations
    assert by_row.tx_accuracy_cache() == by_id.tx_accuracy_cache()


def test_a_round_scores_candidates_without_locating_transactions(
    tiny_fmnist, mlp_builder, fast_train_config, monkeypatch
):
    """In rounds mode the accuracy walk hands ``tx_accuracies`` the
    candidates' arena rows, so scoring asks no transaction for its
    arena location."""
    sim = TangleLearning(
        tiny_fmnist,
        mlp_builder,
        fast_train_config,
        DagConfig(alpha=10.0, depth_range=(2, 5)),
        clients_per_round=4,
        seed=0,
    )
    sim.run_round()  # grow past genesis: the next walks meet new models
    scoring, calls = [], {"scored": 0, "located": 0}
    tx_accuracies, arena_location = Client.tx_accuracies, Transaction.arena_location

    def scored(self, *args, **kwargs):
        calls["scored"] += 1
        scoring.append(True)
        try:
            return tx_accuracies(self, *args, **kwargs)
        finally:
            scoring.pop()

    def located(self):
        calls["located"] += bool(scoring)
        return arena_location(self)

    monkeypatch.setattr(Client, "tx_accuracies", scored)
    monkeypatch.setattr(Transaction, "arena_location", located)
    evaluations = sum(client.evaluations for client in sim.clients.values())
    sim.run_round()
    assert calls["scored"] > 0
    assert sum(client.evaluations for client in sim.clients.values()) > evaluations
    assert calls["located"] == 0


# ------------------------------------------------- non-finite hardening
def test_accuracy_of_non_finite_weights_is_zero(client):
    corrupt = [np.array(w, copy=True) for w in client.model.get_weights()]
    corrupt[0].flat[0] = np.nan
    before = client.evaluations
    assert client.accuracy_of_weights(corrupt) == 0.0
    assert client.evaluations == before + 1
    corrupt[0].flat[0] = np.inf
    assert client.accuracy_of_weights(corrupt) == 0.0


def test_accuracy_of_non_finite_flat_is_zero(client):
    flat = client.model.flat_spec.flatten(client.model.get_weights())
    flat = np.array(flat, copy=True)
    flat[3] = -np.inf
    before = client.evaluations
    assert client.accuracy_of_flat(flat) == 0.0
    assert client.evaluations == before + 1


def test_evaluation_of_non_finite_weights_scores_zero(client):
    """``evaluate_flat`` / ``evaluate_weights`` share the accuracy guard:
    NaN logits argmax to class 0, so a forward pass would score the
    share of label-0 test samples.  Instead: one evaluation counted,
    accuracy 0.0, loss inf — the same accuracy ``accuracy_of_flat``
    gives the same row."""
    assert (client.data.y_test == 0).any()
    flat = np.array(client.model.get_flat(), copy=True)
    flat[:] = np.nan
    weights = client.model.flat_spec.unflatten(flat)
    before = client.evaluations
    assert client.evaluate_flat(flat) == (np.inf, 0.0)
    assert client.evaluate_weights(weights) == (np.inf, 0.0)
    assert client.evaluations == before + 2
    assert client.accuracy_of_flat(flat) == 0.0
    for w in client.model.get_weights():
        assert np.isfinite(w).all()


def test_non_finite_guard_does_not_clobber_loaded_model(client):
    """Scoring a corrupt vector must not leave NaN inside the model:
    the guard rejects it before any weights are loaded."""
    flat = client.model.flat_spec.flatten(client.model.get_weights())
    healthy = client.accuracy_of_flat(flat)
    corrupt = np.array(flat, copy=True)
    corrupt[:] = np.nan
    client.accuracy_of_flat(corrupt)
    assert client.accuracy_of_flat(flat) == healthy
    for w in client.model.get_weights():
        assert np.isfinite(w).all()

"""Client: training, evaluation, caching."""

from unittest import mock

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


def test_cache_entries_since_is_the_suffix_past_the_mark(client):
    """Each delta equals ``dict(list(items)[count:])`` of the cache, and
    is None once the epoch moved (a reset or a restore)."""
    tangle, ids = _grown_tangle(client)

    def whole_list_suffix(mark):
        epoch, count = mark
        if client.cache_epoch != epoch:
            return None
        return dict(list(client.tx_accuracy_cache().items())[count:])

    marks = [client.cache_mark()]
    for batch in (ids[:2], ids[1:5], ids[5:], ids):
        client.tx_accuracies(tangle, batch)
        marks.append(client.cache_mark())
    client.merge_tx_accuracy_cache({"merged": 0.5})
    marks.append(client.cache_mark())
    for mark in marks:
        assert list(client.cache_entries_since(mark).items()) == list(
            whole_list_suffix(mark).items()
        )
    assert list(client.cache_entries_since(marks[0])) == ids + ["merged"]
    assert client.cache_entries_since(marks[-2]) == {"merged": 0.5}
    assert client.cache_entries_since(marks[-1]) == {}
    client.reset_cache()
    restored = client.cache_mark()
    client.restore_tx_accuracy_cache({"a": 0.25})
    for mark in marks + [restored]:
        assert client.cache_entries_since(mark) is None
        assert whole_list_suffix(mark) is None


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


def test_bulk_scoring_is_the_per_model_path_bit_for_bit(tiny_fmnist, mlp_builder):
    """One batch with duplicates and already-cached ids scores each
    distinct uncached model once, exactly as ``accuracy_of_flat`` scores
    its arena row — values, evaluation count and cache.  A client laid
    out unlike the tangle raises before evaluating anything, in bulk
    and per id alike, and still answers cached ids."""
    model = mlp_builder(np.random.default_rng(0))
    config = TrainingConfig(local_epochs=1, local_batches=3, batch_size=8)
    bulk, oracle = (
        Client(tiny_fmnist.clients[0], model, config, rng=1) for _ in range(2)
    )
    tangle, ids = _grown_tangle(bulk)
    bulk.tx_accuracies(tangle, [ids[0], ids[5]])  # already cached
    count = bulk.evaluations
    batch = [ids[3], ids[1], ids[3], ids[0], ids[6], ids[1], ids[5], ids[6]]
    got = bulk.tx_accuracies(tangle, batch)
    expected = np.array([oracle.accuracy_of_flat(tangle.flat_weights(t)) for t in batch])
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    assert bulk.evaluations == count + 3  # ids[3], ids[1], ids[6] once each
    assert bulk.tx_accuracy_cache() == dict(zip(batch, expected.tolist()))

    foreign = zoo.build_mlp(
        np.random.default_rng(1), in_features=100, hidden=(8,), num_classes=10
    )
    twins = _twins(tiny_fmnist, foreign)
    for client in twins:
        client.restore_tx_accuracy_cache({ids[2]: 0.5})
    batch = [ids[2], ids[4], ids[2], ids[4]]
    with pytest.raises(ValueError):
        twins[0].tx_accuracies(tangle, batch)
    with pytest.raises(ValueError):
        [twins[1].tx_accuracy(tangle, t) for t in batch]
    for client in twins:
        assert client.evaluations == 0
        assert client.tx_accuracy_cache() == {ids[2]: 0.5}
        assert client.tx_accuracies(tangle, [ids[2]]).tolist() == [0.5]
    # The same parameter count in another layout is foreign too.
    flat_tangle = Tangle([np.zeros(model.flat_spec.total)])
    count = oracle.evaluations
    with pytest.raises(ValueError):
        oracle.tx_accuracies(flat_tangle, [GENESIS_ID])
    assert oracle.evaluations == count and not oracle.tx_accuracy_cache()


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
    """An LSTM model no longer falls back: its candidates are scored in
    one fused ``forward_many`` per batch, equal to the per-model
    ``load_flat`` + ``accuracy`` loop."""
    model = zoo.build_poets_lstm(
        np.random.default_rng(0), vocab_size=10, embedding_dim=4
    )
    assert model.supports_fused_eval
    data = tiny_fmnist.clients[0]
    # Token sequences over the label alphabet stand in for text.
    rng = np.random.default_rng(5)
    token_data = _ReshapedData(
        data,
        rng.integers(0, 10, size=(len(data.y_train), 6)),
        rng.integers(0, 10, size=(len(data.y_test), 6)),
    )
    _assert_batched_matches_sequential(token_data, model)
    client = Client(token_data, model, TrainingConfig(batch_size=8), rng=1)
    tangle, ids = _grown_tangle(client, n=3)
    with mock.patch.object(
        model.net, "forward_many", wraps=model.net.forward_many
    ) as fused:
        batched = client.tx_accuracies(tangle, ids)
    batches = -(-len(token_data.y_test) // 256)
    assert fused.call_count == batches
    expected = []
    for tx_id in ids:
        model.set_weights(tangle.get(tx_id).model_weights)
        expected.append(model.accuracy(token_data.x_test, token_data.y_test))
    np.testing.assert_array_equal(batched, expected)


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
    arena, rows = snapshot.arena_rows
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


def test_row_scoring_under_personalization_resolves_no_id(tiny_fmnist, mlp_builder):
    """A personalized client scores by row too, and each id scores
    exactly ``accuracy_of_flat(graft_tail(row))``: a model whose grafted
    row is non-finite — a corrupt body or a corrupt tail — scores 0.0."""
    model = mlp_builder(np.random.default_rng(0))
    by_row, by_id, oracle = _twins(tiny_fmnist, model) + _twins(tiny_fmnist, model)[:1]
    tangle, ids = _grown_tangle(by_row)
    corrupt = [np.array(w, copy=True) for w in model.get_weights()]
    corrupt[0].flat[0] = np.nan
    tangle.add(Transaction("corrupt", (ids[-1],), corrupt, 0, 9))
    ids.append("corrupt")
    # A head voting class 0 scores every finite model above 0.0, while
    # NaN logits would argmax to class 0 too: only the guard gives 0.0.
    assert (by_row.data.y_test == 0).any()
    head = [np.zeros_like(w) for w in model.get_weights()[-2:]]
    head[-1][0] = 1.0
    for client in (by_row, by_id, oracle):
        client.enable_personalization(2, model.get_weights()[:-2] + head)

    def assert_oracle_scores():
        before = oracle.evaluations
        expected = [oracle.accuracy_of_flat(oracle.graft_tail(tangle.flat_weights(t))) for t in ids]
        assert by_row.tx_accuracies(tangle, ids).tobytes() == np.array(expected).tobytes()
        assert oracle.evaluations - before == len(ids)
        return expected

    assert _score_both_ways(by_row, by_id, tangle, snapshot_for(tangle), ids) == 0
    expected = assert_oracle_scores()
    assert expected[-1] == 0.0 and min(expected[:-1]) > 0.0
    tail = [np.array(w, copy=True) for w in oracle.personal_tail]
    tail[-1].flat[0] = np.inf
    for client in (by_row, by_id, oracle):
        client.update_personal_tail(tail)
    assert _score_both_ways(by_row, by_id, tangle, snapshot_for(tangle), ids) == 0
    assert assert_oracle_scores() == [0.0] * len(ids)


def test_row_scoring_after_a_spilling_compaction(tiny_fmnist, mlp_builder, tmp_path):
    """Rows of the snapshot cut before ``compact(spill_path=...)`` and of
    the one built after it both score like the ids do."""
    model = mlp_builder(np.random.default_rng(0))
    tangle, ids = _grown_tangle(_twins(tiny_fmnist, model)[0], n=8)
    before = snapshot_for(tangle)
    report = tangle.compact(keep_last=4, spill_path=tmp_path / "spill.bin")
    assert report.spill is not None and report.spill.is_spilled
    after = snapshot_for(tangle)
    assert after.arena_rows[0] is tangle.arena is not before.arena_rows[0]
    kept = ids[-4:]
    for snapshot in (before, after):
        by_row, by_id = _twins(tiny_fmnist, model)
        _score_both_ways(by_row, by_id, tangle, snapshot, kept)
    report.spill.close()


def test_row_scoring_rejects_a_foreign_architecture(tiny_fmnist, mlp_builder):
    """A model laid out unlike the arena never reads its rows: the call
    with rows and the call without both raise before evaluating."""
    tangle, ids = _grown_tangle(_twins(tiny_fmnist, mlp_builder(np.random.default_rng(0)))[0])
    foreign = zoo.build_mlp(
        np.random.default_rng(1), in_features=100, hidden=(8,), num_classes=10
    )
    by_row, by_id = _twins(tiny_fmnist, foreign)
    snapshot = snapshot_for(tangle)
    arena, rows = snapshot.arena_rows
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

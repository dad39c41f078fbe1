"""Walk scoring's working set.

``Client.tx_accuracies`` gathers and scores its misses in consecutive
chunks of at most ``_SCORE_BYTES`` of float64 rows, so one wide call —
a walk start at a genesis fan — never holds every candidate's row at
once, and every cache write stores one shared float object per distinct
accuracy value.  Chunking changes no value, cache entry, cache order or
evaluation count.
"""

import tracemalloc

import numpy as np
import pytest

from repro.dag.arena import locate_rows
from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import snapshot_for
from repro.data.base import ClientData
from repro.fl import Client, TrainingConfig
from repro.fl import client as client_module
from repro.nn import zoo

#: The event-engine workload's model: logistic regression, P = 610.
FEATURES, CLASSES = 60, 10


def _model():
    return zoo.build_logistic_regression(
        np.random.default_rng(0), in_features=FEATURES, num_classes=CLASSES
    )


def _client(model, n_test: int = 8) -> Client:
    rng = np.random.default_rng(n_test)
    data = ClientData(
        0,
        rng.normal(size=(4, FEATURES)),
        rng.integers(0, CLASSES, 4),
        rng.normal(size=(n_test, FEATURES)),
        rng.integers(0, CLASSES, n_test),
        0,
    )
    return Client(data, model, TrainingConfig(), rng=1)


def _fan(model, k: int, *, dtype=np.float64, corrupt: int | None = None):
    """A tangle of genesis and ``k - 1`` perturbed models approving it
    (a genesis fan), with NaN in the first kernel weight of model
    ``corrupt``; returns the tangle and its ``k`` ids."""
    rng = np.random.default_rng(k)
    spec = model.flat_spec
    base = model.get_flat()
    tangle = Tangle(model.get_weights(), store_dtype=dtype)
    ids = [GENESIS_ID]
    for i in range(k - 1):
        flat = base + rng.normal(0.0, 0.5, size=base.shape)
        if i == corrupt:
            flat[0] = np.nan
        tangle.add(Transaction.from_flat(f"t{i}", (GENESIS_ID,), flat, spec, i % 5, i))
        ids.append(f"t{i}")
    return tangle, ids


def _rows_of(tangle, batch):
    """``arena_rows`` for ``batch``, read off the tangle's snapshot."""
    snapshot = snapshot_for(tangle)
    arena, rows = snapshot.arena_rows
    return arena, rows[[snapshot.index[tx_id] for tx_id in batch]]


# ------------------------------------------------------------ (a) bound
@pytest.mark.parametrize("by_rows", [False, True], ids=["locate_rows", "arena_rows"])
def test_one_wide_call_holds_one_chunk(by_rows):
    """1,200 rows of 610 float64 weights are a 5.6 MiB stack when
    gathered at once; in 1 MiB chunks the whole call stays under 2 MiB."""
    model = _model()
    assert model.flat_spec.total == 610
    tangle, ids = _fan(model, 1200)
    arena_rows = _rows_of(tangle, ids) if by_rows else None
    client = _client(model)
    tracemalloc.start()
    try:
        client.tx_accuracies(tangle, ids, arena_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert client.evaluations == len(ids)
    assert len(ids) * model.flat_spec.total * 8 > 4.6 * 2**20
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


# ---------------------------------------------------- (b) same results
def _expected(client, tangle, misses) -> np.ndarray:
    """One ``accuracy_many`` over the misses' full stack (grafted, with
    non-finite rows at 0.0, under personalization)."""
    arena, rows = locate_rows([tangle.get(tx_id) for tx_id in misses])
    stack = arena.rows(rows)
    x, y = client.data.x_test, client.data.y_test
    if not client.personal_params:
        return client.model.accuracy_many(stack, x, y)
    stack = client.graft_tail(stack)
    finite = np.isfinite(stack).all(axis=1)
    values = np.zeros(len(stack))
    values[finite] = client.model.accuracy_many(stack[finite], x, y)
    return values


@pytest.mark.parametrize("chunk_rows", [1, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("by_rows", [False, True], ids=["locate_rows", "arena_rows"])
@pytest.mark.parametrize("personal", [False, True], ids=["shared", "personal"])
def test_chunked_scoring_equals_one_stack(monkeypatch, chunk_rows, dtype, by_rows, personal):
    model = _model()
    tangle, ids = _fan(model, 23, dtype=dtype, corrupt=6)
    twins = [_client(model, n_test=9) for _ in range(2)]
    for client in twins:
        if personal:
            client.enable_personalization(1, model.get_weights())
        client.tx_accuracy(tangle, ids[2])  # already cached
    batch = ids[5:] + ids[:9] + [ids[3], ids[12], ids[7]]  # duplicates
    misses = list(dict.fromkeys(tx_id for tx_id in batch if tx_id != ids[2]))
    arena_rows = _rows_of(tangle, batch) if by_rows else None

    marks = [client.cache_mark() for client in twins]
    unchunked = twins[0].tx_accuracies(tangle, batch, arena_rows)
    # A chunk of `chunk_rows` rows; one byte short of a row is still one.
    cap = chunk_rows * 8 * model.flat_spec.total - (chunk_rows == 1)
    monkeypatch.setattr(client_module, "_SCORE_BYTES", cap)
    chunked = twins[1].tx_accuracies(tangle, batch, arena_rows)

    assert chunked.tobytes() == unchunked.tobytes()
    cache = twins[1].tx_accuracy_cache()
    assert list(cache.items()) == list(twins[0].tx_accuracy_cache().items())
    assert twins[1].evaluations == twins[0].evaluations == 1 + len(misses)
    deltas = [client.cache_entries_since(mark) for client, mark in zip(twins, marks)]
    assert list(deltas[1].items()) == list(deltas[0].items())
    assert list(deltas[1]) == misses
    values = np.array([cache[tx_id] for tx_id in misses])
    assert values.tobytes() == _expected(twins[1], tangle, misses).tobytes()
    assert chunked.tobytes() == np.array([cache[tx_id] for tx_id in batch]).tobytes()
    if personal:
        assert cache["t6"] == 0.0  # non-finite grafted row: no forward pass


# ------------------------------------------------ (c) shared values
def _distinct_objects(mapping) -> int:
    return len({id(value) for value in mapping.values()})


def test_cache_holds_one_float_per_accuracy_value():
    n = 3
    model = _model()
    tangle, ids = _fan(model, 600)
    client = _client(model, n_test=n)
    client.tx_accuracies(tangle, ids[:350])
    client.tx_accuracies(tangle, ids)
    cache = client.tx_accuracy_cache()
    assert len(cache) == len(ids)
    assert _distinct_objects(cache) <= n + 1

    # Entries as a worker ships them: a float object of their own each.
    fresh = {tx_id: float(repr(value)) for tx_id, value in cache.items()}
    assert _distinct_objects(fresh) == len(fresh)
    restored = _client(model, n_test=n)
    restored.restore_tx_accuracy_cache(fresh)
    merged = _client(model, n_test=n)
    merged.tx_accuracies(tangle, ids[:50])
    merged.merge_tx_accuracy_cache({k: v for k, v in fresh.items() if k not in ids[:50]})
    for other in (restored, merged):
        assert other.tx_accuracy_cache() == cache
        assert _distinct_objects(other.tx_accuracy_cache()) <= n + 1

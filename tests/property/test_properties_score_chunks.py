"""Property-based tests for chunked walk scoring.

``Client.tx_accuracies`` scores its misses in consecutive chunks of at
most ``_SCORE_BYTES`` of float64 rows.  For any row subset (with
duplicates and already-cached ids), any chunk size from one row to more
than the whole batch, either arena dtype, with or without
personalization and with the rows given or located by id, the chunked
call equals the one-stack pass bit for bit: the same values, the same
cache entries in the same order, the same evaluation count.
"""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.dag.walk_engine import snapshot_for
from repro.data.base import ClientData
from repro.fl import Client, TrainingConfig
from repro.fl import client as client_module
from repro.nn import zoo

# Tier-1 keeps the example budget small; the CI chaos job widens the
# sweep by exporting CHAOS_MAX_EXAMPLES.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "0"))

FEATURES, CLASSES = 12, 4


def _client(model, n_test: int) -> Client:
    rng = np.random.default_rng(n_test)
    data = ClientData(
        0,
        rng.normal(size=(2, FEATURES)),
        rng.integers(0, CLASSES, 2),
        rng.normal(size=(n_test, FEATURES)),
        rng.integers(0, CLASSES, n_test),
        0,
    )
    return Client(data, model, TrainingConfig(), rng=1)


@st.composite
def cases(draw):
    k = draw(st.integers(2, 12))
    batch = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k))
    return dict(
        k=k,
        batch=batch,
        cached=draw(st.lists(st.integers(0, k - 1), max_size=3)),
        chunk_rows=draw(st.integers(1, len(batch) + 1)),
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        personal=draw(st.booleans()),
        by_rows=draw(st.booleans()),
        corrupt=draw(st.one_of(st.none(), st.integers(1, k - 1))),
        n_test=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(deadline=None, max_examples=CHAOS_EXAMPLES or 15)
@given(case=cases())
def test_chunked_scoring_equals_one_stack_pass(case):
    rng = np.random.default_rng(case["seed"])
    model = zoo.build_mlp(rng, in_features=FEATURES, hidden=(5,), num_classes=CLASSES)
    spec, base = model.flat_spec, model.get_flat()
    tangle = Tangle(model.get_weights(), store_dtype=case["dtype"])
    ids = [GENESIS_ID]
    for i in range(1, case["k"]):
        flat = base + rng.normal(0.0, 0.5, size=base.shape)
        if i == case["corrupt"]:
            flat[rng.integers(spec.total)] = np.nan
        tangle.add(Transaction.from_flat(f"t{i}", (ids[-1],), flat, spec, i, i))
        ids.append(f"t{i}")
    batch = [ids[i] for i in case["batch"]]
    # A personal head unlike every body's own, so grafting moves scores.
    head = [rng.normal(0.0, 2.0, size=w.shape) for w in model.get_weights()[-2:]]
    arena_rows = None
    if case["by_rows"]:
        snapshot = snapshot_for(tangle)
        arena, rows = snapshot.arena_rows
        arena_rows = (arena, rows[[snapshot.index[tx_id] for tx_id in batch]])

    results = []
    for cap in (1 << 40, case["chunk_rows"] * 8 * spec.total):
        client = _client(model, case["n_test"])
        if case["personal"]:
            client.enable_personalization(2, model.get_weights()[:-2] + head)
        for i in case["cached"]:
            client.tx_accuracy(tangle, ids[i])
        mark = client.cache_mark()
        with mock.patch.object(client_module, "_SCORE_BYTES", cap):
            values = client.tx_accuracies(tangle, batch, arena_rows)
        results.append(
            (
                values.tobytes(),
                list(client.tx_accuracy_cache().items()),
                client.evaluations,
                list(client.cache_entries_since(mark).items()),
            )
        )
    assert results[1] == results[0]

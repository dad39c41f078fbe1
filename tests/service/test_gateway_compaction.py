"""Gateway compaction: the service stays live while history truncates.

``TangleGateway.compact`` runs the tangle's compaction under the same
lock that serializes publishes against snapshot builds; the coalescer
holds no score state, so nothing is handed off.  These tests pin
service liveness across the cut, the telemetry surface, and that no
dropped id is scored after it.
"""

import numpy as np
import pytest

from repro.service.gateway import GatewayConfig, TangleGateway


@pytest.fixture
def gateway(tangle):
    with TangleGateway(
        tangle, config=GatewayConfig(deadline_budget=5.0)
    ) as gateway:
        yield gateway


def test_requests_keep_resolving_across_compaction(gateway, tangle):
    assert gateway.tips(2).ok
    report = gateway.compact(keep_last=15)
    assert report.dropped == 25 and len(tangle) == 16
    response = gateway.tips(3)
    assert response.ok
    live = set(tx.tx_id for tx in tangle.transactions())
    assert all(tip in live for tip in response.body["tips"])
    # Publishing against fresh tips still works after the cut.
    rng = np.random.default_rng(0)
    publish = gateway.publish(
        rng.normal(size=tangle.spec.total), response.body["tips"]
    )
    assert publish.ok


def test_compaction_telemetry(gateway, tangle):
    before = gateway.health().body
    assert before["compaction_epoch"] == 0
    gateway.compact(keep_last=10)
    after = gateway.health().body
    assert after["compaction_epoch"] == 1
    assert after["arena_resident_bytes"] < before["arena_resident_bytes"]
    assert after["counts"]["compactions"] == 1
    assert after["counts"]["compacted_dropped"] == 30
    assert after["tangle_size"] == 11


def test_noop_compaction_counts_nothing(gateway):
    report = gateway.compact(keep_last=1000)
    assert report.dropped == 0
    counts = gateway.health().body["counts"]
    assert counts["compactions"] == 0 and counts["compacted_dropped"] == 0


def test_score_caches_evict_dropped_ids(tangle):
    """After a compaction no dropped id reaches the score provider: the
    next batch walks the new epoch's snapshot, and the coalescer keeps
    no score state that could still name a dropped id."""
    calls: list[str] = []

    def score_provider(score_key):
        def batch_fn(tx_ids):
            calls.extend(tx_ids)
            return [0.5] * len(tx_ids)

        return batch_fn

    with TangleGateway(
        tangle,
        config=GatewayConfig(deadline_budget=5.0),
        score_provider=score_provider,
    ) as gateway:
        assert gateway.tips(4, score_key="k").ok
        report = gateway.compact(keep_last=10)
        assert report.dropped == 30
        dropped = set(report.dropped_ids)
        assert dropped & set(calls)  # scored before the cut
        calls.clear()
        for _ in range(5):
            assert gateway.tips(4, score_key="k").body["mode"] == "accuracy"
    assert calls
    assert not dropped & set(calls)

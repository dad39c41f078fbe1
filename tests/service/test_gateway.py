"""The gateway surface: endpoints, quarantine, admission, telemetry."""

import numpy as np
import pytest

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID
from repro.fl.aggregation import mean_flat
from repro.service.gateway import GatewayConfig, ServiceResponse, TangleGateway


@pytest.fixture
def gateway(tangle):
    with TangleGateway(
        tangle, config=GatewayConfig(deadline_budget=5.0)
    ) as gateway:
        yield gateway


def test_tips_returns_live_tips_within_budget(gateway, tangle):
    response = gateway.tips(3)
    assert response.ok and response.http_status == 200
    assert len(response.body["tips"]) == 3
    tips = set(tangle.tips())
    assert all(tip in tips for tip in response.body["tips"])
    assert response.body["mode"] == "weighted"  # no scorer => native mode
    assert not response.degraded


def test_publish_grows_the_tangle(gateway, tangle):
    rng = np.random.default_rng(0)
    before = len(tangle)
    parents = gateway.tips(2).body["tips"]
    response = gateway.publish(
        rng.normal(size=tangle.spec.total), parents, issuer=3, round_index=7
    )
    assert response.ok
    tx_id = response.body["tx_id"]
    assert tx_id in tangle and len(tangle) == before + 1
    assert gateway.counts["published"] == 1
    tx = tangle.get(tx_id)
    assert tx.issuer == 3 and tx.round_index == 7


def test_publish_deduplicates_repeated_parents(gateway, tangle):
    rng = np.random.default_rng(1)
    tip = tangle.tips()[0]
    response = gateway.publish(rng.normal(size=tangle.spec.total), [tip, tip])
    assert response.ok
    assert tangle.get(response.body["tx_id"]).parents == (tip,)


def test_corrupt_payload_is_quarantined_not_crashed(gateway, tangle):
    bad = np.full(tangle.spec.total, np.inf)
    response = gateway.publish(bad, tangle.tips()[:1])
    assert response.status == "rejected" and response.http_status == 400
    assert "quarantined" in response.reason
    assert gateway.counts["quarantined"] == 1
    assert len(tangle) == 41  # nothing admitted


def test_wrong_length_payload_is_quarantined(gateway, tangle):
    response = gateway.publish(np.zeros(3), tangle.tips()[:1])
    assert response.status == "rejected"
    assert gateway.counts["quarantined"] == 1


def test_payload_overflowing_a_float32_arena_is_quarantined():
    """Admission judges a payload as the arena stores it: 1e39 is a
    finite float64 but an infinite float32."""
    rng = np.random.default_rng(3)
    tangle = Tangle([rng.normal(size=(3, 2)), rng.normal(size=2)], store_dtype=np.float32)
    with TangleGateway(tangle, config=GatewayConfig(deadline_budget=5.0)) as gateway:
        flat = rng.normal(size=tangle.spec.total)
        flat[4] = 1e39
        response = gateway.publish(flat, [GENESIS_ID])
        assert response.status == "rejected" and "quarantined" in response.reason
        assert gateway.counts["quarantined"] == 1 and len(tangle) == 1
        flat[4] = 3e38  # representable in float32
        assert gateway.publish(flat, [GENESIS_ID]).ok
        assert np.isfinite(tangle.arena.rows(np.arange(len(tangle)))).all()


@pytest.mark.parametrize(
    "field, value",
    [
        ("depth_range", (5, 2)),
        ("depth_range", (-1, 3)),
        ("normalization", "nope"),
        ("deadline_budget", -1.0),
        ("deadline_budget", 0.0),
        ("deadline_budget", float("nan")),
        ("deadline_budget", float("inf")),
    ],
)
def test_config_rejects_invalid_walk_settings(field, value):
    """Walk settings no component sees before the first tips request
    fail at construction, not as a shed or a raise on every request."""
    with pytest.raises(ValueError, match=field):
        GatewayConfig(**{field: value})


def test_unknown_parent_is_rejected_with_the_error(gateway, tangle):
    rng = np.random.default_rng(2)
    response = gateway.publish(
        rng.normal(size=tangle.spec.total), ["no-such-tx"]
    )
    assert response.status == "rejected"
    assert "no-such-tx" in response.reason
    assert gateway.counts["quarantined"] == 0  # payload was fine


def test_current_model_is_mean_of_tip_models(gateway, tangle):
    response = gateway.current_model()
    assert response.ok
    tips = tangle.tips()
    assert response.body["tips"] == tips
    expected = mean_flat(np.stack([tangle.flat_weights(t) for t in tips]))
    np.testing.assert_allclose(response.body["model"], expected)


def test_saturated_admission_sheds_with_retry_after(tangle):
    with TangleGateway(
        tangle, config=GatewayConfig(admission_capacity=1)
    ) as gateway:
        assert gateway.admission.try_acquire()  # occupy the only slot
        try:
            response = gateway.tips(2)
        finally:
            gateway.admission.release()
    assert response.status == "shed" and response.http_status == 429
    assert response.reason == "admission_full"
    assert response.retry_after is not None
    assert gateway.counts["shed"] == 1


def test_health_reports_full_resilience_telemetry(gateway):
    gateway.tips(2)
    body = gateway.health().body
    assert body["status"] == "live"
    assert body["tangle_size"] == 41
    assert body["breaker"] == "closed"
    assert body["counts"]["ok"] >= 1
    assert "coalescer" in body and "ladder" in body
    assert body["admission_depth"] == 0


def test_ready_flips_on_close(tangle):
    gateway = TangleGateway(tangle)
    assert gateway.ready().body["ready"] is True
    gateway.close()
    assert gateway.ready().body["ready"] is False
    assert gateway.health().body["status"] == "closed"


def test_response_taxonomy_is_closed():
    # The service has exactly three outcomes; anything else is a bug.
    assert ServiceResponse(status="ok").http_status == 200
    assert ServiceResponse(status="shed").http_status == 429
    assert ServiceResponse(status="rejected").http_status == 400
    with pytest.raises(KeyError):
        ServiceResponse(status="error").http_status

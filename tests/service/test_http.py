"""HTTP front round-trips: real sockets, status-code mapping."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.service import (
    GatewayConfig,
    ServiceChaos,
    TangleGateway,
    serve_background,
)
from repro.sim.faults import FaultModel


@pytest.fixture
def served(tangle):
    gateway = TangleGateway(tangle, config=GatewayConfig(deadline_budget=5.0))
    server, thread = serve_background(gateway)
    yield gateway, server.base_url
    server.shutdown()
    server.server_close()
    gateway.close()


@pytest.fixture(scope="module")
def served_shared(shared_tangle):
    """One server for the malformed-request cases, which change nothing."""
    gateway = TangleGateway(
        shared_tangle, config=GatewayConfig(deadline_budget=5.0)
    )
    server, _ = serve_background(gateway)
    yield shared_tangle, server.base_url
    server.shutdown()
    server.server_close()
    gateway.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def test_tips_round_trip(served, tangle):
    _, url = served
    status, body = _get(url + "/tips?count=3&budget=2.0")
    assert status == 200
    assert body["status"] == "ok" and len(body["tips"]) == 3
    assert all(tip in tangle for tip in body["tips"])


def test_publish_round_trip(served, tangle):
    _, url = served
    rng = np.random.default_rng(0)
    _, tips_body = _get(url + "/tips?count=2")
    status, body = _post(
        url + "/publish",
        {
            "weights": list(rng.normal(size=tangle.spec.total)),
            "parents": tips_body["tips"],
            "issuer": 5,
        },
    )
    assert status == 200 and body["tx_id"] in tangle


def test_corrupt_publish_maps_to_400(served, tangle):
    _, url = served
    payload = {
        "weights": [None] * tangle.spec.total,  # nulls -> NaN payload
        "parents": tangle.tips()[:1],
    }
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url + "/publish", payload)
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read())
    assert "quarantined" in body["reason"]


def test_malformed_json_maps_to_400(served):
    _, url = served
    request = urllib.request.Request(
        url + "/publish", data=b"{not json", headers={}
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400


def _rejected(open_request):
    """The 400 body of a request the boundary must reject."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        open_request()
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read())
    assert body["status"] == "rejected"
    return body


@pytest.mark.parametrize(
    "query, field",
    [
        ("count=abc", "count"),
        ("count=0", "count"),
        ("count=-3", "count"),
        ("budget=x", "budget"),
        ("budget=-1", "budget"),
        ("budget=0", "budget"),
        ("budget=nan", "budget"),
        ("budget=inf", "budget"),
    ],
)
def test_malformed_tips_query_is_400_not_a_hangup(served_shared, query, field):
    _, url = served_shared
    body = _rejected(lambda: _get(f"{url}/tips?{query}"))
    assert body["reason"].startswith(f"malformed {field}")
    status, _ = _get(url + "/tips?count=1")  # the server kept serving
    assert status == 200


@pytest.mark.parametrize(
    "change, field",
    [
        ({"issuer": "abc"}, "issuer"),
        ({"round_index": [1]}, "round_index"),
        ({"weights": ["a", "b"]}, "weights"),
        ({"weights": [[1.0, 2.0], [3.0]]}, "weights"),
        ({"weights": {"w": 1.0}}, "weights"),
        ({"parents": "t1"}, "parents"),
        ({"parents": 5}, "parents"),
        ({"parents": [["t1"]]}, "parents"),
        ({"tags": 5}, "tags"),
    ],
)
def test_malformed_publish_field_is_400_not_a_hangup(served_shared, change, field):
    tangle, url = served_shared
    payload = {
        "weights": [0.0] * tangle.spec.total,
        "parents": tangle.tips()[:1],
        **change,
    }
    before = len(tangle)
    body = _rejected(lambda: _post(url + "/publish", payload))
    assert body["reason"].startswith(f"malformed {field}")
    assert len(tangle) == before


@pytest.mark.parametrize("payload", [5, [1, 2], "weights"])
def test_non_object_publish_body_is_400(served_shared, payload):
    _, url = served_shared
    body = _rejected(lambda: _post(url + "/publish", payload))
    assert "need 'weights' and 'parents'" in body["reason"]


def test_current_model_and_health(served, tangle):
    _, url = served
    status, body = _get(url + "/current-model")
    assert status == 200 and len(body["model"]) == tangle.spec.total
    status, body = _get(url + "/health")
    assert status == 200 and body["tangle_size"] == len(tangle)


def test_ready_maps_saturation_to_503(served):
    gateway, url = served
    status, body = _get(url + "/ready")
    assert status == 200 and body["ready"] is True
    while gateway.admission.try_acquire():  # saturate the gate
        pass
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url + "/ready")
        assert excinfo.value.code == 503
    finally:
        for _ in range(gateway.admission.capacity):
            gateway.admission.release()


def test_unknown_route_is_404(served):
    _, url = served
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(url + "/nope")
    assert excinfo.value.code == 404


def test_shed_carries_retry_after_header(tangle):
    gateway = TangleGateway(tangle, config=GatewayConfig(admission_capacity=1))
    server, _ = serve_background(gateway)
    try:
        assert gateway.admission.try_acquire()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.base_url + "/tips", timeout=10)
        assert excinfo.value.code == 429
        assert float(excinfo.value.headers["Retry-After"]) > 0
    finally:
        gateway.admission.release()
        server.shutdown()
        server.server_close()
        gateway.close()


def test_chaos_drop_is_a_transport_error_not_a_5xx(tangle):
    chaos = ServiceChaos(FaultModel(drop_rate=1.0, always_on=True))
    gateway = TangleGateway(tangle, chaos=chaos)
    server, _ = serve_background(gateway)
    try:
        # The connection dies without an HTTP response: urllib surfaces
        # a transport-level error (URLError or the raw RemoteDisconnected,
        # depending on version), never a status code.
        import http.client

        with pytest.raises(
            (urllib.error.URLError, http.client.RemoteDisconnected)
        ) as excinfo:
            urllib.request.urlopen(server.base_url + "/tips", timeout=10)
        assert not isinstance(excinfo.value, urllib.error.HTTPError)
    finally:
        server.shutdown()
        server.server_close()
        gateway.close()

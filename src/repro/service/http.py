"""Stdlib HTTP front for the gateway (no framework dependencies).

The in-process API is the contract; this module is a thin JSON
transport over it, so everything the resilience layer guarantees maps
directly onto HTTP semantics:

========================  =====================================
gateway outcome           HTTP mapping
========================  =====================================
``"ok"``                  200 (``degraded`` flagged in the body)
``"shed"``                429 + ``Retry-After`` header
``"rejected"``            400 (quarantined / invalid payload)
``ready: False``          503 on ``GET /ready``
chaos ``TransportDropped``  connection closed without a response
========================  =====================================

Routes: ``POST /publish``, ``GET /tips``, ``GET /current-model``,
``GET /health``, ``GET /ready``.  Built on ``ThreadingHTTPServer`` so
concurrent requests actually coalesce; :func:`serve_background` binds
port 0 for collision-free tests.  A malformed request field
(``count=abc``, ``budget=nan``, ragged ``weights``, ...) is a 400
``rejected`` naming the field, never an exception out of the handler.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.service.chaos import TransportDropped
from repro.service.gateway import ServiceResponse, TangleGateway

__all__ = ["GatewayHTTPServer", "serve_background"]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class _BadRequest(ValueError):
    """A malformed request field, answered as a 400 ``rejected``."""


def _field(name: str, value, convert=None, valid=None):
    """``convert(value)`` (or ``value``) if it passes ``valid``, else
    :class:`_BadRequest` naming the field."""
    try:
        parsed = value if convert is None else convert(value)
        ok = valid is None or valid(parsed)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise _BadRequest(f"malformed {name}: {value!r:.60}")
    return parsed


def _finite_positive(number: float) -> bool:
    return math.isfinite(number) and number > 0


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # The test server must not spam stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def gateway(self) -> TangleGateway:
        return self.server.gateway

    def _send(self, response: ServiceResponse, status: int | None = None):
        payload = {
            "status": response.status,
            "degraded": response.degraded,
            "reason": response.reason,
            **_jsonable(response.body),
        }
        body = json.dumps(payload).encode()
        self.send_response(status or response.http_status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if response.retry_after is not None:
            self.send_header("Retry-After", f"{response.retry_after:.3f}")
        self.end_headers()
        self.wfile.write(body)

    def _drop(self):
        # Chaos ate the request: hang up without an HTTP response,
        # which is exactly what a dropped packet looks like to the
        # caller — a transport error, not a 5xx.
        self.close_connection = True

    def do_GET(self):
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/tips":
                budget = query.get("budget")
                response = self.gateway.tips(
                    _field(
                        "count", query.get("count", ["2"])[0], int, lambda n: n >= 1
                    ),
                    score_key=query.get("score_key", [None])[0],
                    budget=None if budget is None
                    else _field("budget", budget[0], float, _finite_positive),
                )
            elif url.path == "/current-model":
                response = self.gateway.current_model()
            elif url.path == "/health":
                response = self.gateway.health()
            elif url.path == "/ready":
                response = self.gateway.ready()
                self._send(
                    response, status=200 if response.body["ready"] else 503
                )
                return
            else:
                self._send(
                    ServiceResponse(status="rejected", reason="unknown route"),
                    status=404,
                )
                return
        except _BadRequest as exc:
            response = ServiceResponse(status="rejected", reason=str(exc))
        except TransportDropped:
            self._drop()
            return
        self._send(response)

    def do_POST(self):
        url = urlparse(self.path)
        if url.path != "/publish":
            self._send(
                ServiceResponse(status="rejected", reason="unknown route"),
                status=404,
            )
            return
        try:
            response = self._publish()
        except _BadRequest as exc:
            response = ServiceResponse(status="rejected", reason=str(exc))
        except TransportDropped:
            self._drop()
            return
        self._send(response)

    def _publish(self) -> ServiceResponse:
        length = _field(
            "Content-Length",
            self.headers.get("Content-Length", "0"),
            int,
            lambda n: n >= 0,
        )
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise _BadRequest(f"bad json: {exc}") from None
        if not (isinstance(request, dict) and {"weights", "parents"} <= request.keys()):
            raise _BadRequest("need 'weights' and 'parents'")
        return self.gateway.publish(
            _field(
                "weights",
                request["weights"],
                lambda weights: np.asarray(weights, dtype=np.float64),
            ),
            _field("parents", request["parents"], valid=_str_list),
            issuer=_field("issuer", request.get("issuer", 0), int),
            round_index=_field("round_index", request.get("round_index", 0), int),
            tags=_field(
                "tags",
                request.get("tags"),
                valid=lambda tags: tags is None or isinstance(tags, dict),
            ),
        )


class GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, gateway: TangleGateway, host="127.0.0.1", port=0):
        super().__init__((host, port), _Handler)
        self.gateway = gateway

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_background(
    gateway: TangleGateway, host="127.0.0.1", port=0
) -> tuple[GatewayHTTPServer, threading.Thread]:
    """Start a server thread; caller owns ``server.shutdown()``."""
    server = GatewayHTTPServer(gateway, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="gateway-http", daemon=True
    )
    thread.start()
    return server, thread

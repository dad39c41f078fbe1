"""repro.service — tangle-as-a-service with a full resilience layer.

The gateway (:class:`TangleGateway`) exposes a live tangle as
``publish / tips / current-model / health / ready``, composed from:

- :class:`TipCoalescer` — concurrent tip requests batch into one
  lockstep superstep over the shared epoch snapshot (width, not locks);
- :class:`Deadline` budgets propagated into the walk engine and
  stage-sliced so fallbacks always have reserve;
- :class:`CircuitBreaker` + :class:`DegradationLadder` — accuracy →
  weighted → uniform, every fall labeled on the response;
- :class:`AdmissionGate` bounded admission with explicit shedding;
- :class:`ServiceChaos` — the simulator's :class:`FaultModel` injected
  at the service boundary;
- :class:`GatewayClient` — retry with capped backoff + jitter;
- :mod:`repro.service.http` — a stdlib HTTP front over the same object,
  imported on first access to :class:`GatewayHTTPServer` or
  :func:`serve_background` (so an in-process gateway never loads
  ``http.server`` and what it pulls in).

Every request resolves inside a closed taxonomy — ``ok`` (possibly
degraded), ``shed`` (retryable), ``rejected`` (invalid payload) — so
chaos can make the service *worse*, never *undefined*.  See
``docs/architecture.md`` ("The service layer") for the full tour.
"""

from repro.service.chaos import (
    InjectedCoalescerCrash,
    ServiceChaos,
    TransportDropped,
)
from repro.service.client import GatewayClient
from repro.service.coalescer import TipCoalescer, TipsOutcome
from repro.service.degradation import LADDER_MODES, DegradationLadder
from repro.service.gateway import GatewayConfig, ServiceResponse, TangleGateway
from repro.service.resilience import (
    AdmissionGate,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "Deadline",
    "DegradationLadder",
    "GatewayClient",
    "GatewayConfig",
    "GatewayHTTPServer",
    "InjectedCoalescerCrash",
    "LADDER_MODES",
    "RetryPolicy",
    "ServiceChaos",
    "ServiceResponse",
    "TangleGateway",
    "TipCoalescer",
    "TipsOutcome",
    "TransportDropped",
    "serve_background",
]


def __getattr__(name: str):
    """Import the HTTP front (and with it ``http.server``) on first
    access to one of its names."""
    if name in ("GatewayHTTPServer", "serve_background"):
        from repro.service import http

        return getattr(http, name)
    raise AttributeError(f"module 'repro.service' has no attribute {name!r}")

"""`repro.gateway` — the HTTP/JSON front door over :mod:`repro.serving`.

Layering, innermost out:

* :mod:`~repro.gateway.wire` — request/response schemas and the error
  envelope; nothing here knows about HTTP servers or threads.
* :mod:`~repro.gateway.auth` — bearer-token tenant entitlements.
* :mod:`~repro.gateway.queues` — bounded per-tenant admission queues, each
  drained by the single worker thread that owns that tenant's (not
  thread-safe) :class:`~repro.crowd.CrowdCoordinator`. Backpressure (429)
  and deadline cancellation (504) live here.
* :mod:`~repro.gateway.ops` — the tenant operation bodies, shared between
  the in-process backend and the fleet's worker processes.
* :mod:`~repro.gateway.handlers` — :class:`GatewayApp`, the full HTTP
  surface as one ``handle()`` function plus the SIGTERM drain path, over a
  pluggable serving backend (:class:`LocalPoolBackend` in-process,
  :class:`FleetBackend` routing to :mod:`repro.fleet` workers).
* :mod:`~repro.gateway.server` — the byte-moving stdlib HTTP listener.

Typical embedding (the ``repro serve-http`` CLI does exactly this)::

    from repro import obs
    from repro.gateway import GatewayApp, build_server

    obs.enable()                     # instruments bind at construction time
    pool.spawn_many(4)
    app = GatewayApp(pool, config=GatewayConfig(port=0))
    server = build_server(app)
    server.serve_forever()           # SIGTERM → begin_drain + stop (threaded)
    app.finish_drain("final-metrics.json")
"""

from ..config import GatewayConfig
from .auth import TokenAuthenticator
from .handlers import FleetBackend, GatewayApp, LocalPoolBackend
from .queues import GatewayJob, TenantQueue
from .server import GatewayServer, build_server
from .wire import (
    BadRequestError,
    DeadlineExceededError,
    DrainingError,
    ForbiddenError,
    GatewayError,
    MethodNotAllowedError,
    NotFoundError,
    QueueFullError,
    UnauthorizedError,
    error_envelope,
)

__all__ = [
    "BadRequestError",
    "DeadlineExceededError",
    "DrainingError",
    "FleetBackend",
    "ForbiddenError",
    "GatewayApp",
    "GatewayConfig",
    "GatewayError",
    "GatewayJob",
    "GatewayServer",
    "LocalPoolBackend",
    "MethodNotAllowedError",
    "NotFoundError",
    "QueueFullError",
    "TenantQueue",
    "TokenAuthenticator",
    "UnauthorizedError",
    "build_server",
    "error_envelope",
]

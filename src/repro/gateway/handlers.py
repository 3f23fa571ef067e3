"""Framework-free request handling: routes, serving backends, and the drain path.

:class:`GatewayApp` is the whole HTTP surface expressed as one pure-ish
function, ``handle(method, path, headers, body) -> (status, headers, body)``.
The server (:mod:`repro.gateway.server`) only moves bytes; everything a
request *means* — routing, auth, admission, deadline bookkeeping, error
envelopes, metrics — happens here, which is what makes the app testable
without ever opening a socket.

Where the tenants *live* is a second, orthogonal axis — the serving
backend. :class:`LocalPoolBackend` hosts them in-process on a
:class:`~repro.serving.pool.TenantPool` (the classic single-process
gateway); :class:`FleetBackend` routes every operation over pipe RPC to a
:class:`~repro.fleet.supervisor.FleetSupervisor`'s worker processes. Both
run the same operation bodies (:mod:`repro.gateway.ops`), so the wire shape
is identical and the choice is pure deployment (``repro serve-http
--workers N``).

Routes::

    GET  /healthz                      liveness + drain state (no auth)
    GET  /metrics                      Prometheus exposition     (no auth)
    POST /tenants/{id}/propose        -> assignment or null
    POST /tenants/{id}/answer         -> vote, maybe a committed record
    POST /tenants/{id}/checkpoint     -> engine checkpoint on disk
    POST /tenants/{id}/migrate         move tenant between workers (fleet)
    POST /tenants/{id}/debug/sleep     worker stall (allow_debug_ops only)

Tenant operations are closures submitted to the tenant's
:class:`~repro.gateway.queues.TenantQueue`, so each tenant's work is
serialized on its single queue-worker thread whichever backend runs the
body; the HTTP thread blocks on the job (bounded by the request deadline).

Graceful drain (SIGTERM): :meth:`GatewayApp.begin_drain` flips every queue
to rejecting (503 + ``Retry-After``) while queued work keeps running;
:meth:`GatewayApp.finish_drain` then joins the workers, writes one final
checkpoint per tenant through the backend, and snapshots the metrics
registry — the state a replacement process needs to resume exactly where
this one stopped.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .. import obs
from ..config import CrowdConfig, GatewayConfig
from ..errors import ReproError
from ..obs import get_registry
from ..obs.prometheus import render_snapshot
from ..serving.pool import TenantPool
from . import ops as gateway_ops
from . import wire
from .auth import TokenAuthenticator
from .queues import TenantQueue
from .wire import (
    BadRequestError,
    DrainingError,
    MethodNotAllowedError,
    NotFoundError,
)

Response = Tuple[int, Dict[str, str], bytes]

_TENANT_ROUTE = re.compile(
    r"^/tenants/(?P<tenant_id>[A-Za-z0-9._-]+)/(?P<op>[a-z/]+)$"
)


class LocalPoolBackend:
    """Tenants hosted in this process on a :class:`TenantPool`.

    Starting each tenant and binding its long-lived coordinator happens
    here, on the construction thread, so the queue-worker threads only
    ever *use* the coordinator.
    """

    kind = "local"
    supports_migration = False

    def __init__(
        self,
        pool: TenantPool,
        crowd_config: CrowdConfig,
        checkpoint_dir: str,
    ) -> None:
        self.pool = pool
        self.crowd_config = crowd_config
        self.checkpoint_dir = checkpoint_dir
        for tenant in self.pool.tenants.values():
            if not tenant.started:
                tenant.start()
            tenant.coordinator(self.crowd_config)

    def tenant_ids(self) -> List[str]:
        return sorted(self.pool.tenants)

    def call(
        self, tenant_id: str, op: str, payload: Mapping[str, Any]
    ) -> Dict[str, Any]:
        tenant = self.pool.tenants.get(tenant_id)
        if tenant is None:
            raise NotFoundError(
                f"no tenant {tenant_id!r}; live tenants: "
                f"{', '.join(self.tenant_ids()) or '(none)'}"
            )
        if op == "propose":
            return gateway_ops.op_propose(tenant, self.crowd_config, payload)
        if op == "answer":
            return gateway_ops.op_answer(tenant, self.crowd_config, payload)
        if op == "checkpoint":
            return gateway_ops.op_checkpoint(
                tenant, self.crowd_config, payload, self.checkpoint_dir
            )
        if op == "debug/sleep":
            return gateway_ops.op_debug_sleep(tenant, payload)
        raise NotFoundError(f"no tenant operation {op!r}")

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.kind}

    def merge_metrics(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        return snapshot

    def drain(self, checkpoint_dir: str) -> Dict[str, str]:
        directory = Path(checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, str] = {}
        for tenant_id in self.tenant_ids():
            tenant = self.pool.tenants[tenant_id]
            if not tenant.started:
                continue
            try:
                tenant.flush()
                paths[tenant_id] = tenant.save(
                    str(directory / f"{tenant_id}-final.npz")
                )
            except ReproError:
                # A tenant that cannot checkpoint must not block the others'
                # drain; its absence from the returned map is the signal.
                continue
        return paths

    def close(self) -> None:
        if not self.pool.closed:
            self.pool.close()


class FleetBackend:
    """Tenants hosted across a :class:`FleetSupervisor`'s worker processes.

    Every operation crosses the pipe RPC to the tenant's worker; the
    supervisor transparently respawns a crashed worker (restoring its
    tenants from their autosaves) and retries once, so a worker crash
    costs the caller latency, not a 5xx. ``migrate`` is the extra verb
    this backend adds: checkpoint-and-evict on the source worker, adopt on
    the target, reroute.
    """

    kind = "fleet"
    supports_migration = True

    def __init__(self, supervisor, checkpoint_dir: str) -> None:
        self.supervisor = supervisor
        self.checkpoint_dir = checkpoint_dir
        # The queues (and /healthz) enumerate tenants at construction; the
        # fleet spawns them before the app sees traffic, like the pool.
        self.pool = None

    def tenant_ids(self) -> List[str]:
        return self.supervisor.tenant_ids()

    def call(
        self, tenant_id: str, op: str, payload: Mapping[str, Any]
    ) -> Dict[str, Any]:
        if op == "migrate":
            target = payload.get("worker")
            if target is not None and (
                isinstance(target, bool) or not isinstance(target, int)
            ):
                raise BadRequestError("field 'worker' must be an integer")
            return self.supervisor.migrate(tenant_id, target=target)
        return self.supervisor.call_tenant(
            tenant_id,
            op,
            body=payload,
            checkpoint_dir=self.checkpoint_dir if op == "checkpoint" else None,
        )

    def describe(self) -> Dict[str, Any]:
        return {"backend": self.kind, "workers": self.supervisor.status()}

    def merge_metrics(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Fold every worker's registry into the gateway's snapshot.

        Worker series get an injected ``worker`` label; families are merged
        by name so the exposition declares each ``# TYPE`` exactly once (a
        family re-declaration resets samples in strict parsers, including
        the repo's own).
        """
        merged: Dict[str, Any] = {
            name: {**family, "series": list(family.get("series", []))}
            for name, family in (snapshot.get("metrics") or {}).items()
        }
        enabled = bool(snapshot.get("enabled"))
        for worker, metrics in sorted(
            self.supervisor.metrics_snapshots().items()
        ):
            labeled = _label_snapshot(metrics, worker=worker)
            enabled = enabled or bool(labeled["metrics"])
            for name, family in labeled["metrics"].items():
                if name in merged:
                    merged[name]["series"].extend(family["series"])
                else:
                    merged[name] = family
        return {"enabled": enabled, "metrics": merged}

    def drain(self, checkpoint_dir: str) -> Dict[str, str]:
        return self.supervisor.drain(checkpoint_dir)

    def close(self) -> None:
        self.supervisor.close()


def _label_snapshot(
    snapshot: Mapping[str, Any], **extra_labels: str
) -> Dict[str, Any]:
    """A copy of a registry snapshot with ``extra_labels`` on every series.

    The gateway's merged ``/metrics`` uses this to keep worker samples
    distinguishable from the supervisor's own (and from each other) without
    the workers knowing their fleet position.
    """
    metrics: Dict[str, Any] = {}
    for name, family in (snapshot.get("metrics") or {}).items():
        series = [
            {**entry, "labels": {**extra_labels, **entry.get("labels", {})}}
            for entry in family.get("series", [])
        ]
        metrics[name] = {**family, "series": series}
    return {"enabled": snapshot.get("enabled", True), "metrics": metrics}


class GatewayApp:
    """The gateway's request handler and drain controller.

    Args:
        pool: The tenant pool to serve in-process. Tenants must be spawned
            before the app sees traffic; unknown ids answer 404. Mutually
            exclusive with ``backend``.
        config: Gateway parameters (:class:`~repro.config.GatewayConfig`).
        crowd_config: Crowd parameters for each tenant's coordinator.
        authenticator: Bearer-token table; defaults to one built from
            ``config.auth_tokens_path``.
        backend: A pre-built serving backend (:class:`FleetBackend` for the
            multi-process fleet); when omitted, ``pool`` is wrapped in a
            :class:`LocalPoolBackend`.
    """

    def __init__(
        self,
        pool: Optional[TenantPool] = None,
        config: Optional[GatewayConfig] = None,
        crowd_config: Optional[CrowdConfig] = None,
        authenticator: Optional[TokenAuthenticator] = None,
        backend=None,
    ) -> None:
        self.config = config or GatewayConfig()
        self.crowd_config = crowd_config or CrowdConfig()
        if (backend is None) == (pool is None):
            raise BadRequestError(
                "GatewayApp needs exactly one of pool= or backend="
            )
        self.backend = backend or LocalPoolBackend(
            pool, self.crowd_config, self.config.checkpoint_dir
        )
        self.pool = getattr(self.backend, "pool", None)
        self.auth = (
            authenticator
            if authenticator is not None
            else TokenAuthenticator.from_file(self.config.auth_tokens_path)
        )
        self._queues: Dict[str, TenantQueue] = {}
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._drain_paths: Dict[str, str] = {}
        for tenant_id in self.backend.tenant_ids():
            self._queues[tenant_id] = TenantQueue(
                tenant_id,
                depth=self.config.queue_depth,
                retry_after=self.config.retry_after_s,
            )
        # Telemetry (repro.obs): families resolved once; children per
        # (route, status) resolve lazily on first use and are cached by the
        # registry, no-ops under the NullRegistry.
        registry = get_registry()
        self._obs_requests = registry.counter(
            "gateway_requests_total",
            "HTTP requests by route and status code",
            labels=("route", "status"),
        )
        self._obs_latency = registry.histogram(
            "gateway_request_seconds",
            "End-to-end request latency by route",
            labels=("route",),
        )
        self._obs_rejected = registry.counter(
            "gateway_rejected_total",
            "Requests refused at admission, by reason",
            labels=("reason",),
        )

    # ------------------------------------------------------------------ routing
    def handle(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Response:
        """Serve one request; never raises — errors become JSON envelopes."""
        start = time.perf_counter()
        route = "unknown"
        try:
            route, response = self._dispatch(method, path, headers, body)
        except Exception as exc:  # noqa: BLE001 - boundary: everything maps
            status, extra, payload = wire.error_envelope(exc)
            if status in (429, 503, 504):
                reason = {429: "queue_full", 503: "draining", 504: "deadline"}
                self._obs_rejected.labels(reason=reason[status]).inc()
            headers_out = {"Content-Type": wire.JSON_CONTENT_TYPE}
            headers_out.update(extra)
            response = (status, headers_out, payload)
        self._obs_requests.labels(route=route, status=str(response[0])).inc()
        self._obs_latency.labels(route=route).observe(
            time.perf_counter() - start
        )
        return response

    def _dispatch(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Tuple[str, Response]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise MethodNotAllowedError("/healthz supports GET only")
            return "healthz", self._healthz()
        if path == "/metrics":
            if method != "GET":
                raise MethodNotAllowedError("/metrics supports GET only")
            return "metrics", self._metrics()
        match = _TENANT_ROUTE.match(path)
        if match is None:
            raise NotFoundError(f"no route for {path!r}")
        op = match.group("op")
        ops = {"propose", "answer", "checkpoint"}
        if self.config.allow_debug_ops:
            ops.add("debug/sleep")
        if self.backend.supports_migration:
            ops.add("migrate")
        if op not in ops:
            raise NotFoundError(f"no tenant operation {op!r}")
        route = f"tenants/{op}"
        if method != "POST":
            raise MethodNotAllowedError(f"{path} supports POST only")
        tenant_id = match.group("tenant_id")
        self.auth.authorize(_header(headers, "authorization"), tenant_id)
        if self._draining.is_set():
            raise DrainingError(
                "gateway is draining; not admitting work",
                retry_after=self.config.retry_after_s,
            )
        queue = self._queues.get(tenant_id)
        if queue is None:
            raise NotFoundError(
                f"no tenant {tenant_id!r}; live tenants: "
                f"{', '.join(sorted(self._queues)) or '(none)'}"
            )
        payload = wire.parse_json_body(body)
        deadline_ms = wire.deadline_ms(payload) or self.config.deadline_ms
        deadline = time.monotonic() + deadline_ms / 1000.0
        result = queue.submit(
            lambda: self.backend.call(tenant_id, op, payload), deadline
        ).result()
        return route, _json_response(200, result)

    # ------------------------------------------------------------ plain routes
    def _healthz(self) -> Response:
        status = "draining" if self._draining.is_set() else "ok"
        body: Dict[str, Any] = {
            "status": status,
            "tenants": sorted(self._queues),
            "auth": self.auth.enabled,
        }
        body.update(self.backend.describe())
        return _json_response(
            200 if status == "ok" else 503,
            body,
            extra_headers=(
                {"Retry-After": str(self.config.retry_after_s)}
                if status == "draining"
                else None
            ),
        )

    def _metrics(self) -> Response:
        merged = self.backend.merge_metrics(get_registry().snapshot())
        text = render_snapshot(merged)
        return (
            200,
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
            text.encode("utf-8"),
        )

    # -------------------------------------------------------------------- drain
    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` ran."""
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting work everywhere; queued jobs keep running."""
        self._draining.set()
        for queue in self._queues.values():
            queue.begin_drain()

    def finish_drain(
        self, metrics_snapshot_path: Optional[str] = None
    ) -> Dict[str, str]:
        """Complete the drain: join workers, flush, checkpoint, snapshot.

        Returns the final checkpoint paths keyed by tenant id. Idempotent —
        a second call returns the already-written paths without re-saving.
        """
        self.begin_drain()
        if self._drained.is_set():
            return dict(self._drain_paths)
        for queue in self._queues.values():
            queue.close(timeout=60.0)
        paths = self.backend.drain(self.config.checkpoint_dir)
        if metrics_snapshot_path is not None:
            obs.write_snapshot(metrics_snapshot_path)
        self._drain_paths = dict(paths)
        self._drained.set()
        return dict(paths)


def _header(headers: Mapping[str, str], name: str) -> Optional[str]:
    """Case-insensitive header lookup over a plain mapping."""
    for key, value in headers.items():
        if key.lower() == name:
            return value
    return None


def _json_response(
    status: int,
    payload: Mapping[str, object],
    extra_headers: Optional[Mapping[str, str]] = None,
) -> Response:
    headers = {"Content-Type": wire.JSON_CONTENT_TYPE}
    if extra_headers:
        headers.update(extra_headers)
    return status, headers, wire.encode_json(payload)

"""Tests for the HTTP gateway: wire schemas, auth, admission queues, the
in-process app surface, and the ``repro serve-http`` CLI error paths.

Everything here runs without opening a socket: :class:`GatewayApp.handle`
takes ``(method, path, headers, body)`` and returns ``(status, headers,
bytes)``, so routing, auth, backpressure, deadlines, draining, and the error
envelopes are all testable as plain function calls. The one real-socket
end-to-end pass (subprocess boot, urllib traffic, SIGTERM drain, resume)
lives in ``examples/gateway_smoke.py`` and runs as the CI ``gateway-smoke``
job.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.config import ClassifierConfig, CrowdConfig, DarwinConfig, GatewayConfig
from repro.errors import ConfigurationError, OracleError
from repro.gateway import (
    BadRequestError,
    DeadlineExceededError,
    DrainingError,
    ForbiddenError,
    GatewayApp,
    GatewayJob,
    QueueFullError,
    TenantQueue,
    TokenAuthenticator,
    UnauthorizedError,
    build_server,
)
from repro.gateway import wire
from repro.serving import TenantPool

SEED_RULE = "best way to get to"


# --------------------------------------------------------------------- wire
class TestWireParsing:
    def test_empty_body_parses_as_empty_object(self):
        assert wire.parse_json_body(b"") == {}
        assert wire.parse_json_body(b"  \n ") == {}

    def test_non_object_body_rejected(self):
        with pytest.raises(BadRequestError):
            wire.parse_json_body(b"[1, 2]")

    def test_invalid_json_rejected(self):
        with pytest.raises(BadRequestError):
            wire.parse_json_body(b"{not json")

    def test_oversized_body_rejected(self):
        with pytest.raises(BadRequestError, match="exceeds"):
            wire.parse_json_body(b"x" * (wire.MAX_BODY_BYTES + 1))

    def test_propose_requires_integer_annotator(self):
        assert wire.propose_request({"annotator_id": 3}) == {"annotator_id": 3}
        with pytest.raises(BadRequestError):
            wire.propose_request({"annotator_id": "three"})
        # bool is an int subclass; it must not slip through as annotator 1.
        with pytest.raises(BadRequestError):
            wire.propose_request({"annotator_id": True})

    def test_unknown_fields_rejected(self):
        with pytest.raises(BadRequestError, match="unknown field"):
            wire.propose_request({"annotator_id": 0, "surprise": 1})

    def test_answer_requires_boolean_vote(self):
        parsed = wire.answer_request(
            {"ticket_id": 7, "annotator_id": 0, "is_useful": False}
        )
        assert parsed == {"ticket_id": 7, "annotator_id": 0, "is_useful": False}
        with pytest.raises(BadRequestError):
            wire.answer_request(
                {"ticket_id": 7, "annotator_id": 0, "is_useful": "yes"}
            )

    @pytest.mark.parametrize(
        "name", ["../escape", "a/b", "a\\b", ".hidden", ""]
    )
    def test_checkpoint_name_traversal_rejected(self, name):
        with pytest.raises(BadRequestError):
            wire.checkpoint_request({"name": name})

    def test_checkpoint_name_optional(self):
        assert wire.checkpoint_request({}) == {"name": None}
        assert wire.checkpoint_request({"name": "snap-1"}) == {"name": "snap-1"}

    def test_deadline_ms_validation(self):
        assert wire.deadline_ms({}) is None
        assert wire.deadline_ms({"deadline_ms": 250}) == 250.0
        for bad in (0, -5, True, "fast"):
            with pytest.raises(BadRequestError):
                wire.deadline_ms({"deadline_ms": bad})


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "exc, status",
        [
            (BadRequestError("x"), 400),
            (UnauthorizedError("x"), 401),
            (ForbiddenError("x"), 403),
            (QueueFullError("x"), 429),
            (DrainingError("x"), 503),
            (DeadlineExceededError("x"), 504),
            (ConfigurationError("x"), 400),
            (OracleError("x"), 409),
            (ValueError("internal"), 500),
        ],
    )
    def test_status_mapping(self, exc, status):
        got_status, _, body = wire.error_envelope(exc)
        assert got_status == status
        envelope = json.loads(body)["error"]
        assert envelope["type"] == type(exc).__name__
        assert envelope["status"] == status

    def test_retry_after_header(self):
        _, headers, _ = wire.error_envelope(QueueFullError("full", retry_after=7))
        assert headers["Retry-After"] == "7"
        _, headers, _ = wire.error_envelope(QueueFullError("full"))
        assert "Retry-After" not in headers


# --------------------------------------------------------------------- auth
class TestTokenAuthenticator:
    def test_disabled_allows_everything(self):
        auth = TokenAuthenticator(None)
        assert not auth.enabled
        auth.authorize(None, "tenant-0")  # no raise

    def test_wildcard_and_scoped_tokens(self):
        auth = TokenAuthenticator(
            {"admin": "*", "alpha": "tenant-0", "team": ["tenant-1", "tenant-2"]}
        )
        auth.authorize("Bearer admin", "tenant-9")
        auth.authorize("Bearer alpha", "tenant-0")
        auth.authorize("bearer team", "tenant-2")  # scheme is case-insensitive
        with pytest.raises(ForbiddenError):
            auth.authorize("Bearer alpha", "tenant-1")

    @pytest.mark.parametrize(
        "header", [None, "", "Bearer", "Bearer   ", "Basic alpha", "alpha"]
    )
    def test_missing_or_malformed_header(self, header):
        auth = TokenAuthenticator({"alpha": "*"})
        with pytest.raises(UnauthorizedError):
            auth.authorize(header, "tenant-0")

    def test_unknown_token(self):
        auth = TokenAuthenticator({"alpha": "*"})
        with pytest.raises(UnauthorizedError):
            auth.authorize("Bearer beta", "tenant-0")

    def test_bad_table_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenAuthenticator({"": "*"})
        with pytest.raises(ConfigurationError):
            TokenAuthenticator({"tok": []})
        with pytest.raises(ConfigurationError):
            TokenAuthenticator({"tok": 7})

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            TokenAuthenticator.from_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            TokenAuthenticator.from_file(str(bad))
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(ConfigurationError, match="non-empty"):
            TokenAuthenticator.from_file(str(empty))
        listy = tmp_path / "list.json"
        listy.write_text("[1]")
        with pytest.raises(ConfigurationError, match="non-empty"):
            TokenAuthenticator.from_file(str(listy))

    def test_from_file_none_disables(self):
        assert not TokenAuthenticator.from_file(None).enabled


# ------------------------------------------------------------------- queues
class TestGatewayJob:
    def test_runs_and_returns_value(self):
        job = GatewayJob(lambda: 42, deadline=None)
        job.execute()
        assert job.result() == 42

    def test_closure_error_reraised_on_result(self):
        job = GatewayJob(lambda: 1 / 0, deadline=None)
        job.execute()
        with pytest.raises(ZeroDivisionError):
            job.result()

    def test_expired_job_never_runs(self):
        ran = []
        job = GatewayJob(lambda: ran.append(1), deadline=time.monotonic() - 1)
        job.execute()
        assert ran == []
        with pytest.raises(DeadlineExceededError):
            job.result()

    def test_request_side_expire_cancels_pending_job(self):
        job = GatewayJob(lambda: 1, deadline=time.monotonic() + 0.05)
        # Nobody executes it; result() must expire it at the deadline.
        with pytest.raises(DeadlineExceededError):
            job.result()
        assert job.state == "expired"

    def test_expire_loses_race_to_worker(self):
        job = GatewayJob(lambda: "done", deadline=time.monotonic() + 60)
        job.execute()
        assert job.expire() is False
        assert job.result() == "done"


class TestTenantQueue:
    def test_serial_execution_in_admission_order(self):
        q = TenantQueue("t", depth=8)
        try:
            seen = []
            jobs = [
                q.submit(lambda i=i: seen.append(i), deadline=None)
                for i in range(5)
            ]
            for job in jobs:
                job.result()
            assert seen == [0, 1, 2, 3, 4]
        finally:
            q.close(timeout=10)

    def test_full_queue_raises_429_error(self):
        q = TenantQueue("t", depth=1, retry_after=3)
        started = threading.Event()
        release = threading.Event()

        def occupy():
            started.set()
            release.wait()

        try:
            q.submit(occupy, deadline=None)
            assert started.wait(5)                  # worker is now occupied
            q.submit(lambda: None, deadline=None)   # fills the single slot
            with pytest.raises(QueueFullError) as excinfo:
                q.submit(lambda: None, deadline=None)
            assert excinfo.value.retry_after == 3
        finally:
            release.set()
            q.close(timeout=10)

    def test_draining_queue_refuses_submissions(self):
        q = TenantQueue("t", depth=4)
        try:
            q.begin_drain()
            with pytest.raises(DrainingError):
                q.submit(lambda: None, deadline=None)
        finally:
            q.close(timeout=10)

    def test_queued_job_past_deadline_returns_504(self):
        q = TenantQueue("t", depth=4)
        try:
            release = threading.Event()
            q.submit(release.wait, deadline=None)
            stuck = q.submit(lambda: "late", deadline=time.monotonic() + 0.1)
            with pytest.raises(DeadlineExceededError):
                stuck.result()
            release.set()
        finally:
            q.close(timeout=10)

    def test_close_is_idempotent(self):
        q = TenantQueue("t", depth=2)
        q.close(timeout=10)
        q.close(timeout=10)

    def test_expired_jobs_release_their_slots(self):
        """Regression: a storm of timed-out requests must not hold the queue
        full — expiry reclaims the admission slot immediately, so fresh
        traffic is admitted instead of bouncing with 429."""
        q = TenantQueue("t", depth=2, retry_after=1)
        started = threading.Event()
        release = threading.Event()

        def occupy():
            started.set()
            release.wait()

        try:
            q.submit(occupy, deadline=None)
            assert started.wait(5)  # worker busy: submissions stay queued
            storm = [
                q.submit(lambda: None, deadline=time.monotonic() + 0.01)
                for _ in range(2)
            ]
            for job in storm:
                with pytest.raises(DeadlineExceededError):
                    job.result()  # expires the job, reclaiming its slot
            # Before the fix the two expired jobs still occupied both
            # slots and this fresh request was rejected with 429.
            fresh = q.submit(lambda: "served", deadline=None)
            release.set()
            assert fresh.result() == "served"
        finally:
            release.set()
            q.close(timeout=10)

    def test_close_settles_pending_jobs_of_wedged_worker(self):
        """Regression: close(timeout) on a queue whose worker is stuck used
        to leave pending jobs' waiters blocked forever; they must all be
        settled with DrainingError before close reports the wedge."""
        from repro.gateway import GatewayError

        q = TenantQueue("t", depth=4)
        started = threading.Event()
        release = threading.Event()
        q.submit(lambda: (started.set(), release.wait()), deadline=None)
        assert started.wait(5)
        stuck = q.submit(lambda: "never runs", deadline=None)
        outcome = []

        def wait_on_stuck():
            try:
                stuck.result()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                outcome.append(exc)

        waiter = threading.Thread(target=wait_on_stuck, daemon=True)
        waiter.start()
        with pytest.raises(GatewayError, match="did not stop"):
            q.close(timeout=0.2)
        waiter.join(timeout=5)
        assert not waiter.is_alive(), "waiter still blocked after close()"
        assert len(outcome) == 1 and isinstance(outcome[0], DrainingError)
        release.set()

    def test_result_rethrows_copy_and_preserves_worker_traceback(self):
        """Regression: result() used to raise the worker's exception object
        itself, grafting each request thread's traceback onto it; it must
        raise a chained copy and leave the original's traceback intact."""
        def boom():
            raise OracleError("no such ticket")

        job = GatewayJob(boom, deadline=None)
        job.execute()
        with job._lock:
            original = job._error
        worker_tb = original.__traceback__
        assert worker_tb is not None
        raised = []
        for _ in range(2):  # every waiter gets its own copy
            try:
                job.result()
            except OracleError as exc:
                raised.append(exc)
        assert len(raised) == 2
        for exc in raised:
            assert exc is not original
            assert exc.__cause__ is original
            assert str(exc) == str(original)
        assert raised[0] is not raised[1]
        assert original.__traceback__ is worker_tb


# ------------------------------------------------------------ app (no socket)
@pytest.fixture(scope="module")
def gateway_pool(directions_corpus):
    config = DarwinConfig(
        budget=10,
        num_candidates=250,
        min_coverage=2,
        classifier=ClassifierConfig(epochs=10, embedding_dim=30),
    )
    with TenantPool(
        directions_corpus, config, seeds={"rule_texts": [SEED_RULE]}
    ) as pool:
        pool.spawn_many(2)
        yield pool


@pytest.fixture()
def gateway_app(gateway_pool, tmp_path):
    return GatewayApp(
        gateway_pool,
        GatewayConfig(
            port=0,
            queue_depth=4,
            checkpoint_dir=str(tmp_path / "ckpts"),
            allow_debug_ops=True,
        ),
        CrowdConfig(
            num_annotators=2, redundancy=1, batch_size=4, budget=10,
            annotator_latency=0.0,
        ),
    )


def _call(app, method, path, payload=None, headers=None):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    status, response_headers, raw = app.handle(
        method, path, headers or {}, body
    )
    parsed = (
        json.loads(raw)
        if response_headers.get("Content-Type", "").startswith("application/json")
        else raw
    )
    return status, response_headers, parsed


class TestGatewayApp:
    def test_healthz_reports_tenants(self, gateway_app):
        status, _, body = _call(gateway_app, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"] == sorted(gateway_app.pool.tenants)
        assert body["auth"] is False

    def test_metrics_route_is_prometheus(self, gateway_app):
        status, headers, raw = _call(gateway_app, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")

    def test_propose_then_answer_commits(self, gateway_app):
        tenant = sorted(gateway_app.pool.tenants)[0]
        status, _, body = _call(
            gateway_app, "POST", f"/tenants/{tenant}/propose",
            {"annotator_id": 0},
        )
        assert status == 200
        assignment = body["assignment"]
        assert assignment is not None
        assert assignment["rule"]
        assert isinstance(assignment["sample_ids"], list)
        status, _, body = _call(
            gateway_app, "POST", f"/tenants/{tenant}/answer",
            {"ticket_id": assignment["ticket_id"], "annotator_id": 0,
             "is_useful": True},
        )
        assert status == 200
        assert body["committed"] is True
        assert body["record"]["answer"] is True

    def test_checkpoint_writes_file(self, gateway_app, tmp_path):
        tenant = sorted(gateway_app.pool.tenants)[1]
        status, _, body = _call(
            gateway_app, "POST", f"/tenants/{tenant}/checkpoint",
            {"name": "snap"},
        )
        assert status == 200
        assert body["path"].endswith("snap.npz")
        import os
        assert os.path.exists(body["path"])

    def test_unknown_route_and_tenant_404(self, gateway_app):
        status, _, body = _call(gateway_app, "GET", "/nope")
        assert status == 404
        status, _, body = _call(
            gateway_app, "POST", "/tenants/ghost/propose", {"annotator_id": 0}
        )
        assert status == 404
        assert body["error"]["type"] == "NotFoundError"

    def test_wrong_method_405(self, gateway_app):
        tenant = sorted(gateway_app.pool.tenants)[0]
        status, _, body = _call(gateway_app, "GET", f"/tenants/{tenant}/propose")
        assert status == 405
        status, _, _ = _call(gateway_app, "POST", "/healthz")
        assert status == 405

    def test_bad_body_becomes_400_envelope(self, gateway_app):
        tenant = sorted(gateway_app.pool.tenants)[0]
        status, _, body = _call(
            gateway_app, "POST", f"/tenants/{tenant}/propose",
            {"annotator_id": "zero"},
        )
        assert status == 400
        assert body["error"]["type"] == "BadRequestError"

    def test_vote_on_unknown_ticket_is_409(self, gateway_app):
        tenant = sorted(gateway_app.pool.tenants)[0]
        status, _, body = _call(
            gateway_app, "POST", f"/tenants/{tenant}/answer",
            {"ticket_id": 999_999, "annotator_id": 0, "is_useful": True},
        )
        assert status == 409
        assert body["error"]["type"] == "OracleError"

    def test_auth_enforced_when_configured(self, gateway_pool, tmp_path):
        app = GatewayApp(
            gateway_pool,
            GatewayConfig(port=0, checkpoint_dir=str(tmp_path / "c")),
            authenticator=TokenAuthenticator({"tok": "tenant-0"}),
        )
        status, _, body = _call(
            app, "POST", "/tenants/tenant-0/propose", {"annotator_id": 0}
        )
        assert status == 401
        status, _, _ = _call(
            app, "POST", "/tenants/tenant-0/checkpoint", {},
            headers={"Authorization": "Bearer tok"},
        )
        assert status == 200
        status, _, body = _call(
            app, "POST", "/tenants/tenant-1/propose", {"annotator_id": 0},
            headers={"authorization": "Bearer tok"},  # case-insensitive
        )
        assert status == 403
        # /healthz and /metrics stay open for probes and scrapers.
        assert _call(app, "GET", "/healthz")[0] == 200
        assert _call(app, "GET", "/metrics")[0] == 200

    def test_draining_app_rejects_with_503(self, gateway_pool, tmp_path):
        app = GatewayApp(
            gateway_pool,
            GatewayConfig(
                port=0, retry_after_s=5, checkpoint_dir=str(tmp_path / "c")
            ),
        )
        app.begin_drain()
        status, headers, body = _call(
            app, "POST", "/tenants/tenant-0/propose", {"annotator_id": 0}
        )
        assert status == 503
        assert headers["Retry-After"] == "5"
        assert body["error"]["type"] == "DrainingError"
        status, _, body = _call(app, "GET", "/healthz")
        assert status == 503
        assert body["status"] == "draining"

    def test_finish_drain_checkpoints_every_tenant(self, gateway_pool, tmp_path):
        import os
        app = GatewayApp(
            gateway_pool,
            GatewayConfig(port=0, checkpoint_dir=str(tmp_path / "drain")),
        )
        paths = app.finish_drain()
        assert sorted(paths) == sorted(gateway_pool.tenants)
        for tenant_id, path in paths.items():
            assert path.endswith(f"{tenant_id}-final.npz")
            assert os.path.exists(path)
        # Idempotent: a second call returns the same map without re-saving.
        assert app.finish_drain() == paths


# ---------------------------------------------------------------------- CLI
class TestServeHttpCli:
    def test_bad_port_exits_2(self, capsys):
        assert main(["serve-http", "--port", "70000"]) == 2
        assert "serve-http:" in capsys.readouterr().err

    def test_missing_arena_directory_exits_2(self, capsys):
        exit_code = main([
            "serve-http", "--arena-path", "/nonexistent-gateway-dir/pool.arena",
        ])
        assert exit_code == 2
        assert "arena directory does not exist" in capsys.readouterr().err

    def test_invalid_auth_token_file_exits_2(self, tmp_path, capsys):
        exit_code = main([
            "serve-http", "--auth-tokens", str(tmp_path / "missing.json"),
        ])
        assert exit_code == 2
        assert "auth token file not found" in capsys.readouterr().err

    def test_malformed_auth_token_file_exits_2(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.json"
        tokens.write_text("{broken")
        exit_code = main(["serve-http", "--auth-tokens", str(tokens)])
        assert exit_code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve-http"])
        assert args.port == 8080
        assert args.queue_depth == 32
        assert args.arena_path is None
        assert args.allow_debug_ops is False

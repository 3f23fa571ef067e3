"""Tests for the cross-process serving fleet (:mod:`repro.fleet`).

One module-scoped two-worker fleet serves most tests — building the shared
substrate (index + arena + featurizer) once keeps the suite fast. Tests
spawn uniquely-named tenants so they do not interfere; the crash test kills
a worker on purpose and relies on the supervisor's respawn path to leave
the fleet healthy for the tests after it.

The migration-equivalence and crash-resume tests drive two identically
seeded tenants with identical deterministic answer streams, so their
committed histories must match question for question — the acceptance bar
for "migration does not change what the tenant learns".
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import (
    ClassifierConfig,
    CrowdConfig,
    DarwinConfig,
    FleetConfig,
    GatewayConfig,
)
from repro.errors import ConfigurationError
from repro.fleet import FleetSupervisor, WorkerDiedError
from repro.gateway import FleetBackend, GatewayApp, NotFoundError
from repro.gateway.wire import BadRequestError
from repro.obs.prometheus import parse_prometheus_text

SEED_RULE = "best way to get to"


def fleet_config(**overrides) -> DarwinConfig:
    defaults = dict(
        budget=10,
        num_candidates=250,
        min_coverage=2,
        classifier=ClassifierConfig(epochs=10, embedding_dim=30),
    )
    defaults.update(overrides)
    return DarwinConfig(**defaults)


@pytest.fixture(scope="module")
def fleet(directions_corpus):
    crowd = CrowdConfig(
        num_annotators=2,
        redundancy=1,
        batch_size=1,
        annotator_latency=0.0,
        seed=7,
    )
    supervisor = FleetSupervisor(
        directions_corpus,
        fleet_config(),
        fleet=FleetConfig(workers=2, checkpoint_every_commits=2),
        crowd_config=crowd,
        seeds={"rule_texts": [SEED_RULE]},
        dataset_spec={
            "name": "directions",
            "options": {"num_sentences": 600, "seed": 11,
                        "parse_trees": False},
        },
        allow_debug_ops=True,
    )
    with supervisor:
        yield supervisor


def answer_questions(fleet, tenant_id, count, annotator_id=0):
    """Drive ``count`` committed propose→answer(is_useful=True) rounds."""
    committed = 0
    while committed < count:
        proposal = fleet.call_tenant(
            tenant_id, "propose", {"annotator_id": annotator_id}
        )
        assert proposal["assignment"] is not None, "ran out of questions"
        result = fleet.call_tenant(
            tenant_id,
            "answer",
            {
                "ticket_id": proposal["assignment"]["ticket_id"],
                "annotator_id": annotator_id,
                "is_useful": True,
            },
        )
        if result["committed"]:
            committed += 1


class TestPlacementAndOps:
    def test_spawn_routes_and_status(self, fleet):
        fleet.spawn_tenant("place-0", worker=0)
        fleet.spawn_tenant("place-1", worker=1)
        assert fleet.worker_of("place-0") == 0
        assert fleet.worker_of("place-1") == 1
        status = fleet.status()
        assert [w["worker"] for w in status] == [0, 1]
        assert all(w["alive"] for w in status)
        assert "place-0" in status[0]["tenants"]
        assert "place-1" in status[1]["tenants"]

    def test_duplicate_tenant_rejected(self, fleet):
        fleet.spawn_tenant("dup")
        with pytest.raises(ConfigurationError, match="already exists"):
            fleet.spawn_tenant("dup")

    def test_unknown_tenant_raises_not_found(self, fleet):
        with pytest.raises(NotFoundError, match="no tenant"):
            fleet.call_tenant("ghost", "propose", {"annotator_id": 0})
        with pytest.raises(NotFoundError):
            fleet.worker_of("ghost")

    def test_propose_answer_history_roundtrip(self, fleet):
        fleet.spawn_tenant("ops", worker=0)
        answer_questions(fleet, "ops", 2)
        history = fleet.history("ops")
        assert len(history) == 2
        assert all(
            isinstance(rule, str) and answer is True for rule, answer, _ in history
        )

    def test_least_loaded_placement(self, fleet):
        before = {w["worker"]: len(w["tenants"]) for w in fleet.status()}
        fleet.spawn_tenant("balance-x")
        placed = fleet.worker_of("balance-x")
        assert placed == min(sorted(before), key=before.get)


class TestMigration:
    def test_migration_is_question_for_question_identical(self, fleet):
        """A migrated tenant and a never-moved twin, fed identical answers,
        commit identical histories — migration moves state, not behavior."""
        fleet.spawn_tenant("mig-stay", worker=0)
        fleet.spawn_tenant("mig-move", worker=0)
        answer_questions(fleet, "mig-stay", 3)
        answer_questions(fleet, "mig-move", 3)

        moved = fleet.migrate("mig-move")
        assert moved["from"] == 0 and moved["to"] == 1
        assert fleet.worker_of("mig-move") == 1

        answer_questions(fleet, "mig-stay", 3)
        answer_questions(fleet, "mig-move", 3)
        assert fleet.history("mig-move") == fleet.history("mig-stay")

    def test_failed_adopt_keeps_tenant_on_source(self, fleet, monkeypatch):
        """An adopt that fails on the target leaves the tenant served by the
        source, from the migration checkpoint, and re-raises."""
        from repro.fleet.rpc import WorkerClient

        fleet.spawn_tenant("mig-fail", worker=0)
        answer_questions(fleet, "mig-fail", 2)
        before = fleet.history("mig-fail")
        real_call = WorkerClient.call

        def failing_adopt(client, op, *args, **kwargs):
            if op == "adopt" and client.worker_id == 1:
                raise RuntimeError("injected adopt failure")
            return real_call(client, op, *args, **kwargs)

        monkeypatch.setattr(WorkerClient, "call", failing_adopt)
        with pytest.raises(RuntimeError, match="injected adopt failure"):
            fleet.migrate("mig-fail", target=1)
        monkeypatch.undo()

        assert fleet.worker_of("mig-fail") == 0
        proposal = fleet.call_tenant(
            "mig-fail", "propose", {"annotator_id": 0}
        )
        assert proposal["assignment"] is not None
        assert fleet.history("mig-fail") == before
        result = fleet.call_tenant(
            "mig-fail",
            "answer",
            {
                "ticket_id": proposal["assignment"]["ticket_id"],
                "annotator_id": 0,
                "is_useful": True,
            },
        )
        assert result["committed"]
        assert len(fleet.history("mig-fail")) == len(before) + 1

    def test_migrate_to_same_worker_rejected(self, fleet):
        fleet.spawn_tenant("mig-same", worker=0)
        with pytest.raises(BadRequestError, match="already on worker"):
            fleet.migrate("mig-same", target=0)

    def test_migrate_to_unknown_worker_rejected(self, fleet):
        fleet.spawn_tenant("mig-oob", worker=0)
        with pytest.raises(BadRequestError, match="no worker"):
            fleet.migrate("mig-oob", target=9)


class TestCrashRecovery:
    def test_worker_crash_respawns_and_resumes_from_autosave(self, fleet):
        """Kill a worker mid-session: the next call respawns it and adopts
        the tenant's autosaved overlay checkpoint, so committed history
        survives and the session continues."""
        fleet.spawn_tenant("crash-t", worker=1)
        # checkpoint_every_commits=2 -> 4 commits guarantee an autosave.
        answer_questions(fleet, "crash-t", 4)
        before = fleet.history("crash-t")
        assert len(before) == 4
        old_pid = fleet.status()[1]["pid"]

        with pytest.raises(WorkerDiedError):
            # The crash op never answers; the client sees a dead pipe.
            fleet._ensure_alive(1).call("crash", timeout=10.0)

        # Any routed call transparently respawns and retries.
        after = fleet.history("crash-t")
        assert after == before
        status = fleet.status()[1]
        assert status["alive"] and status["pid"] != old_pid
        # The respawned worker keeps serving: the session continues.
        answer_questions(fleet, "crash-t", 1)
        assert len(fleet.history("crash-t")) == 5

    def test_respawn_is_counted(self, fleet):
        from repro.obs import get_registry

        registry = get_registry()
        if not registry.enabled:
            pytest.skip("obs disabled in this run")
        snapshot = registry.snapshot()
        families = snapshot["metrics"]
        assert "fleet_respawns_total" in families


class TestFleetGateway:
    @pytest.fixture()
    def app(self, fleet, tmp_path):
        config = GatewayConfig(
            checkpoint_dir=str(tmp_path / "ckpt"), allow_debug_ops=False
        )
        return GatewayApp(
            config=config,
            crowd_config=fleet.crowd_config,
            backend=FleetBackend(fleet, config.checkpoint_dir),
        )

    def request(self, app, method, path, body=None):
        status, _, payload = app.handle(
            method, path, {}, json.dumps(body or {}).encode()
        )
        return status, json.loads(payload)

    def test_healthz_reports_fleet_topology(self, app):
        status, body = self.request(app, "GET", "/healthz")
        assert status == 200
        assert body["backend"] == "fleet"
        assert [w["worker"] for w in body["workers"]] == [0, 1]

    def test_propose_and_answer_route_to_workers(self, fleet, app):
        # Tenants spawned before the app was built are routable; the app
        # enumerated them into per-tenant queues at construction.
        tenant = fleet.tenant_ids()[0]
        status, body = self.request(
            app, "POST", f"/tenants/{tenant}/propose", {"annotator_id": 1}
        )
        assert status == 200
        assert body["tenant"] == tenant

    def test_migrate_route(self, fleet, app):
        fleet.spawn_tenant("http-mig", worker=0)
        # The app snapshots tenants at construction; rebuild to pick it up.
        config = GatewayConfig(checkpoint_dir=app.config.checkpoint_dir)
        app2 = GatewayApp(
            config=config,
            crowd_config=fleet.crowd_config,
            backend=FleetBackend(fleet, config.checkpoint_dir),
        )
        status, body = self.request(
            app2, "POST", "/tenants/http-mig/migrate", {}
        )
        assert status == 200
        assert body["from"] == 0 and body["to"] == 1
        assert fleet.worker_of("http-mig") == 1

    def test_metrics_merges_worker_series(self, fleet, app):
        # Touch one tenant on each worker so both registries carry samples.
        for worker in fleet.status():
            if worker["tenants"]:
                self.request(
                    app,
                    "POST",
                    f"/tenants/{worker['tenants'][0]}/propose",
                    {"annotator_id": 0},
                )
        status, headers, payload = app.handle("GET", "/metrics", {}, b"")
        assert status == 200
        families = parse_prometheus_text(payload.decode())
        worker_labels = {
            dict(labels).get("worker")
            for family in families.values()
            for (_, labels) in family["samples"]
        }
        assert {"0", "1"} <= worker_labels

    def test_drain_checkpoints_through_backend(self, fleet, tmp_path):
        config = GatewayConfig(checkpoint_dir=str(tmp_path / "drain"))
        app = GatewayApp(
            config=config,
            crowd_config=fleet.crowd_config,
            backend=FleetBackend(fleet, config.checkpoint_dir),
        )
        paths = app.finish_drain()
        assert paths  # every live tenant left a -final.npz
        for tenant_id, path in paths.items():
            assert path.endswith(f"{tenant_id}-final.npz")
            assert os.path.exists(path)
        # Idempotent: a second call returns the same map without re-saving.
        assert app.finish_drain() == paths


class TestSharedSlab:
    def test_slab_spec_attach_shares_vectors(self, fleet, directions_corpus):
        """The supervisor builds the feature matrix before forking, so no
        worker computes a feature row: every retrain and rescore is served
        from the inherited copy-on-write matrix."""
        assert fleet._featurizer.stats()["misses"] == len(directions_corpus)
        for worker in (0, 1):
            tenant_id = f"features-{worker}"
            fleet.spawn_tenant(tenant_id, worker=worker)
            answer_questions(fleet, tenant_id, 1)
        snapshots = fleet.metrics_snapshots()
        assert set(snapshots) == {"0", "1"}
        for snapshot in snapshots.values():
            families = snapshot["metrics"]

            def value(name):
                return families[name]["series"][0]["value"]

            assert value("pool_feature_cache_misses") == 0
            assert value("pool_feature_cache_hits") >= len(directions_corpus)
            assert value("pool_feature_cache_entries") == len(directions_corpus)

    def test_machine_rss_is_tracked(self, fleet):
        rss = fleet.machine_rss_bytes()
        assert rss > 0


class TestGatewayAppConstruction:
    def test_pool_and_backend_mutually_exclusive(self, fleet, tmp_path):
        config = GatewayConfig(checkpoint_dir=str(tmp_path))
        with pytest.raises(BadRequestError, match="exactly one"):
            GatewayApp(config=config)

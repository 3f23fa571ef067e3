"""The fleet supervisor: spawn workers, route tenants, respawn, migrate.

Builds the shared substrate **once** — sealed index, frozen read-only arena,
fitted featurizer with its frozen feature matrix — then *detaches* the arena
mapping (:meth:`CorpusIndex.detach_arena`) before any worker exists, so no
child can inherit the supervisor's mmap. Under the default ``fork`` start
method the heavy substrate (node dict, CSR arrays, embeddings, the feature
matrix) rides copy-on-write into every worker while each worker reopens the
arena by path; under ``spawn``/``forkserver`` workers rebuild from a
substrate checkpoint instead and build their own feature matrix. Either way
the supervisor itself never reattaches: after :meth:`start` it is pure
control plane — routing tenant ops over pipe RPC, watching liveness,
respawning crashed workers from their autosaved checkpoints, and migrating
tenants by shipping their overlay checkpoint from one worker to another.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import threading
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional

import multiprocessing as mp

from ..classifier.features import SentenceFeaturizer
from ..config import CrowdConfig, DarwinConfig, FleetConfig, IndexConfig
from ..errors import ConfigurationError
from ..gateway.wire import BadRequestError, NotFoundError
from ..index.trie_index import CorpusIndex
from ..obs import get_registry
from ..text.corpus import Corpus
from .rpc import WorkerClient, WorkerDiedError
from .worker import process_memory_bytes, worker_main


class FleetSupervisor:
    """Owns N worker processes serving disjoint tenant partitions.

    Args:
        corpus: The corpus every tenant labels.
        config: Per-tenant run configuration. The shared arena file is the
            cross-process contract, so a config without an ``arena_path``
            gets one in the fleet workdir.
        fleet: Fleet topology and process parameters.
        crowd_config: Crowd parameters for every tenant's coordinator.
        seeds: Default seeds for spawned tenants.
        dataset_spec: ``{"name", "options"}`` for checkpoint self-containment;
            **required** for non-fork start methods (workers rebuild the
            corpus from it).
    """

    def __init__(
        self,
        corpus: Corpus,
        config: Optional[DarwinConfig] = None,
        fleet: Optional[FleetConfig] = None,
        crowd_config: Optional[CrowdConfig] = None,
        seeds: Optional[Mapping[str, Any]] = None,
        dataset_spec: Optional[Mapping[str, Any]] = None,
        allow_debug_ops: bool = False,
        worker_obs: bool = True,
    ) -> None:
        self.corpus = corpus
        self.fleet = fleet or FleetConfig()
        self.crowd_config = crowd_config or CrowdConfig()
        self.seeds = dict(seeds or {})
        self.dataset_spec = dict(dataset_spec) if dataset_spec else None
        self.allow_debug_ops = allow_debug_ops
        self.worker_obs = worker_obs
        if self.fleet.start_method != "fork" and self.dataset_spec is None:
            raise ConfigurationError(
                f"start_method={self.fleet.start_method!r} workers rebuild "
                f"the corpus from a dataset spec; pass dataset_spec=..."
            )
        self._own_workdir = self.fleet.workdir is None
        self.workdir = self.fleet.workdir or tempfile.mkdtemp(
            prefix="repro-fleet-"
        )
        os.makedirs(self.workdir, exist_ok=True)
        config = config or DarwinConfig()
        if not config.index.arena_path:
            config = config.with_overrides(
                index=IndexConfig(
                    arena_path=os.path.join(self.workdir, "fleet.arena")
                )
            )
        self.config = config
        self.arena_digest: Optional[str] = None
        self._index: Optional[CorpusIndex] = None
        self._featurizer: Optional[SentenceFeaturizer] = None
        self._substrate_path: Optional[str] = None
        self._workers: List[WorkerClient] = []
        self._route: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._started = False
        self._closed = False
        registry = get_registry()
        self._obs_respawns = registry.counter(
            "fleet_respawns_total",
            "Worker processes respawned after a crash or wedge",
            labels=("worker",),
        )
        self._obs_migrations = registry.counter(
            "fleet_migrations_total",
            "Tenants migrated between workers",
            labels=(),
        )

    # ------------------------------------------------------------------ build
    def start(self) -> "FleetSupervisor":
        """Build the substrate, seal + detach the arena, fork the workers."""
        if self._started:
            return self
        from ..engine.engine import _build_grammars

        grammars = _build_grammars(self.config, {})
        index = CorpusIndex.build(
            self.corpus,
            grammars,
            max_depth=self.config.max_sketch_depth,
            min_coverage=self.config.min_coverage,
            arena_path=self.config.index.arena_path,
        )
        index.store.flush()
        index.store.arena.reopen_read_only()
        self.arena_digest = index.store.arena.digest
        self._index = index
        if self.fleet.start_method == "fork":
            featurizer = SentenceFeaturizer.fit(
                self.corpus,
                embedding_dim=self.config.classifier.embedding_dim,
                seed=self.config.classifier.seed,
            )
            # Build the frozen feature store now, so forked workers (and
            # respawn forks) inherit it copy-on-write and compute no row.
            if self.config.classifier.model == "cnn":
                featurizer.corpus_matrices(self.corpus)
            else:
                featurizer.corpus_vectors(self.corpus)
            self._featurizer = featurizer
        else:
            self._substrate_path = os.path.join(self.workdir, "substrate.npz")
            self._write_substrate(self._substrate_path)
        # The point of no inheritance: close the supervisor's fd + mapping
        # before the first fork. Workers reopen the file by path; the
        # supervisor keeps only the (detached) Python objects for CoW and
        # for respawn forks.
        index.store.detach_arena()
        # Sweep garbage now and freeze the survivors into the permanent
        # generation: post-fork collections in the workers would otherwise
        # walk (and copy-on-write unshare) every substrate page.
        gc.collect()
        gc.freeze()
        with self._lock:
            for worker_id in range(self.fleet.workers):
                self._workers.append(self._spawn_worker(worker_id))
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="fleet-monitor", daemon=True
        )
        self._started = True
        self._monitor_thread.start()
        return self

    def _write_substrate(self, path: str) -> None:
        from ..engine.state import ArrayBundle, write_checkpoint

        bundle = ArrayBundle()
        manifest = {
            "kind": "fleet-substrate",
            "config": self.config.as_dict(),
            "dataset": self.dataset_spec,
            "index": self._index.to_state(bundle, prefix="index/"),
        }
        write_checkpoint(path, manifest, bundle.as_mapping())

    def _worker_spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "mode": "fork" if self.fleet.start_method == "fork" else "spawn",
            "crowd": asdict(self.crowd_config),
            "seeds": dict(self.seeds),
            "dataset_spec": self.dataset_spec,
            "arena_digest": self.arena_digest,
            "workdir": self.workdir,
            "checkpoint_every": self.fleet.checkpoint_every_commits,
            "allow_debug_ops": self.allow_debug_ops,
            "obs": self.worker_obs,
        }
        if spec["mode"] == "fork":
            # Fork passes the live substrate objects by reference (CoW);
            # nothing here is pickled.
            spec.update(
                config=self.config,
                corpus=self.corpus,
                index=self._index,
                featurizer=self._featurizer,
            )
        else:
            # Spawn pickles the spec: strings and dicts only. The config
            # travels inside the substrate manifest.
            spec.update(substrate_path=self._substrate_path)
        return spec

    def _spawn_worker(self, worker_id: int) -> WorkerClient:
        context = mp.get_context(self.fleet.start_method)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(worker_id, child_conn, self._worker_spec()),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        client = WorkerClient(worker_id, process, parent_conn)
        # Fail fast on a worker that dies during pool construction.
        client.call("ping", timeout=self.fleet.call_timeout_s)
        return client

    # ---------------------------------------------------------------- routing
    @property
    def started(self) -> bool:
        return self._started

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def tenant_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._route)

    def worker_of(self, tenant_id: str) -> int:
        with self._lock:
            worker = self._route.get(tenant_id)
        if worker is None:
            raise NotFoundError(
                f"fleet hosts no tenant {tenant_id!r}; live tenants: "
                f"{', '.join(self.tenant_ids()) or '(none)'}"
            )
        return worker

    def _least_loaded(self, exclude: Optional[int] = None) -> int:
        with self._lock:
            loads = {i: 0 for i in range(len(self._workers)) if i != exclude}
            if not loads:
                raise BadRequestError(
                    "fleet has no other worker to place the tenant on"
                )
            for worker in self._route.values():
                if worker in loads:
                    loads[worker] += 1
        return min(sorted(loads), key=loads.get)

    def spawn_tenant(
        self,
        tenant_id: str,
        seeds: Optional[Mapping[str, Any]] = None,
        worker: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Create a tenant on ``worker`` (default: least-loaded)."""
        self._require_started()
        with self._lock:
            if tenant_id in self._route:
                raise ConfigurationError(
                    f"tenant id {tenant_id!r} already exists"
                )
            target = worker if worker is not None else self._least_loaded()
            if not 0 <= target < len(self._workers):
                raise BadRequestError(f"no worker {target}")
        client = self._ensure_alive(target)
        result = client.call(
            "spawn",
            self.fleet.call_timeout_s,
            {
                "tenant_id": tenant_id,
                "seeds": dict(seeds) if seeds is not None else None,
            },
        )
        with self._lock:
            self._route[tenant_id] = target
        return result

    def spawn_tenants(self, count: int, prefix: str = "tenant") -> List[str]:
        """Spawn ``count`` default-seeded tenants, round-robin over workers."""
        names = []
        for position in range(count):
            name = f"{prefix}-{position}"
            self.spawn_tenant(name, worker=position % self.fleet.workers)
            names.append(name)
        return names

    # ------------------------------------------------------------------ calls
    def call_tenant(
        self,
        tenant_id: str,
        op: str,
        body: Optional[Mapping[str, Any]] = None,
        checkpoint_dir: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Route one gateway operation to the tenant's worker.

        A dead or wedged worker is respawned (tenants restored from their
        autosaved checkpoints) and the call retried exactly once — so a
        worker crash costs the caller latency, not an error, as long as the
        respawn succeeds.
        """
        payload: Dict[str, Any] = {
            "tenant_id": tenant_id,
            "op": op,
            "body": dict(body or {}),
        }
        if checkpoint_dir is not None:
            payload["checkpoint_dir"] = checkpoint_dir
        return self._routed_call(tenant_id, "tenant_op", payload, timeout)

    def _routed_call(
        self,
        tenant_id: str,
        op: str,
        payload: Dict[str, Any],
        timeout: Optional[float] = None,
    ) -> Any:
        """Send ``op`` to the tenant's worker with one respawn-and-retry.

        A crashed worker surfaces as :class:`WorkerDiedError` on the first
        attempt; the respawn restores its tenants from their autosaves and
        the retry runs against the replacement, so callers see latency, not
        an error (unless the respawned worker dies too).
        """
        timeout = timeout or self.fleet.call_timeout_s
        for attempt in range(2):
            worker = self.worker_of(tenant_id)
            client = self._ensure_alive(worker)
            try:
                return client.call(op, timeout, payload)
            except WorkerDiedError:
                if attempt:
                    raise
                self._force_respawn(worker)
        raise AssertionError("unreachable")  # pragma: no cover

    def history(self, tenant_id: str) -> List[List[Any]]:
        """The tenant's committed history as ``[rule, answer, covered]``."""
        return self._routed_call(
            tenant_id, "history", {"tenant_id": tenant_id}
        )

    def checkpoint_tenant(
        self, tenant_id: str, path: str, evict: bool = False
    ) -> Dict[str, Any]:
        result = self._routed_call(
            tenant_id,
            "checkpoint",
            {"tenant_id": tenant_id, "path": path, "evict": evict},
        )
        if evict:
            with self._lock:
                self._route.pop(tenant_id, None)
        return result

    def migrate(
        self, tenant_id: str, target: Optional[int] = None
    ) -> Dict[str, Any]:
        """Move a tenant's overlay checkpoint to another worker.

        Checkpoint-and-evict on the source, adopt on the target, reroute.
        When the target's adopt fails, the source re-adopts the migration
        checkpoint, so the route stays valid, and the error is re-raised.
        The move is serialized against the tenant's other operations by the
        gateway's per-tenant queue (the supervisor itself only promises that
        the checkpoint happens at a coordinator-quiescent point, which a
        queue-serialized tenant guarantees).
        """
        source = self.worker_of(tenant_id)
        if target is None:
            target = self._least_loaded(exclude=source)
        with self._lock:
            if not 0 <= target < len(self._workers):
                raise BadRequestError(f"no worker {target}")
        if target == source:
            raise BadRequestError(
                f"tenant {tenant_id!r} is already on worker {source}"
            )
        directory = os.path.join(self.workdir, "migrations")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{tenant_id}.npz")
        self._ensure_alive(source).call(
            "checkpoint",
            self.fleet.call_timeout_s,
            {"tenant_id": tenant_id, "path": path, "evict": True},
        )
        adopt = {"tenant_id": tenant_id, "path": path}
        try:
            self._ensure_alive(target).call(
                "adopt", self.fleet.call_timeout_s, adopt
            )
        except Exception:
            self._ensure_alive(source).call(
                "adopt", self.fleet.call_timeout_s, adopt
            )
            raise
        with self._lock:
            self._route[tenant_id] = target
        # Refresh the durability point so a target-worker crash right after
        # the move restores post-migration state, not the source's autosave.
        self._ensure_alive(target).call(
            "checkpoint",
            self.fleet.call_timeout_s,
            {
                "tenant_id": tenant_id,
                "path": os.path.join(
                    self.workdir, "checkpoints", f"{tenant_id}.npz"
                ),
                "evict": False,
            },
        )
        self._obs_migrations.labels().inc()
        return {"tenant": tenant_id, "from": source, "to": target,
                "path": path}

    # ------------------------------------------------------------- liveness
    def _require_started(self) -> None:
        if not self._started or self._closed:
            raise ConfigurationError(
                "fleet supervisor is not running; call start() first"
            )

    def _ensure_alive(self, worker_id: int) -> WorkerClient:
        with self._lock:
            client = self._workers[worker_id]
            if client.alive():
                return client
            return self._respawn_locked(worker_id)

    def _force_respawn(self, worker_id: int) -> WorkerClient:
        with self._lock:
            client = self._workers[worker_id]
            if client.alive():
                client.process.terminate()
                client.process.join(timeout=5.0)
            return self._respawn_locked(worker_id)

    def _respawn_locked(self, worker_id: int) -> WorkerClient:
        """Replace a dead worker and restore its tenants (caller holds lock)."""
        old = self._workers[worker_id]
        old.process.join(timeout=5.0)
        old.close()
        client = self._spawn_worker(worker_id)
        with self._lock:  # reentrant: documents the invariant at the write
            self._workers[worker_id] = client
        self._obs_respawns.labels(worker=str(worker_id)).inc()
        hosted = [t for t, w in self._route.items() if w == worker_id]
        for tenant_id in sorted(hosted):
            autosave = os.path.join(
                self.workdir, "checkpoints", f"{tenant_id}.npz"
            )
            if os.path.exists(autosave):
                client.call(
                    "adopt",
                    self.fleet.call_timeout_s,
                    {"tenant_id": tenant_id, "path": autosave},
                )
            else:
                # Never autosaved: the tenant restarts from its seeds — the
                # same answer a single-process gateway gives after a crash
                # with no checkpoint.
                client.call(
                    "spawn",
                    self.fleet.call_timeout_s,
                    {"tenant_id": tenant_id, "seeds": None},
                )
        return client

    def _monitor(self) -> None:
        while not self._stop.wait(self.fleet.heartbeat_s):
            for worker_id in range(len(self._workers)):
                if self._stop.is_set():
                    return
                try:
                    self._ensure_alive(worker_id)
                except Exception:  # noqa: BLE001 - monitor must not die
                    continue

    # ----------------------------------------------------------- inspection
    def status(self) -> List[Dict[str, Any]]:
        """Liveness + placement per worker (the gateway's /healthz block)."""
        with self._lock:
            workers = list(self._workers)
            route = dict(self._route)
        return [
            {
                "worker": client.worker_id,
                "pid": client.pid,
                "alive": client.alive(),
                "tenants": sorted(
                    t for t, w in route.items() if w == client.worker_id
                ),
            }
            for client in workers
        ]

    def metrics_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker registry snapshots keyed by worker id (best effort)."""
        snapshots: Dict[str, Dict[str, Any]] = {}
        for client in list(self._workers):
            try:
                result = client.call("metrics", self.fleet.call_timeout_s)
            except WorkerDiedError:
                continue
            if result.get("enabled"):
                snapshots[str(result["worker"])] = result["metrics"]
        return snapshots

    def machine_rss_bytes(self) -> int:
        """Summed PSS of the supervisor + every live worker."""
        total = process_memory_bytes()
        for client in list(self._workers):
            if client.alive() and client.pid:
                total += process_memory_bytes(client.pid)
        return total

    def drive_all(
        self, crowd: Optional[Mapping[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Run every worker's serve loop to completion, workers in parallel
        (the bench driver; real traffic goes through :meth:`call_tenant`)."""
        self._require_started()
        results: List[Optional[Dict[str, Any]]] = [None] * len(self._workers)
        errors: List[Exception] = []

        def _drive(position: int, client: WorkerClient) -> None:
            try:
                results[position] = client.call(
                    "drive",
                    self.fleet.call_timeout_s,
                    {"crowd": dict(crowd or {})},
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=_drive, args=(i, client), daemon=True)
            for i, client in enumerate(self._workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [r for r in results if r is not None]

    # ------------------------------------------------------------- lifecycle
    def drain(self, checkpoint_dir: str) -> Dict[str, str]:
        """Final checkpoints for every tenant (the gateway drain path)."""
        os.makedirs(checkpoint_dir, exist_ok=True)
        paths: Dict[str, str] = {}
        for tenant_id in self.tenant_ids():
            path = os.path.join(checkpoint_dir, f"{tenant_id}-final.npz")
            try:
                result = self.checkpoint_tenant(tenant_id, path)
            except (WorkerDiedError, ConfigurationError):
                continue
            paths[tenant_id] = result["path"]
        return paths

    def close(self) -> None:
        """Stop the monitor, shut every worker down, drop the substrate."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
        with self._lock:
            workers = list(self._workers)
        for client in workers:
            try:
                client.call("shutdown", 30.0, {"save": False})
            except WorkerDiedError:
                pass
            client.process.join(timeout=10.0)
            if client.alive():  # pragma: no cover - stuck worker
                client.process.terminate()
                client.process.join(timeout=5.0)
            client.close()
        self._index = None
        self._featurizer = None
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "running" if self._started else "built"
        )
        return (
            f"FleetSupervisor(workers={self.fleet.workers}, "
            f"tenants={len(self._route)}, {state})"
        )

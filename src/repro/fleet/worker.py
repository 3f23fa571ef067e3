"""The fleet worker process: one :class:`~repro.serving.TenantPool`, N tenants.

A worker never inherits the supervisor's arena mapping. Under ``fork`` it
inherits the *detached* substrate objects (node dict, CSR arrays, fitted
embeddings, frozen feature matrix — all copy-on-write) and immediately
reattaches the coverage arena by **path** (:meth:`CorpusIndex.reattach_arena`
→ a fresh ``open(path, "rb")`` with the retained content digest verified).
Under ``spawn`` it rebuilds the substrate from the supervisor's substrate
checkpoint, whose store state attaches the arena with
``CoverageArena.open(path, read_only=True)``, and builds its own feature
matrix. Either way the file-backed columns are opened post-spawn, per
process, by path.

Each worker is single-threaded: :func:`repro.fleet.rpc.serve_connection`
recv/dispatch/send loop, so its tenants are serialized by construction. The
worker owns a **fresh** metrics registry (the forked parent registry is
discarded), which the supervisor scrapes over RPC and the gateway merges
into ``/metrics`` with a ``worker`` label.

Durability: every ``checkpoint_every_commits`` committed answers the worker
autosaves the tenant to ``<workdir>/checkpoints/<tenant>.npz`` — the file
the supervisor adopts from when it respawns a crashed worker.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, Optional

from .. import obs
from ..config import CrowdConfig, DarwinConfig
from ..gateway import ops as gateway_ops
from ..gateway.wire import BadRequestError, NotFoundError
from ..obs import MetricsRegistry
from ..serving.pool import TenantPool
from ..serving.server import serve_tenants
from .rpc import _ShutdownRequested, serve_connection


def process_memory_bytes(pid: Optional[int] = None) -> int:
    """Proportional-set-size bytes of one process (fair share of CoW pages).

    Summed PSS is the honest "machine RSS" of a forked fleet: pages the
    workers share with the supervisor are counted once in total, not once
    per process. Falls back to VmRSS (overcounting shared pages) on kernels
    without ``smaps_rollup``, and to 0 where /proc is absent.
    """
    pid_part = "self" if pid is None else str(pid)
    try:
        with open(f"/proc/{pid_part}/smaps_rollup", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        with open(f"/proc/{pid_part}/status", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _build_pool(spec: Dict[str, Any]) -> TenantPool:
    if spec["mode"] == "fork":
        index = spec["index"]
        # The supervisor detached the arena before forking; this is the
        # "reopen by path after spawn" step — a fresh fd + mapping in this
        # process, digest-verified against the retained header.
        index.store.reattach_arena()
        featurizer = spec["featurizer"]
        # The supervisor built the feature matrix before forking; this
        # worker's gauges count only its own work.
        featurizer.reset_stats()
        return TenantPool(
            spec["corpus"],
            spec["config"],
            index=index,
            featurizer=featurizer,
            expected_digest=spec["arena_digest"],
            seeds=spec["seeds"],
            dataset_spec=spec["dataset_spec"],
        )
    # spawn / forkserver: nothing is inherited; rebuild the substrate from
    # the supervisor's checkpoint. Its store state performs the literal
    # CoverageArena.open(path, read_only=True) attach.
    from ..classifier.features import SentenceFeaturizer
    from ..datasets import load_dataset
    from ..engine.engine import _build_grammars
    from ..engine.state import read_checkpoint
    from ..index.trie_index import CorpusIndex

    manifest, bundle = read_checkpoint(
        spec["substrate_path"], expected_kind="fleet-substrate"
    )
    config = DarwinConfig.from_dict(manifest["config"])
    dataset_spec = manifest["dataset"]
    corpus = load_dataset(dataset_spec["name"], **dataset_spec.get("options", {}))
    grammars = _build_grammars(config, {})
    index = CorpusIndex.from_state(manifest["index"], bundle, grammars)
    featurizer = SentenceFeaturizer.fit(
        corpus,
        embedding_dim=config.classifier.embedding_dim,
        seed=config.classifier.seed,
    )
    return TenantPool(
        corpus,
        config,
        index=index,
        featurizer=featurizer,
        expected_digest=spec["arena_digest"],
        seeds=spec["seeds"],
        dataset_spec=dataset_spec,
    )


class _WorkerState:
    """Dispatch context: the pool plus per-tenant autosave bookkeeping."""

    def __init__(self, worker_id: int, spec: Dict[str, Any]) -> None:
        self.worker_id = worker_id
        self.spec = spec
        self.crowd_config = CrowdConfig(**(spec.get("crowd") or {}))
        self.checkpoint_every = int(spec.get("checkpoint_every", 0))
        self.workdir = spec["workdir"]
        self.allow_debug_ops = bool(spec.get("allow_debug_ops"))
        self.pool = _build_pool(spec)
        self._commits_since_save: Dict[str, int] = {}

    # ------------------------------------------------------------- helpers
    def _tenant(self, tenant_id: str):
        tenant = self.pool.tenants.get(tenant_id)
        if tenant is None:
            raise NotFoundError(
                f"worker {self.worker_id} hosts no tenant {tenant_id!r}; "
                f"live: {', '.join(sorted(self.pool.tenants)) or '(none)'}"
            )
        return tenant

    def autosave_path(self, tenant_id: str) -> str:
        directory = os.path.join(self.workdir, "checkpoints")
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, f"{tenant_id}.npz")

    def _maybe_autosave(self, tenant_id: str, committed: bool) -> None:
        if not committed or self.checkpoint_every <= 0:
            return
        count = self._commits_since_save.get(tenant_id, 0) + 1
        if count >= self.checkpoint_every:
            tenant = self._tenant(tenant_id)
            tenant.flush()
            tenant.save(self.autosave_path(tenant_id))
            count = 0
        self._commits_since_save[tenant_id] = count

    # ------------------------------------------------------------ operations
    def dispatch(self, op: str, payload: Dict[str, Any]) -> Any:
        handler = getattr(self, f"op_{op.replace('-', '_')}", None)
        if handler is None:
            raise BadRequestError(f"worker has no op {op!r}")
        return handler(payload)

    def op_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "tenants": sorted(self.pool.tenants),
        }

    def op_spawn(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self.pool.spawn(
            payload["tenant_id"], seeds=payload.get("seeds")
        )
        tenant.start()
        tenant.coordinator(self.crowd_config)
        return {"tenant": tenant.tenant_id, "worker": self.worker_id}

    def op_adopt(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self.pool.adopt(payload["tenant_id"], payload["path"])
        # The restored engine is mid-session; a fresh coordinator resumes
        # ticketing from its committed state.
        tenant.coordinator(self.crowd_config, fresh=True)
        return {
            "tenant": tenant.tenant_id,
            "worker": self.worker_id,
            "questions_asked": tenant.engine.questions_asked,
        }

    def op_evict(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant_id = payload["tenant_id"]
        self._tenant(tenant_id)
        self.pool.evict(tenant_id)
        self._commits_since_save.pop(tenant_id, None)
        return {"tenant": tenant_id, "worker": self.worker_id}

    def op_checkpoint(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._tenant(payload["tenant_id"])
        tenant.flush()
        directory = os.path.dirname(payload["path"])
        if directory:
            os.makedirs(directory, exist_ok=True)
        saved = tenant.save(payload["path"])
        if payload.get("evict"):
            self.pool.evict(tenant.tenant_id)
            self._commits_since_save.pop(tenant.tenant_id, None)
        return {"tenant": payload["tenant_id"], "path": saved}

    def op_tenant_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        tenant_id = payload["tenant_id"]
        tenant = self._tenant(tenant_id)
        op = payload["op"]
        body = dict(payload.get("body") or {})
        if op == "propose":
            return gateway_ops.op_propose(tenant, self.crowd_config, body)
        if op == "answer":
            result = gateway_ops.op_answer(tenant, self.crowd_config, body)
            self._maybe_autosave(tenant_id, bool(result.get("committed")))
            return result
        if op == "checkpoint":
            return gateway_ops.op_checkpoint(
                tenant, self.crowd_config, body, payload["checkpoint_dir"]
            )
        if op == "debug/sleep" and self.allow_debug_ops:
            return gateway_ops.op_debug_sleep(tenant, body)
        raise NotFoundError(f"no tenant operation {op!r}")

    def op_history(self, payload: Dict[str, Any]) -> list:
        tenant = self._tenant(payload["tenant_id"])
        return [
            [h.rule, h.answer, h.covered] for h in tenant.darwin.history
        ]

    def op_drive(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve every hosted tenant to completion (the bench driver)."""
        crowd = CrowdConfig(**(payload.get("crowd") or {}))
        report = asyncio.run(serve_tenants(self.pool, crowd_config=crowd))
        return {
            "worker": self.worker_id,
            "wall_seconds": report.wall_seconds,
            "questions_committed": report.questions_committed,
            "tenants": {
                tenant_id: {
                    "questions_committed": r.crowd.questions_committed,
                    "history": [
                        [h.rule, h.answer, h.covered]
                        for h in r.crowd.darwin_result.history
                    ],
                }
                for tenant_id, r in report.results.items()
            },
        }

    def op_metrics(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        registry = obs.get_registry()
        return {
            "worker": self.worker_id,
            "enabled": registry.enabled,
            "metrics": registry.snapshot() if registry.enabled else {},
        }

    def op_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "rss_bytes": process_memory_bytes(),
            "memory": self.pool.memory_stats(),
        }

    def op_crash(self, payload: Dict[str, Any]) -> None:
        """Hard-exit without cleanup (crash-recovery tests only)."""
        if not self.allow_debug_ops:
            raise BadRequestError("crash op requires allow_debug_ops")
        os._exit(17)

    def op_shutdown(self, payload: Dict[str, Any]) -> Any:
        paths: Dict[str, str] = {}
        if payload.get("save"):
            for tenant_id, tenant in sorted(self.pool.tenants.items()):
                if not tenant.started:
                    continue
                tenant.flush()
                paths[tenant_id] = tenant.save(self.autosave_path(tenant_id))
        self.pool.close()
        raise _ShutdownRequested({"worker": self.worker_id, "saved": paths})


def worker_main(worker_id: int, connection, spec: Dict[str, Any]) -> None:
    """Process entry point: build the pool, serve RPC until shutdown/EOF."""
    # A forked child inherits the supervisor's registry object; sharing it
    # would interleave counter updates with the parent through CoW'd state.
    # Every worker gets its own, scraped over RPC and merged at the gateway.
    if spec.get("obs", True):
        obs.enable(MetricsRegistry())
    else:  # pragma: no cover - bench runs with obs off
        obs.disable()
    state = _WorkerState(worker_id, spec)
    try:
        serve_connection(connection, state.dispatch)
    finally:
        try:
            if not state.pool.closed:
                state.pool.close()
        finally:
            connection.close()

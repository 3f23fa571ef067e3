"""The tenant pool: shared immutable substrate, per-tenant engines.

``TenantPool`` owns everything that is corpus-wide and immutable — the sealed
:class:`~repro.index.CorpusIndex`, its coverage arena (frozen read-only,
content-digest verified on attach), and one fitted
:class:`~repro.classifier.features.SentenceFeaturizer` with its frozen
feature matrix — and hands out :class:`Tenant` handles whose engines share
all of it by reference:

* the tenant's index is a read-only *view* of the shared index (same node
  dict, same CSR inverted map, zero copies) whose ``store`` is a per-tenant
  :class:`~repro.index.overlay.OverlayCoverageStore`, so anything the tenant
  interns lands in its own id-space partition;
* the tenant's featurizer is the pool's featurizer object, so no sentence
  is ever featurized twice across tenants;
* everything mutable — rule set, hierarchy, traversal pools, classifier
  scores/weights, RNG streams, history — is built fresh per tenant by
  :class:`~repro.engine.DarwinEngine`, which is what makes each tenant's run
  question-for-question identical to a solo engine with the same config.

Lifecycle: the pool is a context manager. ``__exit__`` closes tenants first
and the shared store last (via :class:`contextlib.ExitStack`), releasing the
arena's memory maps before anyone deletes the file — the ordering
Windows-style strict-unlink filesystems require.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, List, Mapping, Optional

from ..classifier.features import SentenceFeaturizer
from ..config import CrowdConfig, DarwinConfig, DEFAULT_CONFIG
from ..engine.engine import DarwinEngine
from ..errors import ConfigurationError
from ..index.overlay import OverlayCoverageStore
from ..index.trie_index import CorpusIndex
from ..obs import get_registry
from ..text.corpus import Corpus


class SharedIndexView(CorpusIndex):
    """A per-tenant facade over one shared, sealed :class:`CorpusIndex`.

    Shares the node dict, grammar instances, and CSR inverted map by
    reference; only ``store`` differs (the tenant's overlay). Mutating the
    shared structure through a view is a bug by construction, so every
    construction-time mutator raises.
    """

    @classmethod
    def over(cls, shared: CorpusIndex, store: OverlayCoverageStore) -> "SharedIndexView":
        if not shared.sealed:
            raise ConfigurationError(
                "tenant views require a sealed index; call seal() first"
            )
        view = cls.__new__(cls)
        view.__dict__.update(shared.__dict__)
        view.store = store
        return view

    def _refuse(self, operation: str) -> None:
        raise ConfigurationError(
            f"cannot {operation} a shared tenant index view: the underlying "
            f"index is read-only while a TenantPool serves it"
        )

    def add_sketch(self, sketch) -> None:  # pragma: no cover - guard
        self._refuse("add sketches to")

    def prune(self, min_coverage: int) -> int:  # pragma: no cover - guard
        self._refuse("prune")

    def _unseal(self) -> None:  # pragma: no cover - guard
        self._refuse("unseal")


class Tenant:
    """One tenant's handle: an engine plus its copy-on-write coverage store.

    Obtained from :meth:`TenantPool.spawn`; all heavyweight state is shared
    with the pool, so spawning a tenant is cheap (grammar construction plus
    an empty overlay).
    """

    def __init__(
        self, pool: "TenantPool", tenant_id: str, engine: DarwinEngine,
        store: OverlayCoverageStore,
    ) -> None:
        self.pool = pool
        self.tenant_id = tenant_id
        self.engine = engine
        self.store = store
        self._coordinator = None

    @property
    def darwin(self):
        """The tenant's Darwin core."""
        return self.engine.darwin

    @property
    def started(self) -> bool:
        """True once this tenant's session has been seeded."""
        return self.engine.started

    def start(self, **seeds: Any) -> "Tenant":
        """Seed the tenant's session (defaults to the engine's seeds)."""
        self.engine.start(**seeds)
        return self

    def run(self, **kwargs: Any):
        """Drive this tenant's loop solo (see :meth:`DarwinEngine.run`)."""
        return self.engine.run(**kwargs)

    def session(self, **kwargs: Any):
        """A single-annotator session over this tenant's engine."""
        return self.engine.session(**kwargs)

    def crowd(self, crowd_config: Optional[CrowdConfig] = None):
        """A crowd coordinator over this tenant's engine (started tenants)."""
        return self.engine.crowd(crowd_config)

    def coordinator(
        self, crowd_config: Optional[CrowdConfig] = None, fresh: bool = False
    ):
        """This tenant's long-lived crowd coordinator, created on first use.

        Unlike :meth:`crowd` (a new coordinator per call), the handle is
        cached so stateless frontends — the HTTP gateway above all — route
        every request for this tenant to the same ticket/vote state. Pass
        ``fresh=True`` to drop the cached coordinator and build a new one
        (after a checkpoint restore, or per serve run). The coordinator's
        metric series carry this tenant's id.
        """
        from ..crowd.coordinator import CrowdCoordinator

        if self._coordinator is None or fresh:
            self._coordinator = CrowdCoordinator(
                self.darwin, crowd_config, obs_tenant=self.tenant_id
            )
        return self._coordinator

    def flush(self) -> None:
        """Apply any deferred coordinator batch work (drain hook)."""
        if self._coordinator is not None:
            self._coordinator.flush()

    def save(self, path: str) -> str:
        """Checkpoint this tenant. The shared columns are stored as an arena
        *reference* (path + digest) when the pool's arena has a durable
        path, inline when it is temporary; tenant-local overlay columns are
        always inline."""
        return self.engine.save(path)

    def resident_bytes(self) -> int:
        """The tenant's marginal heap bytes: its overlay columns."""
        return self.store.resident_coverage_bytes

    def close(self) -> None:
        """Drop the tenant's engine and coordinator."""
        self.engine = None
        self._coordinator = None


class TenantPool:
    """Shared read-only substrate plus a registry of tenant engines.

    Args:
        corpus: The corpus every tenant labels.
        config: Per-tenant run configuration. ``config.index.arena_path``
            places the shared coverage arena; ``None`` uses a temporary
            file, whose columns tenant checkpoints then carry inline.
        index: A pre-built sealed index to adopt instead of building one.
        featurizer: A pre-fitted featurizer to adopt (shared by every
            tenant).
        expected_digest: Content digest the shared arena must match — the
            digest-verified attach. Mismatch raises
            :class:`~repro.errors.ConfigurationError`.
        seeds: Default seeds for spawned tenants (``rule_texts`` /
            ``positive_ids``), as :class:`~repro.engine.DarwinEngine` takes.
        dataset_spec: ``{"name", "options"}`` recorded into tenant
            checkpoints so they stay self-contained.
    """

    def __init__(
        self,
        corpus: Corpus,
        config: Optional[DarwinConfig] = None,
        index: Optional[CorpusIndex] = None,
        featurizer: Optional[SentenceFeaturizer] = None,
        expected_digest: Optional[str] = None,
        seeds: Optional[Mapping[str, Any]] = None,
        dataset_spec: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.corpus = corpus
        self.config = config or DEFAULT_CONFIG
        self.seeds: Dict[str, Any] = dict(seeds or {})
        self.dataset_spec = dict(dataset_spec) if dataset_spec else None
        self._tenants: Dict[str, Tenant] = {}
        self._spawned = 0
        self._closed = False

        if index is None:
            index = CorpusIndex.build(
                corpus,
                self._build_grammars(),
                max_depth=self.config.max_sketch_depth,
                min_coverage=self.config.min_coverage,
                arena_path=self.config.index.arena_path,
            )
        elif not index.sealed:
            index.seal()
        self.index = index

        # Freeze point: from here on the shared columns are immutable. The
        # arena swaps its writable handle for a read-only one, so even a
        # buggy tenant physically cannot append to the shared id space.
        arena = self.index.store.arena
        self.index.store.flush()
        arena.reopen_read_only()
        self.arena_digest: str = arena.digest
        if expected_digest is not None and expected_digest != self.arena_digest:
            raise ConfigurationError(
                f"shared coverage arena {arena.path} does not match the "
                f"expected digest: {self.arena_digest} != {expected_digest}"
            )

        if featurizer is None:
            featurizer = SentenceFeaturizer.fit(
                corpus,
                embedding_dim=self.config.classifier.embedding_dim,
                seed=self.config.classifier.seed,
            )
        self.featurizer = featurizer

        # Telemetry (repro.obs): pool-level residency re-expressed as gauges.
        # Registered weakly — the registry never keeps a closed pool alive.
        self._obs = get_registry()
        self._obs.register_collector(self._collect_obs_gauges)

    def _collect_obs_gauges(self) -> None:
        """Pull collector: :meth:`memory_stats` and the shared feature store
        as ``pool_*`` gauges (runs at snapshot/render time only)."""
        if self._closed:
            return
        registry = self._obs
        stats = self.memory_stats()
        help_by_key = {
            "num_tenants": "Live tenants in the pool",
            "shared_resident_bytes": "Heap bytes of the shared substrate",
            "tenant_resident_bytes": "Summed marginal tenant overlay bytes",
            "feature_cache_bytes": "Shared feature store resident bytes",
            "arena_file_bytes": "Backing arena file size",
        }
        for key, value in stats.items():
            registry.gauge(
                f"pool_{key}", help_by_key.get(key, ""), labels=()
            ).set(value)
        fstats = self.featurizer.stats()
        for key in ("hits", "misses", "entries", "nbytes"):
            registry.gauge(
                f"pool_feature_cache_{key}",
                f"Shared feature store {key} across all tenants",
            ).set(fstats[key])

    def _build_grammars(self) -> List:
        from ..engine.engine import _build_grammars

        return _build_grammars(self.config, {})

    # ---------------------------------------------------------------- tenants
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; spawned tenants are unusable then."""
        return self._closed

    @property
    def tenants(self) -> Dict[str, Tenant]:
        """Live tenants keyed by tenant id (a copy)."""
        return dict(self._tenants)

    @property
    def num_tenants(self) -> int:
        """Number of live tenants."""
        return len(self._tenants)

    def spawn(
        self,
        tenant_id: Optional[str] = None,
        seeds: Optional[Mapping[str, Any]] = None,
        config_overrides: Optional[Mapping[str, Any]] = None,
    ) -> Tenant:
        """Create one tenant over the shared substrate.

        Everything corpus-wide is shared by reference; the tenant's coverage
        writes go to a fresh :class:`OverlayCoverageStore`, and its engine is
        built from the pool config (optionally overridden per tenant —
        e.g. a different RNG ``seed`` or traversal).
        """
        if self._closed:
            raise ConfigurationError("cannot spawn tenants on a closed pool")
        if tenant_id is None:
            tenant_id = f"tenant-{self._spawned}"
        if tenant_id in self._tenants:
            raise ConfigurationError(f"tenant id {tenant_id!r} already exists")
        config = self.config
        if config_overrides:
            config = config.with_overrides(**dict(config_overrides))
        overlay = OverlayCoverageStore(self.index.store)
        tenant_index = SharedIndexView.over(self.index, overlay)
        engine = DarwinEngine(
            self.corpus,
            config=config,
            index=tenant_index,
            featurizer=self.featurizer,
            dataset_spec=self.dataset_spec,
            seeds=dict(seeds) if seeds is not None else dict(self.seeds),
        )
        tenant = Tenant(self, tenant_id, engine, overlay)
        # Per-tenant metric series (tenant_questions, coverage_*, ...) carry
        # the tenant id, not the corpus name the Darwin defaulted to.
        engine.darwin.obs_label = tenant_id
        self._tenants[tenant_id] = tenant
        self._spawned += 1
        return tenant

    def spawn_many(self, count: int) -> List[Tenant]:
        """Spawn ``count`` tenants with the pool's default seeds/config."""
        return [self.spawn() for _ in range(count)]

    def tenant(self, tenant_id: str) -> Tenant:
        """The live tenant for ``tenant_id``; raises when unknown."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise ConfigurationError(
                f"no tenant {tenant_id!r}; live tenants: "
                f"{', '.join(sorted(self._tenants)) or '(none)'}"
            )
        return tenant

    def evict(self, tenant_id: str) -> None:
        """Close and forget one tenant (its overlay dies; shared state stays)."""
        self.tenant(tenant_id).close()
        del self._tenants[tenant_id]

    def adopt(self, tenant_id: str, checkpoint_path: str) -> Tenant:
        """Rebuild a checkpointed tenant over *this* pool's shared substrate.

        The migration receive path: a tenant saved by :meth:`Tenant.save` in
        one pool (possibly in another process) is re-homed here without
        reloading the shared columns — its checkpoint's base reference is
        validated against the pool's own store (slot partition point, arena
        content digest), its overlay columns are re-interned in slot order
        over the pool's base, and its Darwin/oracle state is restored exactly
        as :meth:`DarwinEngine.load` would. The adopted tenant then answers
        question-for-question identically to one that never moved.
        """
        if self._closed:
            raise ConfigurationError("cannot adopt tenants on a closed pool")
        if tenant_id in self._tenants:
            raise ConfigurationError(f"tenant id {tenant_id!r} already exists")
        from ..engine.state import read_checkpoint

        manifest, bundle = read_checkpoint(checkpoint_path)
        config = DarwinConfig.from_dict(manifest["config"])
        index_state = manifest.get("index") or {}
        recorded_sentences = index_state.get("num_sentences")
        if recorded_sentences is not None and len(self.corpus) != int(
            recorded_sentences
        ):
            raise ConfigurationError(
                f"tenant checkpoint was taken over a corpus of "
                f"{recorded_sentences} sentences, but this pool serves "
                f"{len(self.corpus)}"
            )
        recorded_name = manifest.get("corpus_name")
        if recorded_name is not None and self.corpus.name != recorded_name:
            raise ConfigurationError(
                f"tenant checkpoint was taken over corpus {recorded_name!r}, "
                f"but this pool serves {self.corpus.name!r}"
            )
        if manifest.get("grammars_explicit"):
            raise ConfigurationError(
                "cannot adopt a tenant built with explicit grammar instances; "
                "only config-built grammars can be rebuilt in the new pool"
            )
        store_state = index_state.get("store") or {}
        if store_state.get("backend") != "overlay":
            raise ConfigurationError(
                "tenant checkpoints layer an overlay over the shared store, "
                "but this checkpoint records a plain store; it is not a pool "
                "tenant"
            )
        overlay = OverlayCoverageStore.from_state_over(
            self.index.store, store_state, bundle
        )
        tenant_index = SharedIndexView.over(self.index, overlay)
        engine = DarwinEngine(
            self.corpus,
            config=config,
            index=tenant_index,
            featurizer=self.featurizer,
            dataset_spec=manifest.get("dataset") or self.dataset_spec,
            grammar_options=manifest.get("grammar_options"),
            oracle_options=manifest.get("oracle_options"),
            seeds=manifest.get("seeds"),
        )
        engine.darwin.restore_state(manifest["darwin"], bundle)
        engine._restore_oracle(manifest.get("oracle_state"), None)
        tenant = Tenant(self, tenant_id, engine, overlay)
        engine.darwin.obs_label = tenant_id
        self._tenants[tenant_id] = tenant
        self._spawned += 1
        return tenant

    # ------------------------------------------------------------- accounting
    def shared_resident_bytes(self) -> int:
        """Heap bytes pinned by the substrate every tenant shares: the base
        store's residency (the arena's offsets column), the CSR inverted
        map, and the feature store. Exists once per pool regardless of
        tenant count."""
        index = self.index
        inverted = (
            index._inv_nodes.nbytes
            + index._inv_starts.nbytes
            + index._node_counts.nbytes
        )
        return (
            index.store.resident_coverage_bytes
            + inverted
            + self.featurizer.nbytes
        )

    def tenant_resident_bytes(self) -> int:
        """Sum of every live tenant's marginal overlay residency."""
        return sum(t.resident_bytes() for t in self._tenants.values())

    def memory_stats(self) -> Dict[str, float]:
        """Shared-vs-per-tenant residency breakdown (bench + serve report)."""
        stats = {
            "num_tenants": float(self.num_tenants),
            "shared_resident_bytes": float(self.shared_resident_bytes()),
            "tenant_resident_bytes": float(self.tenant_resident_bytes()),
            "feature_cache_bytes": float(self.featurizer.nbytes),
        }
        arena = self.index.store.arena
        stats["arena_file_bytes"] = float(
            arena.values_bytes + (arena.num_interned + 1) * 8
        )
        return stats

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every tenant, then the shared store. Idempotent.

        Ordering matters on strict-unlink filesystems: tenant overlays first,
        the shared arena's file handle and memory map last, so by the time
        the caller deletes the arena file nothing in the pool still maps it.
        """
        if self._closed:
            return
        self._closed = True
        with ExitStack() as stack:
            # ExitStack unwinds LIFO: register the shared store first so it
            # closes after every tenant released its overlay.
            stack.callback(self.index.store.close)
            for tenant in self._tenants.values():
                stack.callback(tenant.close)
        self._tenants.clear()
        # Drop the substrate references so the node views (and through them
        # the arena's memory map) can be reclaimed as soon as callers drop
        # their tenant handles.
        self.index = None
        self.featurizer = None

    def __enter__(self) -> "TenantPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"TenantPool(tenants={self.num_tenants}, {state}, "
            f"digest={self.arena_digest!r})"
        )

"""Global configuration objects for the Darwin reproduction.

The paper exposes a handful of knobs (Section 3 and Appendix D):

* the oracle precision threshold used when simulating annotators (0.8),
* the HybridSearch switching parameter ``tau`` (default 5),
* the UniversalSearch benefit-per-instance cutoff (0.5),
* the number of candidate heuristics generated per iteration (10K),
* the maximum derivation-sketch depth (10),
* classifier training epochs.

:class:`DarwinConfig` groups these so that experiments can sweep them without
threading a dozen keyword arguments through every component.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from .errors import ConfigurationError


def _registry_names(registry_attr: str) -> Optional[Tuple[str, ...]]:
    """Names registered in one of the engine registries, or None when the
    registry module is not loaded yet.

    Deliberately reads ``sys.modules`` instead of importing: the registry
    module imports the component modules (grammars, classifiers, datasets,
    ...), so importing it from here would both bolt that whole tree onto
    ``import repro.config`` and create a config→engine→components import
    chain that is one careless ``from repro.config import DEFAULT_CONFIG``
    away from a cycle. In practice ``repro/__init__`` loads the registry
    right after this module, so every user-constructed config is validated;
    only the module-level ``DEFAULT_CONFIG`` (all-default, known-good names)
    skips the registry check during bootstrap.
    """
    import sys

    root_package = __name__.rsplit(".", 1)[0]
    module = sys.modules.get(f"{root_package}.engine.registry")
    if module is None:
        return None
    return getattr(module, registry_attr).names()


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyper-parameters of the benefit-estimation classifier.

    Attributes:
        model: One of ``"logistic"``, ``"mlp"`` or ``"cnn"``. The paper uses a
            Kim-style CNN; the cheaper models are provided because benefit
            estimation only needs rough probability rankings.
        epochs: Number of passes over the (small) training set per retrain.
        learning_rate: SGD/Adam step size.
        hidden_dim: Hidden width for the MLP / dense head of the CNN.
        embedding_dim: Dimensionality of word embeddings fed to the model.
        negative_sample_ratio: How many random "presumed negative" sentences to
            sample per known positive when forming a training set (Section 3.3).
        batch_size: Mini-batch size.
        l2: L2 regularisation strength.
        seed: RNG seed for weight init and negative sampling.
    """

    model: str = "logistic"
    epochs: int = 60
    learning_rate: float = 0.5
    hidden_dim: int = 32
    embedding_dim: int = 50
    negative_sample_ratio: float = 5.0
    batch_size: int = 32
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        known_models = _registry_names("CLASSIFIERS") or ("logistic", "mlp", "cnn")
        if self.model not in known_models:
            raise ConfigurationError(f"unknown classifier model: {self.model!r}")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.negative_sample_ratio <= 0:
            raise ConfigurationError("negative_sample_ratio must be positive")
        for name in ("batch_size", "hidden_dim", "embedding_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.l2 < 0:
            raise ConfigurationError("l2 must be non-negative")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able mapping of this config (checkpoint manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ClassifierConfig":
        """Rebuild a config from :meth:`as_dict` output / a plain JSON dict."""
        try:
            return cls(**dict(mapping))
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(f"bad classifier config: {exc}") from exc


@dataclass(frozen=True)
class IndexConfig:
    """Configuration of the corpus index's coverage storage.

    The interned coverage arrays always live in a memory-mapped
    :class:`~repro.index.arena.CoverageArena` file, so corpora whose coverage
    columns exceed RAM stay queryable through ``CoverageView`` handles.

    Attributes:
        arena_path: Arena file location. ``None`` uses an unlinked-on-close
            temporary file; checkpoints then carry the coverage columns
            inline, so they resume in any process. A real path makes
            checkpoints small references (path + content digest) to that
            file, which must still exist, unmodified, at resume time.
    """

    arena_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arena_path is not None and not isinstance(self.arena_path, str):
            raise ConfigurationError("arena_path must be a string path or None")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able mapping of this config (checkpoint manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "IndexConfig":
        """Rebuild a config from :meth:`as_dict` output / a plain JSON dict."""
        try:
            return cls(**dict(mapping))
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(f"bad index config: {exc}") from exc


@dataclass(frozen=True)
class DarwinConfig:
    """Top-level configuration for a Darwin run (Algorithm 1).

    Attributes:
        budget: Maximum number of oracle queries (``b`` in Problem 1).
        traversal: ``"local"``, ``"universal"`` or ``"hybrid"`` (Sections 3.4-3.6).
        tau: HybridSearch switching threshold (unsuccessful attempts before the
            strategy toggles; default 5 per Section 3.6).
        benefit_cutoff: UniversalSearch drops candidates whose benefit per
            instance is below this value (0.5 per Section 3.5).
        num_candidates: Number of candidate heuristics generated per hierarchy
            build (10K in the paper's experiments; smaller defaults keep tests
            fast).
        max_sketch_depth: Maximum number of derivation rules applied when
            enumerating sketches (10 in the paper).
        max_phrase_len: Maximum n-gram length for TokensRegex heuristics.
        min_coverage: Candidates covering fewer sentences than this are pruned.
        oracle_precision_threshold: The simulated oracle answers YES iff the
            candidate's precision is at least this value (0.8 in Section 4.1).
        oracle_sample_size: Number of example sentences shown per query.
        retrain_every: Retrain the classifier after this many accepted rules.
        hierarchy_refresh: ``"incremental"`` (default) re-expands only the
            index nodes whose overlap with the newly discovered positives
            changed after each accepted rule; ``"full"`` regenerates every
            candidate from scratch (the pre-columnar behaviour, kept for
            experiments that need exact Algorithm 2 reruns).
        grammars: Registry names of the heuristic grammars to search over
            (see :data:`repro.engine.registry.GRAMMARS`); used by
            :class:`~repro.engine.DarwinEngine` to build grammars
            declaratively. ``Darwin`` callers passing grammar instances
            directly bypass this field.
        oracle: Registry name of the oracle built by
            :meth:`repro.engine.DarwinEngine.build_oracle`
            (see :data:`repro.engine.registry.ORACLES`).
        classifier: Nested :class:`ClassifierConfig` (its ``model`` field is a
            :data:`repro.engine.registry.CLASSIFIERS` name).
        index: Nested :class:`IndexConfig` placing the memory-mapped
            coverage arena: a temporary file (default; checkpoints carry its
            columns inline) or a durable ``arena_path`` that checkpoints
            reference.
        seed: Seed for all stochastic tie-breaking inside the search.
    """

    budget: int = 100
    traversal: str = "hybrid"
    tau: int = 5
    benefit_cutoff: float = 0.5
    num_candidates: int = 2000
    max_sketch_depth: int = 10
    max_phrase_len: int = 4
    min_coverage: int = 2
    oracle_precision_threshold: float = 0.8
    oracle_sample_size: int = 5
    retrain_every: int = 1
    hierarchy_refresh: str = "incremental"
    grammars: Tuple[str, ...] = ("tokensregex",)
    oracle: str = "ground_truth"
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.grammars, tuple):
            object.__setattr__(self, "grammars", tuple(self.grammars))
        if not self.grammars or not all(
            isinstance(name, str) and name for name in self.grammars
        ):
            raise ConfigurationError(
                "grammars must be a non-empty sequence of registry names"
            )
        if len(set(self.grammars)) != len(self.grammars):
            raise ConfigurationError("grammar names must be unique")
        if not isinstance(self.oracle, str) or not self.oracle:
            raise ConfigurationError("oracle must be a registry name")
        known_grammars = _registry_names("GRAMMARS")
        if known_grammars is not None:
            for name in self.grammars:
                if name not in known_grammars:
                    raise ConfigurationError(
                        f"unknown grammar {name!r}; registered: "
                        f"{', '.join(known_grammars)}"
                    )
        known_oracles = _registry_names("ORACLES")
        if known_oracles is not None and self.oracle not in known_oracles:
            raise ConfigurationError(
                f"unknown oracle {self.oracle!r}; registered: "
                f"{', '.join(known_oracles)}"
            )
        if self.budget <= 0:
            raise ConfigurationError("budget must be positive")
        known_traversals = _registry_names("TRAVERSALS") or (
            "local", "universal", "hybrid"
        )
        if self.traversal not in known_traversals:
            raise ConfigurationError(f"unknown traversal: {self.traversal!r}")
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")
        if not 0.0 <= self.benefit_cutoff <= 1.0:
            raise ConfigurationError("benefit_cutoff must be in [0, 1]")
        if self.num_candidates <= 0:
            raise ConfigurationError("num_candidates must be positive")
        if self.max_sketch_depth <= 0:
            raise ConfigurationError("max_sketch_depth must be positive")
        if self.max_phrase_len <= 0:
            raise ConfigurationError("max_phrase_len must be positive")
        if self.min_coverage < 1:
            raise ConfigurationError("min_coverage must be at least 1")
        if not 0.0 < self.oracle_precision_threshold <= 1.0:
            raise ConfigurationError("oracle_precision_threshold must be in (0, 1]")
        if self.oracle_sample_size <= 0:
            raise ConfigurationError("oracle_sample_size must be positive")
        if self.retrain_every <= 0:
            raise ConfigurationError("retrain_every must be positive")
        if self.hierarchy_refresh not in {"full", "incremental"}:
            raise ConfigurationError(
                f"unknown hierarchy_refresh: {self.hierarchy_refresh!r}"
            )
        if not isinstance(self.classifier, ClassifierConfig):
            raise ConfigurationError(
                "classifier must be a ClassifierConfig (from_dict and "
                "with_overrides convert mappings)"
            )
        if not isinstance(self.index, IndexConfig):
            raise ConfigurationError(
                "index must be an IndexConfig (from_dict and with_overrides "
                "convert mappings)"
            )

    def with_overrides(self, **overrides: Any) -> "DarwinConfig":
        """Return a copy of this config with ``overrides`` applied.

        Nested classifier/index options may be overridden by passing a mapping
        under the ``classifier``/``index`` key or the config instance itself.
        """
        classifier = overrides.pop("classifier", None)
        if isinstance(classifier, Mapping):
            overrides["classifier"] = replace(self.classifier, **dict(classifier))
        elif isinstance(classifier, ClassifierConfig):
            overrides["classifier"] = classifier
        elif classifier is not None:
            raise ConfigurationError(
                "classifier override must be a mapping or ClassifierConfig"
            )
        index = overrides.pop("index", None)
        if isinstance(index, Mapping):
            overrides["index"] = replace(self.index, **dict(index))
        elif isinstance(index, IndexConfig):
            overrides["index"] = index
        elif index is not None:
            raise ConfigurationError(
                "index override must be a mapping or IndexConfig"
            )
        try:
            return replace(self, **overrides)
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(str(exc)) from exc

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able mapping of this config, nested classifier included."""
        record = asdict(self)
        record["grammars"] = list(self.grammars)
        return record

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "DarwinConfig":
        """Rebuild a config from :meth:`as_dict` output / a plain JSON dict.

        The nested ``classifier`` entry may be a mapping or a
        :class:`ClassifierConfig`; ``grammars`` may be any sequence of names.
        Unknown keys raise :class:`~repro.errors.ConfigurationError`.
        """
        record = dict(mapping)
        classifier = record.get("classifier")
        if isinstance(classifier, Mapping):
            record["classifier"] = ClassifierConfig.from_dict(classifier)
        index = record.get("index")
        if isinstance(index, Mapping):
            record["index"] = IndexConfig.from_dict(index)
        grammars = record.get("grammars")
        if grammars is not None and not isinstance(grammars, tuple):
            record["grammars"] = tuple(grammars)
        try:
            return cls(**record)
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(f"bad darwin config: {exc}") from exc


@dataclass(frozen=True)
class CrowdConfig:
    """Configuration for a concurrent multi-annotator crowd session (§4.3).

    Attributes:
        num_annotators: Number of concurrent annotator sessions ``K``.
        redundancy: Votes collected per question before committing; the answer
            is the majority vote, and a tie counts as NO (same strict-majority
            rule as :class:`~repro.core.oracle.MajorityVoteOracle`).
        batch_size: Number of committed answers accumulated before the
            classifier retrain + hierarchy refresh are applied. Accepted rules
            join the rule set immediately; only the expensive model updates are
            batched (the Berkholz-style deferred-maintenance strategy). This
            also bounds how many distinct questions may be in flight at once:
            with ``batch_size=1`` the coordinator is sequentially consistent
            with the serial Darwin loop.
        budget: Total committed questions; ``None`` falls back to the Darwin
            configuration's ``budget``.
        max_in_flight: Overrides the in-flight question bound (defaults to
            ``batch_size``).
        annotator_latency: Mean simulated think time per answer in seconds
            (used by the asyncio runner; 0 disables sleeping).
        latency_jitter: Uniform jitter applied to the latency, as a fraction
            of ``annotator_latency``.
        label_noise: Per-annotator probability of flipping an answer in the
            simulated crowd (``repro.crowd.simulated_annotators``).
        seed: Seed for the per-annotator RNGs (latency jitter and noise).
    """

    num_annotators: int = 4
    redundancy: int = 1
    batch_size: int = 8
    budget: Optional[int] = None
    max_in_flight: Optional[int] = None
    annotator_latency: float = 0.02
    latency_jitter: float = 0.5
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_annotators < 1:
            raise ConfigurationError("num_annotators must be at least 1")
        if self.redundancy < 1:
            raise ConfigurationError("redundancy must be at least 1")
        if self.redundancy > self.num_annotators:
            raise ConfigurationError(
                "redundancy cannot exceed num_annotators: each vote on a "
                "question must come from a distinct annotator"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.budget is not None and self.budget <= 0:
            raise ConfigurationError("budget must be positive when given")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1 when given")
        if self.annotator_latency < 0:
            raise ConfigurationError("annotator_latency must be non-negative")
        if not 0.0 <= self.latency_jitter <= 1.0:
            raise ConfigurationError("latency_jitter must be in [0, 1]")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigurationError("label_noise must be in [0, 1]")

    @property
    def in_flight_limit(self) -> int:
        """Maximum distinct questions dispatched but not yet committed."""
        return self.max_in_flight if self.max_in_flight is not None else self.batch_size

    def with_overrides(self, **overrides: Any) -> "CrowdConfig":
        """Return a copy of this config with ``overrides`` applied."""
        try:
            return replace(self, **overrides)
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(str(exc)) from exc

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able mapping of this config (checkpoint manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "CrowdConfig":
        """Rebuild a config from :meth:`as_dict` output / a plain JSON dict."""
        try:
            return cls(**dict(mapping))
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(f"bad crowd config: {exc}") from exc


@dataclass(frozen=True)
class GatewayConfig:
    """Configuration of the HTTP gateway (``repro serve-http``).

    Attributes:
        host: Interface to bind. The default is loopback-only; bind
            ``0.0.0.0`` explicitly to serve external traffic.
        port: TCP port; ``0`` asks the OS for an ephemeral port (the bound
            port is reported on stdout and in the ``--ready-file``).
        queue_depth: Bound of each tenant's admission queue — jobs admitted
            but not yet finished. A full queue answers 429 + ``Retry-After``.
        deadline_ms: Default per-request deadline. Time a job may spend
            queued before it is cancelled with a 504; requests may lower or
            raise it per call via the ``deadline_ms`` body field.
        retry_after_s: ``Retry-After`` value (seconds) sent with 429/503.
        auth_tokens_path: JSON file mapping bearer tokens to tenant
            entitlements (see :class:`repro.gateway.auth.TokenAuthenticator`);
            ``None`` disables authentication.
        checkpoint_dir: Directory for client-requested checkpoints and the
            final drain checkpoints (created on demand).
        allow_debug_ops: Expose ``POST /tenants/{id}/debug/sleep``, which
            occupies the tenant worker for a given duration. Only for tests
            and load harnesses that need a deterministically full queue.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    queue_depth: int = 32
    deadline_ms: float = 10_000.0
    retry_after_s: int = 1
    auth_tokens_path: Optional[str] = None
    checkpoint_dir: str = "gateway-checkpoints"
    allow_debug_ops: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError("host must be a non-empty string")
        if not isinstance(self.port, int) or isinstance(self.port, bool):
            raise ConfigurationError("port must be an integer")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535] (0 = ephemeral), got {self.port}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be at least 1")
        if self.deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be positive")
        if self.retry_after_s < 1:
            raise ConfigurationError("retry_after_s must be at least 1")
        if not isinstance(self.checkpoint_dir, str) or not self.checkpoint_dir:
            raise ConfigurationError("checkpoint_dir must be a non-empty path")

    def with_overrides(self, **overrides: Any) -> "GatewayConfig":
        """Return a copy of this config with ``overrides`` applied."""
        try:
            return replace(self, **overrides)
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(str(exc)) from exc

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able mapping of this config (checkpoint manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "GatewayConfig":
        """Rebuild a config from :meth:`as_dict` output / a plain JSON dict."""
        try:
            return cls(**dict(mapping))
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(f"bad gateway config: {exc}") from exc


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of the cross-process serving fleet (``repro.fleet``).

    Attributes:
        workers: Number of worker processes. Each worker reopens the shared
            :class:`~repro.index.arena.CoverageArena` file read-only by path
            after spawn and hosts a partition of the tenants.
        start_method: ``multiprocessing`` start method. ``"fork"`` (default)
            lets workers inherit the built index/corpus substrate and the
            frozen feature matrix copy-on-write, so each sentence's features
            are computed once per *machine* — only per-tenant state is
            private per process; ``"spawn"`` gives fully independent
            interpreters that rebuild the substrate from the supervisor's
            substrate checkpoint and build their own feature matrix (more
            memory and compute, maximal isolation).
        workdir: Directory for the arena file, the substrate checkpoint, and
            worker auto-checkpoints. ``None`` uses a temporary directory
            removed when the supervisor closes.
        checkpoint_every_commits: Auto-checkpoint a tenant's overlay state
            after this many committed answers — the resume point after a
            worker crash. ``0`` disables auto-checkpoints (crashed workers
            respawn their tenants from the initial seeds).
        heartbeat_s: Liveness-monitor poll interval; a dead worker is
            respawned and its tenants restored from their last checkpoints.
        call_timeout_s: Upper bound one supervisor→worker RPC may take
            before the worker is declared wedged (kill + respawn).
    """

    workers: int = 4
    start_method: str = "fork"
    workdir: Optional[str] = None
    checkpoint_every_commits: int = 8
    heartbeat_s: float = 1.0
    call_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ConfigurationError("workers must be an integer")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.start_method not in ("fork", "spawn", "forkserver"):
            raise ConfigurationError(
                f"start_method must be one of fork/spawn/forkserver, got "
                f"{self.start_method!r}"
            )
        if self.checkpoint_every_commits < 0:
            raise ConfigurationError(
                "checkpoint_every_commits must be non-negative (0 disables)"
            )
        if self.heartbeat_s <= 0:
            raise ConfigurationError("heartbeat_s must be positive")
        if self.call_timeout_s <= 0:
            raise ConfigurationError("call_timeout_s must be positive")

    def with_overrides(self, **overrides: Any) -> "FleetConfig":
        """Return a copy of this config with ``overrides`` applied."""
        try:
            return replace(self, **overrides)
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(str(exc)) from exc

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able mapping of this config (checkpoint manifests)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "FleetConfig":
        """Rebuild a config from :meth:`as_dict` output / a plain JSON dict."""
        try:
            return cls(**dict(mapping))
        except TypeError as exc:  # unknown field name
            raise ConfigurationError(f"bad fleet config: {exc}") from exc


DEFAULT_CONFIG = DarwinConfig()
"""A shared default configuration used when callers do not supply one."""

"""The :class:`DarwinEngine` facade: declarative construction, sessions, and
checkpoint/resume for the Darwin loop.

``DarwinEngine`` subsumes the ``Darwin`` / ``LabelingSession`` entry points
behind one object with an explicit lifecycle:

* **construction** — directly from a corpus, or declaratively from a plain
  dict/JSON config via :meth:`DarwinEngine.from_config`: datasets, grammars,
  classifiers, traversals and oracles are resolved by name through
  :mod:`repro.engine.registry`, so no class imports are needed;
* **sessions** — :meth:`session` hands out a single-annotator
  :class:`~repro.core.session.LabelingSession`, :meth:`crowd` a
  :class:`~repro.crowd.CrowdCoordinator` for K concurrent annotators, and
  :meth:`run` drives a full simulated loop (optionally checkpointing every N
  answers);
* **state** — :meth:`save` serializes the entire session (index + coverage
  columns, rules, hierarchy, traversal pools, classifier scores/weights, RNG
  streams, history) into one versioned ``.npz`` checkpoint, and
  :meth:`DarwinEngine.load` rebuilds an engine that replays
  question-for-question identically to an uninterrupted run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from ..config import DEFAULT_CONFIG, CrowdConfig, DarwinConfig
from ..core.darwin import Darwin, DarwinResult
from ..core.oracle import Oracle
from ..core.session import LabelingSession
from ..errors import ConfigurationError
from ..obs import get_registry, summarize_snapshot, write_snapshot
from ..rules.heuristic import LabelingHeuristic
from ..text.corpus import Corpus
from .registry import DATASETS, GRAMMARS, ORACLES
from .state import (
    CHECKPOINT_KIND,
    ArrayBundle,
    read_checkpoint,
    read_checkpoint_summary,
    write_checkpoint,
)


def _build_grammars(config: DarwinConfig, grammar_options: Mapping[str, Mapping]) -> List:
    """Instantiate ``config.grammars`` through the grammar registry.

    The full :class:`DarwinConfig` is passed to every factory as the
    ``config`` keyword, so each factory decides for itself which config
    fields feed its defaults (tokensregex takes ``max_phrase_len``); the
    engine stays free of per-grammar special cases.
    """
    grammars = []
    for name in config.grammars:
        options = dict(grammar_options.get(name, {}))
        grammars.append(GRAMMARS.create(name, config=config, **options))
    return grammars


class DarwinEngine:
    """Versioned facade over the Darwin core.

    Args:
        corpus: The corpus to label.
        config: Run configuration; its ``grammars``/``oracle``/``traversal``/
            ``classifier.model`` fields are registry names.
        grammars: Optional pre-built grammar instances (otherwise built from
            ``config.grammars`` via the registry).
        index: Optional pre-built (or checkpoint-restored) corpus index.
        featurizer: Optional pre-fitted sentence featurizer.
        dataset_spec: ``{"name": ..., "options": {...}}`` recording how the
            corpus was loaded; stored in checkpoints so :meth:`load` can
            rebuild the corpus without help.
        grammar_options: Per-grammar constructor options keyed by registry
            name (recorded in checkpoints).
        oracle_options: Extra options for :meth:`build_oracle`.
        seeds: Default seeds for :meth:`start` — a mapping with any of
            ``rule_texts`` and ``positive_ids``.
    """

    def __init__(
        self,
        corpus: Corpus,
        config: Optional[DarwinConfig] = None,
        grammars: Optional[Sequence] = None,
        index=None,
        featurizer=None,
        dataset_spec: Optional[Mapping[str, Any]] = None,
        grammar_options: Optional[Mapping[str, Mapping]] = None,
        oracle_options: Optional[Mapping[str, Any]] = None,
        seeds: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.config = config or DEFAULT_CONFIG
        self.grammar_options: Dict[str, Dict] = {
            name: dict(options) for name, options in (grammar_options or {}).items()
        }
        self.oracle_options: Dict[str, Any] = dict(oracle_options or {})
        self.seeds: Dict[str, Any] = dict(seeds or {})
        self.dataset_spec = dict(dataset_spec) if dataset_spec else None
        self._oracle: Optional[Oracle] = None
        # Checkpoints can only rebuild grammars the registry knows how to
        # construct; explicitly-passed instances are flagged so load() can
        # demand them back instead of silently substituting defaults.
        self._grammars_explicit = grammars is not None
        if grammars is None:
            grammars = _build_grammars(self.config, self.grammar_options)
        self.darwin = Darwin(
            corpus,
            grammars=grammars,
            config=self.config,
            index=index,
            featurizer=featurizer,
        )

    # ------------------------------------------------------------ declarative
    @classmethod
    def from_config(
        cls, spec: Mapping[str, Any], corpus: Optional[Corpus] = None
    ) -> "DarwinEngine":
        """Build an engine from a plain dict/JSON config, no class imports.

        Recognized keys:

        * ``dataset`` — a registry name or ``{"name": ..., **loader options}``
          (ignored when ``corpus`` is passed explicitly);
        * ``config`` (or ``darwin``) — :class:`~repro.config.DarwinConfig`
          fields, including the ``grammars``/``oracle``/``traversal``/
          ``classifier`` name fields;
        * ``grammar_options`` — per-grammar constructor options keyed by
          registry name;
        * ``oracle_options`` — options for :meth:`build_oracle`;
        * ``seeds`` — default seeds: ``{"rule_texts": [...],
          "positive_ids": [...]}``.

        Example::

            engine = DarwinEngine.from_config({
                "dataset": {"name": "directions", "num_sentences": 500,
                            "seed": 7, "parse_trees": False},
                "config": {"budget": 20, "traversal": "hybrid",
                           "grammars": ["tokensregex"],
                           "oracle": "ground_truth",
                           "classifier": {"model": "logistic", "epochs": 15}},
                "seeds": {"rule_texts": ["best way to get to"]},
            })
        """
        if not isinstance(spec, Mapping):
            raise ConfigurationError("engine config must be a mapping")
        known_keys = {"dataset", "config", "darwin", "grammar_options",
                      "oracle_options", "seeds"}
        unknown = set(spec) - known_keys
        if unknown:
            raise ConfigurationError(
                f"unknown engine config keys: {', '.join(sorted(map(str, unknown)))}"
            )
        config_spec = spec.get("config", spec.get("darwin")) or {}
        config = (
            config_spec
            if isinstance(config_spec, DarwinConfig)
            else DarwinConfig.from_dict(config_spec)
        )
        dataset_spec = None
        if corpus is None:
            dataset = spec.get("dataset")
            if dataset is None:
                raise ConfigurationError(
                    "engine config needs a 'dataset' entry (or pass corpus=...)"
                )
            if isinstance(dataset, str):
                dataset = {"name": dataset}
            options = {k: v for k, v in dataset.items() if k != "name"}
            name = dataset.get("name")
            if not name:
                raise ConfigurationError("dataset spec needs a 'name'")
            corpus = DATASETS.create(name, **options)
            dataset_spec = {"name": name, "options": options}
        return cls(
            corpus,
            config=config,
            dataset_spec=dataset_spec,
            grammar_options=spec.get("grammar_options"),
            oracle_options=spec.get("oracle_options"),
            seeds=spec.get("seeds"),
        )

    # -------------------------------------------------------------- lifecycle
    @property
    def corpus(self) -> Corpus:
        """The corpus being labeled."""
        return self.darwin.corpus

    @property
    def started(self) -> bool:
        """True once the session has been seeded (or restored)."""
        return getattr(self.darwin, "_started", False)

    @property
    def questions_asked(self) -> int:
        """Questions answered so far in this session."""
        return len(self.darwin.history)

    def start(
        self,
        seed_rules: Optional[Sequence[LabelingHeuristic]] = None,
        seed_rule_texts: Optional[Sequence[str]] = None,
        seed_positive_ids: Optional[Sequence[int]] = None,
    ) -> "DarwinEngine":
        """Seed the session (defaults to the config's ``seeds`` entry)."""
        if not (seed_rules or seed_rule_texts or seed_positive_ids):
            seed_rule_texts = self.seeds.get("rule_texts")
            seed_positive_ids = self.seeds.get("positive_ids")
        self.darwin.start(
            seed_rules=seed_rules,
            seed_rule_texts=seed_rule_texts,
            seed_positive_ids=seed_positive_ids,
        )
        return self

    def build_oracle(self, **overrides: Any) -> Oracle:
        """Construct the configured oracle through the oracle registry."""
        options: Dict[str, Any] = {
            "precision_threshold": self.config.oracle_precision_threshold
        }
        options.update(self.oracle_options)
        options.update(overrides)
        return ORACLES.create(self.config.oracle, self.corpus, **options)

    @property
    def oracle(self) -> Oracle:
        """The engine's persistent oracle (built on first use, then reused).

        Persistence matters for stochastic oracles: one continuous RNG stream
        answers every :meth:`run` call, and :meth:`save` checkpoints the
        stream so a resumed engine's oracle picks up where it stopped —
        without this, noisy oracles would replay differently after a resume.
        """
        if self._oracle is None:
            self._oracle = self.build_oracle()
        return self._oracle

    # --------------------------------------------------------------- sessions
    def session(
        self,
        budget: Optional[int] = None,
        oracle: Optional[Oracle] = None,
        seed_rules: Optional[Sequence[LabelingHeuristic]] = None,
        seed_rule_texts: Optional[Sequence[str]] = None,
        seed_positive_ids: Optional[Sequence[int]] = None,
    ) -> LabelingSession:
        """An interactive single-annotator session over this engine.

        A fresh engine is seeded from the given seeds (or the config's
        ``seeds``); a started/restored engine continues its run in place, so
        ``DarwinEngine.load(path).session()`` picks up mid-session.
        """
        if not self.started and not (
            seed_rules or seed_rule_texts or seed_positive_ids
        ):
            seed_rule_texts = self.seeds.get("rule_texts")
            seed_positive_ids = self.seeds.get("positive_ids")
        if oracle is not None:
            # Adopt the session's oracle as the engine's persistent one (as
            # run() does) so its answering state lands in checkpoints and
            # load() can detect an oracle the config cannot rebuild.
            self._oracle = oracle
        return LabelingSession(
            self.darwin,
            budget=budget,
            oracle=oracle,
            seed_rules=seed_rules,
            seed_rule_texts=seed_rule_texts,
            seed_positive_ids=seed_positive_ids,
        )

    def crowd(self, crowd_config: Optional[CrowdConfig] = None):
        """A :class:`~repro.crowd.CrowdCoordinator` over this engine.

        The engine must be started (seed first, or load a checkpoint); the
        coordinator then serves K concurrent annotators from the shared
        session state.
        """
        from ..crowd.coordinator import CrowdCoordinator

        return CrowdCoordinator(self.darwin, crowd_config)

    def run(
        self,
        oracle: Optional[Oracle] = None,
        budget: Optional[int] = None,
        seed_rules: Optional[Sequence[LabelingHeuristic]] = None,
        seed_rule_texts: Optional[Sequence[str]] = None,
        seed_positive_ids: Optional[Sequence[int]] = None,
        evaluation_positive_ids: Optional[Set[int]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> DarwinResult:
        """Drive the loop until ``budget`` *total* questions are answered.

        Resume-aware: on an engine restored from a checkpoint the loop
        continues from the recorded history, so "run 10, checkpoint, resume
        10" asks exactly the questions an uninterrupted run of 20 asks.

        Args:
            oracle: Answering oracle (default: :meth:`build_oracle`).
            budget: Total question budget including already-answered ones
                (default ``config.budget``); must be positive.
            seed_rules / seed_rule_texts / seed_positive_ids: Seeds for a
                fresh engine (ignored when already started).
            evaluation_positive_ids: Ground truth for history records.
            checkpoint_every: Save a checkpoint after every N answers.
            checkpoint_path: Where to save checkpoints. Required with
                ``checkpoint_every``; on its own it requests one final
                checkpoint when the run ends. Either way the file holds the
                end-of-run state when :meth:`run` returns.
            metrics_out: Write a ``repro.obs`` metrics+spans snapshot JSON
                here on every checkpoint and when the run ends (enable the
                registry with :func:`repro.obs.enable` first, or the snapshot
                records only that metrics were disabled).
        """
        if budget is not None and budget < 1:
            raise ConfigurationError("budget must be positive")
        if not self.started:
            self.start(
                seed_rules=seed_rules,
                seed_rule_texts=seed_rule_texts,
                seed_positive_ids=seed_positive_ids,
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ConfigurationError("checkpoint_every must be positive")
        if checkpoint_every and not checkpoint_path:
            raise ConfigurationError("checkpoint_every requires a checkpoint_path")
        if oracle is not None:
            # An explicitly-passed oracle becomes the engine's persistent one
            # so its answering state lands in subsequent checkpoints.
            self._oracle = oracle
        oracle = self.oracle
        total_budget = self.config.budget if budget is None else budget
        darwin = self.darwin
        saved_at = -1
        while len(darwin.history) < total_budget:
            rule = darwin.propose_next()
            if rule is None:
                break
            samples = darwin.sample_for_query(rule)
            with darwin._phase("oracle_answer"):
                answer = oracle.ask(rule, samples)
            darwin.record_answer(
                rule,
                answer.is_useful,
                evaluation_positive_ids=evaluation_positive_ids,
            )
            if checkpoint_every and len(darwin.history) % checkpoint_every == 0:
                self.save(checkpoint_path)
                saved_at = len(darwin.history)
                if metrics_out:
                    write_snapshot(metrics_out)
        if checkpoint_path and saved_at != len(darwin.history):
            # The final state is always written when a checkpoint path was
            # given: with checkpoint_every, a budget that is not a multiple
            # of N (or a loop that ran out of candidates) must not leave a
            # stale file; without it, the path alone requests one end-of-run
            # checkpoint.
            self.save(checkpoint_path)
        if metrics_out:
            write_snapshot(metrics_out)
        return self.result()

    def result(self) -> DarwinResult:
        """Snapshot the session as a :class:`DarwinResult`."""
        darwin = self.darwin
        return DarwinResult(
            rule_set=darwin.rule_set,
            covered_ids=darwin.rule_set.covered_ids,
            history=list(darwin.history),
            queries_used=len(darwin.history),
            timings=darwin.stopwatch.as_dict(),
            config=self.config,
        )

    # ------------------------------------------------------------------ state
    def save(self, path: str) -> str:
        """Write the whole session to one checkpoint file; returns ``path``.

        The engine must be started. The checkpoint is self-contained when the
        engine knows its dataset spec (``from_config`` / CLI runs); engines
        built around an ad-hoc corpus save fine but need the same corpus
        passed back to :meth:`load`.
        """
        if not self.started:
            raise ConfigurationError("cannot save an engine before start()")
        bundle = ArrayBundle()
        manifest = {
            "kind": CHECKPOINT_KIND,
            "repro_version": _repro_version(),
            "config": self.config.as_dict(),
            "grammar_options": self.grammar_options,
            "oracle_options": self.oracle_options,
            "seeds": self.seeds,
            "dataset": self.dataset_spec,
            "corpus_name": self.corpus.name,
            "grammars_explicit": self._grammars_explicit,
            # The persistent oracle's answering state (RNG streams), so a
            # stochastic oracle resumes mid-stream instead of replaying from
            # its seed. The class name lets load() detect an oracle it cannot
            # rebuild from config. None when no oracle has answered yet.
            "oracle_state": (
                {
                    "class": type(self._oracle).__name__,
                    "state": self._oracle.state_dict(),
                }
                if self._oracle is not None
                else None
            ),
            "index": self.darwin.index.to_state(bundle, prefix="index/"),
            "darwin": self.darwin.to_state(bundle),
            # Informational telemetry block: the registry snapshot at save
            # time (None when metrics are disabled). Never read on restore —
            # describe_checkpoint/export-state surface it so "what has this
            # engine done" is answerable without loading the checkpoint.
            "metrics": (
                get_registry().snapshot() if get_registry().enabled else None
            ),
        }
        return write_checkpoint(path, manifest, bundle.as_mapping())

    @classmethod
    def load(
        cls,
        path: str,
        corpus: Optional[Corpus] = None,
        grammars: Optional[Sequence] = None,
        oracle: Optional[Oracle] = None,
    ) -> "DarwinEngine":
        """Rebuild a started engine from a :meth:`save` checkpoint.

        Components the checkpoint cannot reconstruct must be passed back in,
        mirroring how the engine was built: the corpus when the checkpoint
        has no dataset spec (ad-hoc corpora), the grammar instances when the
        engine was built with explicit instances rather than config names,
        and the oracle when the run used one the config cannot rebuild. Each
        missing piece raises :class:`~repro.errors.ConfigurationError` —
        loudly, because substituting a default would silently break the
        question-for-question replay guarantee. Corrupted files and
        schema-version mismatches raise the same error.
        """
        manifest, bundle = read_checkpoint(path)
        config = DarwinConfig.from_dict(manifest["config"])
        dataset_spec = manifest.get("dataset")
        if corpus is None:
            if not dataset_spec:
                raise ConfigurationError(
                    "checkpoint records no dataset spec; pass the original "
                    "corpus to DarwinEngine.load(path, corpus=...)"
                )
            corpus = DATASETS.create(
                dataset_spec["name"], **dataset_spec.get("options", {})
            )
        else:
            # A caller-supplied corpus must be the one the checkpoint was
            # taken over: every serialized sentence id refers into it, so a
            # substitute would restore silently-wrong state (or crash later
            # with an opaque shape error).
            recorded_sentences = manifest.get("index", {}).get("num_sentences")
            if recorded_sentences is not None and len(corpus) != recorded_sentences:
                raise ConfigurationError(
                    f"checkpoint was taken over a corpus of "
                    f"{recorded_sentences} sentences, but the supplied corpus "
                    f"has {len(corpus)}"
                )
            recorded_name = manifest.get("corpus_name")
            if recorded_name is not None and corpus.name != recorded_name:
                raise ConfigurationError(
                    f"checkpoint was taken over corpus {recorded_name!r}, but "
                    f"the supplied corpus is named {corpus.name!r}"
                )
        grammar_options = manifest.get("grammar_options") or {}
        if grammars is None:
            if manifest.get("grammars_explicit"):
                raise ConfigurationError(
                    "this checkpoint's engine was built with explicit grammar "
                    "instances whose options the config does not record; pass "
                    "the same instances to DarwinEngine.load(path, grammars=...)"
                )
            grammars = _build_grammars(config, grammar_options)
        from ..index.trie_index import CorpusIndex

        # The arena *file* is located by the checkpoint's reference and its
        # content digest is verified on reattach.
        index = CorpusIndex.from_state(manifest["index"], bundle, grammars)
        engine = cls(
            corpus,
            config=config,
            grammars=grammars,
            index=index,
            dataset_spec=dataset_spec,
            grammar_options=grammar_options,
            oracle_options=manifest.get("oracle_options"),
            seeds=manifest.get("seeds"),
        )
        engine._grammars_explicit = bool(manifest.get("grammars_explicit"))
        engine.darwin.restore_state(manifest["darwin"], bundle)
        engine._restore_oracle(manifest.get("oracle_state"), oracle)
        return engine

    def _restore_oracle(
        self, oracle_state: Optional[Mapping[str, Any]], oracle: Optional[Oracle]
    ) -> None:
        """Rebuild/adopt the persistent oracle and resume its RNG streams."""
        if oracle_state is None:
            self._oracle = oracle
            return
        recorded_class = oracle_state.get("class")
        if oracle is None:
            oracle = self.build_oracle()
            if recorded_class is not None and type(oracle).__name__ != recorded_class:
                raise ConfigurationError(
                    f"this checkpoint's questions were answered by a "
                    f"{recorded_class} oracle, which config.oracle="
                    f"{self.config.oracle!r} does not rebuild; pass the same "
                    f"oracle to DarwinEngine.load(path, oracle=...)"
                )
        elif recorded_class is not None and type(oracle).__name__ != recorded_class:
            raise ConfigurationError(
                f"checkpoint oracle state belongs to {recorded_class}, not "
                f"{type(oracle).__name__}; pass a matching oracle (or none, "
                f"to rebuild from config)"
            )
        oracle.load_state(oracle_state.get("state", {}))
        self._oracle = oracle

    @staticmethod
    def describe_checkpoint(path: str) -> Dict[str, Any]:
        """Human-readable summary of a checkpoint (the ``export-state`` CLI).

        Returns the manifest with bulk sections summarized (counts instead of
        full node/rule listings) plus the array inventory. Array payloads are
        not decompressed — only their ``.npy`` headers are read — so
        inspecting a large-corpus checkpoint stays cheap.
        """
        manifest, inventory = read_checkpoint_summary(path)
        darwin_state = manifest.get("darwin", {})
        index_state = manifest.get("index", {})
        store_state = index_state.get("store", {})
        summary = {
            "kind": manifest.get("kind"),
            "schema_version": manifest.get("schema_version"),
            "repro_version": manifest.get("repro_version"),
            "config": manifest.get("config"),
            "dataset": manifest.get("dataset"),
            "corpus_name": manifest.get("corpus_name"),
            "seeds": manifest.get("seeds"),
            "questions_asked": len(darwin_state.get("history", [])),
            "accepted_rules": [
                ref["e"] for ref in darwin_state.get("rule_set", {}).get("rules", [])
            ],
            "hierarchy_nodes": len(darwin_state.get("hierarchy", {}).get("nodes", [])),
            "queried": len(darwin_state.get("queried", [])),
            "in_flight": len(darwin_state.get("in_flight", [])),
            "traversal": darwin_state.get("traversal", {}).get("kind"),
            "index_nodes": len(index_state.get("nodes", [])),
            "num_sentences": index_state.get("num_sentences"),
            # "overlay" (a tenant checkpoint), "reference" (the coverage
            # columns stay in a durable arena file) or "inline" (they are
            # arrays in this checkpoint, listed under index/store/).
            "coverage_checkpoint": store_state.get("backend")
            or ("reference" if "arena" in store_state else "inline"),
            # Overlay stores (tenant checkpoints) keep their arena reference
            # one level down, on the shared base they point at.
            "arena": store_state.get("arena")
            or store_state.get("base", {}).get("arena"),
            # Digest of the embedded telemetry snapshot (questions asked,
            # retrains, phase latency, cache hit ratios); {} when the
            # checkpoint was saved with metrics disabled.
            "metrics": summarize_snapshot(manifest.get("metrics")),
            "arrays": {name: inventory[name] for name in sorted(inventory)},
        }
        return summary


def _repro_version() -> str:
    from .. import __version__

    return __version__


def export_state_json(path: str, indent: int = 2) -> str:
    """The :meth:`DarwinEngine.describe_checkpoint` summary as a JSON string."""
    return json.dumps(DarwinEngine.describe_checkpoint(path), indent=indent, sort_keys=True)

"""The end-to-end Darwin system (Algorithm 1).

:class:`Darwin` wires together the corpus index, candidate generation, the
hierarchy, a traversal strategy, the benefit classifier, and an oracle into
the interactive rule-discovery loop:

1. index the corpus (derivation sketches merged into a trie-like DAG),
2. initialize the positive set ``P`` from the seed rule(s) or seed sentences,
3. train the benefit classifier on ``P`` plus sampled presumed negatives,
4. repeat until the oracle budget is exhausted:
   a. (re)generate the candidate hierarchy when new positives arrived,
   b. let the traversal strategy pick the most beneficial candidate,
   c. ask the oracle; on YES add the rule to ``R``, grow ``P``, retrain.

Every query appends a :class:`QueryRecord` so experiments can plot coverage /
F-score against the number of questions, exactly as Figures 9 and 10 do.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from ..classifier.features import SentenceFeaturizer
from ..classifier.trainer import ClassifierTrainer
from ..config import DEFAULT_CONFIG, DarwinConfig
from ..errors import BudgetExhaustedError, ConfigurationError
from ..grammars.base import HeuristicGrammar
from ..grammars.tokensregex import TokensRegexGrammar
from ..index.coverage import batched_overlap_counts
from ..index.hierarchy import RuleHierarchy
from ..index.trie_index import CorpusIndex
from ..obs import get_registry, trace as obs_trace
from ..rules.heuristic import LabelingHeuristic
from ..rules.rule_set import RuleSet
from ..text.corpus import Corpus
from ..utils.rng import derive_rng
from ..utils.timing import Stopwatch
from .benefit import BenefitScorer
from .candidates import CandidateOptions, generate_candidates, seed_candidates
from .hierarchy_builder import attach_candidates, build_hierarchy, expand_rule_neighbourhood
from .oracle import BudgetedOracle, Oracle
from .score_update import ScoreUpdater
from .traversal.base import TraversalContext, make_traversal


@dataclass(frozen=True)
class QueryRecord:
    """One row of a Darwin run's history.

    Attributes:
        question_number: 1-based index of the oracle query.
        rule: Human-readable rule string submitted to the oracle.
        grammar: Name of the grammar the rule belongs to.
        answer: True if the oracle answered YES.
        rule_coverage: ``|C_r|`` of the submitted rule.
        covered: ``|P|`` after processing the answer.
        recall: Recall of ``P`` over ground-truth positives (0.0 if unknown).
        precision: Precision of ``P`` over ground-truth (0.0 if unknown).
        classifier_f1: F1 of the benefit classifier at this point (0.0 if
            ground truth is unavailable).
    """

    question_number: int
    rule: str
    grammar: str
    answer: bool
    rule_coverage: int
    covered: int
    recall: float
    precision: float
    classifier_f1: float


@dataclass
class DarwinResult:
    """Output of a Darwin run.

    Attributes:
        rule_set: The accepted rules ``R`` (with coverage).
        covered_ids: The union coverage ``P``.
        history: Per-query records (coverage / F-score curves).
        queries_used: Number of oracle queries consumed.
        timings: Wall-clock breakdown per phase — ``Stopwatch.as_dict``
            blocks of ``{"total", "count", "mean"}`` seconds keyed by phase
            name (index build, hierarchy, traversal...).
        config: The configuration used for the run.
    """

    rule_set: RuleSet
    covered_ids: Set[int]
    history: List[QueryRecord]
    queries_used: int
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    config: DarwinConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    @property
    def final_recall(self) -> float:
        """Recall of ``P`` after the last query (0.0 with no queries)."""
        return self.history[-1].recall if self.history else 0.0

    @property
    def final_f1(self) -> float:
        """Classifier F1 after the last query (0.0 with no queries)."""
        return self.history[-1].classifier_f1 if self.history else 0.0

    def recall_curve(self) -> List[float]:
        """Recall after each question (Figures 9a-d / 10a)."""
        return [record.recall for record in self.history]

    def f1_curve(self) -> List[float]:
        """Classifier F1 after each question (Figures 9e-h / 10b)."""
        return [record.classifier_f1 for record in self.history]

    def accepted_rules(self) -> List[str]:
        """Rendered strings of the accepted rules in acceptance order."""
        return self.rule_set.describe()


class Darwin:
    """Adaptive rule discovery over a text corpus.

    .. deprecated:: 1.1
        ``Darwin`` remains fully supported as the in-process core, but new
        code should enter through :class:`repro.engine.DarwinEngine`, which
        adds declarative construction (``from_config``), checkpoint/resume
        (``save``/``load``), and session handles (``session``/``crowd``) on
        top of this class. ``Darwin`` is kept importable as the thin
        compatibility entry point.

    Args:
        corpus: The corpus to label.
        grammars: Heuristic grammars to search over (default: TokensRegex).
        config: Run configuration (:class:`DarwinConfig`).
        index: Optionally a pre-built corpus index (reused across runs in the
            experiments, mirroring the paper's one-off index construction).
        featurizer: Optionally a pre-fitted sentence featurizer.
    """

    def __init__(
        self,
        corpus: Corpus,
        grammars: Optional[Sequence[HeuristicGrammar]] = None,
        config: Optional[DarwinConfig] = None,
        index: Optional[CorpusIndex] = None,
        featurizer: Optional[SentenceFeaturizer] = None,
    ) -> None:
        self.corpus = corpus
        self.config = config or DEFAULT_CONFIG
        self.grammars: List[HeuristicGrammar] = list(
            grammars or [TokensRegexGrammar(max_phrase_len=self.config.max_phrase_len)]
        )
        if not self.grammars:
            raise ConfigurationError("at least one grammar is required")
        self.stopwatch = Stopwatch()
        # Telemetry (repro.obs): instruments are resolved once here, so every
        # hot-path site below is a single method call — a no-op when the
        # process default is the NullRegistry. The label is "tenant" because
        # a solo engine is the one-tenant case; TenantPool.spawn() overwrites
        # obs_label with the tenant id.
        self.obs_label = corpus.name
        registry = get_registry()
        self._obs = registry
        self._obs_phase = registry.histogram(
            "darwin_phase_seconds",
            "Wall-clock seconds per Darwin loop phase",
            labels=("phase",),
        )
        _questions = registry.counter(
            "darwin_questions_total",
            "Oracle answers applied to the rule set",
            labels=("answer",),
        )
        self._obs_answer_yes = _questions.labels(answer="yes")
        self._obs_answer_no = _questions.labels(answer="no")
        registry.register_collector(self._collect_obs_gauges)
        if index is not None:
            self.index = index
        else:
            with self._phase("index_build"):
                self.index = CorpusIndex.build(
                    corpus,
                    self.grammars,
                    max_depth=self.config.max_sketch_depth,
                    min_coverage=self.config.min_coverage,
                    arena_path=self.config.index.arena_path,
                )
        if featurizer is not None:
            self.featurizer = featurizer
        else:
            with self._phase("embeddings"):
                self.featurizer = SentenceFeaturizer.fit(
                    corpus,
                    embedding_dim=self.config.classifier.embedding_dim,
                    seed=self.config.classifier.seed,
                )
        self._rng = derive_rng(self.config.seed, "darwin", corpus.name)
        # Ground truth is immutable per corpus; compute it once instead of
        # re-scanning every sentence on every oracle answer.
        self._truth_ids: Optional[Set[int]] = (
            corpus.positive_ids() if corpus.has_labels() else None
        )

        # Mutable per-run state (populated by start()).
        self.rule_set = RuleSet()
        self.positive_ids: Set[int] = set()
        self.trainer: Optional[ClassifierTrainer] = None
        self.benefit: Optional[BenefitScorer] = None
        self.updater: Optional[ScoreUpdater] = None
        self.hierarchy: Optional[RuleHierarchy] = None
        self.traversal = None
        self.history: List[QueryRecord] = []
        self._in_flight: Set[LabelingHeuristic] = set()
        self._started = False
        self._ref_cache: Dict[tuple, LabelingHeuristic] = {}

    # ------------------------------------------------------------- telemetry
    @contextmanager
    def _phase(self, name: str, phase: Optional[str] = None) -> Iterator[object]:
        """Stopwatch + span + per-phase latency histogram in one wrapper.

        ``name`` keys the stopwatch (the historical timing names); ``phase``
        overrides the telemetry label where the observability vocabulary
        differs (e.g. stopwatch ``traversal`` is phase ``propose``). Yields
        the open span so callers can annotate it.
        """
        label = phase or name
        with self.stopwatch.measure(name), obs_trace(
            f"darwin.{label}", tenant=self.obs_label
        ) as span:
            start = time.perf_counter()
            try:
                yield span
            finally:
                self._obs_phase.labels(phase=label).observe(
                    time.perf_counter() - start
                )

    def _collect_obs_gauges(self) -> None:
        """Pull collector: re-express live engine state as labeled gauges.

        Registered weakly on the registry at construction; runs only when a
        snapshot or Prometheus exposition is rendered, never on the hot path.
        """
        registry = self._obs

        def gauge(name: str, help_text: str, value: float) -> None:
            registry.gauge(name, help_text, labels=("tenant",)).labels(
                tenant=self.obs_label
            ).set(float(value))

        gauge("tenant_questions", "Questions answered this session",
              len(self.history))
        gauge("tenant_rules_accepted", "Rules currently in the accepted set",
              len(self.rule_set))
        gauge("tenant_covered_positives", "Distinct positive sentence ids in P",
              len(self.positive_ids))
        gauge("tenant_in_flight", "Dispatched but unanswered proposals",
              len(self._in_flight))
        if self.trainer is not None:
            gauge("tenant_retrains", "Classifier retrains this session",
                  self.trainer.retrain_count)
        store = self.index.store
        stats = store.stats()
        gauge("coverage_interned", "Distinct interned coverages",
              stats.get("num_interned", 0.0))
        gauge("coverage_resident_bytes", "Heap bytes held by coverage columns",
              stats.get("resident_coverage_bytes", 0.0))
        for key in ("shared_routed", "local_routed", "local_interned"):
            if key in stats:  # overlay backend only
                gauge(f"overlay_{key}",
                      "Overlay intern() routing (see OverlayCoverageStore)",
                      stats[key])
        fstats = self.featurizer.stats()
        gauge("feature_cache_hits", "Feature rows served from the frozen store",
              fstats["hits"])
        gauge("feature_cache_misses", "Feature rows computed", fstats["misses"])
        gauge("feature_cache_entries", "Feature rows in the frozen store",
              fstats["entries"])
        gauge("feature_cache_nbytes", "Frozen feature store resident bytes",
              fstats["nbytes"])

    # ------------------------------------------------------------------ setup
    def parse_seed_rule(self, text: str, grammar_name: Optional[str] = None) -> LabelingHeuristic:
        """Parse a human-written seed rule string into a labeling heuristic."""
        grammar = self._grammar_by_name(grammar_name)
        expression = grammar.parse(text)
        coverage = self.index.coverage_of_expression(
            grammar.name, expression, self.corpus
        )
        return LabelingHeuristic(grammar=grammar, expression=expression).with_coverage(coverage)

    def _grammar_by_name(self, grammar_name: Optional[str]) -> HeuristicGrammar:
        if grammar_name is None:
            return self.grammars[0]
        for grammar in self.grammars:
            if grammar.name == grammar_name:
                return grammar
        raise ConfigurationError(f"unknown grammar {grammar_name!r}")

    def start(
        self,
        seed_rules: Optional[Sequence[LabelingHeuristic]] = None,
        seed_rule_texts: Optional[Sequence[str]] = None,
        seed_positive_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Initialize a run from seed rules and/or seed positive sentences.

        At least one source of seeds is required; the paper assumes the seed
        generates at least two positive instances.
        """
        rules: List[LabelingHeuristic] = list(seed_rules or [])
        for text in seed_rule_texts or []:
            rules.append(self.parse_seed_rule(text))
        rules = seed_candidates(self.index, rules) if rules else []

        self.rule_set = RuleSet()
        self.positive_ids = set()
        for rule in rules:
            self.rule_set.add(rule)
            self.positive_ids.update(rule.coverage)
        if seed_positive_ids:
            self.positive_ids.update(int(i) for i in seed_positive_ids)
        if not self.positive_ids:
            raise ConfigurationError(
                "seeds produced no positive instances; provide a seed rule with "
                "non-empty coverage or explicit seed sentence ids"
            )

        self.trainer = ClassifierTrainer(
            self.corpus, self.featurizer, config=self.config.classifier
        )
        self.benefit = BenefitScorer(
            scores=self.trainer.score_corpus(), covered_ids=self.positive_ids
        )
        self.updater = ScoreUpdater(
            self.trainer, self.benefit, retrain_every=self.config.retrain_every
        )
        with self._phase("initial_training"):
            self.updater.initialize(self.positive_ids)

        with self._phase("hierarchy_generation"):
            self.hierarchy = self._build_hierarchy()

        seeds_for_traversal = rules or self._fallback_seed_rules()
        context = TraversalContext(
            hierarchy=self.hierarchy,
            benefit=self.benefit,
            neighbours=self._neighbour_provider,
            benefit_cutoff=self.config.benefit_cutoff,
        )
        self.traversal = make_traversal(
            self.config.traversal, context, seeds_for_traversal, tau=self.config.tau
        )
        self.history = []
        self._in_flight = set()
        self._started = True

    def _fallback_seed_rules(self) -> List[LabelingHeuristic]:
        """When only seed sentences are given, derive seed rules from them."""
        ranked = self.index.top_by_overlap(self.positive_ids, limit=5)
        if not ranked:
            raise ConfigurationError(
                "could not derive seed rules from the given seed sentences"
            )
        return [self.index.heuristic(key) for key, _ in ranked]

    # -------------------------------------------------------------- internals
    def _build_hierarchy(self) -> RuleHierarchy:
        options = CandidateOptions(
            num_candidates=self.config.num_candidates,
            min_coverage=self.config.min_coverage,
        )
        candidates = generate_candidates(self.index, self.positive_ids, options)
        return build_hierarchy(
            candidates, index=self.index, covered_ids=self.rule_set.covered_mask
        )

    def _refresh_hierarchy_incremental(self, new_positive_ids: Set[int]) -> RuleHierarchy:
        """Update the live hierarchy after new positives instead of rebuilding.

        Only index nodes whose overlap with ``P`` changed — exactly those
        covering one of the newly accepted positives, found via the index's
        sentence→keys inverted map — are (re)considered as candidates. The
        existing hierarchy is then cleaned of rules that no longer add
        coverage. Per accepted rule this costs time proportional to the new
        positives' sketch sizes, not to regenerating ``num_candidates``
        heuristics from scratch (the ``"full"`` mode).
        """
        hierarchy = self.hierarchy
        if hierarchy is None or not new_positive_ids:
            return self._build_hierarchy()
        affected: Set = set()
        for sentence_id in new_positive_ids:
            affected.update(self.index.keys_covering(sentence_id))
        queried_keys = {
            (rule.grammar.name, rule.expression)
            for rule in self.traversal.context.queried
        } if self.traversal is not None else set()
        candidates: List[LabelingHeuristic] = []
        for key in affected:
            node = self.index.node(key)
            if node.count < self.config.min_coverage:
                continue
            if key in queried_keys:
                continue
            rule = self.index.heuristic(key)
            if rule in hierarchy:
                continue
            candidates.append(rule)
        # Drop exhausted rules first so freed slots count against the cap.
        hierarchy.cleanup(self.rule_set.covered_mask)
        # Mirror the full path's constraints: highest positive-overlap first,
        # skip coverage-duplicates of existing candidates (diversity), and
        # never grow the hierarchy past num_candidates.
        positives_mask = self.benefit.covered_mask if self.benefit is not None else None
        overlaps: Dict[LabelingHeuristic, int] = {}
        if positives_mask is not None:
            # One fused kernel over every view-backed candidate instead of a
            # mask probe per rule inside the sort key.
            viewed = [r for r in candidates if r.coverage_view is not None]
            if viewed:
                counts = batched_overlap_counts(
                    [r.coverage_view for r in viewed], positives_mask
                )
                overlaps = dict(zip(viewed, counts.tolist()))
        def overlap(rule: LabelingHeuristic) -> int:
            cached = overlaps.get(rule)
            if cached is not None:
                return cached
            view = rule.coverage_view
            if view is not None and positives_mask is not None:
                return view.overlap_with(positives_mask)
            return len(set(rule.coverage) & self.positive_ids)
        candidates.sort(key=lambda r: (-overlap(r), -r.coverage_size, r.render()))
        seen_coverages = {
            rule.coverage_view if rule.coverage_view is not None
            else frozenset(rule.coverage)
            for rule in hierarchy.rules()
        }
        budget = max(0, self.config.num_candidates - len(hierarchy))
        fresh: List[LabelingHeuristic] = []
        for rule in candidates:
            if len(fresh) >= budget:
                break
            signature = rule.coverage_view or frozenset(rule.coverage)
            if signature in seen_coverages:
                continue
            seen_coverages.add(signature)
            fresh.append(rule)
        attach_candidates(hierarchy, fresh)
        return hierarchy

    def _neighbour_provider(self, rule: LabelingHeuristic, direction: str) -> List[LabelingHeuristic]:
        return expand_rule_neighbourhood(
            rule,
            self.index,
            direction,
            corpus=self.corpus,
            min_coverage=self.config.min_coverage,
        )

    def sample_for_query(self, rule: LabelingHeuristic) -> List[int]:
        """Sentence ids shown to the annotator as examples for ``rule``."""
        coverage = sorted(rule.coverage)
        if len(coverage) <= self.config.oracle_sample_size:
            return coverage
        chosen = self._rng.choice(
            len(coverage), size=self.config.oracle_sample_size, replace=False
        )
        return [coverage[i] for i in sorted(chosen)]

    # ------------------------------------------------------------------- step
    def propose_next(self) -> Optional[LabelingHeuristic]:
        """The next rule Darwin would submit to the oracle (None if exhausted).

        Rules marked in-flight (dispatched but unanswered) are never proposed
        again, so repeated calls interleaved with :meth:`mark_in_flight` yield
        distinct questions.
        """
        self._require_started()
        if self.updater.needs_hierarchy_refresh:
            with self._phase("hierarchy_generation", phase="hierarchy_refresh"):
                if self.config.hierarchy_refresh == "incremental":
                    self.hierarchy = self._refresh_hierarchy_incremental(
                        self.updater.pending_new_positive_ids
                    )
                else:
                    self.hierarchy = self._build_hierarchy()
            self.traversal.on_hierarchy_update(self.hierarchy)
            self.updater.acknowledge_hierarchy_refresh()
        with self._phase("traversal", phase="propose"):
            return self.traversal.propose()

    # ------------------------------------------------- concurrent dispatch API
    @property
    def in_flight(self) -> Set[LabelingHeuristic]:
        """Rules dispatched to annotators but not yet answered (a copy)."""
        return set(self._in_flight)

    def mark_in_flight(self, rule: LabelingHeuristic) -> None:
        """Reserve ``rule`` so subsequent proposals never duplicate it.

        In-flight rules join the traversal's queried set (every selection path
        filters on it); :meth:`apply_answer` finalizes the reservation and
        :meth:`release_in_flight` cancels it.
        """
        self._require_started()
        self.traversal.context.queried.add(rule)
        self._in_flight.add(rule)

    def release_in_flight(self, rule: LabelingHeuristic) -> None:
        """Cancel an in-flight reservation, making the rule proposable again."""
        if rule in self._in_flight:
            self._in_flight.discard(rule)
            self.traversal.context.queried.discard(rule)

    def propose_batch(self, limit: int) -> List[LabelingHeuristic]:
        """Up to ``limit`` distinct rules, each marked in-flight.

        This is the propose-many half of the crowd coordinator's contract:
        every returned rule is reserved until answered (or released), so two
        annotators can never be asked to verify the same proposal.
        """
        proposals: List[LabelingHeuristic] = []
        for _ in range(max(0, limit)):
            rule = self.propose_next()
            if rule is None:
                break
            self.mark_in_flight(rule)
            proposals.append(rule)
        return proposals

    # ------------------------------------------------------------ answer flow
    def apply_answer(
        self,
        rule: LabelingHeuristic,
        is_useful: bool,
        defer_update: bool = False,
    ) -> None:
        """Commit an oracle answer to the rule set and traversal state.

        With ``defer_update=True`` an accepted rule still joins ``R`` and
        grows ``P`` immediately (so later proposals see the new coverage), but
        the classifier retrain and hierarchy-refresh signal are buffered until
        :meth:`flush_updates` — the batched-apply half of the crowd
        coordinator's contract.
        """
        self._require_started()
        self.traversal.context.queried.add(rule)
        self._in_flight.discard(rule)
        if is_useful:
            self._obs_answer_yes.inc()
            new_positives = rule.new_positives(self.positive_ids)
            self.rule_set.add(rule)
            self.positive_ids.update(rule.coverage)
            with self._phase("score_update", phase="apply"):
                self.updater.on_accept(
                    self.positive_ids, new_positives, defer=defer_update
                )
        else:
            self._obs_answer_no.inc()
            self.updater.on_reject()
        self.traversal.feedback(rule, is_useful)

    def flush_updates(self) -> int:
        """Apply deferred retrain/refresh work; returns answers flushed."""
        self._require_started()
        with self._phase("score_update", phase="flush"):
            return self.updater.flush(self.positive_ids)

    @property
    def pending_update_count(self) -> int:
        """Accepted answers applied with ``defer_update`` and not yet flushed."""
        return self.updater.pending_update_count if self.updater else 0

    def log_answer(
        self,
        rule: LabelingHeuristic,
        is_useful: bool,
        evaluation_positive_ids: Optional[Set[int]] = None,
    ) -> QueryRecord:
        """Append (and return) the history record for an applied answer."""
        self._require_started()
        truth = evaluation_positive_ids
        if truth is None:
            truth = self._truth_ids
        recall = self.rule_set.recall(truth) if truth else 0.0
        precision = self.rule_set.precision(truth) if truth else 0.0
        f1 = self.updater.classifier_f1(truth) if truth else 0.0
        record = QueryRecord(
            question_number=len(self.history) + 1,
            rule=rule.render(),
            grammar=rule.grammar.name,
            answer=is_useful,
            rule_coverage=rule.coverage_size,
            covered=self.rule_set.coverage_size(),
            recall=recall,
            precision=precision,
            classifier_f1=f1,
        )
        self.history.append(record)
        return record

    def record_answer(
        self,
        rule: LabelingHeuristic,
        is_useful: bool,
        evaluation_positive_ids: Optional[Set[int]] = None,
        defer_update: bool = False,
    ) -> QueryRecord:
        """Incorporate an oracle answer and append a history record."""
        self.apply_answer(rule, is_useful, defer_update=defer_update)
        return self.log_answer(
            rule, is_useful, evaluation_positive_ids=evaluation_positive_ids
        )

    def _require_started(self) -> None:
        if not self._started:
            raise ConfigurationError("call start() with seeds before stepping Darwin")

    # ---------------------------------------------------------- state protocol
    def resolve_rule_ref(self, ref: Dict[str, str]) -> LabelingHeuristic:
        """Rebuild the :class:`LabelingHeuristic` a checkpoint ref names.

        The coverage representation matches what the live run held: rules
        materialized by the corpus index come back with the interned coverage
        view (shared identity and all), rules the index never saw are
        re-evaluated by a corpus scan into a frozenset — exactly the two
        paths proposals take in a running session.
        """
        cache_key = (ref["g"], ref["e"])
        cached = self._ref_cache.get(cache_key)
        if cached is not None:
            return cached
        grammar = self._grammar_by_name(ref["g"])
        expression = grammar.parse(ref["e"])
        coverage = self.index.coverage_of_expression(
            grammar.name, expression, self.corpus
        )
        rule = LabelingHeuristic(
            grammar=grammar, expression=expression
        ).with_coverage(coverage)
        self._ref_cache[cache_key] = rule
        return rule

    def to_state(self, bundle) -> Dict[str, object]:
        """Serialize every mutable piece of the session (started runs only).

        Covers the ISSUE's state layers: accepted rules and ``P``, the live
        hierarchy (nodes *and* edges), the traversal pools/mode, the queried
        and in-flight bookkeeping, the score updater's counters, the trainer
        (scores, RNG, classifier weights), the query history, and Darwin's
        own sampling RNG. Arrays go into ``bundle``; the returned dict is
        JSON-able. In-flight rules are recorded but deliberately restored as
        *released*: their votes are lost with the process, so a resumed
        session must be free to re-propose them.
        """
        from ..engine.state import rng_state_dict

        self._require_started()
        positive_ids = np.fromiter(
            sorted(self.positive_ids), dtype=np.int64, count=len(self.positive_ids)
        )
        in_flight = set(self._in_flight)
        queried = [
            rule.ref()
            for rule in self.traversal.context.queried
            if rule not in in_flight
        ]
        return {
            "positive_ids": bundle.put("darwin/positive_ids", positive_ids),
            "rule_set": self.rule_set.to_state(),
            "hierarchy": self.hierarchy.to_state(),
            # The registry key the traversal was created under (custom
            # strategies may not define a `name` class attribute, and their
            # class-level name need not match their registration).
            "traversal": {
                "kind": self.config.traversal,
                "state": self.traversal.state_dict(),
            },
            "queried": sorted(queried, key=lambda ref: (ref["g"], ref["e"])),
            # repro: allow[RPR002] in-flight rules are recorded for manifest
            # inspection only; restore releases them (votes die with the
            # process) so a resumed session may re-propose them
            "in_flight": sorted(
                (rule.ref() for rule in in_flight),
                key=lambda ref: (ref["g"], ref["e"]),
            ),
            "updater": self.updater.state_dict(),
            "trainer": self.trainer.state_dict(bundle, prefix="darwin/trainer/"),
            "history": [asdict(record) for record in self.history],
            "rng": rng_state_dict(self._rng),
        }

    def restore_state(self, state: Dict[str, object], bundle) -> None:
        """Restore :meth:`to_state` output, leaving this instance started.

        The restored session replays question-for-question identically to
        the uninterrupted run: hierarchy, pools, scores, counters, and RNG
        streams all resume from their serialized values.
        """
        from ..engine.state import restore_rng

        resolve = self.resolve_rule_ref
        self.positive_ids = set(
            np.asarray(bundle.get(state["positive_ids"])).tolist()
        )
        self.rule_set = RuleSet.from_state(state["rule_set"], resolve)
        self.trainer = ClassifierTrainer(
            self.corpus, self.featurizer, config=self.config.classifier
        )
        self.trainer.load_state(state["trainer"], bundle)
        self.benefit = BenefitScorer(
            scores=self.trainer.score_corpus(), covered_ids=self.positive_ids
        )
        self.updater = ScoreUpdater(
            self.trainer, self.benefit, retrain_every=self.config.retrain_every
        )
        self.updater.load_state(state["updater"])
        self.hierarchy = RuleHierarchy.from_state(state["hierarchy"], resolve)
        traversal_state = state["traversal"]
        context = TraversalContext(
            hierarchy=self.hierarchy,
            benefit=self.benefit,
            neighbours=self._neighbour_provider,
            benefit_cutoff=self.config.benefit_cutoff,
        )
        seeds = [
            resolve(ref)
            for ref in traversal_state["state"].get("seed_rules", [])
        ]
        self.traversal = make_traversal(
            traversal_state["kind"], context, seeds, tau=self.config.tau
        )
        self.traversal.load_state(traversal_state["state"], resolve)
        context.queried = {resolve(ref) for ref in state.get("queried", [])}
        self.history = [QueryRecord(**record) for record in state.get("history", [])]
        self._in_flight = set()
        self._rng = restore_rng(state["rng"])
        self._started = True

    # -------------------------------------------------------------------- run
    def run(
        self,
        oracle: Oracle,
        seed_rules: Optional[Sequence[LabelingHeuristic]] = None,
        seed_rule_texts: Optional[Sequence[str]] = None,
        seed_positive_ids: Optional[Sequence[int]] = None,
        budget: Optional[int] = None,
        evaluation_positive_ids: Optional[Set[int]] = None,
    ) -> DarwinResult:
        """Run the full interactive loop against ``oracle``.

        Args:
            oracle: The rule verifier (wrapped in a budget tracker here).
            seed_rules / seed_rule_texts / seed_positive_ids: Seeds; see
                :meth:`start`.
            budget: Overrides ``config.budget`` when given; must be positive.
            evaluation_positive_ids: Ground-truth positives used only for the
                history records (defaults to the corpus labels when present).

        Returns:
            A :class:`DarwinResult` with the accepted rules and history.
        """
        if budget is not None and budget < 1:
            raise ConfigurationError("budget must be positive")
        self.start(
            seed_rules=seed_rules,
            seed_rule_texts=seed_rule_texts,
            seed_positive_ids=seed_positive_ids,
        )
        query_budget = self.config.budget if budget is None else budget
        if isinstance(oracle, BudgetedOracle):
            # A pre-wrapped oracle carries its own budget, which may disagree
            # with budget/config.budget; honour the tighter of the two so the
            # loop condition and the wrapper can never get out of sync.
            budgeted = oracle
            query_budget = min(query_budget, budgeted.budget)
        else:
            budgeted = BudgetedOracle(base=oracle, budget=query_budget)
        while budgeted.queries_used < query_budget:
            rule = self.propose_next()
            if rule is None:
                break
            samples = self.sample_for_query(rule)
            try:
                with self._phase("oracle_answer"):
                    answer = budgeted.ask(rule, samples)
            except BudgetExhaustedError:
                break
            self.record_answer(
                rule, answer.is_useful, evaluation_positive_ids=evaluation_positive_ids
            )
        return DarwinResult(
            rule_set=self.rule_set,
            covered_ids=self.rule_set.covered_ids,
            history=list(self.history),
            queries_used=budgeted.queries_used,
            timings=self.stopwatch.as_dict(),
            config=self.config,
        )

"""Tests for the end-to-end Darwin loop, ScoreUpdater, and the session API.

The whole suite runs once per arena placement (temporary and durable path)
via the shared ``placed_directions_index`` conftest fixture."""

from __future__ import annotations

import pytest

from repro.classifier.trainer import ClassifierTrainer
from repro.config import ClassifierConfig, DarwinConfig
from repro.core.benefit import BenefitScorer
from repro.core.darwin import Darwin, DarwinResult
from repro.core.oracle import GroundTruthOracle
from repro.core.score_update import ScoreUpdater
from repro.core.session import LabelingSession
from repro.engine import DarwinEngine
from repro.errors import ConfigurationError
from repro.rules.heuristic import LabelingHeuristic

import numpy as np


class TestScoreUpdater:
    def _make(self, corpus, featurizer):
        trainer = ClassifierTrainer(
            corpus, featurizer, config=ClassifierConfig(epochs=10, embedding_dim=30)
        )
        benefit = BenefitScorer(np.full(len(corpus), 0.5), set())
        return ScoreUpdater(trainer, benefit, retrain_every=1), trainer, benefit

    def test_initialize_trains_and_updates_benefit(self, directions_corpus, directions_featurizer):
        updater, trainer, benefit = self._make(directions_corpus, directions_featurizer)
        positives = set(sorted(directions_corpus.positive_ids())[:5])
        updater.initialize(positives)
        assert trainer.retrain_count == 1
        assert benefit.covered_ids == positives

    def test_on_accept_retrains_and_flags_refresh(self, directions_corpus, directions_featurizer):
        updater, trainer, _ = self._make(directions_corpus, directions_featurizer)
        positives = set(sorted(directions_corpus.positive_ids())[:5])
        updater.initialize(positives)
        more = positives | set(sorted(directions_corpus.positive_ids())[5:8])
        updater.on_accept(more, new_positive_ids=more - positives)
        assert trainer.retrain_count == 2
        assert updater.needs_hierarchy_refresh
        updater.acknowledge_hierarchy_refresh()
        assert not updater.needs_hierarchy_refresh

    def test_on_accept_without_new_positives_skips_retrain(self, directions_corpus, directions_featurizer):
        updater, trainer, _ = self._make(directions_corpus, directions_featurizer)
        positives = set(sorted(directions_corpus.positive_ids())[:5])
        updater.initialize(positives)
        updater.on_accept(positives, new_positive_ids=set())
        assert trainer.retrain_count == 1
        assert not updater.needs_hierarchy_refresh

    def test_on_reject_is_noop(self, directions_corpus, directions_featurizer):
        updater, trainer, _ = self._make(directions_corpus, directions_featurizer)
        positives = set(sorted(directions_corpus.positive_ids())[:5])
        updater.initialize(positives)
        updater.on_reject()
        assert trainer.retrain_count == 1

    def test_retrain_every_validation(self, directions_corpus, directions_featurizer):
        trainer = ClassifierTrainer(directions_corpus, directions_featurizer)
        benefit = BenefitScorer(np.zeros(len(directions_corpus)), set())
        with pytest.raises(ValueError):
            ScoreUpdater(trainer, benefit, retrain_every=0)


@pytest.fixture(scope="module")
def darwin_run(directions_corpus, placed_directions_index, directions_featurizer):
    """One shared Darwin(HS) run on the small directions corpus."""
    config = DarwinConfig(
        budget=25, num_candidates=250, min_coverage=2,
        classifier=ClassifierConfig(epochs=30, embedding_dim=30),
    )
    darwin = Darwin(
        directions_corpus, config=config,
        index=placed_directions_index, featurizer=directions_featurizer,
    )
    oracle = GroundTruthOracle(directions_corpus)
    result = darwin.run(oracle, seed_rule_texts=["best way to get to"])
    return darwin, result


class TestDarwinRun:
    def test_result_structure(self, darwin_run):
        _, result = darwin_run
        assert isinstance(result, DarwinResult)
        assert result.queries_used <= 25
        assert len(result.history) == result.queries_used
        assert len(result.recall_curve()) == len(result.history)

    def test_history_is_monotone_in_coverage(self, darwin_run):
        _, result = darwin_run
        covered = [record.covered for record in result.history]
        assert covered == sorted(covered)
        recalls = result.recall_curve()
        assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_discovers_rules_beyond_seed(self, darwin_run):
        _, result = darwin_run
        assert len(result.rule_set) >= 2
        assert result.final_recall > 0.3

    def test_accepted_rules_are_precise(self, darwin_run, directions_corpus):
        _, result = darwin_run
        positives = directions_corpus.positive_ids()
        for rule in result.rule_set.rules:
            assert rule.precision(positives) >= 0.8

    def test_covered_ids_match_rule_set(self, darwin_run):
        _, result = darwin_run
        union = set()
        for rule in result.rule_set.rules:
            union |= set(rule.coverage)
        assert union == result.covered_ids

    def test_question_numbers_sequential(self, darwin_run):
        _, result = darwin_run
        numbers = [record.question_number for record in result.history]
        assert numbers == list(range(1, len(numbers) + 1))

    def test_timings_recorded(self, darwin_run):
        _, result = darwin_run
        assert "traversal" in result.timings
        assert "initial_training" in result.timings


class TestDarwinValidation:
    def test_requires_seeds(self, directions_corpus, placed_directions_index, directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        with pytest.raises(ConfigurationError):
            darwin.start()

    def test_empty_seed_coverage_rejected(self, directions_corpus, placed_directions_index,
                                          directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        with pytest.raises(ConfigurationError):
            darwin.start(seed_rule_texts=["zzzz qqqq xxxx"])

    def test_stepping_before_start_rejected(self, directions_corpus, placed_directions_index,
                                            directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        with pytest.raises(ConfigurationError):
            darwin.propose_next()

    def test_unknown_grammar_rejected(self, directions_corpus, placed_directions_index,
                                      directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        with pytest.raises(ConfigurationError):
            darwin.parse_seed_rule("best way", grammar_name="nope")

    def test_seed_positive_ids_only(self, directions_corpus, placed_directions_index,
                                    directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        positives = sorted(directions_corpus.positive_ids())[:4]
        oracle = GroundTruthOracle(directions_corpus)
        result = darwin.run(oracle, seed_positive_ids=positives, budget=8)
        assert result.queries_used <= 8
        assert result.rule_set.coverage_size() >= 0

    def test_prewrapped_oracle_budget_reconciled(self, directions_corpus, placed_directions_index,
                                                 directions_featurizer, fast_config):
        """Regression: a pre-wrapped BudgetedOracle whose internal budget
        differs from budget/config.budget must be bounded by the min of the
        two, not by whichever the loop condition happened to use."""
        from repro.core.oracle import BudgetedOracle

        # Internal budget (3) tighter than the explicit budget (10).
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        wrapped = BudgetedOracle(base=GroundTruthOracle(directions_corpus), budget=3)
        result = darwin.run(wrapped, seed_rule_texts=["best way to get to"], budget=10)
        assert result.queries_used <= 3

        # Explicit budget (2) tighter than the internal budget (50).
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        wrapped = BudgetedOracle(base=GroundTruthOracle(directions_corpus), budget=50)
        result = darwin.run(wrapped, seed_rule_texts=["best way to get to"], budget=2)
        assert result.queries_used <= 2
        assert wrapped.queries_used <= 2

    @pytest.mark.parametrize("entry_point", ["darwin", "engine", "session"])
    def test_zero_budget_rejected(self, entry_point, directions_corpus, directions_index,
                                  directions_featurizer, fast_config):
        """Regression: ``budget=0`` used to fall back to ``config.budget``
        (``budget or config.budget``) and ask the whole config budget."""
        oracle = GroundTruthOracle(directions_corpus)
        seeds = ["best way to get to"]
        components = dict(config=fast_config, index=directions_index,
                          featurizer=directions_featurizer)
        with pytest.raises(ConfigurationError, match="budget"):
            if entry_point == "darwin":
                Darwin(directions_corpus, **components).run(
                    oracle, seed_rule_texts=seeds, budget=0
                )
            elif entry_point == "engine":
                DarwinEngine(directions_corpus, **components).run(
                    oracle, budget=0, seed_rule_texts=seeds
                )
            else:
                LabelingSession(
                    Darwin(directions_corpus, **components), budget=0,
                    seed_rule_texts=seeds, oracle=oracle,
                )

    def test_incremental_and_full_refresh_both_work(self, directions_corpus, placed_directions_index,
                                                    directions_featurizer):
        results = {}
        for mode in ("incremental", "full"):
            config = DarwinConfig(
                budget=10, num_candidates=150, hierarchy_refresh=mode,
                classifier=ClassifierConfig(epochs=15, embedding_dim=30),
            )
            darwin = Darwin(
                directions_corpus, config=config,
                index=placed_directions_index, featurizer=directions_featurizer,
            )
            results[mode] = darwin.run(
                GroundTruthOracle(directions_corpus),
                seed_rule_texts=["best way to get to"],
            )
        for result in results.values():
            assert result.queries_used <= 10
            positives = directions_corpus.positive_ids()
            for rule in result.rule_set.rules:
                assert rule.precision(positives) >= 0.8

    def test_local_and_universal_traversals_run(self, directions_corpus, placed_directions_index,
                                                directions_featurizer):
        for traversal in ("local", "universal"):
            config = DarwinConfig(
                budget=8, num_candidates=150, traversal=traversal,
                classifier=ClassifierConfig(epochs=15, embedding_dim=30),
            )
            darwin = Darwin(
                directions_corpus, config=config,
                index=placed_directions_index, featurizer=directions_featurizer,
            )
            result = darwin.run(
                GroundTruthOracle(directions_corpus),
                seed_rule_texts=["best way to get to"],
            )
            assert result.queries_used <= 8


class TestLabelingSession:
    def test_interactive_flow(self, directions_corpus, placed_directions_index,
                              directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        session = LabelingSession(
            darwin, budget=5, seed_rule_texts=["best way to get to"]
        )
        truth = directions_corpus.positive_ids()
        answered = 0
        while not session.is_done:
            question = session.next_question()
            if question is None:
                break
            assert question.rendered
            assert question.example_texts
            # Answer like the ground-truth oracle would.
            precision = question.rule.precision(truth)
            session.submit_answer(precision >= 0.8)
            answered += 1
        assert answered == session.questions_asked <= 5
        result = session.result()
        assert result.queries_used == answered
        assert len(result.history) == answered

    def test_submit_without_question_raises(self, directions_corpus, placed_directions_index,
                                            directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        session = LabelingSession(darwin, budget=3, seed_rule_texts=["best way to get to"])
        from repro.errors import BudgetExhaustedError

        with pytest.raises(BudgetExhaustedError):
            session.submit_answer(True)

    def test_next_question_idempotent_until_answered(self, directions_corpus, placed_directions_index,
                                                     directions_featurizer, fast_config):
        darwin = Darwin(
            directions_corpus, config=fast_config,
            index=placed_directions_index, featurizer=directions_featurizer,
        )
        session = LabelingSession(darwin, budget=3, seed_rule_texts=["best way to get to"])
        first = session.next_question()
        second = session.next_question()
        assert first is second

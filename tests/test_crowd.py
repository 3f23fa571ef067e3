"""Tests for the crowd session service (coordinator, runner, batching).

The whole suite runs once per arena placement (temporary and durable path)
via the shared ``placed_directions_index`` conftest fixture."""

from __future__ import annotations

import pytest

from repro.config import ClassifierConfig, CrowdConfig, DarwinConfig
from repro.core.darwin import Darwin
from repro.core.oracle import (
    BudgetedOracle,
    GroundTruthOracle,
    MajorityVoteOracle,
    NoisyOracle,
    OracleQuery,
)
from repro.core.session import LabelingSession
from repro.crowd import CrowdCoordinator, run_crowd, simulated_annotators
from repro.errors import ConfigurationError, OracleError

SEED_RULE = "best way to get to"


def make_darwin(corpus, index, featurizer, config=None, **overrides):
    config = config or DarwinConfig(
        budget=15, num_candidates=200, min_coverage=2,
        classifier=ClassifierConfig(epochs=20, embedding_dim=30),
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return Darwin(corpus, config=config, index=index, featurizer=featurizer)


def make_coordinator(corpus, index, featurizer, crowd_config, **overrides):
    darwin = make_darwin(corpus, index, featurizer, **overrides)
    darwin.start(seed_rule_texts=[SEED_RULE])
    return CrowdCoordinator(darwin, crowd_config), darwin


class TestCrowdConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrowdConfig(num_annotators=0)
        with pytest.raises(ConfigurationError):
            CrowdConfig(num_annotators=2, redundancy=3)
        with pytest.raises(ConfigurationError):
            CrowdConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            CrowdConfig(annotator_latency=-0.1)
        with pytest.raises(ConfigurationError):
            CrowdConfig(label_noise=1.5)
        with pytest.raises(ConfigurationError):
            CrowdConfig(budget=0)

    def test_in_flight_limit_defaults_to_batch_size(self):
        assert CrowdConfig(batch_size=6).in_flight_limit == 6
        assert CrowdConfig(batch_size=6, max_in_flight=2).in_flight_limit == 2

    def test_with_overrides(self):
        config = CrowdConfig().with_overrides(redundancy=3)
        assert config.redundancy == 3
        with pytest.raises(ConfigurationError):
            CrowdConfig().with_overrides(not_a_field=1)


class TestMajorityVoteOracleDeterminism:
    def _queries(self, darwin, count=6):
        darwin.start(seed_rule_texts=[SEED_RULE])
        queries = []
        for rule in darwin.propose_batch(count):
            queries.append(OracleQuery(
                rule=rule,
                sample_ids=tuple(darwin.sample_for_query(rule)),
                rendered=rule.render(),
            ))
        return queries

    def _crowd(self, corpus, seed):
        return MajorityVoteOracle([
            NoisyOracle(GroundTruthOracle(corpus), flip_prob=0.35,
                        seed=seed * 100 + i)
            for i in range(3)
        ])

    def test_seeded_crowds_answer_identically(self, directions_corpus,
                                              placed_directions_index,
                                              directions_featurizer):
        queries = self._queries(
            make_darwin(directions_corpus, placed_directions_index, directions_featurizer)
        )
        first = self._crowd(directions_corpus, seed=3)
        second = self._crowd(directions_corpus, seed=3)
        answers_a = [first.answer(q).is_useful for q in queries]
        answers_b = [second.answer(q).is_useful for q in queries]
        assert answers_a == answers_b
        assert first.total_votes == second.total_votes == 3 * len(queries)

    def test_different_seeds_can_disagree(self, directions_corpus,
                                          placed_directions_index,
                                          directions_featurizer):
        queries = self._queries(
            make_darwin(directions_corpus, placed_directions_index, directions_featurizer),
            count=8,
        )
        # With 35% flip noise per annotator, at least the vote streams (not
        # necessarily the majorities) must differ across seeds.
        streams = []
        for seed in (1, 2):
            crowd = self._crowd(directions_corpus, seed=seed)
            streams.append([
                [a.answer(q).is_useful for a in crowd.annotators] for q in queries
            ])
        assert streams[0] != streams[1]


class TestDispatch:
    def test_no_duplicate_in_flight_proposals(self, directions_corpus,
                                              placed_directions_index,
                                              directions_featurizer):
        coordinator, _ = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=4, redundancy=1, batch_size=4),
        )
        assignments = [coordinator.request_question(i) for i in range(4)]
        assert all(a is not None for a in assignments)
        rules = [a.rule for a in assignments]
        assert len(set(rules)) == 4
        tickets = {a.ticket_id for a in assignments}
        assert len(tickets) == 4

    def test_redundant_assignment_to_distinct_annotators(self, directions_corpus,
                                                         placed_directions_index,
                                                         directions_featurizer):
        coordinator, _ = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=3, redundancy=3, batch_size=1),
        )
        a0 = coordinator.request_question(0)
        a1 = coordinator.request_question(1)
        a2 = coordinator.request_question(2)
        assert a0.ticket_id == a1.ticket_id == a2.ticket_id
        assert a0.rule == a1.rule == a2.rule
        # The same annotator never receives the same ticket twice: with the
        # in-flight limit reached, annotator 0 has nothing to do.
        assert coordinator.request_question(0) is None

    def test_propose_batch_marks_in_flight(self, directions_corpus,
                                           placed_directions_index,
                                           directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        darwin.start(seed_rule_texts=[SEED_RULE])
        batch = darwin.propose_batch(5)
        assert len(batch) == len(set(batch)) == 5
        assert darwin.in_flight == set(batch)
        # In-flight rules are reserved via the traversal's queried set;
        # releasing the reservation makes the rule proposable again.
        assert all(rule in darwin.traversal.context.queried for rule in batch)
        darwin.release_in_flight(batch[0])
        assert batch[0] not in darwin.in_flight
        assert batch[0] not in darwin.traversal.context.queried

    def test_unknown_ticket_and_annotator_rejected(self, directions_corpus,
                                                   placed_directions_index,
                                                   directions_featurizer):
        coordinator, _ = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=2, redundancy=1, batch_size=2),
        )
        with pytest.raises(ConfigurationError):
            coordinator.request_question(5)
        with pytest.raises(OracleError):
            coordinator.submit_vote(999, 0, True)
        assignment = coordinator.request_question(0)
        with pytest.raises(OracleError):
            coordinator.submit_vote(assignment.ticket_id, 1, True)  # not assigned

    def test_double_vote_rejected(self, directions_corpus, placed_directions_index,
                                  directions_featurizer):
        coordinator, _ = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=2, redundancy=2, batch_size=1),
        )
        assignment = coordinator.request_question(0)
        coordinator.submit_answer(assignment, True)
        with pytest.raises(OracleError):
            coordinator.submit_vote(assignment.ticket_id, 0, True)

    def test_budget_bounds_dispatch(self, directions_corpus, placed_directions_index,
                                    directions_featurizer):
        coordinator, _ = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=2, redundancy=1, batch_size=8, budget=3),
        )
        committed = 0
        while not coordinator.is_done:
            assignment = coordinator.request_question(committed % 2)
            if assignment is None:
                break
            if coordinator.submit_answer(assignment, True) is not None:
                committed += 1
        assert committed == coordinator.questions_committed == 3

    def test_requires_started_darwin(self, directions_corpus, placed_directions_index,
                                     directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        with pytest.raises(ConfigurationError):
            CrowdCoordinator(darwin, CrowdConfig())

    def test_transient_exhaustion_with_open_tickets_recovers(
            self, directions_corpus, placed_directions_index, directions_featurizer,
            monkeypatch):
        coordinator, darwin = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=2, redundancy=1, batch_size=4),
        )
        assignment = coordinator.request_question(0)
        assert assignment is not None
        # Simulate the traversal having nothing proposable while a question
        # is still in flight: dispatch stalls but must NOT become terminal.
        original = type(darwin).propose_next
        monkeypatch.setattr(type(darwin), "propose_next", lambda self: None)
        assert coordinator.request_question(1) is None
        assert not coordinator.is_done
        monkeypatch.setattr(type(darwin), "propose_next", original)
        # Once the open ticket commits, dispatch resumes.
        coordinator.submit_answer(assignment, True)
        assert coordinator.request_question(1) is not None


class TestRedundancyCommit:
    def _committed(self, coordinator, votes):
        """Dispatch one ticket to len(votes) annotators and vote it through."""
        record = None
        assignments = [
            coordinator.request_question(annotator_id)
            for annotator_id in range(len(votes))
        ]
        for assignment, vote in zip(assignments, votes):
            result = coordinator.submit_answer(assignment, vote)
            if result is not None:
                record = result
        return record

    def test_majority_accepts(self, directions_corpus, placed_directions_index,
                              directions_featurizer):
        coordinator, darwin = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=3, redundancy=3, batch_size=1),
        )
        before = len(darwin.rule_set)
        record = self._committed(coordinator, [True, False, True])
        assert record is not None and record.answer is True
        assert len(darwin.rule_set) == before + 1

    def test_majority_rejects(self, directions_corpus, placed_directions_index,
                              directions_featurizer):
        coordinator, darwin = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=3, redundancy=3, batch_size=1),
        )
        before = len(darwin.rule_set)
        record = self._committed(coordinator, [False, True, False])
        assert record is not None and record.answer is False
        assert len(darwin.rule_set) == before

    def test_even_redundancy_tie_counts_as_no(self, directions_corpus,
                                              placed_directions_index,
                                              directions_featurizer):
        coordinator, darwin = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=2, redundancy=2, batch_size=1),
        )
        before = len(darwin.rule_set)
        record = self._committed(coordinator, [True, False])
        assert record is not None and record.answer is False
        assert len(darwin.rule_set) == before

    def test_commit_waits_for_all_votes(self, directions_corpus,
                                        placed_directions_index,
                                        directions_featurizer):
        coordinator, _ = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=3, redundancy=3, batch_size=1),
        )
        a0 = coordinator.request_question(0)
        a1 = coordinator.request_question(1)
        assert coordinator.submit_answer(a0, True) is None
        assert coordinator.submit_answer(a1, True) is None
        assert coordinator.questions_committed == 0
        a2 = coordinator.request_question(2)
        assert coordinator.submit_answer(a2, False) is not None
        assert coordinator.questions_committed == 1


class TestBatchedRetrainEquivalence:
    @pytest.fixture(scope="class")
    def serial_run(self, directions_corpus, placed_directions_index,
                   directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        result = darwin.run(GroundTruthOracle(directions_corpus),
                            seed_rule_texts=[SEED_RULE])
        return darwin, result

    def test_batch_one_matches_serial_history(self, serial_run,
                                              directions_corpus,
                                              placed_directions_index,
                                              directions_featurizer):
        serial_darwin, serial_result = serial_run
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        outcome = run_crowd(
            darwin,
            config=CrowdConfig(num_annotators=4, redundancy=1, batch_size=1,
                               annotator_latency=0.0),
            seed_rule_texts=[SEED_RULE],
        )
        result = outcome.darwin_result
        assert result.accepted_rules() == serial_result.accepted_rules()
        assert [
            (h.rule, h.answer, h.covered, h.recall, h.classifier_f1)
            for h in result.history
        ] == [
            (h.rule, h.answer, h.covered, h.recall, h.classifier_f1)
            for h in serial_result.history
        ]
        assert result.queries_used == serial_result.queries_used
        assert darwin.trainer.retrain_count == serial_darwin.trainer.retrain_count

    def test_batching_amortizes_retrains(self, serial_run, directions_corpus,
                                         placed_directions_index,
                                         directions_featurizer):
        serial_darwin, serial_result = serial_run
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        outcome = run_crowd(
            darwin,
            config=CrowdConfig(num_annotators=4, redundancy=1, batch_size=5,
                               annotator_latency=0.0),
            seed_rule_texts=[SEED_RULE],
        )
        assert outcome.crowd.questions_committed == serial_result.queries_used
        assert darwin.trainer.retrain_count < serial_darwin.trainer.retrain_count
        # Batched answers still only accept precise rules under a truthful
        # crowd (the answers themselves are never batched, only the retrains).
        truth = directions_corpus.positive_ids()
        for rule in outcome.darwin_result.rule_set.rules:
            assert rule.precision(truth) >= 0.8

    def test_trailing_partial_batch_flushed_by_result(self, directions_corpus,
                                                      placed_directions_index,
                                                      directions_featurizer):
        coordinator, darwin = make_coordinator(
            directions_corpus, placed_directions_index, directions_featurizer,
            CrowdConfig(num_annotators=1, redundancy=1, batch_size=10, budget=3),
        )
        while not coordinator.is_done:
            assignment = coordinator.request_question(0)
            if assignment is None:
                break
            coordinator.submit_answer(assignment, True)
        assert darwin.pending_update_count > 0
        coordinator.result()
        assert darwin.pending_update_count == 0

    def test_noisy_crowd_runs_to_completion(self, directions_corpus,
                                            placed_directions_index,
                                            directions_featurizer):
        config = CrowdConfig(num_annotators=3, redundancy=3, batch_size=4,
                             annotator_latency=0.0, label_noise=0.2, seed=5,
                             budget=8)
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        annotators = simulated_annotators(directions_corpus, config)
        assert len(annotators) == 3
        outcome = run_crowd(darwin, config=config, annotators=annotators,
                            seed_rule_texts=[SEED_RULE])
        assert outcome.crowd.questions_committed <= 8
        assert outcome.crowd.votes_collected == \
            3 * outcome.crowd.questions_committed
        assert sum(outcome.crowd.votes_per_annotator.values()) == \
            outcome.crowd.votes_collected


class TestSessionBudgetReconciliation:
    def test_session_budget_capped_by_config(self, directions_corpus,
                                             placed_directions_index,
                                             directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)  # config.budget = 15
        session = LabelingSession(darwin, budget=50,
                                  seed_rule_texts=[SEED_RULE])
        assert session.budget == 15

    def test_session_budget_capped_by_prewrapped_oracle(self, directions_corpus,
                                                        placed_directions_index,
                                                        directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        oracle = BudgetedOracle(base=GroundTruthOracle(directions_corpus),
                                budget=4)
        session = LabelingSession(darwin, budget=10, oracle=oracle,
                                  seed_rule_texts=[SEED_RULE])
        assert session.budget == 4
        answered = 0
        while not session.is_done:
            if session.next_question() is None:
                break
            session.submit_answer()  # the attached oracle answers
            answered += 1
        assert answered == 4
        assert oracle.queries_used == 4

    def test_auto_answer_without_oracle_rejected(self, directions_corpus,
                                                 placed_directions_index,
                                                 directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        session = LabelingSession(darwin, budget=3,
                                  seed_rule_texts=[SEED_RULE])
        assert session.next_question() is not None
        with pytest.raises(ConfigurationError):
            session.submit_answer()


class TestSampleForQuery:
    def test_public_name_and_alias_agree(self, directions_corpus,
                                         placed_directions_index,
                                         directions_featurizer):
        darwin = make_darwin(directions_corpus, placed_directions_index,
                             directions_featurizer)
        darwin.start(seed_rule_texts=[SEED_RULE])
        rule = darwin.propose_next()
        sample = darwin.sample_for_query(rule)
        assert 0 < len(sample) <= darwin.config.oracle_sample_size
        assert set(sample) <= set(rule.coverage)

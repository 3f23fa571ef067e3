"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.benefit import BenefitScorer
from repro.evaluation.metrics import binary_f1, binary_precision, binary_recall
from repro.index.coverage import CoverageStore, CoverageView, membership_mask
from repro.evaluation.runner import average_curves
from repro.grammars.tokensregex import TokensRegexGrammar
from repro.index.hierarchy import RuleHierarchy
from repro.labeling.label_matrix import ABSTAIN, LabelMatrix, NEGATIVE, POSITIVE
from repro.labeling.majority_vote import majority_vote
from repro.rules.heuristic import LabelingHeuristic
from repro.text.sentence import Sentence
from repro.text.tokenizer import Tokenizer, tokenize
from repro.utils.rng import derive_rng, stable_hash

_GRAMMAR = TokensRegexGrammar(max_phrase_len=4)

tokens_strategy = st.lists(
    st.sampled_from(["best", "way", "to", "get", "shuttle", "the", "airport",
                     "from", "hotel", "order", "food", "uber", "bart"]),
    min_size=1, max_size=12,
)

text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")),
    max_size=80,
)


class TestTokenizerProperties:
    @given(text_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    def test_tokenizer_deterministic_and_lowercase(self, text):
        first = tokenize(text)
        second = tokenize(text)
        assert first == second
        assert all(token == token.lower() for token in first)

    @given(text_strategy)
    @settings(max_examples=60)
    def test_tokens_contain_no_whitespace(self, text):
        for token in Tokenizer().tokenize(text):
            assert token.strip() == token
            assert token != ""


class TestGrammarProperties:
    @given(tokens_strategy)
    @settings(max_examples=60)
    def test_enumerated_expressions_match_their_sentence(self, tokens):
        sentence = Sentence(0, " ".join(tokens), tuple(tokens))
        for expression in _GRAMMAR.enumerate_expressions(sentence, max_depth=4):
            assert _GRAMMAR.matches(expression, sentence)

    @given(tokens_strategy)
    @settings(max_examples=60)
    def test_generalization_coverage_is_monotone(self, tokens):
        """A parent (generalization) matches every sentence its child matches."""
        sentence = Sentence(0, " ".join(tokens), tuple(tokens))
        expressions = list(_GRAMMAR.enumerate_expressions(sentence, max_depth=4))
        for expression in expressions[:20]:
            for parent in _GRAMMAR.generalizations(expression):
                assert _GRAMMAR.matches(parent, sentence)

    @given(tokens_strategy, tokens_strategy)
    @settings(max_examples=60)
    def test_is_ancestor_implies_coverage_superset(self, tokens_a, tokens_b):
        sentences = [
            Sentence(0, " ".join(tokens_a), tuple(tokens_a)),
            Sentence(1, " ".join(tokens_b), tuple(tokens_b)),
        ]
        expressions = set()
        for sentence in sentences:
            expressions.update(_GRAMMAR.enumerate_expressions(sentence, max_depth=3))
        expressions = list(expressions)[:15]
        for general in expressions:
            for specific in expressions:
                if _GRAMMAR.is_ancestor(general, specific):
                    covered_specific = {
                        s.sentence_id for s in sentences if _GRAMMAR.matches(specific, s)
                    }
                    covered_general = {
                        s.sentence_id for s in sentences if _GRAMMAR.matches(general, s)
                    }
                    assert covered_specific <= covered_general


class TestMetricProperties:
    ids = st.sets(st.integers(min_value=0, max_value=30), max_size=20)

    @given(ids, ids)
    @settings(max_examples=100)
    def test_metrics_bounded(self, predicted, actual):
        for metric in (binary_precision, binary_recall, binary_f1):
            value = metric(predicted, actual)
            assert 0.0 <= value <= 1.0

    @given(ids)
    @settings(max_examples=50)
    def test_perfect_prediction_is_one(self, ids_value):
        if ids_value:
            assert binary_f1(ids_value, ids_value) == 1.0

    @given(ids, ids)
    @settings(max_examples=100)
    def test_f1_between_min_and_max_of_pr(self, predicted, actual):
        p = binary_precision(predicted, actual)
        r = binary_recall(predicted, actual)
        f1 = binary_f1(predicted, actual)
        assert f1 <= max(p, r) + 1e-12
        assert f1 >= min(p, r) - 1e-12 or f1 == 0.0


class TestBenefitProperties:
    coverage = st.sets(st.integers(min_value=0, max_value=19), min_size=1, max_size=15)
    covered = st.sets(st.integers(min_value=0, max_value=19), max_size=10)

    @given(coverage, covered, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100)
    def test_benefit_bounded_by_new_coverage(self, coverage, covered, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(20)
        scorer = BenefitScorer(scores, covered)
        rule = LabelingHeuristic(_GRAMMAR, tuple(f"t{i}" for i in sorted(coverage)))
        rule = rule.with_coverage(coverage)
        benefit = scorer.benefit(rule)
        new_count = len(coverage - covered)
        assert 0.0 <= benefit <= new_count + 1e-9
        if new_count:
            assert 0.0 <= scorer.average_benefit(rule) <= 1.0 + 1e-9
        else:
            assert benefit == 0.0

    @given(coverage, covered, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_growing_covered_set_never_increases_benefit(self, coverage, covered, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(20)
        rule = LabelingHeuristic(_GRAMMAR, tuple(f"x{i}" for i in sorted(coverage)))
        rule = rule.with_coverage(coverage)
        small = BenefitScorer(scores, covered).benefit(rule)
        grown = BenefitScorer(scores, covered | {0, 1, 2}).benefit(rule)
        assert grown <= small + 1e-9


class TestHierarchyProperties:
    @given(st.lists(st.sets(st.integers(0, 15), min_size=1, max_size=8),
                    min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_cleanup_never_removes_gainful_rules(self, coverages):
        hierarchy = RuleHierarchy()
        rules = []
        for position, coverage in enumerate(coverages):
            rule = LabelingHeuristic(_GRAMMAR, (f"rule{position}",)).with_coverage(coverage)
            if hierarchy.add(rule):
                rules.append(rule)
        covered = {0, 1, 2, 3}
        hierarchy.cleanup(covered)
        for rule in rules:
            gains = set(rule.coverage) - covered
            assert (rule in hierarchy) == bool(gains)


class TestCoverageStoreProperties:
    """Set-semantics equivalence of the columnar coverage layer (interned
    int32 arrays) against plain Python sets on random universes."""

    ids = st.sets(st.integers(min_value=0, max_value=200), max_size=60)

    @given(ids)
    @settings(max_examples=100)
    def test_to_set_round_trip(self, ids_value):
        store = CoverageStore(universe_size=201)
        view = store.intern(ids_value)
        assert isinstance(view, CoverageView)
        assert view.to_set() == frozenset(ids_value)
        assert set(view) == ids_value
        assert len(view) == view.count == len(ids_value)
        for sid in ids_value:
            assert sid in view
        assert -1 not in view
        assert 10_000 not in view

    @given(ids, ids)
    @settings(max_examples=100)
    def test_intersection_union_subtract_counts(self, a, b):
        store = CoverageStore(universe_size=201)
        view_a, view_b = store.intern(a), store.intern(b)
        assert view_a.intersect_count(view_b) == len(a & b)
        assert view_a.intersect_count(b) == len(a & b)
        assert set(view_a.subtract(view_b).tolist()) == a - b
        assert set(view_a.subtract(b).tolist()) == a - b
        union = store.union([view_a, view_b])
        assert union.to_set() == frozenset(a | b)
        mask = store.new_mask()
        view_a.union_into(mask)
        view_b.union_into(mask)
        assert store.from_mask(mask) is union  # interning dedups content

    @given(ids, ids)
    @settings(max_examples=100)
    def test_set_protocol_matches_frozenset(self, a, b):
        store = CoverageStore(universe_size=201)
        view = store.intern(a)
        other = frozenset(b)
        assert (view == other) == (frozenset(a) == other)
        assert (view <= other) == (frozenset(a) <= other)
        assert (view & other) == (frozenset(a) & other)
        assert (view | other) == (frozenset(a) | other)
        assert (view - other) == (frozenset(a) - other)
        assert (other - view) == (other - frozenset(a))
        assert hash(view) == hash(frozenset(a))

    @given(ids, ids)
    @settings(max_examples=100)
    def test_mask_primitives(self, a, b):
        store = CoverageStore(universe_size=201)
        view = store.intern(a)
        mask = membership_mask(b, 201)
        assert view.overlap_with(mask) == len(a & b)
        assert set(view.new_ids_given(mask).tolist()) == a - b

    @given(ids)
    @settings(max_examples=60)
    def test_interning_is_identity_preserving(self, ids_value):
        store = CoverageStore(universe_size=201)
        first = store.intern(ids_value)
        second = store.intern(sorted(ids_value))
        third = store.intern(np.array(sorted(ids_value), dtype=np.int64))
        assert first is second is third
        assert store.intern(first) is first

    @given(st.sets(st.integers(min_value=0, max_value=63), min_size=16, max_size=64),
           st.sets(st.integers(min_value=0, max_value=63), min_size=16, max_size=64))
    @settings(max_examples=60)
    def test_dense_bitset_path_agrees_with_sets(self, a, b):
        # Dense coverages (at least a quarter of a 64-id universe) intersect
        # as exactly as sparse ones.
        store = CoverageStore(universe_size=64)
        view_a, view_b = store.intern(a), store.intern(b)
        assert view_a.intersect_count(view_b) == len(a & b)
        assert view_b.intersect_count(view_a) == len(a & b)


class TestLabelMatrixProperties:
    votes_strategy = st.lists(
        st.lists(st.sampled_from([POSITIVE, NEGATIVE, ABSTAIN]), min_size=2, max_size=4),
        min_size=1, max_size=30,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)

    @given(votes_strategy)
    @settings(max_examples=80)
    def test_majority_vote_bounded_and_abstain_default(self, rows):
        matrix = LabelMatrix(np.array(rows))
        probabilities = majority_vote(matrix, default=0.5)
        assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))
        for row_index, row in enumerate(rows):
            if all(v == ABSTAIN for v in row):
                assert probabilities[row_index] == 0.5


class TestUtilsProperties:
    @given(st.lists(st.lists(st.floats(0, 1), min_size=1, max_size=10),
                    min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_average_curves_bounded(self, curves):
        averaged = average_curves(curves)
        assert len(averaged) == max(len(c) for c in curves)
        assert all(0.0 <= v <= 1.0 for v in averaged)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=80)
    def test_stable_hash_consistency(self, a, b):
        assert stable_hash(a, b) == stable_hash(a, b)
        if a != b:
            assert stable_hash(a) != stable_hash(b)

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=10))
    @settings(max_examples=50)
    def test_derive_rng_reproducible(self, seed, namespace):
        a = derive_rng(seed, namespace).integers(0, 10**6)
        b = derive_rng(seed, namespace).integers(0, 10**6)
        assert a == b

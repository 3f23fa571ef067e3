"""Tests for derivation sketches and the corpus index."""

from __future__ import annotations

import pytest

from repro.errors import CorpusIndexError
from repro.grammars.tokensregex import TokensRegexGrammar
from repro.index.sketch import build_sketch
from repro.index.trie_index import CorpusIndex, ROOT_KEY


class TestDerivationSketch:
    def test_sketch_contains_all_ngrams(self, example1_corpus, tokensregex):
        sentence = example1_corpus[0]
        sketch = build_sketch(sentence, [tokensregex], max_depth=3)
        assert (tokensregex.name, ("best", "way", "to")) in sketch
        assert (tokensregex.name, ("what",)) in sketch
        assert len(sketch) > len(sentence)

    def test_sketch_depth_limits(self, example1_corpus, tokensregex):
        sentence = example1_corpus[0]
        shallow = build_sketch(sentence, [tokensregex], max_depth=1)
        deep = build_sketch(sentence, [tokensregex], max_depth=4)
        assert len(shallow) < len(deep)

    def test_sketch_records_complexity(self, example1_corpus, tokensregex):
        sketch = build_sketch(example1_corpus[0], [tokensregex], max_depth=3)
        assert sketch.entries[(tokensregex.name, ("best", "way"))] == 2

    def test_keys_listing(self, example1_corpus, tokensregex):
        sketch = build_sketch(example1_corpus[0], [tokensregex], max_depth=2)
        assert set(sketch.keys()) == set(sketch.entries)


class TestCorpusIndexConstruction:
    def test_counts_match_figure6(self, example1_index, tokensregex):
        # Figure 6: 'way to' is contained in both s1 and s4 (ids 0 and 3).
        assert example1_index.coverage((tokensregex.name, ("way", "to"))) >= {0, 3}
        assert example1_index.count((tokensregex.name, ("best", "way"))) == 3

    def test_root_covers_all_sentences(self, example1_index, example1_corpus):
        assert example1_index.coverage(ROOT_KEY) == set(range(len(example1_corpus)))
        assert example1_index.num_sentences == len(example1_corpus)

    def test_children_are_specializations(self, example1_index, tokensregex):
        key = (tokensregex.name, ("best", "way"))
        for child in example1_index.children_of(key):
            child_coverage = example1_index.coverage(child)
            assert child_coverage <= example1_index.coverage(key)

    def test_parent_coverage_superset(self, example1_index):
        for key in example1_index.keys():
            node = example1_index.node(key)
            for parent_key in node.parents:
                if parent_key == ROOT_KEY:
                    continue
                assert node.sentence_ids <= example1_index.coverage(parent_key)

    def test_unigrams_hang_off_root(self, example1_index, tokensregex):
        root_children = example1_index.root_children()
        assert (tokensregex.name, ("best",)) in root_children

    def test_requires_grammar(self):
        with pytest.raises(CorpusIndexError):
            CorpusIndex([])

    def test_duplicate_grammar_names_rejected(self, tokensregex):
        with pytest.raises(CorpusIndexError):
            CorpusIndex([tokensregex, TokensRegexGrammar()])

    def test_min_coverage_prunes(self, example1_corpus, tokensregex):
        full = CorpusIndex.build(example1_corpus, [tokensregex], max_depth=4)
        pruned = CorpusIndex.build(
            example1_corpus, [tokensregex], max_depth=4, min_coverage=2
        )
        assert len(pruned) < len(full)
        for key in pruned.keys():
            assert pruned.count(key) >= 2

    def test_sealed_index_hands_out_interned_views(self, example1_index, tokensregex):
        from repro.index.coverage import CoverageView

        assert example1_index.sealed
        key = (tokensregex.name, ("best", "way"))
        first = example1_index.coverage(key)
        second = example1_index.coverage(key)
        assert isinstance(first, CoverageView)
        assert first is second  # no per-call copies
        # Nodes with identical coverage share one interned view.
        rule = example1_index.heuristic(key)
        assert rule.coverage_view is first

    def test_keys_covering_matches_node_coverage(self, example1_index):
        for sid in range(example1_index.num_sentences):
            for key in example1_index.keys_covering(sid):
                assert sid in example1_index.coverage(key)
        # Inverted map and forward lists agree on total size.
        total_forward = sum(
            example1_index.count(key) for key in example1_index.keys()
        )
        total_inverted = sum(
            len(example1_index.keys_covering(sid))
            for sid in range(example1_index.num_sentences)
        )
        assert total_forward == total_inverted


class TestCorpusIndexLookups:
    def test_heuristic_materialization(self, example1_index, tokensregex):
        key = (tokensregex.name, ("best", "way", "to"))
        rule = example1_index.heuristic(key)
        assert rule.coverage == frozenset({0, 2, 5})
        assert rule.render() == "best way to"

    def test_heuristic_for_root_rejected(self, example1_index):
        with pytest.raises(CorpusIndexError):
            example1_index.heuristic(ROOT_KEY)

    def test_missing_node_raises(self, example1_index, tokensregex):
        with pytest.raises(CorpusIndexError):
            example1_index.node((tokensregex.name, ("zzz",)))
        assert example1_index.count((tokensregex.name, ("zzz",))) == 0

    def test_lookup_and_scan_fallback(self, example1_index, example1_corpus, tokensregex):
        assert example1_index.lookup(tokensregex.name, ("best",)) is not None
        # A phrase longer than the sketch depth is not indexed but can be
        # resolved through a corpus scan.
        long_phrase = ("what", "is", "the", "best", "way", "to", "get")
        assert example1_index.lookup(tokensregex.name, long_phrase) is None
        coverage = example1_index.coverage_of_expression(
            tokensregex.name, long_phrase, example1_corpus
        )
        assert coverage == {0}

    def test_unknown_grammar_rejected(self, example1_index):
        with pytest.raises(CorpusIndexError):
            example1_index.key_for("nope", ("a",))

    def test_top_by_coverage(self, example1_index):
        top = example1_index.top_by_coverage(5)
        counts = [example1_index.count(k) for k in top]
        assert counts == sorted(counts, reverse=True)
        assert len(top) == 5

    def test_top_by_overlap(self, example1_index):
        ranked = example1_index.top_by_overlap({0, 3}, limit=10)
        assert ranked
        overlaps = [overlap for _, overlap in ranked]
        assert overlaps == sorted(overlaps, reverse=True)

    def test_stats(self, example1_index):
        stats = example1_index.stats()
        assert stats["num_sentences"] == 6
        assert stats["max_coverage"] >= stats["mean_coverage"]

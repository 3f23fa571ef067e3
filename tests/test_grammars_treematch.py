"""Tests for the TreeMatch grammar."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import RuleParseError
from repro.grammars.treematch import TreeMatchGrammar, TreePattern
from repro.text.corpus import Corpus


@pytest.fixture(scope="module")
def parsed_corpus() -> Corpus:
    texts = [
        "Is Uber the best way to our hotel?",
        "The composer wrote a famous symphony in Vienna.",
        "Maria is a scientist at the city hospital.",
        "The outbreak was caused by contaminated water.",
    ]
    return Corpus.from_texts(texts, [True, False, False, False], name="treematch-corpus")


class TestTreePattern:
    def test_leaf_requires_label(self):
        with pytest.raises(RuleParseError):
            TreePattern(kind="label", label=None)

    def test_binary_requires_children(self):
        with pytest.raises(RuleParseError):
            TreePattern(kind="child", left=TreePattern.leaf("a"), right=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RuleParseError):
            TreePattern(kind="sibling", left=TreePattern.leaf("a"), right=TreePattern.leaf("b"))

    def test_size_and_labels(self):
        pattern = TreePattern.conjunction(
            TreePattern.child(TreePattern.leaf("is"), TreePattern.leaf("NOUN")),
            TreePattern.leaf("job"),
        )
        assert pattern.size() == 5
        assert pattern.labels() == ["is", "NOUN", "job"]

    def test_hashable_and_equal(self):
        a = TreePattern.child(TreePattern.leaf("a"), TreePattern.leaf("b"))
        b = TreePattern.child(TreePattern.leaf("a"), TreePattern.leaf("b"))
        assert a == b
        assert hash(a) == hash(b)


class TestMatching:
    def setup_method(self):
        self.grammar = TreeMatchGrammar()

    def test_leaf_matches_token_and_pos(self, parsed_corpus):
        way_leaf = self.grammar.parse("way")
        noun_leaf = self.grammar.parse("NOUN")
        assert self.grammar.matches(way_leaf, parsed_corpus[0])
        assert self.grammar.matches(noun_leaf, parsed_corpus[0])

    def test_child_pattern(self, parsed_corpus):
        # 'way' heads 'best' (adjective attaches to following noun).
        pattern = self.grammar.parse("way/best")
        assert self.grammar.matches(pattern, parsed_corpus[0])

    def test_descendant_pattern_looser_than_child(self, parsed_corpus):
        sentence = parsed_corpus[0]
        for node in range(len(sentence.tree)):
            for descendant in sentence.tree.descendants(node):
                child_pattern = TreePattern.child(
                    TreePattern.leaf(sentence.tree.tokens[node]),
                    TreePattern.leaf(sentence.tree.tokens[descendant]),
                )
                desc_pattern = TreePattern.descendant(
                    TreePattern.leaf(sentence.tree.tokens[node]),
                    TreePattern.leaf(sentence.tree.tokens[descendant]),
                )
                if self.grammar.matches(child_pattern, sentence):
                    assert self.grammar.matches(desc_pattern, sentence)

    def test_conjunction(self, parsed_corpus):
        pattern = self.grammar.parse("way ∧ hotel")
        assert self.grammar.matches(pattern, parsed_corpus[0])
        pattern_missing = self.grammar.parse("way ∧ volcano")
        assert not self.grammar.matches(pattern_missing, parsed_corpus[0])

    def test_no_tree_means_no_match(self):
        from repro.text.sentence import Sentence

        sentence = Sentence(0, "a b", ("a", "b"))
        assert not self.grammar.matches(TreePattern.leaf("a"), sentence)

    def test_invalid_expression_type(self, parsed_corpus):
        with pytest.raises(RuleParseError):
            self.grammar.matches(("not", "a", "pattern"), parsed_corpus[0])


class TestEnumeration:
    def test_enumerated_patterns_all_match(self, parsed_corpus):
        grammar = TreeMatchGrammar(max_pattern_size=5)
        sentence = parsed_corpus[1]
        patterns = list(grammar.enumerate_expressions(sentence, max_depth=5))
        assert patterns
        for pattern in patterns:
            assert grammar.matches(pattern, sentence)

    def test_enumeration_includes_child_patterns(self, parsed_corpus):
        grammar = TreeMatchGrammar(max_pattern_size=3)
        patterns = list(grammar.enumerate_expressions(parsed_corpus[2], max_depth=5))
        assert any(p.kind == "child" for p in patterns)

    def test_size_one_limit_yields_only_leaves(self, parsed_corpus):
        grammar = TreeMatchGrammar(max_pattern_size=1)
        patterns = list(grammar.enumerate_expressions(parsed_corpus[0], max_depth=1))
        assert patterns
        assert all(p.kind == "label" for p in patterns)

    def test_pos_leaves_can_be_disabled(self, parsed_corpus):
        grammar = TreeMatchGrammar(include_pos_leaves=False)
        patterns = list(grammar.enumerate_expressions(parsed_corpus[0], max_depth=1))
        labels = {p.label for p in patterns if p.kind == "label"}
        assert "NOUN" not in labels


class TestNeighbourhoodAndParsing:
    def setup_method(self):
        self.grammar = TreeMatchGrammar()

    def test_generalizations_of_child_pattern(self):
        pattern = self.grammar.parse("way/best")
        parents = self.grammar.generalizations(pattern)
        rendered = {self.grammar.render(p) for p in parents}
        assert "way" in rendered
        assert "best" in rendered
        assert "way//best" in rendered

    def test_generalizations_of_leaf_empty(self):
        assert self.grammar.generalizations(TreePattern.leaf("way")) == []

    def test_specializations_match_witness(self, parsed_corpus):
        sentence = parsed_corpus[2]
        children = self.grammar.specializations(TreePattern.leaf("is"), sentence)
        assert children
        for child in children:
            assert self.grammar.matches(child, sentence)

    def test_parse_and_render_round_trip(self):
        for text in ("way/to", "is//NOUN", "way/to ∧ hotel", "/is/NOUN ∧ job"):
            pattern = self.grammar.parse(text)
            rendered = self.grammar.render(pattern)
            reparsed = self.grammar.parse(rendered)
            assert reparsed == pattern

    def test_parse_rejects_empty(self):
        with pytest.raises(RuleParseError):
            self.grammar.parse("")
        with pytest.raises(RuleParseError):
            self.grammar.parse("a ∧ ")

    def test_complexity_is_ast_size(self):
        assert self.grammar.complexity(self.grammar.parse("way/to")) == 3

    def test_formal_grammar_contains_operators(self):
        cfg = self.grammar.formal_grammar(["way", "NOUN"])
        assert "/" in cfg.terminals and "//" in cfg.terminals


# A 29-token sentence: its dependency edges give more than the 50 child
# patterns that the conjunction step takes.
LONG_TEXT = (
    "the old driver in the small town quickly took the fastest shuttle from the "
    "airport to the big hotel near the river because the late train was "
    "cancelled today"
)

_ENUMERATE = f"""
from repro.grammars.treematch import TreeMatchGrammar
from repro.text.corpus import Corpus
grammar = TreeMatchGrammar()
sentence = Corpus.from_texts([{LONG_TEXT!r}])[0]
for pattern in grammar.enumerate_expressions(sentence, 10):
    print(grammar.render(pattern))
"""


def test_enumeration_does_not_depend_on_hash_order():
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        result = subprocess.run(
            [sys.executable, "-c", _ENUMERATE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(result.stdout.splitlines())
    assert len(outputs[0]) > 1000
    assert outputs[0] == outputs[1]

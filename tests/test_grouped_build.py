"""The grouped index build against the per-sentence fold.

:meth:`CorpusIndex.build` builds one derivation sketch per distinct sentence
and lays out every key's sentence ids with numpy. Its reference is the
public per-sentence fold: :func:`build_sketch` + :meth:`CorpusIndex.add_sketch`
for every sentence in id order, then ``link_structure``, ``prune`` and
``seal``. Every sealed column must be identical, key order included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.grammars import TokensRegexGrammar, TreeMatchGrammar
from repro.index import CorpusIndex, trie_index
from repro.index.coverage import CoverageStore
from repro.index.nodetable import NodeTable
from repro.index.sketch import build_sketch
from repro.text import Corpus, Sentence


def fold_build(corpus, grammars, max_depth=10, min_coverage=1):
    """The per-sentence fold: one sketch per sentence, merged in id order."""
    index = CorpusIndex(grammars, max_depth=max_depth, min_coverage=min_coverage)
    for sentence in corpus:
        index.add_sketch(build_sketch(sentence, grammars, max_depth))
    index.link_structure()
    if min_coverage > 1:
        index.prune(min_coverage)
    index.seal()
    return index


def assert_same_index(built, folded):
    assert built.sealed and folded.sealed
    assert built.num_sentences == folded.num_sentences
    assert list(built.nodes) == list(folded.nodes)
    assert built._key_list == folded._key_list
    for key, node in folded.nodes.items():
        other = built.nodes[key]
        assert other.depth == node.depth
        assert other.sentence_ids.ids.dtype == np.int32
        np.testing.assert_array_equal(other.sentence_ids.ids, node.sentence_ids.ids)
        assert other.sentence_ids.slot == node.sentence_ids.slot
        assert other.parents == node.parents
        assert other.children == node.children
    for column in (
        "_node_counts", "_node_ranks", "_rank_order", "_inv_nodes", "_inv_starts",
    ):
        np.testing.assert_array_equal(getattr(built, column), getattr(folded, column))
    assert built.store.universe_size == folded.store.universe_size
    assert built.store.num_interned == folded.store.num_interned
    for name in NodeTable.__slots__:
        mine = getattr(built.node_table, name)
        theirs = getattr(folded.node_table, name)
        if isinstance(theirs, np.ndarray):
            np.testing.assert_array_equal(mine, theirs)
        else:
            assert mine == theirs


@pytest.fixture
def sketch_calls(monkeypatch):
    """Texts of the sentences the build makes a sketch of, in call order."""
    calls = []

    def counting_build_sketch(sentence, grammars, max_depth):
        calls.append(sentence.text)
        return build_sketch(sentence, grammars, max_depth)

    monkeypatch.setattr(trie_index, "build_sketch", counting_build_sketch)
    return calls


@pytest.mark.parametrize("min_coverage", [1, 2])
def test_directions_with_many_repeats(min_coverage):
    corpus = load_dataset("directions", num_sentences=2000, seed=3, parse_trees=False)
    assert len({s.text for s in corpus}) < len(corpus) // 2
    grammars = [TokensRegexGrammar()]
    assert_same_index(
        CorpusIndex.build(corpus, grammars, min_coverage=min_coverage),
        fold_build(corpus, grammars, min_coverage=min_coverage),
    )


@pytest.mark.parametrize("min_coverage", [1, 2])
def test_tokensregex_and_treematch(min_coverage):
    corpus = load_dataset("tweets", num_sentences=120, seed=5)
    assert len({s.text for s in corpus}) < len(corpus)
    grammars = [TokensRegexGrammar(), TreeMatchGrammar()]
    assert_same_index(
        CorpusIndex.build(corpus, grammars, max_depth=6, min_coverage=min_coverage),
        fold_build(corpus, grammars, max_depth=6, min_coverage=min_coverage),
    )


@pytest.mark.parametrize("min_coverage", [1, 2])
def test_corpus_without_repeats(min_coverage, sketch_calls):
    texts = [
        "What is the best way to get to SFO airport?",
        "Is there a bart from SFO to the hotel?",
        "What is the best way to check in there?",
        "Is Uber the fastest way to get to the airport?",
        "Would Uber Eats be the fastest way to order?",
    ]
    corpus = Corpus.from_texts(texts)
    grammars = [TokensRegexGrammar(max_phrase_len=4), TreeMatchGrammar()]
    built = CorpusIndex.build(corpus, grammars, max_depth=6, min_coverage=min_coverage)
    assert sketch_calls == texts
    assert_same_index(
        built, fold_build(corpus, grammars, max_depth=6, min_coverage=min_coverage)
    )


def test_empty_token_sentences(sketch_calls):
    texts = ["", "go to the airport", "", "   ", "go to the airport"]
    corpus = Corpus.from_texts(texts)
    assert corpus[0].tokens == () and corpus[3].tokens == ()
    grammars = [TokensRegexGrammar(), TreeMatchGrammar()]
    built = CorpusIndex.build(corpus, grammars)
    assert sketch_calls == ["", "go to the airport", "   "]
    assert list(built.coverage(trie_index.ROOT_KEY)) == [0, 1, 2, 3, 4]
    assert built.keys_covering(0) == [] and built.keys_covering(3) == []
    assert_same_index(built, fold_build(corpus, grammars))


def test_equal_tokens_with_different_text_stay_separate(sketch_calls):
    texts = ["go to the airport", "go to the airport ", "go to the airport"]
    corpus = Corpus.from_texts(texts)
    assert corpus[0].tokens == corpus[1].tokens
    assert corpus[0].tags == corpus[1].tags and corpus[0].tree == corpus[1].tree
    grammars = [TokensRegexGrammar()]
    built = CorpusIndex.build(corpus, grammars)
    assert sketch_calls == texts[:2]
    assert_same_index(built, fold_build(corpus, grammars))


class LabelGuardedSentence(Sentence):
    """A sentence whose label and meta may not be read."""

    def __getattribute__(self, name):
        if name in ("label", "meta"):
            raise AssertionError(f"the index build read {name!r}")
        return super().__getattribute__(name)


def test_labels_and_meta_neither_split_groups_nor_are_read(sketch_calls):
    first = Corpus.from_texts(["take the shuttle to the hotel"])[0]
    sentences = [
        LabelGuardedSentence(
            sentence_id=sentence_id,
            text=first.text,
            tokens=first.tokens,
            tags=first.tags,
            tree=first.tree,
            label=label,
            meta=meta,
        )
        for sentence_id, (label, meta) in enumerate(
            [(True, "shuttle"), (False, "other"), (None, "")]
        )
    ]
    corpus = Corpus(sentences)
    grammars = [TokensRegexGrammar(), TreeMatchGrammar()]
    built = CorpusIndex.build(corpus, grammars)
    assert sketch_calls == [first.text]
    for key in built._key_list:
        assert list(built.coverage(key)) == [0, 1, 2]
    assert_same_index(built, fold_build(corpus, grammars))


def test_intern_still_sorts_and_dedups_int32_arrays():
    store = CoverageStore()
    try:
        unsorted = np.array([5, 1, 3, 3], dtype=np.int32)
        assert store.intern(unsorted).ids.tolist() == [1, 3, 5]
        assert unsorted.tolist() == [5, 1, 3, 3]
        increasing = np.array([1, 3, 5], dtype=np.int32)
        view = store.intern(increasing)
        assert view is store.intern([5, 3, 1])
        assert increasing.flags.writeable
    finally:
        store.close()

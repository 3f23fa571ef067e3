"""Memoised preprocessing against the per-sentence loop.

:func:`repro.text.corpus.preprocess` tokenizes, tags and parses each distinct
text once and shares the result among its repeats. Its reference is the
per-sentence tokenize/tag/parse loop kept here; every sentence must be equal
field by field, and repeats must share one tokens tuple, one tags tuple and
one tree object.
"""

from __future__ import annotations

import pytest

from repro.datasets import DATASET_NAMES, dataset_spec, load_dataset
from repro.datasets.registry import load_bank
from repro.text import Corpus, DependencyParser, PosTagger, Sentence, Tokenizer
from repro.utils.rng import derive_rng


def reference_sentences(records, tagger, parse_trees):
    """One tokenize/tag/parse per record, in record order."""
    tokenizer, parser = Tokenizer(), DependencyParser()
    sentences = []
    for sentence_id, (text, label, meta) in enumerate(records):
        tokens = tuple(tokenizer.tokenize(text))
        tags = tuple(tagger.tag(tokens))
        tree = parser.parse(tokens, tags) if parse_trees and tokens else None
        sentences.append(
            Sentence(sentence_id, text, tokens, tags, tree, label=label, meta=meta)
        )
    return sentences


def reference_records(bank, num_sentences, positive_fraction, seed):
    """The labelled ``(text, label, mode)`` records ``generate`` samples."""
    rng = derive_rng(seed, "dataset", bank.name)
    num_positive = max(2, int(round(num_sentences * positive_fraction)))
    num_negative = max(1, num_sentences - num_positive)
    records = bank._sample_class(bank.positive_modes, num_positive, rng, True)
    records += bank._sample_class(bank.negative_modes, num_negative, rng, False)
    rng.shuffle(records)
    return records


def assert_repeats_share_analysis(corpus):
    first_by_text = {}
    repeats = 0
    for sentence in corpus:
        first = first_by_text.setdefault(sentence.text, sentence)
        if first is sentence:
            continue
        repeats += 1
        assert sentence.tokens is first.tokens
        assert sentence.tags is first.tags
        assert sentence.tree is first.tree
    assert repeats


@pytest.mark.parametrize("parse_trees", [True, False])
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_datasets_match_the_per_sentence_loop(name, parse_trees):
    seed = 11
    corpus = load_dataset(name, num_sentences=2000, seed=seed, parse_trees=parse_trees)
    bank = load_bank(name)
    tagger = PosTagger()
    tagger.add_lexicon(dict(bank.lexicon))
    records = reference_records(
        bank, 2000, dataset_spec(name).paper_positive_fraction, seed
    )
    expected = reference_sentences(records, tagger, parse_trees)
    assert corpus.sentences == expected
    assert all((s.tree is not None) == parse_trees for s in corpus if s.tokens)
    assert_repeats_share_analysis(corpus)


@pytest.mark.parametrize("parse_trees", [True, False])
def test_from_texts_matches_the_per_sentence_loop(parse_trees):
    texts = [
        "What is the best way to get to SFO airport?",
        "",
        "Is there a bart from SFO to the hotel?",
        "What is the best way to get to SFO airport?",
        "what is the best way to get to sfo airport?",
        "",
        "Is there a bart from SFO to the hotel?",
    ]
    labels = [True, None, False, False, True, None, True]
    corpus = Corpus.from_texts(texts, labels, parse_trees=parse_trees)
    records = [(text, label, "") for text, label in zip(texts, labels)]
    assert corpus.sentences == reference_sentences(records, PosTagger(), parse_trees)
    assert_repeats_share_analysis(corpus)
    unlabeled = Corpus.from_texts(texts, parse_trees=parse_trees)
    assert [s.label for s in unlabeled] == [None] * len(texts)

"""The token-id column and the analyses that read it.

The featurizer's frozen store and :func:`build_embeddings` are computed from
:class:`TokenColumn` with numpy. Their reference implementations are the
per-sentence :meth:`SentenceFeaturizer.vector` / :meth:`matrix` and, kept
here, the per-token ``Counter`` loop that trained embeddings before the
column existed; every result must be bit-identical to them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import svds

from repro.classifier.features import SentenceFeaturizer
from repro.datasets import load_dataset
from repro.text import Corpus, Sentence, TokenColumn
from repro.text.embeddings import EmbeddingModel, build_embeddings
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import derive_rng


def reference_embeddings(sentences, dim=50, window=3, min_count=2, seed=0):
    """The per-token ``Counter`` implementation of :func:`build_embeddings`."""
    sentence_list = [list(tokens) for tokens in sentences]
    vocabulary = Vocabulary(min_count=min_count)
    counts: Counter = Counter()
    for tokens in sentence_list:
        vocabulary.add_sentence(tokens)
        counts.update(tokens)
    vocabulary.freeze()
    total_tokens = sum(len(tokens) for tokens in sentence_list)
    weights = {
        token: 1e-3 / (1e-3 + count / total_tokens) for token, count in counts.items()
    }
    tokens = vocabulary.content_tokens()
    if not tokens:
        return EmbeddingModel(dim, {}, seed=seed, token_weights=weights), "empty"
    token_index = {token: i for i, token in enumerate(tokens)}
    n_tokens = len(tokens)

    cooc: Counter = Counter()
    token_totals = np.zeros(n_tokens)
    for sent in sentence_list:
        indices = [token_index[t] for t in sent if t in token_index]
        for pos, center in enumerate(indices):
            lo = max(0, pos - window)
            hi = min(len(indices), pos + window + 1)
            for other_pos in range(lo, hi):
                if other_pos == pos:
                    continue
                context = indices[other_pos]
                cooc[(center, context)] += 1.0
                token_totals[center] += 1.0

    total = token_totals.sum()
    if total == 0 or not cooc:
        rng = derive_rng(seed, "degenerate-embeddings")
        vectors = {t: rng.standard_normal(dim) for t in tokens}
        return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights), "degenerate"

    rows, cols, values = [], [], []
    for (center, context), count in cooc.items():
        p_joint = count / total
        p_center = token_totals[center] / total
        p_context = token_totals[context] / total
        pmi = np.log(p_joint / (p_center * p_context + 1e-12) + 1e-12)
        if pmi > 0:
            rows.append(center)
            cols.append(context)
            values.append(pmi)

    if not values:
        rng = derive_rng(seed, "flat-embeddings")
        vectors = {t: rng.standard_normal(dim) for t in tokens}
        return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights), "flat"

    matrix = sparse.csr_matrix(
        (values, (rows, cols)), shape=(n_tokens, n_tokens), dtype=np.float64
    )
    effective_dim = min(dim, max(1, min(matrix.shape) - 1))
    rng = derive_rng(seed, "svd-init")
    v0 = rng.standard_normal(min(matrix.shape))
    u, s, _ = svds(matrix, k=effective_dim, v0=v0)
    order = np.argsort(-s)
    embedded = u[:, order] * np.sqrt(np.maximum(s[order], 1e-12))
    if effective_dim < dim:
        embedded = np.hstack([embedded, np.zeros((n_tokens, dim - effective_dim))])
    vectors = {token: embedded[i] for token, i in token_index.items()}
    return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights), "svd"


def assert_same_model(model, reference):
    assert list(model.token_weights.items()) == list(reference.token_weights.items())
    assert list(model.vectors) == list(reference.vectors)
    for token, vector in reference.vectors.items():
        assert np.array_equal(model.vectors[token], vector), token


def assert_store_matches_oracle(featurizer, corpus):
    vectors = featurizer.corpus_vectors(corpus)
    matrices = featurizer.corpus_matrices(corpus)
    assert np.array_equal(vectors, np.stack([featurizer.vector(s) for s in corpus]))
    assert np.array_equal(matrices, np.stack([featurizer.matrix(s) for s in corpus]))


def corpus_of(*token_lists):
    return Corpus(
        [Sentence(i, " ".join(tokens), tuple(tokens)) for i, tokens in enumerate(token_lists)]
    )


@pytest.fixture(scope="module", params=["directions", "tweets", "musicians"])
def corpus_2k(request):
    return load_dataset(request.param, num_sentences=2000, seed=7, parse_trees=False)


# ------------------------------------------------------------------- column
def test_column_round_trips_every_sentence(corpus_2k):
    column = corpus_2k.token_column
    assert len(column) == len(corpus_2k)
    for sentence in corpus_2k:
        start, end = column.offsets[sentence.sentence_id:sentence.sentence_id + 2]
        assert tuple(column.types[i] for i in column.ids[start:end]) == sentence.tokens
    # Types in first-occurrence order, counted exactly.
    counts = Counter(t for s in corpus_2k for t in s.tokens)
    assert column.types == tuple(counts)
    assert column.type_counts().tolist() == list(counts.values())


def test_column_arrays_are_read_only():
    column = TokenColumn([["a", "b"], [], ["b", "?"]])
    assert column.ids.dtype == np.int32 and column.offsets.dtype == np.int64
    assert column.offsets.tolist() == [0, 2, 2, 4]
    assert column.types == ("a", "b", "?")
    for array in (column.ids, column.offsets):
        with pytest.raises(ValueError):
            array[0] = 1
    assert TokenColumn.of(column) is column
    empty = TokenColumn([])
    assert len(empty) == 0 and empty.ids.size == 0 and empty.types == ()


# --------------------------------------------------------------- embeddings
def test_embeddings_match_counter_reference(corpus_2k):
    model = build_embeddings(corpus_2k.token_column, dim=30, seed=3)
    reference, path = reference_embeddings((s.tokens for s in corpus_2k), dim=30, seed=3)
    assert path == "svd"
    assert_same_model(model, reference)


@pytest.mark.parametrize("sentences,path", [
    # rare tokens (x1, x2, ...) fall out of the vocabulary: windows run
    # over the in-vocabulary subsequence, so "a" and "d" are neighbours
    ([["a", "x1", "x2", "x3", "x4", "d", "b"], ["d", "x5", "a", "c", "b"],
      ["c", "a", "x6", "b", "d", "a"], ["b", "c", "x7", "d"]], "svd"),
    ([["a"], ["a"], ["b", "z"], ["b"]], "degenerate"),  # no two in-vocab neighbours
    ([["a", "a"], ["a", "a"]], "flat"),  # one type: no PMI above 0
    ([["z"], []], "empty"),  # nothing reaches min_count
])
def test_embeddings_edge_paths_match_reference(sentences, path):
    model = build_embeddings(sentences, dim=4, window=2, seed=1)
    reference, reference_path = reference_embeddings(sentences, dim=4, window=2, seed=1)
    assert reference_path == path
    assert_same_model(model, reference)


# -------------------------------------------------------------- frozen store
def test_frozen_store_matches_per_sentence_oracle(corpus_2k):
    featurizer = SentenceFeaturizer.fit(corpus_2k, embedding_dim=16, max_len=12)
    assert_store_matches_oracle(featurizer, corpus_2k)


EDGE_CORPUS = [
    [],                                                   # empty sentence
    ["where", "is", "gate", "42", "?"],                   # "?" and a digit
    ["where", "is", "the", "zanzibar", "lounge", "?"],    # once-seen tokens
    ["is", "the", "gate", "open"] * 4,                    # longer than max_len
    ["42", "42"],
    ["where", "is", "the", "gate"],
]


@pytest.mark.parametrize("bow_dim", [0, 8])
@pytest.mark.parametrize("dim", [1, 6])
def test_frozen_store_edge_cases(bow_dim, dim):
    corpus = corpus_of(*EDGE_CORPUS)
    featurizer = SentenceFeaturizer.fit(
        corpus, embedding_dim=dim, max_len=5, bow_dim=bow_dim
    )
    assert "zanzibar" not in featurizer.embeddings  # hashed fallback
    assert_store_matches_oracle(featurizer, corpus)


def test_frozen_store_zero_weight_sum_falls_back_to_mean():
    corpus = corpus_of(["up", "down"], ["up", "down", "up", "down"], ["still"], ["up", "x"])
    rng = np.random.default_rng(0)
    embeddings = EmbeddingModel(
        5,
        {t: rng.standard_normal(5) for t in ("up", "down", "still")},
        token_weights={"up": 0.5, "down": -0.5, "still": 0.0},
    )
    featurizer = SentenceFeaturizer(embeddings, max_len=3, bow_dim=4, corpus=corpus)
    assert_store_matches_oracle(featurizer, corpus)
    # Rows 0-2 take the plain mean; row 3 is weighted.
    assert np.array_equal(
        featurizer.corpus_vectors(corpus)[0, :5],
        (embeddings.vector("up") + embeddings.vector("down")) / 2,
    )

"""Sentence featurization for the benefit classifiers.

The paper stacks word-embedding vectors into a matrix and feeds it to a CNN.
Here the featurizer supports both views:

* :meth:`SentenceFeaturizer.vector` — the mean embedding plus a few cheap
  surface features (length, question mark, digit presence), used by the
  logistic / MLP models,
* :meth:`SentenceFeaturizer.matrix` — the padded ``(max_len, dim)`` embedding
  matrix used by the CNN.

Darwin re-scores every sentence after each retrain (the paper's main
efficiency bottleneck), so the featurizer keeps one frozen feature store for
the corpus it was fit on: a read-only ``(N, d)`` matrix (and, for the CNN, a
read-only ``(N, max_len, dim)`` tensor), built once on first use. Batch calls
gather rows from it by sentence id.

The store is built from the corpus's :class:`~repro.text.TokenColumn`, not
sentence by sentence: each token type's vector, SIF weight, bag-of-words
bucket and ``?``/digit flags are computed once, then gathered over the
column's token ids, and the CNN tensor is a single gather. The per-sentence
methods above remain the reference the store is tested against; every value
is bit-identical to them.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

import numpy as np

from ..text.column import TokenColumn
from ..text.corpus import Corpus
from ..text.embeddings import EmbeddingModel, build_embeddings
from ..text.sentence import Sentence
from ..utils.rng import stable_hash

_SURFACE_FEATURES = 4
# Values per temporary ``(rows, L, dim)`` gather while building the matrix
# (512 KiB of float64). It bounds the build's memory above the matrix itself:
# 4 MiB chunks raised the 50k-sentence peak RSS by ~7 MB.
_CHUNK_VALUES = 1 << 16


class SentenceFeaturizer:
    """Maps sentences to dense feature vectors / embedding matrices.

    The vector view concatenates three blocks:

    * the mean word embedding (semantic generalization across related words,
      the role SpaCy vectors play in the paper),
    * a hashed bag-of-words block (sharp lexical evidence — with only a
      handful of positives a linear model needs features it can latch onto),
    * a few cheap surface features (length, question mark, digits).

    Batch calls (:meth:`vectors`, :meth:`matrices`, :meth:`corpus_vectors`,
    :meth:`corpus_matrices`) read the frozen feature store of ``corpus``,
    which is built on the first such call. The store is read-only, so every
    tenant of a :class:`~repro.serving.TenantPool` — and every forked fleet
    worker — shares one featurizer object and computes nothing twice.

    Args:
        embeddings: A fitted :class:`EmbeddingModel`. Use
            :meth:`SentenceFeaturizer.fit` to train one from a corpus.
        max_len: Token cut-off for the CNN's embedding matrices.
        bow_dim: Width of the hashed bag-of-words block (0 disables it).
        corpus: The corpus whose features the batch calls serve (set by
            :meth:`fit`). Without one only :meth:`vector` / :meth:`matrix`
            work.
    """

    def __init__(
        self,
        embeddings: EmbeddingModel,
        max_len: int = 30,
        bow_dim: int = 192,
        corpus: Optional[Corpus] = None,
    ) -> None:
        if max_len <= 0:
            raise ValueError("max_len must be positive")
        if bow_dim < 0:
            raise ValueError("bow_dim must be non-negative")
        self.embeddings = embeddings
        self.max_len = max_len
        self.bow_dim = bow_dim
        self.corpus = corpus
        self._lock = threading.Lock()
        self._store: Dict[str, np.ndarray] = {}
        self._hits = 0
        self._misses = 0

    @property
    def vector_dim(self) -> int:
        """Dimensionality of :meth:`vector` outputs."""
        return self.embeddings.dim + self.bow_dim + _SURFACE_FEATURES

    @classmethod
    def fit(
        cls,
        corpus: Corpus,
        embedding_dim: int = 50,
        max_len: int = 30,
        seed: int = 0,
        bow_dim: int = 192,
    ) -> "SentenceFeaturizer":
        """Train embeddings on ``corpus`` and return a featurizer over it."""
        embeddings = build_embeddings(
            corpus.token_column, dim=embedding_dim, seed=seed
        )
        return cls(embeddings, max_len=max_len, bow_dim=bow_dim, corpus=corpus)

    # ------------------------------------------------------------ single-item
    def vector(self, sentence: Sentence) -> np.ndarray:
        """Mean-embedding + surface-feature vector for ``sentence``."""
        embedding = self.embeddings.sentence_vector(sentence.tokens)
        surface = np.array(
            [
                min(len(sentence.tokens), 40) / 40.0,
                1.0 if "?" in sentence.tokens else 0.0,
                1.0 if any(t.isdigit() for t in sentence.tokens) else 0.0,
                len(set(sentence.tokens)) / (len(sentence.tokens) + 1.0),
            ]
        )
        return np.concatenate([embedding, self._bow(sentence.tokens), surface])

    def _bow(self, tokens) -> np.ndarray:
        """Hashed bag-of-words block (L2-normalised token-count buckets)."""
        if self.bow_dim == 0:
            return np.zeros(0)
        bow = np.zeros(self.bow_dim)
        for token in tokens:
            bow[self._bucket(token)] += 1.0
        norm = np.linalg.norm(bow)
        if norm > 0:
            bow /= norm
        return bow

    def _bucket(self, token: str) -> int:
        return stable_hash("bow", token) % self.bow_dim

    def matrix(self, sentence: Sentence) -> np.ndarray:
        """Padded ``(max_len, dim)`` embedding matrix for ``sentence``."""
        return self.embeddings.sentence_matrix(sentence.tokens, self.max_len)

    # ------------------------------------------------------------------ batch
    def vectors(self, sentences: Iterable[Sentence]) -> np.ndarray:
        """Rows of the frozen corpus matrix for ``sentences``, as ``(n, d)``."""
        ids = _sentence_ids(sentences)
        return self._frozen("vectors", ids.size)[ids]

    def matrices(self, sentences: Iterable[Sentence]) -> np.ndarray:
        """Rows of the frozen corpus tensor, as ``(n, max_len, dim)``."""
        ids = _sentence_ids(sentences)
        return self._frozen("matrices", ids.size)[ids]

    def corpus_vectors(self, corpus: Corpus) -> np.ndarray:
        """The frozen read-only ``(N, d)`` matrix itself, in sentence-id order."""
        self._check_corpus(corpus)
        return self._frozen("vectors", len(corpus))

    def corpus_matrices(self, corpus: Corpus) -> np.ndarray:
        """The frozen read-only ``(N, max_len, dim)`` tensor itself."""
        self._check_corpus(corpus)
        return self._frozen("matrices", len(corpus))

    def _check_corpus(self, corpus: Corpus) -> None:
        if corpus is not self.corpus:
            raise ValueError(
                "this featurizer serves the corpus it was fit on; fit one "
                "on this corpus with SentenceFeaturizer.fit"
            )

    def _frozen(self, kind: str, lookups: int) -> np.ndarray:
        """The frozen ``kind`` array, built on first use; counts ``lookups``
        rows as served from it."""
        with self._lock:
            frozen = self._store.get(kind)
            if frozen is None:
                frozen = self._build(kind)
                frozen.setflags(write=False)
                self._store[kind] = frozen
                self._misses += len(frozen)
            self._hits += lookups
            return frozen

    def _build(self, kind: str) -> np.ndarray:
        """Build one frozen array from the corpus's token column: every
        token-level value is computed once per token type, then gathered.
        The result is bit-identical to :meth:`vector` / :meth:`matrix` row
        by row."""
        if self.corpus is None:
            raise ValueError(
                "featurizer has no corpus; build it with SentenceFeaturizer.fit"
            )
        column = self.corpus.token_column
        vectors = np.array(
            [self.embeddings.vector(t) for t in column.types], dtype=np.float64
        ).reshape(len(column.types), self.embeddings.dim)
        if kind == "vectors":
            return self._build_vectors(column, vectors)
        # One gather; the extra all-zero type pads sentences past their end.
        positions = np.arange(self.max_len)
        slots = column.offsets[:-1, None] + positions
        inside = positions < column.lengths()[:, None]
        types = np.full(slots.shape, len(column.types), dtype=np.intp)
        types[inside] = column.ids[slots[inside]]
        return np.vstack([vectors, np.zeros((1, self.embeddings.dim))])[types]

    def _build_vectors(self, column: TokenColumn, vectors: np.ndarray) -> np.ndarray:
        """The ``(N, d)`` matrix, filled one chunk of equal-length sentences
        at a time. Reducing ``(rows, L, dim)`` and ``(rows, L)`` over axis 1
        adds in the order :meth:`EmbeddingModel.sentence_vector` does, and
        bag-of-words counts are integers, so their norm is exact in any
        order."""
        dim, bow_dim = self.embeddings.dim, self.bow_dim
        weights = np.array(
            [self.embeddings.token_weights.get(t, 1.0) for t in column.types],
            dtype=np.float64,
        )
        weighted = vectors * weights[:, None]
        if bow_dim:
            buckets = np.array([self._bucket(t) for t in column.types], dtype=np.intp)
        question = np.array([t == "?" for t in column.types], dtype=bool)
        digit = np.array([t.isdigit() for t in column.types], dtype=bool)
        lengths = column.lengths()
        built = np.zeros((len(column), self.vector_dim))
        surface = dim + bow_dim
        built[:, surface] = np.minimum(lengths, 40) / 40.0
        for length in np.unique(lengths[lengths > 0]).tolist():
            group = np.flatnonzero(lengths == length)
            step = max(1, _CHUNK_VALUES // (length * dim + bow_dim))
            for start in range(0, group.size, step):
                rows = group[start:start + step]
                tokens = column.ids[column.offsets[rows, None] + np.arange(length)]
                total = weights[tokens].sum(axis=1)
                embedding = weighted[tokens].sum(axis=1)
                flat = total <= 0
                if flat.any():  # weights summing to 0: the plain mean
                    embedding[flat] = vectors[tokens[flat]].sum(axis=1)
                    total[flat] = length
                embedding /= total[:, None]
                built[rows, :dim] = embedding
                if bow_dim:
                    cells = np.arange(rows.size)[:, None] * bow_dim + buckets[tokens]
                    bow = np.bincount(
                        cells.ravel(), minlength=rows.size * bow_dim
                    ).reshape(rows.size, bow_dim).astype(np.float64)
                    bow /= np.sqrt(np.einsum("ij,ij->i", bow, bow))[:, None]
                    built[rows, dim:dim + bow_dim] = bow
                ordered = np.sort(tokens, axis=1)
                distinct = 1 + np.count_nonzero(np.diff(ordered, axis=1), axis=1)
                built[rows, surface + 1] = question[tokens].any(axis=1)
                built[rows, surface + 2] = digit[tokens].any(axis=1)
                built[rows, surface + 3] = distinct / (length + 1.0)
        return built

    # ------------------------------------------------------------- accounting
    @property
    def cache(self) -> "SentenceFeaturizer":
        """The featurizer itself: ``featurizer.cache.stats()`` reads the
        feature store's counters."""
        return self

    @property
    def nbytes(self) -> int:
        """Bytes held by the frozen feature store."""
        return int(self.stats()["nbytes"])

    def stats(self) -> Dict[str, float]:
        """Feature-store counters for benchmarks, gauges and the serve
        report: ``misses`` counts rows computed (the one-time build),
        ``hits`` rows served from the frozen arrays, ``entries`` the rows
        they hold and ``nbytes`` their size."""
        with self._lock:
            return {
                "hits": float(self._hits),
                "misses": float(self._misses),
                "entries": float(sum(len(a) for a in self._store.values())),
                "nbytes": float(sum(a.nbytes for a in self._store.values())),
            }

    def reset_stats(self) -> None:
        """Zero the counters; the frozen arrays stay. A forked fleet worker
        calls this so its gauges count only its own work."""
        with self._lock:
            self._hits = 0
            self._misses = 0


def _sentence_ids(sentences: Iterable[Sentence]) -> np.ndarray:
    return np.fromiter((s.sentence_id for s in sentences), dtype=np.intp)

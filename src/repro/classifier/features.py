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
read-only ``(N, max_len, dim)`` tensor), built once on first use from the
per-sentence methods above. Batch calls gather rows from it by sentence id.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

import numpy as np

from ..text.corpus import Corpus
from ..text.embeddings import EmbeddingModel, build_embeddings
from ..text.sentence import Sentence
from ..utils.rng import stable_hash

_SURFACE_FEATURES = 4


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
            (s.tokens for s in corpus), dim=embedding_dim, seed=seed
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
            bow[stable_hash("bow", token) % self.bow_dim] += 1.0
        norm = np.linalg.norm(bow)
        if norm > 0:
            bow /= norm
        return bow

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
        """Fill one preallocated array row by row from the per-sentence
        code, so every value is bit-identical to :meth:`vector` /
        :meth:`matrix`."""
        if self.corpus is None:
            raise ValueError(
                "featurizer has no corpus; build it with SentenceFeaturizer.fit"
            )
        if kind == "vectors":
            row, shape = self.vector, (self.vector_dim,)
        else:
            row, shape = self.matrix, (self.max_len, self.embeddings.dim)
        built = np.empty((len(self.corpus),) + shape)
        for sentence in self.corpus:
            built[sentence.sentence_id] = row(sentence)
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

"""Corpus-trained word embeddings (PPMI + truncated SVD) with hashed fallback.

The paper feeds SpaCy's pre-trained vectors into a CNN classifier; the vectors
matter because they let the classifier generalize from discovered positives to
*semantically related* sentences ("bus" -> "public transport", Section 3).

Offline we cannot ship pre-trained vectors, so :func:`build_embeddings` learns
vectors from the corpus itself:

1. count token co-occurrences within a sliding window,
2. convert counts to positive pointwise mutual information (PPMI),
3. factorize with a truncated SVD (scipy sparse svds) to ``dim`` dimensions.

Every count (vocabulary, SIF weights, co-occurrences) is taken with numpy over
a :class:`~repro.text.TokenColumn` — the corpus's own column, or one built
from plain token lists — rather than token by token in Python.

Tokens that never co-occur (or out-of-vocabulary tokens at query time) fall
back to a deterministic hashed random vector so that every token always has an
embedding of the right dimensionality.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from ..utils.rng import derive_rng, stable_hash
from .column import TokenColumn
from .vocabulary import Vocabulary


class EmbeddingModel:
    """Dense word vectors with deterministic out-of-vocabulary fallback.

    Attributes:
        dim: Embedding dimensionality.
        vectors: Mapping from token to its vector (unit-normalised).
        token_weights: Optional per-token weights used when averaging token
            vectors into a sentence vector. The featurizer supplies SIF-style
            inverse-frequency weights so that rare, discriminative content
            words (entity names, domain nouns) dominate the sentence vector
            instead of stopwords.
    """

    def __init__(
        self,
        dim: int,
        vectors: Dict[str, np.ndarray],
        seed: int = 0,
        token_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed
        self.token_weights: Dict[str, float] = dict(token_weights or {})
        self.vectors: Dict[str, np.ndarray] = {}
        for token, vector in vectors.items():
            array = np.asarray(vector, dtype=np.float64)
            if array.shape != (dim,):
                raise ValueError(
                    f"vector for {token!r} has shape {array.shape}, expected ({dim},)"
                )
            self.vectors[token] = _normalize(array)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def vector(self, token: str) -> np.ndarray:
        """Return the vector for ``token`` (hashed fallback if unseen)."""
        known = self.vectors.get(token)
        if known is not None:
            return known
        return self._hashed_vector(token)

    def _hashed_vector(self, token: str) -> np.ndarray:
        rng = np.random.default_rng(stable_hash("oov", self.seed, token) % (2**32))
        return _normalize(rng.standard_normal(self.dim))

    def sentence_vector(self, tokens: Sequence[str]) -> np.ndarray:
        """Weighted mean of the token vectors (zero vector when empty).

        Tokens are weighted by :attr:`token_weights` (default 1.0), so when
        SIF weights are attached the frequent function words contribute little
        and the sentence vector reflects its content words.
        """
        if not tokens:
            return np.zeros(self.dim)
        matrix = np.stack([self.vector(token) for token in tokens])
        weights = np.array(
            [self.token_weights.get(token, 1.0) for token in tokens], dtype=np.float64
        )
        total = weights.sum()
        if total <= 0:
            return matrix.mean(axis=0)
        return (matrix * weights[:, None]).sum(axis=0) / total

    def sentence_matrix(self, tokens: Sequence[str], max_len: int) -> np.ndarray:
        """Stack token vectors into a fixed ``(max_len, dim)`` matrix (padded)."""
        matrix = np.zeros((max_len, self.dim))
        for row, token in enumerate(tokens[:max_len]):
            matrix[row] = self.vector(token)
        return matrix

    def similarity(self, token_a: str, token_b: str) -> float:
        """Cosine similarity between two tokens."""
        return float(np.dot(self.vector(token_a), self.vector(token_b)))

    def most_similar(self, token: str, top_k: int = 10) -> List[tuple]:
        """The ``top_k`` in-vocabulary tokens most similar to ``token``."""
        query = self.vector(token)
        scored = [
            (other, float(np.dot(query, vec)))
            for other, vec in self.vectors.items()
            if other != token
        ]
        scored.sort(key=lambda item: -item[1])
        return scored[:top_k]


def _normalize(vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        return vector
    return vector / norm


def sif_weights(
    sentences: Union[TokenColumn, Iterable[Sequence[str]]], smoothing: float = 1e-3
) -> Dict[str, float]:
    """Smooth inverse-frequency (SIF) token weights: ``a / (a + p(token))``.

    Frequent function words get weights near zero, rare content words weights
    near one, following Arora et al.'s simple-but-tough-to-beat sentence
    embedding baseline. Tokens are listed in first-occurrence order.
    """
    column = TokenColumn.of(sentences)
    total = column.ids.size
    if total == 0:
        return {}
    return {
        token: smoothing / (smoothing + count / total)
        for token, count in zip(column.types, column.type_counts().tolist())
    }


def build_embeddings(
    sentences: Union[TokenColumn, Iterable[Sequence[str]]],
    dim: int = 50,
    window: int = 3,
    min_count: int = 2,
    seed: int = 0,
    vocabulary: Optional[Vocabulary] = None,
    use_sif_weights: bool = True,
) -> EmbeddingModel:
    """Train PPMI-SVD embeddings over tokenized ``sentences``.

    Args:
        sentences: A :class:`TokenColumn`, or token sequences to wrap in one.
        dim: Target dimensionality (reduced automatically if the vocabulary is
            too small for a rank-``dim`` factorization).
        window: Symmetric co-occurrence window size, counted over each
            sentence's in-vocabulary tokens.
        min_count: Tokens rarer than this share the hashed fallback.
        seed: Seed for the fallback vectors and SVD initialisation.
        vocabulary: Optional pre-built vocabulary (rebuilt from the sentences
            otherwise).
        use_sif_weights: Attach smooth inverse-frequency weights used when
            averaging token vectors into sentence vectors.

    Returns:
        A fitted :class:`EmbeddingModel`.
    """
    column = TokenColumn.of(sentences)
    if vocabulary is None:
        vocabulary = Vocabulary.from_sentences(column, min_count=min_count)
    weights = sif_weights(column) if use_sif_weights else None
    tokens = vocabulary.content_tokens()
    if not tokens:
        return EmbeddingModel(dim, {}, seed=seed, token_weights=weights)
    token_index = {token: i for i, token in enumerate(tokens)}
    n_tokens = len(tokens)

    centers, contexts, counts = _cooccurrences(column, token_index, window)
    token_totals = np.bincount(centers, weights=counts, minlength=n_tokens)
    total = token_totals.sum()
    if total == 0:
        rng = derive_rng(seed, "degenerate-embeddings")
        vectors = {t: rng.standard_normal(dim) for t in tokens}
        return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights)

    p_joint = counts / total
    p_center = token_totals[centers] / total
    p_context = token_totals[contexts] / total
    pmi = np.log(p_joint / (p_center * p_context + 1e-12) + 1e-12)
    positive = pmi > 0

    if not positive.any():
        rng = derive_rng(seed, "flat-embeddings")
        vectors = {t: rng.standard_normal(dim) for t in tokens}
        return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights)

    matrix = sparse.csr_matrix(
        (pmi[positive], (centers[positive], contexts[positive])),
        shape=(n_tokens, n_tokens),
        dtype=np.float64,
    )
    effective_dim = min(dim, max(1, min(matrix.shape) - 1))
    if effective_dim < 1 or matrix.nnz == 0:
        rng = derive_rng(seed, "tiny-embeddings")
        vectors = {t: rng.standard_normal(dim) for t in tokens}
        return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights)

    rng = derive_rng(seed, "svd-init")
    v0 = rng.standard_normal(min(matrix.shape))
    u, s, _ = svds(matrix, k=effective_dim, v0=v0)
    # svds returns singular values in ascending order; weight and re-order.
    order = np.argsort(-s)
    u = u[:, order]
    s = s[order]
    embedded = u * np.sqrt(np.maximum(s, 1e-12))

    if effective_dim < dim:
        padding = np.zeros((n_tokens, dim - effective_dim))
        embedded = np.hstack([embedded, padding])

    vectors = {token: embedded[i] for token, i in token_index.items()}
    return EmbeddingModel(dim, vectors, seed=seed, token_weights=weights)


def _cooccurrences(
    column: TokenColumn, token_index: Dict[str, int], window: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(center, context)`` vocabulary-index pairs within
    ``window`` of each other in a sentence's in-vocabulary subsequence, with
    their counts (float64), in row-major order.

    Each window shift is counted on its own (``np.unique``) and the shifts
    are merged, so no array of every pair occurrence is ever built. The
    order of the pairs does not reach the embeddings: the PPMI CSR matrix
    sorts each row's entries.
    """
    table = np.array([token_index.get(t, -1) for t in column.types], dtype=np.int64)
    mapped = table[column.ids]
    kept = mapped >= 0
    seq = mapped[kept]
    sentence = np.repeat(np.arange(len(column)), column.lengths())[kept]
    n_tokens = len(token_index)
    keys, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for shift in [d for d in range(-window, window + 1) if d != 0]:
        centers = np.arange(max(0, -shift), seq.size - max(0, shift))
        centers = centers[sentence[centers] == sentence[centers + shift]]
        unique, count = np.unique(
            seq[centers] * n_tokens + seq[centers + shift], return_counts=True
        )
        keys.append(unique)
        counts.append(count)
    pairs, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    totals = np.bincount(
        inverse.ravel(), weights=np.concatenate(counts), minlength=pairs.size
    )
    return pairs // n_tokens, pairs % n_tokens, totals

"""The token-id column: every sentence's tokens as one read-only id CSR.

A corpus repeats itself: 50k ``directions`` sentences hold ~483k tokens but
only ~250 distinct token types. :class:`TokenColumn` interns the tokens once
into int32 ids, so the analyses that walk every token (the featurizer's
frozen matrix, embedding training, vocabulary counts) compute per-type
tables once and gather them with numpy instead of looping over strings.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence, Tuple, Union

import numpy as np


class TokenColumn:
    """Tokenized sentences as one read-only CSR of token-type ids.

    Attributes:
        ids: int32 ``(num_tokens,)``; token ``j`` of sentence ``i`` is
            ``types[ids[offsets[i] + j]]``.
        offsets: int64 ``(num_sentences + 1,)`` sentence boundaries.
        types: Distinct tokens in first-occurrence order, the order in which
            a :class:`collections.Counter` over the same tokens lists them.

    Both arrays are read-only: the column is shared by every analysis of its
    corpus.
    """

    __slots__ = ("ids", "offsets", "types")

    def __init__(self, sentences: Iterable[Sequence[str]]) -> None:
        token_lists = [tuple(tokens) for tokens in sentences]
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64,
                              count=len(token_lists))
        self.offsets = np.zeros(len(token_lists) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        self.types: Tuple[str, ...] = tuple(
            dict.fromkeys(chain.from_iterable(token_lists))
        )
        lookup = {token: i for i, token in enumerate(self.types)}
        self.ids = np.fromiter(
            map(lookup.__getitem__, chain.from_iterable(token_lists)),
            dtype=np.int32,
            count=int(self.offsets[-1]),
        )
        self.ids.setflags(write=False)
        self.offsets.setflags(write=False)

    @classmethod
    def of(cls, sentences: Union["TokenColumn", Iterable[Sequence[str]]]) -> "TokenColumn":
        """``sentences`` itself when it is a column, else its column."""
        return sentences if isinstance(sentences, cls) else cls(sentences)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def lengths(self) -> np.ndarray:
        """Token count of every sentence, int64 ``(num_sentences,)``."""
        return np.diff(self.offsets)

    def type_counts(self) -> np.ndarray:
        """Occurrences of every type, int64 ``(len(types),)``."""
        return np.bincount(self.ids, minlength=len(self.types))

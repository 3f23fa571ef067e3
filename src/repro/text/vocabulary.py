"""Token vocabulary with frequency counts and id assignment."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Sequence, Union

from .column import TokenColumn


class Vocabulary:
    """A bidirectional token <-> integer-id mapping with counts.

    Index 0 is reserved for the unknown token ``<unk>``; index 1 for padding
    ``<pad>`` (used by the CNN classifier when stacking sentences of unequal
    length).
    """

    UNK = "<unk>"
    PAD = "<pad>"

    def __init__(self, min_count: int = 1, max_size: int | None = None) -> None:
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        self.min_count = min_count
        self.max_size = max_size
        self._token_to_id: Dict[str, int] = {self.UNK: 0, self.PAD: 1}
        self._id_to_token: List[str] = [self.UNK, self.PAD]
        self.counts: Counter = Counter()
        self._frozen = False

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def add_sentence(self, tokens: Sequence[str]) -> None:
        """Count ``tokens`` towards the vocabulary (before :meth:`freeze`)."""
        if self._frozen:
            raise RuntimeError("cannot add sentences to a frozen vocabulary")
        self.counts.update(tokens)

    def freeze(self) -> "Vocabulary":
        """Assign ids to all tokens meeting ``min_count``; returns ``self``."""
        if self._frozen:
            return self
        eligible = [
            (count, token)
            for token, count in self.counts.items()
            if count >= self.min_count
        ]
        eligible.sort(key=lambda item: (-item[0], item[1]))
        if self.max_size is not None:
            eligible = eligible[: self.max_size]
        for _, token in eligible:
            if token not in self._token_to_id:
                self._token_to_id[token] = len(self._id_to_token)
                self._id_to_token.append(token)
        self._frozen = True
        return self

    @classmethod
    def from_sentences(
        cls,
        sentences: Union[TokenColumn, Iterable[Sequence[str]]],
        min_count: int = 1,
        max_size: int | None = None,
    ) -> "Vocabulary":
        """Build and freeze a vocabulary from token sequences (or their
        :class:`TokenColumn`)."""
        column = TokenColumn.of(sentences)
        vocab = cls(min_count=min_count, max_size=max_size)
        vocab.counts.update(dict(zip(column.types, column.type_counts().tolist())))
        return vocab.freeze()

    def id_of(self, token: str) -> int:
        """Id of ``token`` (0 / ``<unk>`` if unseen)."""
        return self._token_to_id.get(token, 0)

    def token_of(self, token_id: int) -> str:
        """Token string for ``token_id``."""
        return self._id_to_token[token_id]

    def encode(self, tokens: Sequence[str]) -> List[int]:
        """Map a token sequence to a list of ids."""
        return [self.id_of(token) for token in tokens]

    def tokens(self) -> List[str]:
        """All known tokens including the special ones, in id order."""
        return list(self._id_to_token)

    def content_tokens(self) -> List[str]:
        """All tokens excluding ``<unk>`` and ``<pad>``."""
        return self._id_to_token[2:]

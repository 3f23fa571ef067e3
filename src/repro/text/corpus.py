"""The :class:`Corpus` container: preprocessing and ground-truth bookkeeping."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .column import TokenColumn
from .dependency import DependencyParser
from .pos import PosTagger
from .sentence import Sentence
from .tokenizer import Tokenizer
from .vocabulary import Vocabulary

def preprocess(
    records: Iterable[Tuple[str, Optional[bool], str]],
    tokenizer: Optional[Tokenizer] = None,
    tagger: Optional[PosTagger] = None,
    parser: Optional[DependencyParser] = None,
    parse_trees: bool = True,
) -> List[Sentence]:
    """Tokenize, tag and parse ``(text, label, meta)`` records into sentences.

    Sentence ids follow record order. Tokens, tags and the tree are pure
    functions of the text under fixed components, so each distinct text is
    preprocessed once and its repeats share the same (immutable) tokens
    tuple, tags tuple and :class:`~repro.text.dependency.DependencyTree`
    object.

    Args:
        records: ``(text, label, meta)`` per sentence.
        tokenizer / tagger / parser: Optional component overrides.
        parse_trees: Skip dependency parsing when False (trees are then None).
    """
    tokenizer = tokenizer or Tokenizer()
    tagger = tagger or PosTagger()
    parser = parser or DependencyParser()
    analyses: Dict[str, tuple] = {}
    sentences: List[Sentence] = []
    for sentence_id, (text, label, meta) in enumerate(records):
        analysis = analyses.get(text)
        if analysis is None:
            tokens = tuple(tokenizer.tokenize(text))
            tags = tuple(tagger.tag(tokens))
            tree = parser.parse(tokens, tags) if parse_trees and tokens else None
            analysis = analyses[text] = (tokens, tags, tree)
        tokens, tags, tree = analysis
        sentences.append(
            Sentence(
                sentence_id=sentence_id,
                text=text,
                tokens=tokens,
                tags=tags,
                tree=tree,
                label=label,
                meta=meta,
            )
        )
    return sentences


class Corpus:
    """An immutable collection of preprocessed sentences.

    A corpus is built either from raw strings (which are tokenized, tagged and
    parsed by :func:`preprocess`) or from already-constructed
    :class:`Sentence` objects (the dataset generators call :func:`preprocess`
    themselves so they can attach ground-truth labels and metadata).

    Ground-truth labels, when present, are *only* consumed by oracles and
    evaluation code. Darwin's search itself never looks at them.

    Attributes:
        token_column: The sentences' tokens as one read-only
            :class:`TokenColumn` (token-type ids in sentence-id order), built
            once here; the featurizer, embedding training and the vocabulary
            read it instead of the per-sentence token tuples.
    """

    def __init__(self, sentences: Sequence[Sentence], name: str = "corpus") -> None:
        self.name = name
        self._sentences: List[Sentence] = list(sentences)
        for expected_id, sentence in enumerate(self._sentences):
            if sentence.sentence_id != expected_id:
                raise ValueError(
                    "sentence ids must be consecutive and start at 0 "
                    f"(expected {expected_id}, got {sentence.sentence_id})"
                )
        self.token_column = TokenColumn(s.tokens for s in self._sentences)
        self._vocabulary: Optional[Vocabulary] = None
        self._has_labels_cache: Optional[bool] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_texts(
        cls,
        texts: Iterable[str],
        labels: Optional[Sequence[Optional[bool]]] = None,
        name: str = "corpus",
        tokenizer: Optional[Tokenizer] = None,
        tagger: Optional[PosTagger] = None,
        parser: Optional[DependencyParser] = None,
        parse_trees: bool = True,
    ) -> "Corpus":
        """Preprocess raw ``texts`` into a corpus.

        Args:
            texts: Raw sentence strings.
            labels: Optional ground-truth labels aligned with ``texts``.
            name: Corpus name used in reports.
            tokenizer / tagger / parser: Optional component overrides.
            parse_trees: Skip dependency parsing when False (slightly faster
                when only the TokensRegex grammar is used).
        """
        texts = list(texts)
        if labels is not None and len(labels) != len(texts):
            raise ValueError("labels must align with texts")
        if labels is None:
            labels = [None] * len(texts)
        records = [(text, label, "") for text, label in zip(texts, labels)]
        return cls(
            preprocess(records, tokenizer, tagger, parser, parse_trees), name=name
        )

    # --------------------------------------------------------------- protocol
    def __len__(self) -> int:
        return len(self._sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self._sentences)

    def __getitem__(self, sentence_id: int) -> Sentence:
        return self._sentences[sentence_id]

    @property
    def sentences(self) -> List[Sentence]:
        """The sentences in id order (a copy is *not* made; do not mutate)."""
        return self._sentences

    # ------------------------------------------------------------ ground truth
    def has_labels(self) -> bool:
        """True if every sentence carries a ground-truth label.

        Cached after the first call: sentences are fixed at construction (see
        :attr:`sentences`), and the Darwin loop asks once per oracle answer.
        """
        if self._has_labels_cache is None:
            self._has_labels_cache = all(s.label is not None for s in self._sentences)
        return self._has_labels_cache

    def positive_ids(self) -> Set[int]:
        """Ids of ground-truth positive sentences (empty if unlabeled)."""
        return {s.sentence_id for s in self._sentences if s.label is True}

    def negative_ids(self) -> Set[int]:
        """Ids of ground-truth negative sentences (empty if unlabeled)."""
        return {s.sentence_id for s in self._sentences if s.label is False}

    def positive_fraction(self) -> float:
        """Fraction of sentences labeled positive (0.0 for unlabeled corpora)."""
        if not self._sentences:
            return 0.0
        return len(self.positive_ids()) / len(self._sentences)

    def labels_dict(self) -> Dict[int, Optional[bool]]:
        """Mapping from sentence id to ground-truth label."""
        return {s.sentence_id: s.label for s in self._sentences}

    # -------------------------------------------------------------- vocabulary
    def vocabulary(self, min_count: int = 1) -> Vocabulary:
        """Lazily build (and cache) the corpus token vocabulary."""
        if self._vocabulary is None or self._vocabulary.min_count != min_count:
            self._vocabulary = Vocabulary.from_sentences(
                self.token_column, min_count=min_count
            )
        return self._vocabulary

    # ----------------------------------------------------------------- helpers
    def subset(self, sentence_ids: Iterable[int], name: Optional[str] = None) -> "Corpus":
        """Return a new corpus containing the given sentences, re-numbered."""
        chosen = sorted(set(sentence_ids))
        sentences = []
        for new_id, old_id in enumerate(chosen):
            old = self._sentences[old_id]
            sentences.append(
                Sentence(
                    sentence_id=new_id,
                    text=old.text,
                    tokens=old.tokens,
                    tags=old.tags,
                    tree=old.tree,
                    label=old.label,
                    meta=old.meta,
                )
            )
        return Corpus(sentences, name=name or f"{self.name}-subset")

    def describe(self) -> Dict[str, object]:
        """Summary statistics used by the Table 1 experiment."""
        n = len(self._sentences)
        positives = len(self.positive_ids())
        return {
            "name": self.name,
            "num_sentences": n,
            "num_positives": positives,
            "positive_fraction": (positives / n) if n else 0.0,
            "vocabulary_size": len(self.vocabulary()),
            "mean_tokens": (
                sum(len(s) for s in self._sentences) / n if n else 0.0
            ),
        }

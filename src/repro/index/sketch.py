"""Derivation sketches (Section 3.1).

A derivation sketch summarizes, for one sentence, all heuristics (up to a
bounded number of derivation steps) that the sentence satisfies. It depends
only on the sentence's content, so
:meth:`~repro.index.trie_index.CorpusIndex.build` builds one sketch per
*distinct* sentence and shares it among the repeats;
:meth:`~repro.index.trie_index.CorpusIndex.add_sketch` folds one sentence's
sketch into an index by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..grammars.base import Expression, HeuristicGrammar
from ..text.sentence import Sentence

SketchKey = Tuple[str, Expression]
"""Index key: (grammar name, expression)."""


@dataclass
class DerivationSketch:
    """All (grammar, expression) pairs satisfied by a single sentence.

    Attributes:
        sentence_id: The sentence this sketch was built from.
        entries: Mapping from sketch key to the expression's derivation depth
            (complexity); depth ordering lets the index place generic rules
            above specific ones.
    """

    sentence_id: int
    entries: Dict[SketchKey, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: SketchKey) -> bool:
        return key in self.entries

    def keys(self) -> List[SketchKey]:
        """All sketch keys for this sentence."""
        return list(self.entries.keys())

    def add(self, grammar: HeuristicGrammar, expression: Expression) -> None:
        """Record that the sentence satisfies ``expression``."""
        key = (grammar.name, expression)
        if key not in self.entries:
            self.entries[key] = grammar.complexity(expression)


def build_sketch(
    sentence: Sentence,
    grammars: Iterable[HeuristicGrammar],
    max_depth: int,
) -> DerivationSketch:
    """Build the derivation sketch of ``sentence`` under ``grammars``.

    Args:
        sentence: The preprocessed sentence.
        grammars: The heuristic grammars to enumerate under.
        max_depth: Maximum number of derivation-rule applications per
            expression (10 in the paper's experiments).
    """
    sketch = DerivationSketch(sentence_id=sentence.sentence_id)
    for grammar in grammars:
        for expression in grammar.enumerate_expressions(sentence, max_depth):
            sketch.add(grammar, expression)
    return sketch

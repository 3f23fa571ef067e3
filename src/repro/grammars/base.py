"""The :class:`HeuristicGrammar` interface.

A heuristic grammar defines a rule language: it can

* enumerate the heuristics a given sentence *satisfies* (its derivation
  sketch, Section 3.1),
* test whether an arbitrary heuristic expression matches a sentence,
* produce the generalization (parent) and specialization (child) neighbours of
  an expression — the structural edges used by the hierarchy and by
  LocalSearch,
* expose its formal CFG (Definition 1) for validation,
* parse and render expressions so that rules are human-readable in oracle
  queries and experiment traces.

Expressions are opaque hashable objects from the point of view of the rest of
the system; only the grammar that produced an expression interprets it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, List, Optional, Sequence

from ..text.sentence import Sentence
from .cfg import ContextFreeGrammar

Expression = Hashable


class HeuristicGrammar(ABC):
    """Abstract base class for rule languages plugged into Darwin."""

    #: Short identifier used in reports and rule serialization.
    name: str = "abstract"

    # ------------------------------------------------------------- matching
    @abstractmethod
    def matches(self, expression: Expression, sentence: Sentence) -> bool:
        """Return True if ``sentence`` satisfies the heuristic ``expression``."""

    def coverage(
        self, expression: Expression, sentences: Iterable[Sentence]
    ) -> List[int]:
        """Ids of the sentences in ``sentences`` matching ``expression``.

        Grammars may override this with an index-aware implementation; the
        default simply scans.
        """
        return [s.sentence_id for s in sentences if self.matches(expression, s)]

    # ---------------------------------------------------------- enumeration
    @abstractmethod
    def enumerate_expressions(
        self, sentence: Sentence, max_depth: int
    ) -> Iterable[Expression]:
        """Enumerate expressions that ``sentence`` satisfies.

        ``max_depth`` bounds the number of derivation-rule applications, which
        keeps the derivation sketch linear in sentence length (Section 3.1).

        Contract: the expressions and their order depend only on the
        sentence's ``text``, ``tokens``, ``tags`` and ``tree``, never on its
        id, label or meta, nor on hash order. :meth:`CorpusIndex.build
        <repro.index.trie_index.CorpusIndex.build>` relies on this to build
        one sketch per distinct sentence.
        """

    # --------------------------------------------------------- neighbourhood
    @abstractmethod
    def generalizations(self, expression: Expression) -> List[Expression]:
        """Expressions obtained by *removing* one derivation step (parents)."""

    @abstractmethod
    def specializations(
        self, expression: Expression, sentence: Optional[Sentence] = None
    ) -> List[Expression]:
        """Expressions obtained by *adding* one derivation step (children).

        When ``sentence`` is provided the specializations may be restricted to
        ones the sentence still satisfies; this is how the index grows children
        lazily during LocalSearch.
        """

    def is_ancestor(self, general: Expression, specific: Expression) -> bool:
        """True if ``specific`` can be reached from ``general`` by specializing.

        The default implementation walks up from ``specific`` via
        :meth:`generalizations`; grammars with cheap subsumption checks should
        override it.
        """
        frontier = [specific]
        seen = set()
        while frontier:
            node = frontier.pop()
            if node == general:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self.generalizations(node))
        return False

    # -------------------------------------------------------------- plumbing
    @abstractmethod
    def formal_grammar(self, vocabulary: Sequence[str]) -> ContextFreeGrammar:
        """The formal CFG over ``vocabulary`` that this rule language encodes."""

    @abstractmethod
    def render(self, expression: Expression) -> str:
        """Human-readable form of ``expression`` (shown to annotators)."""

    @abstractmethod
    def parse(self, text: str) -> Expression:
        """Parse a human-readable rule string back into an expression."""

    def complexity(self, expression: Expression) -> int:
        """Number of derivation steps needed to produce ``expression``.

        Used to place heuristics at the right level of the hierarchy and for
        diversity constraints in candidate generation. The default counts the
        rendered tokens, which matches both built-in grammars.
        """
        return max(1, len(self.render(expression).split()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"

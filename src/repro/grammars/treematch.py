"""The TreeMatch grammar: patterns over dependency parse trees (Definition 3).

Terminals are tokens *and* universal POS tags. The operations are

* ``a/b``  — ``b`` is a direct child of ``a`` in the dependency tree,
* ``a//b`` — ``b`` is a descendant of ``a``,
* ``p ∧ q`` — the sentence satisfies both sub-patterns.

Expressions are represented as :class:`TreePattern`, an immutable AST with
four node kinds: ``label``, ``child``, ``desc`` and ``and``. Rendering uses
the paper's notation (``/is/NOUN ∧ job``); parsing accepts the same strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import RuleParseError
from ..text.dependency import DependencyTree
from ..text.sentence import Sentence
from .base import HeuristicGrammar
from .cfg import ContextFreeGrammar, treematch_grammar

AND = "∧"


@dataclass(frozen=True)
class TreePattern:
    """Immutable TreeMatch pattern AST node.

    Attributes:
        kind: One of ``"label"``, ``"child"``, ``"desc"``, ``"and"``.
        label: The terminal label for ``label`` nodes (token or POS tag).
        left / right: Sub-patterns for the binary kinds. For ``child`` and
            ``desc`` the ``left`` pattern describes the ancestor node and
            ``right`` the child/descendant.
    """

    kind: str
    label: Optional[str] = None
    left: Optional["TreePattern"] = None
    right: Optional["TreePattern"] = None

    def __post_init__(self) -> None:
        if self.kind == "label":
            if not self.label:
                raise RuleParseError("label pattern requires a label")
        elif self.kind in {"child", "desc", "and"}:
            if self.left is None or self.right is None:
                raise RuleParseError(f"{self.kind} pattern requires two children")
        else:
            raise RuleParseError(f"unknown TreePattern kind: {self.kind!r}")

    # Constructors -----------------------------------------------------------
    @staticmethod
    def leaf(label: str) -> "TreePattern":
        return TreePattern(kind="label", label=label)

    @staticmethod
    def child(parent: "TreePattern", child: "TreePattern") -> "TreePattern":
        return TreePattern(kind="child", left=parent, right=child)

    @staticmethod
    def descendant(parent: "TreePattern", descendant: "TreePattern") -> "TreePattern":
        return TreePattern(kind="desc", left=parent, right=descendant)

    @staticmethod
    def conjunction(left: "TreePattern", right: "TreePattern") -> "TreePattern":
        return TreePattern(kind="and", left=left, right=right)

    # Introspection ----------------------------------------------------------
    def size(self) -> int:
        """Number of AST nodes (proxy for derivation length)."""
        if self.kind == "label":
            return 1
        return 1 + self.left.size() + self.right.size()

    def labels(self) -> List[str]:
        """All terminal labels mentioned by the pattern (left-to-right)."""
        if self.kind == "label":
            return [self.label]
        return self.left.labels() + self.right.labels()


class TreeMatchGrammar(HeuristicGrammar):
    """Dependency-tree pattern heuristics.

    Args:
        max_pattern_size: Maximum AST size for enumerated sketch patterns.
        include_pos_leaves: Enumerate POS tags as leaf labels in addition to
            tokens (matching Definition 3's terminal set).
    """

    name = "treematch"

    def __init__(self, max_pattern_size: int = 5, include_pos_leaves: bool = True) -> None:
        if max_pattern_size < 1:
            raise ValueError("max_pattern_size must be at least 1")
        self.max_pattern_size = max_pattern_size
        self.include_pos_leaves = include_pos_leaves

    # ------------------------------------------------------------- matching
    def matches(self, expression: TreePattern, sentence: Sentence) -> bool:
        pattern = self._validate(expression)
        tree = sentence.tree
        if tree is None or len(tree) == 0:
            return False
        return self._match_pattern(pattern, tree)

    def _match_pattern(self, pattern: TreePattern, tree: DependencyTree) -> bool:
        if pattern.kind == "and":
            return self._match_pattern(pattern.left, tree) and self._match_pattern(
                pattern.right, tree
            )
        return len(self._match_nodes(pattern, tree)) > 0

    def _match_nodes(self, pattern: TreePattern, tree: DependencyTree) -> List[int]:
        """Nodes of ``tree`` at which ``pattern`` is rooted."""
        if pattern.kind == "label":
            return tree.nodes_with_label(pattern.label)
        if pattern.kind == "and":
            # A conjunction is not anchored at a single node; treat as the set
            # of nodes matching the left side when the right side matches
            # anywhere (used only when nested inside child/desc).
            if self._match_pattern(pattern.right, tree):
                return self._match_nodes(pattern.left, tree)
            return []
        parent_nodes = self._match_nodes(pattern.left, tree)
        if not parent_nodes:
            return []
        child_nodes = set(self._match_nodes(pattern.right, tree))
        if not child_nodes:
            return []
        matched: List[int] = []
        for node in parent_nodes:
            related = (
                tree.children(node) if pattern.kind == "child" else tree.descendants(node)
            )
            if any(r in child_nodes for r in related):
                matched.append(node)
        return matched

    # ---------------------------------------------------------- enumeration
    def enumerate_expressions(
        self, sentence: Sentence, max_depth: int
    ) -> Iterable[TreePattern]:
        """Enumerate patterns the sentence satisfies.

        The compact derivation sketch for TreeMatch is the dependency tree
        itself (Section 3.1); here we enumerate the useful pattern shapes up to
        the configured size: single labels, parent/child label pairs,
        ancestor/descendant label pairs, and child pairs conjoined with one
        extra label.
        """
        tree = sentence.tree
        if tree is None or len(tree) == 0:
            return
        limit = min(self.max_pattern_size, max_depth)
        # Insertion-ordered (not a set): the first 50 child patterns below
        # must not depend on hash order, which differs between processes.
        seen: Dict[TreePattern, None] = {}

        def emit(pattern: TreePattern) -> Iterable[TreePattern]:
            if pattern not in seen:
                seen[pattern] = None
                yield pattern

        node_labels: List[Tuple[int, str]] = []
        for index in range(len(tree)):
            labels = [tree.tokens[index]]
            if self.include_pos_leaves:
                labels.append(tree.tags[index])
            for label in labels:
                node_labels.append((index, label))
                if limit >= 1:
                    yield from emit(TreePattern.leaf(label))

        if limit < 3:
            return

        label_by_node: dict = {}
        for index, label in node_labels:
            label_by_node.setdefault(index, []).append(label)

        for head, dependent in tree.edges():
            for head_label in label_by_node.get(head, []):
                for dep_label in label_by_node.get(dependent, []):
                    yield from emit(
                        TreePattern.child(
                            TreePattern.leaf(head_label), TreePattern.leaf(dep_label)
                        )
                    )

        if limit >= 3:
            for ancestor in range(len(tree)):
                descendants = tree.descendants(ancestor)
                for descendant in descendants:
                    # Skip direct children: already covered by the child patterns.
                    if tree.heads[descendant] == ancestor:
                        continue
                    for anc_label in label_by_node.get(ancestor, []):
                        for dec_label in label_by_node.get(descendant, []):
                            yield from emit(
                                TreePattern.descendant(
                                    TreePattern.leaf(anc_label),
                                    TreePattern.leaf(dec_label),
                                )
                            )

        if limit >= 5:
            # Child pattern conjoined with one additional token leaf.
            content_tokens = dict.fromkeys(
                tree.tokens[i] for i in range(len(tree)) if tree.tags[i] != "PUNCT"
            )
            child_patterns = [p for p in seen if p.kind == "child"]
            for pattern in child_patterns[:50]:
                mentioned = set(pattern.labels())
                for token in content_tokens:
                    if token in mentioned:
                        continue
                    yield from emit(
                        TreePattern.conjunction(pattern, TreePattern.leaf(token))
                    )

    # --------------------------------------------------------- neighbourhood
    def generalizations(self, expression: TreePattern) -> List[TreePattern]:
        pattern = self._validate(expression)
        if pattern.kind == "label":
            return []
        parents: List[TreePattern] = []
        if pattern.kind == "and":
            parents.extend([pattern.left, pattern.right])
        elif pattern.kind in {"child", "desc"}:
            parents.extend([pattern.left, pattern.right])
            if pattern.kind == "child":
                # A child constraint generalizes to the looser descendant one.
                parents.append(TreePattern.descendant(pattern.left, pattern.right))
        unique: List[TreePattern] = []
        for parent in parents:
            if parent != pattern and parent not in unique:
                unique.append(parent)
        return unique

    def specializations(
        self, expression: TreePattern, sentence: Optional[Sentence] = None
    ) -> List[TreePattern]:
        pattern = self._validate(expression)
        children: List[TreePattern] = []
        if sentence is None or sentence.tree is None:
            return children
        tree = sentence.tree
        if pattern.size() >= self.max_pattern_size:
            return children
        if pattern.kind == "label":
            # Attach a child / descendant constraint drawn from the tree.
            for node in self._match_nodes(pattern, tree):
                for child in tree.children(node):
                    for label in (tree.tokens[child], tree.tags[child]):
                        candidate = TreePattern.child(pattern, TreePattern.leaf(label))
                        if candidate not in children:
                            children.append(candidate)
        elif pattern.kind == "desc":
            # A descendant constraint specializes to the tighter child one.
            tighter = TreePattern.child(pattern.left, pattern.right)
            if self.matches(tighter, sentence):
                children.append(tighter)
        # Any pattern can be conjoined with an additional token present in the
        # sentence.
        mentioned = set(pattern.labels())
        for index in range(len(tree)):
            token = tree.tokens[index]
            if token in mentioned or tree.tags[index] == "PUNCT":
                continue
            candidate = TreePattern.conjunction(pattern, TreePattern.leaf(token))
            if candidate not in children:
                children.append(candidate)
        return [c for c in children if self.matches(c, sentence)]

    # -------------------------------------------------------------- plumbing
    def formal_grammar(self, vocabulary: Sequence[str]) -> ContextFreeGrammar:
        return treematch_grammar(vocabulary)

    def render(self, expression: TreePattern) -> str:
        pattern = self._validate(expression)
        return self._render(pattern)

    def _render(self, pattern: TreePattern) -> str:
        if pattern.kind == "label":
            return pattern.label
        if pattern.kind == "child":
            return f"{self._render(pattern.left)}/{self._render(pattern.right)}"
        if pattern.kind == "desc":
            return f"{self._render(pattern.left)}//{self._render(pattern.right)}"
        return f"{self._render(pattern.left)} {AND} {self._render(pattern.right)}"

    def parse(self, text: str) -> TreePattern:
        if text is None or not text.strip():
            raise RuleParseError("empty TreeMatch rule")
        return self._parse_conjunction(text.strip())

    def _parse_conjunction(self, text: str) -> TreePattern:
        parts = [part.strip() for part in text.split(AND)]
        if any(not part for part in parts):
            raise RuleParseError(f"malformed TreeMatch conjunction: {text!r}")
        patterns = [self._parse_path(part) for part in parts]
        result = patterns[0]
        for pattern in patterns[1:]:
            result = TreePattern.conjunction(result, pattern)
        return result

    def _parse_path(self, text: str) -> TreePattern:
        # Split on '//' first, then '/' within the remaining segments, keeping
        # the operators. A leading '/' (as in '/is/NOUN') is tolerated and
        # ignored, matching the paper's rendering.
        text = text.strip()
        if text.startswith("/") and not text.startswith("//"):
            text = text[1:]
        tokens: List[str] = []
        operators: List[str] = []
        remaining = text
        while remaining:
            double = remaining.find("//")
            single = remaining.find("/")
            if double == -1 and single == -1:
                tokens.append(remaining)
                break
            if double != -1 and (single == -1 or double <= single):
                cut, op, advance = double, "desc", 2
            else:
                cut, op, advance = single, "child", 1
            tokens.append(remaining[:cut])
            operators.append(op)
            remaining = remaining[cut + advance:]
        tokens = [tok.strip() for tok in tokens]
        if any(not tok for tok in tokens):
            raise RuleParseError(f"malformed TreeMatch path: {text!r}")
        pattern = TreePattern.leaf(self._normalize_label(tokens[0]))
        for op, token in zip(operators, tokens[1:]):
            leaf = TreePattern.leaf(self._normalize_label(token))
            if op == "child":
                pattern = TreePattern.child(pattern, leaf)
            else:
                pattern = TreePattern.descendant(pattern, leaf)
        return pattern

    @staticmethod
    def _normalize_label(label: str) -> str:
        """POS tags stay upper-case; everything else is lowercased."""
        stripped = label.strip()
        if stripped.isupper():
            return stripped
        return stripped.lower()

    def complexity(self, expression: TreePattern) -> int:
        return self._validate(expression).size()

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _validate(expression: TreePattern) -> TreePattern:
        if not isinstance(expression, TreePattern):
            raise RuleParseError(
                f"TreeMatch expressions must be TreePattern, got {type(expression)}"
            )
        return expression

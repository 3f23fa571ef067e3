"""The corpus index (Section 3.1, Figure 6).

The index is the merge of all per-sentence derivation sketches. Each node
represents one heuristic expression and stores

* the number of sentences satisfying it (its coverage count),
* an inverted list of those sentence ids,
* links to its children (one-more-derivation-step specializations present in
  the index) and parents (generalizations present in the index).

Construction is linear in the number of sentences because the sketch of each
sentence is bounded (``max_depth`` derivation steps). A sketch depends only on
the sentence's content, so :meth:`CorpusIndex.build` builds one sketch per
distinct sentence, lays out every key's sorted sentence ids with numpy, links
parents and children, prunes keys below ``min_coverage`` and seals the result.
The per-sentence fold (:meth:`CorpusIndex.add_sketch` per sentence, then
:meth:`~CorpusIndex.link_structure`, :meth:`~CorpusIndex.prune` and
:meth:`~CorpusIndex.seal`) builds the same index and stays public.

Coverage storage is columnar: while an index is under construction each node
holds its ids in a plain Python set (or, inside :meth:`CorpusIndex.build`, a
sorted array), but once built the index is *sealed* — every
node's ids are interned into a shared :class:`~repro.index.coverage.CoverageStore`
as an immutable sorted ``int32`` array, and a sentence→keys inverted map is
derived. Sealing makes :meth:`coverage` / :meth:`heuristic` zero-copy and
:meth:`top_by_overlap` proportional to the *query* coverage (it walks the
inverted map) instead of the whole index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import CorpusIndexError
from ..grammars.base import Expression, HeuristicGrammar
from ..rules.heuristic import LabelingHeuristic
from ..text.corpus import Corpus
from .coverage import CoverageStore, CoverageView
from .nodetable import NodeTable, lexicographic_ranks
from .sketch import DerivationSketch, SketchKey, build_sketch

ROOT_KEY: SketchKey = ("*", "*")
"""The virtual root node '*' matching every sentence (Algorithm 2, line 1)."""

CoverageIds = Union[Set[int], np.ndarray, CoverageView]
"""A node's inverted list: a mutable set while folding sketches by hand, a
sorted ``int32`` array inside :meth:`CorpusIndex.build`, a view once sealed."""


def _coverage_layout(
    pair_keys: np.ndarray,
    pair_groups: np.ndarray,
    group_of: np.ndarray,
    num_keys: int,
) -> List[np.ndarray]:
    """Each key's sorted sentence ids, from the (key, group) pairs of a build.

    Every pair is repeated over its group's members (``group_of`` maps each
    sentence id to its group), and the ``key * N + sid`` codes are sorted
    once, so key ``k``'s ids are one contiguous, strictly increasing
    ``int32`` slice of the result.
    """
    num_sentences = group_of.size
    sizes = np.bincount(group_of)
    members = np.argsort(group_of, kind="stable")
    group_starts = np.cumsum(sizes) - sizes
    repeats = sizes[pair_groups]
    pair_starts = np.cumsum(repeats) - repeats
    positions = np.repeat(group_starts[pair_groups] - pair_starts, repeats)
    positions += np.arange(positions.size)
    codes = np.repeat(pair_keys * num_sentences, repeats)
    codes += members[positions]
    del positions
    codes.sort()
    bounds = np.searchsorted(codes, np.arange(1, num_keys) * num_sentences)
    return np.split((codes % num_sentences).astype(np.int32), bounds)


@dataclass
class IndexNode:
    """One heuristic node of the corpus index.

    Attributes:
        key: ``(grammar name, expression)``.
        depth: Derivation complexity of the expression (1 for unigrams/leaves).
        sentence_ids: Inverted list of covering sentence ids. A plain ``set``
            while sketches are folded by hand (a sorted ``int32`` array inside
            :meth:`CorpusIndex.build`); an interned
            :class:`~repro.index.coverage.CoverageView` once sealed.
        children: Keys of specializations present in the index.
        parents: Keys of generalizations present in the index.
    """

    key: SketchKey
    depth: int
    sentence_ids: CoverageIds = field(default_factory=set)
    children: Set[SketchKey] = field(default_factory=set)
    parents: Set[SketchKey] = field(default_factory=set)

    @property
    def count(self) -> int:
        """Number of sentences satisfying this heuristic."""
        return len(self.sentence_ids)

    @property
    def coverage_view(self) -> Optional[CoverageView]:
        """The interned coverage view (None until the index is sealed)."""
        ids = self.sentence_ids
        return ids if isinstance(ids, CoverageView) else None


class CorpusIndex:
    """Merged derivation-sketch index over a corpus.

    Args:
        grammars: The heuristic grammars indexed. Expressions are only
            interpreted by the grammar that produced them.
        max_depth: Sketch depth bound used at build time.
        min_coverage: Keys covering fewer sentences are pruned by
            :meth:`build` once every sketch has been added.
        arena_path: Arena file for the interned coverage columns (see
            :class:`~repro.index.coverage.CoverageStore`). ``None`` creates a
            temporary file, whose columns checkpoints carry inline; a real
            path makes checkpoints reference the file.
    """

    def __init__(
        self,
        grammars: Sequence[HeuristicGrammar],
        max_depth: int = 10,
        min_coverage: int = 1,
        arena_path: Optional[str] = None,
        _store: Optional[CoverageStore] = None,
    ) -> None:
        if not grammars:
            raise CorpusIndexError("at least one grammar is required")
        names = [g.name for g in grammars]
        if len(set(names)) != len(names):
            raise CorpusIndexError("grammar names must be unique")
        self.grammars: Dict[str, HeuristicGrammar] = {g.name: g for g in grammars}
        self.max_depth = max_depth
        self.min_coverage = min_coverage
        # create=True: a build always starts from an empty arena, truncating
        # any stale file at the path (reattach is the checkpoint-restore
        # path, which hands in the store restored by from_state).
        self.store = (
            _store if _store is not None
            else CoverageStore(path=arena_path, create=True)
        )
        self.nodes: Dict[SketchKey, IndexNode] = {
            ROOT_KEY: IndexNode(key=ROOT_KEY, depth=0)
        }
        self._num_sentences = 0
        self._sealed = False
        # CSR-layout inverted map (sentence id → node indices), built at seal
        # time: _inv_nodes[_inv_starts[sid]:_inv_starts[sid+1]] are the
        # positions (into _key_list) of the keys covering ``sid``.
        self._key_list: List[SketchKey] = []
        self._key_reprs: List[str] = []
        self._key_positions: Dict[SketchKey, int] = {}
        self._node_counts = np.empty(0, dtype=np.int64)
        self._inv_nodes = np.empty(0, dtype=np.int32)
        self._inv_starts = np.empty(0, dtype=np.int64)
        # Interval-encoded node table built at seal time: stable tie-break
        # ranks (count desc, repr asc), the rank→position permutation, the
        # pre/post-window table over the non-root DAG, and the memoized
        # top_by_coverage orders (keyed by grammar filter).
        self._node_ranks = np.empty(0, dtype=np.int64)
        self._rank_order = np.empty(0, dtype=np.int64)
        self._node_table: Optional[NodeTable] = None
        self._coverage_order_cache: Dict[Optional[str], List[SketchKey]] = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        corpus: Corpus,
        grammars: Sequence[HeuristicGrammar],
        max_depth: int = 10,
        min_coverage: int = 1,
        arena_path: Optional[str] = None,
    ) -> "CorpusIndex":
        """Build the index for ``corpus`` by merging per-sentence sketches.

        A sketch depends only on a sentence's content (see
        :meth:`HeuristicGrammar.enumerate_expressions`), so sentences are
        grouped by ``(text, tokens, tags, tree)`` and one sketch is built per
        group, groups taken in order of their first sentence id. Each key's
        coverage is then the union of its groups' members, laid out sorted
        with numpy. The result equals folding every sentence's sketch with
        :meth:`add_sketch` in id order: later duplicates add no new key, so
        the nodes keep the fold's insertion order.
        """
        index = cls(
            grammars,
            max_depth=max_depth,
            min_coverage=min_coverage,
            arena_path=arena_path,
        )
        num_sentences = len(corpus)
        groups: Dict[tuple, int] = {}
        group_of = np.empty(num_sentences, dtype=np.int64)
        key_numbers: Dict[SketchKey, int] = {}
        pair_keys: List[int] = []
        pair_groups: List[int] = []
        for sentence in corpus:
            content = (sentence.text, sentence.tokens, sentence.tags, sentence.tree)
            group = groups.get(content)
            if group is None:
                group = groups[content] = len(groups)
                sketch = build_sketch(sentence, grammars, max_depth)
                for key, depth in sketch.entries.items():
                    number = key_numbers.get(key)
                    if number is None:
                        number = key_numbers[key] = len(key_numbers)
                        index.nodes[key] = IndexNode(key=key, depth=depth)
                    pair_keys.append(number)
                    pair_groups.append(group)
            group_of[sentence.sentence_id] = group
        ids = _coverage_layout(
            np.array(pair_keys, dtype=np.int64),
            np.array(pair_groups, dtype=np.int64),
            group_of,
            len(key_numbers),
        )
        for key, key_ids in zip(key_numbers, ids):
            index.nodes[key].sentence_ids = key_ids
        index.nodes[ROOT_KEY].sentence_ids = np.arange(num_sentences, dtype=np.int32)
        index._num_sentences = num_sentences
        index.link_structure()
        if min_coverage > 1:
            index.prune(min_coverage)
        index.seal()
        return index

    def add_sketch(self, sketch: DerivationSketch) -> None:
        """Merge one sentence's derivation sketch into the index."""
        if self._sealed:
            self._unseal()
        self._num_sentences += 1
        root = self.nodes[ROOT_KEY]
        root.sentence_ids.add(sketch.sentence_id)
        for key, depth in sketch.entries.items():
            node = self.nodes.get(key)
            if node is None:
                node = IndexNode(key=key, depth=depth)
                self.nodes[key] = node
            node.sentence_ids.add(sketch.sentence_id)

    def link_structure(self) -> None:
        """(Re)compute parent/child links via grammar generalizations."""
        for node in self.nodes.values():
            node.children.clear()
            node.parents.clear()
        for key, node in self.nodes.items():
            if key == ROOT_KEY:
                continue
            grammar_name, expression = key
            grammar = self.grammars[grammar_name]
            parent_keys = [
                (grammar_name, parent)
                for parent in grammar.generalizations(expression)
                if (grammar_name, parent) in self.nodes
            ]
            if not parent_keys:
                parent_keys = [ROOT_KEY]
            for parent_key in parent_keys:
                node.parents.add(parent_key)
                self.nodes[parent_key].children.add(key)

    def prune(self, min_coverage: int) -> int:
        """Drop nodes covering fewer than ``min_coverage`` sentences.

        Returns the number of nodes removed. Children of removed nodes are
        re-linked to the removed node's parents so the DAG stays connected.
        """
        to_remove = [
            key
            for key, node in self.nodes.items()
            if key != ROOT_KEY and node.count < min_coverage
        ]
        for key in to_remove:
            node = self.nodes.pop(key)
            for parent_key in node.parents:
                parent = self.nodes.get(parent_key)
                if parent is not None:
                    parent.children.discard(key)
                    for child_key in node.children:
                        if child_key in self.nodes:
                            parent.children.add(child_key)
                            self.nodes[child_key].parents.add(parent_key)
            for child_key in node.children:
                child = self.nodes.get(child_key)
                if child is not None:
                    child.parents.discard(key)
                    if not child.parents:
                        child.parents.add(ROOT_KEY)
                        self.nodes[ROOT_KEY].children.add(child_key)
        if self._sealed and to_remove:
            self._rebuild_inverted_map()
        return len(to_remove)

    # ------------------------------------------------------------------- seal
    @property
    def sealed(self) -> bool:
        """True once node coverages are interned and the inverted map exists."""
        return self._sealed

    def seal(self) -> None:
        """Intern every node's coverage and build the sentence→keys map.

        Idempotent. Called automatically at the end of :meth:`build`; call
        it manually after driving :meth:`add_sketch` / :meth:`link_structure`
        by hand to enable the columnar fast paths.
        """
        if self._sealed:
            return
        store = self.store
        # intern_many grows the universe past every id it interns (the root's
        # included); sentences may also have been counted without ids.
        store.ensure_universe(self._num_sentences)
        # One bulk intern: every new coverage is appended as a single
        # contiguous values segment (one file write) instead of one write
        # per node.
        pending = [
            node
            for node in self.nodes.values()
            if not isinstance(node.sentence_ids, CoverageView)
        ]
        views = store.intern_many([node.sentence_ids for node in pending])
        for node, view in zip(pending, views):
            node.sentence_ids = view
        store.flush()
        self._sealed = True
        self._rebuild_inverted_map()

    def _unseal(self) -> None:
        """Return nodes to mutable sets so construction may continue."""
        for node in self.nodes.values():
            if isinstance(node.sentence_ids, CoverageView):
                node.sentence_ids = set(node.sentence_ids)
        self._sealed = False
        self._key_list = []
        self._key_reprs = []
        self._key_positions = {}
        self._node_counts = np.empty(0, dtype=np.int64)
        self._inv_nodes = np.empty(0, dtype=np.int32)
        self._inv_starts = np.empty(0, dtype=np.int64)
        self._node_ranks = np.empty(0, dtype=np.int64)
        self._rank_order = np.empty(0, dtype=np.int64)
        self._node_table = None
        self._coverage_order_cache = {}

    def _rebuild_inverted_map(self) -> None:
        """Vectorized CSR construction of the sentence→keys inverted map."""
        keys = [key for key in self.nodes if key != ROOT_KEY]
        self._key_list = keys
        self._key_reprs = [repr(key) for key in keys]
        self._key_positions = {key: position for position, key in enumerate(keys)}
        self._node_counts = np.array(
            [len(self.nodes[key].sentence_ids) for key in keys], dtype=np.int64
        )
        universe = max(self.store.universe_size, self._num_sentences, 1)
        if not keys or not self._node_counts.sum():
            self._inv_nodes = np.empty(0, dtype=np.int32)
            self._inv_starts = np.zeros(universe + 1, dtype=np.int64)
            self._rebuild_node_table()
            return
        id_chunks: List[np.ndarray] = []
        node_chunks: List[np.ndarray] = []
        for position, key in enumerate(keys):
            ids = self.nodes[key].sentence_ids
            ids_array = ids.ids if isinstance(ids, CoverageView) else np.fromiter(
                ids, dtype=np.int32, count=len(ids)
            )
            if not ids_array.size:
                continue
            id_chunks.append(ids_array)
            node_chunks.append(np.full(ids_array.size, position, dtype=np.int32))
        all_ids = np.concatenate(id_chunks)
        all_nodes = np.concatenate(node_chunks)
        order = np.argsort(all_ids, kind="stable")
        sorted_ids = all_ids[order]
        self._inv_nodes = all_nodes[order]
        self._inv_starts = np.searchsorted(
            sorted_ids, np.arange(universe + 1), side="left"
        ).astype(np.int64)
        self._rebuild_node_table()

    def _rebuild_node_table(self) -> None:
        """Build the interval-encoded node table over the sealed index.

        Positions follow ``_key_list`` (the root is excluded; its children
        become the table's forest roots). The stable rank column reproduces
        the ``(count desc, repr asc)`` tie-break order once, vectorized, so
        every later ranking is integer arithmetic over the columns.
        """
        keys = self._key_list
        self._coverage_order_cache = {}
        self._node_ranks = lexicographic_ranks(self._node_counts, self._key_reprs)
        self._rank_order = np.argsort(self._node_ranks, kind="stable")
        positions = self._key_positions
        edges = [
            (positions[parent_key], position)
            for position, key in enumerate(keys)
            for parent_key in self.nodes[key].parents
            if parent_key != ROOT_KEY
        ]
        store_slots = np.fromiter(
            (
                view.slot if (view := self.nodes[key].coverage_view) is not None
                and view.slot is not None else -1
                for key in keys
            ),
            dtype=np.int64,
            count=len(keys),
        )
        depths = np.fromiter(
            (self.nodes[key].depth for key in keys),
            dtype=np.int64,
            count=len(keys),
        )
        self._node_table = NodeTable.build(
            len(keys),
            edges,
            counts=self._node_counts,
            ranks=self._node_ranks,
            store_slots=store_slots,
            depths=depths,
        )
        self._seal_columns()

    def _seal_columns(self) -> None:
        """Freeze the CSR/rank columns, matching the NodeTable contract.

        Sealed-index columns are shared by reference (coverage kernels,
        tenant pools, checkpoint bundles); ``write=False`` turns any stray
        mutation into an immediate ``ValueError`` instead of silent
        cross-reader corruption. ``_unseal`` replaces the arrays wholesale,
        so construction never needs to flip them back.
        """
        for column in (
            self._node_counts, self._inv_nodes, self._inv_starts,
            self._node_ranks, self._rank_order,
        ):
            column.setflags(write=False)

    @property
    def node_table(self) -> Optional[NodeTable]:
        """The interval-encoded node table (None until sealed)."""
        if not self._sealed:
            return None
        if self._node_table is None:
            self._rebuild_node_table()
        return self._node_table

    def node_position(self, key: SketchKey) -> int:
        """Position of ``key`` in the node table / ``_key_list`` order."""
        try:
            return self._key_positions[key]
        except KeyError:
            raise CorpusIndexError(f"no sealed node table row for key {key!r}")

    def keys_covering(self, sentence_id: int) -> List[SketchKey]:
        """All non-root keys whose coverage includes ``sentence_id``."""
        if not self._sealed:
            self.seal()
        sid = int(sentence_id)
        if sid < 0 or sid + 1 >= self._inv_starts.size:
            return []
        start, stop = self._inv_starts[sid], self._inv_starts[sid + 1]
        return [self._key_list[i] for i in self._inv_nodes[start:stop]]

    # -------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, key: SketchKey) -> bool:
        return key in self.nodes

    @property
    def num_sentences(self) -> int:
        """Number of sentences merged into the index."""
        return self._num_sentences

    def node(self, key: SketchKey) -> IndexNode:
        """The node for ``key``; raises :class:`CorpusIndexError` if absent."""
        node = self.nodes.get(key)
        if node is None:
            raise CorpusIndexError(f"no index node for key {key!r}")
        return node

    def coverage(self, key: SketchKey) -> CoverageIds:
        """Sentence ids covered by the heuristic at ``key``.

        Sealed indexes hand out the interned :class:`CoverageView` (no copy);
        unsealed indexes return a defensive set copy as before.
        """
        ids = self.node(key).sentence_ids
        if isinstance(ids, CoverageView):
            return ids
        return set(ids)

    def coverage_view(self, key: SketchKey) -> CoverageView:
        """The interned coverage view for ``key`` (seals the index if needed)."""
        if not self._sealed:
            self.seal()
        ids = self.node(key).sentence_ids
        assert isinstance(ids, CoverageView)
        return ids

    def count(self, key: SketchKey) -> int:
        """Coverage count for ``key`` (0 if absent)."""
        node = self.nodes.get(key)
        return node.count if node is not None else 0

    def overlap_count(self, key: SketchKey, mask: np.ndarray) -> int:
        """``|coverage(key) ∩ mask|`` for a boolean membership mask."""
        ids = self.node(key).sentence_ids
        if isinstance(ids, CoverageView):
            return ids.overlap_with(mask)
        return sum(1 for sid in ids if sid < mask.size and mask[sid])

    def children_of(self, key: SketchKey) -> List[SketchKey]:
        """Keys of the specializations of ``key`` present in the index."""
        return sorted(self.node(key).children, key=repr)

    def parents_of(self, key: SketchKey) -> List[SketchKey]:
        """Keys of the generalizations of ``key`` present in the index."""
        return sorted(self.node(key).parents, key=repr)

    def root_children(self) -> List[SketchKey]:
        """Keys directly below the virtual root '*'."""
        return self.children_of(ROOT_KEY)

    def keys(self) -> List[SketchKey]:
        """All non-root keys."""
        return [key for key in self.nodes if key != ROOT_KEY]

    # --------------------------------------------------------------- lookups
    def key_for(self, grammar_name: str, expression: Expression) -> SketchKey:
        """Build an index key, validating the grammar name."""
        if grammar_name not in self.grammars:
            raise CorpusIndexError(f"unknown grammar {grammar_name!r}")
        return (grammar_name, expression)

    def heuristic(self, key: SketchKey) -> LabelingHeuristic:
        """Materialize the :class:`LabelingHeuristic` for an index node.

        On a sealed index the heuristic shares the node's interned coverage
        view — materialization is O(1) instead of copying the id set.
        """
        if key == ROOT_KEY:
            raise CorpusIndexError("the virtual root is not a labeling heuristic")
        grammar_name, expression = key
        grammar = self.grammars.get(grammar_name)
        if grammar is None:
            raise CorpusIndexError(f"unknown grammar {grammar_name!r}")
        ids = self.node(key).sentence_ids
        coverage = ids if isinstance(ids, CoverageView) else frozenset(ids)
        return LabelingHeuristic(
            grammar=grammar,
            expression=expression,
            coverage_ids=coverage,
        )

    def lookup(self, grammar_name: str, expression: Expression) -> Optional[IndexNode]:
        """The node for (grammar, expression), or None if not indexed."""
        return self.nodes.get((grammar_name, expression))

    def coverage_of_expression(
        self, grammar_name: str, expression: Expression, corpus: Optional[Corpus] = None
    ) -> CoverageIds:
        """Coverage of an expression, falling back to a corpus scan if unindexed."""
        node = self.lookup(grammar_name, expression)
        if node is not None:
            ids = node.sentence_ids
            return ids if isinstance(ids, CoverageView) else set(ids)
        if corpus is None:
            return set()
        grammar = self.grammars.get(grammar_name)
        if grammar is None:
            raise CorpusIndexError(f"unknown grammar {grammar_name!r}")
        return set(grammar.coverage(expression, corpus))

    # -------------------------------------------------------------- rankings
    def top_by_coverage(
        self, limit: int, grammar_name: Optional[str] = None
    ) -> List[SketchKey]:
        """The ``limit`` keys with the largest coverage counts.

        Sealed indexes answer from the memoized rank order (computed once at
        seal time, invalidated on unseal) instead of re-sorting every
        key per call; the grammar-filtered orders are cached on first use.
        """
        if limit <= 0:
            return []
        if self._sealed:
            ranked = self._coverage_order_cache.get(grammar_name)
            if ranked is None:
                if grammar_name is None:
                    order = self._rank_order
                else:
                    grammar_mask = np.fromiter(
                        (key[0] == grammar_name for key in self._key_list),
                        dtype=bool,
                        count=len(self._key_list),
                    )
                    order = self._rank_order[grammar_mask[self._rank_order]]
                ranked = [self._key_list[i] for i in order.tolist()]
                self._coverage_order_cache[grammar_name] = ranked
            return ranked[:limit]
        keys: Iterable[SketchKey] = (
            key for key in self.keys()
            if grammar_name is None or key[0] == grammar_name
        )
        ranked = sorted(keys, key=lambda k: (-self.nodes[k].count, repr(k)))
        return ranked[:limit]

    def top_by_overlap(
        self, sentence_ids: Iterable[int], limit: int
    ) -> List[Tuple[SketchKey, int]]:
        """Keys ranked by overlap with ``sentence_ids`` (ties by coverage).

        On a sealed index this is one fused kernel with no Python in the
        inner loop: the query's inverted-map windows are gathered with a
        ``repeat``/``arange`` expansion, overlaps come from ``np.bincount``,
        and the ``(overlap desc, count desc, repr asc)`` ranking collapses to
        ``argpartition`` over a single integer composite of the overlap and
        the precomputed lexicographic rank column.
        """
        if limit <= 0:
            return []
        if self._sealed:
            starts = self._inv_starts
            sids = np.fromiter((int(s) for s in sentence_ids), dtype=np.int64)
            if sids.size:
                sids = sids[(sids >= 0) & (sids + 1 < starts.size)]
            if not sids.size:
                return []
            lo = starts[sids]
            hi = starts[sids + 1]
            lens = hi - lo
            total = int(lens.sum())
            if not total:
                return []
            gather = np.repeat(hi - np.cumsum(lens), lens) + np.arange(total)
            num_keys = len(self._key_list)
            overlaps = np.bincount(self._inv_nodes[gather], minlength=num_keys)
            nonzero = np.flatnonzero(overlaps)
            # Composite maximization key: overlap major, stable rank minor.
            # ranks are unique in [0, num_keys), so overlap*num_keys - rank
            # totally orders the nodes exactly like the legacy comparator.
            composite = (
                overlaps[nonzero].astype(np.int64) * num_keys
                - self._node_ranks[nonzero]
            )
            if nonzero.size > limit:
                top = np.argpartition(-composite, limit - 1)[:limit]
                nonzero = nonzero[top]
                composite = composite[top]
            order = np.argsort(-composite)
            ranked = nonzero[order]
            return [
                (self._key_list[i], int(overlaps[i])) for i in ranked.tolist()
            ]
        query = set(sentence_ids)
        scored = []
        for key in self.keys():
            node = self.nodes[key]
            overlap = len(node.sentence_ids & query)
            if overlap > 0:
                scored.append((key, overlap))
        scored.sort(key=lambda item: (-item[1], -self.nodes[item[0]].count, repr(item[0])))
        return scored[:limit]

    # -------------------------------------------------------- state protocol
    def to_state(self, bundle, prefix: str = "index/") -> Dict[str, object]:
        """Serialize the sealed index: store columns, nodes, and the CSR map.

        Layout:

        * the :class:`CoverageStore` contributes the interned coverage
          columns (values + offsets, see :meth:`CoverageStore.to_state`);
        * each node is ``{"g": grammar, "e": rendered expression, "d": depth,
          "s": store slot}`` in insertion order (the root first, under the
          reserved grammar name ``"*"``) — parent/child links are re-derived
          by :meth:`link_structure`, which is deterministic given the nodes;
        * the sentence→keys CSR inverted map (``inv_nodes``/``inv_starts``/
          ``node_counts``) is stored verbatim so :meth:`from_state` restores
          the sealed fast paths without a rebuild pass;
        * the interval-encoded node table (rank column + every
          :class:`~repro.index.nodetable.NodeTable` column) is stored
          verbatim, so resume reuses the exact seal-time numbering and stays
          question-identical without recomputing the DFS.
        """
        if not self._sealed:
            self.seal()
        store_state = self.store.to_state(bundle, prefix=prefix + "store/")
        slots = {
            id(view): position
            for position, view in enumerate(self.store.interned_views())
        }
        nodes = []
        for key, node in self.nodes.items():
            grammar_name, expression = key
            rendered = (
                "*" if key == ROOT_KEY
                else self.grammars[grammar_name].render(expression)
            )
            view = node.coverage_view
            nodes.append(
                {
                    "g": grammar_name,
                    "e": rendered,
                    "d": node.depth,
                    "s": slots[id(view)],
                }
            )
        if self._node_table is None:
            self._rebuild_node_table()
        return {
            "max_depth": self.max_depth,
            "min_coverage": self.min_coverage,
            "num_sentences": self._num_sentences,
            "store": store_state,
            "nodes": nodes,
            "inv_nodes": bundle.put(prefix + "inv_nodes", self._inv_nodes),
            "inv_starts": bundle.put(prefix + "inv_starts", self._inv_starts),
            "node_counts": bundle.put(prefix + "node_counts", self._node_counts),
            "node_ranks": bundle.put(prefix + "node_ranks", self._node_ranks),
            "node_table": self._node_table.to_state(bundle, prefix + "table/"),
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        bundle,
        grammars: Sequence[HeuristicGrammar],
    ) -> "CorpusIndex":
        """Rebuild a sealed index from :meth:`to_state` output.

        Args:
            state: The serialized snapshot.
            bundle: Array source (:class:`repro.engine.state.ArrayBundle`).
            grammars: Grammar instances matching the serialized grammar names
                (built by the engine from its config before the index loads).
                Arena references reattach the file the state names.
        """
        index = cls(
            grammars,
            max_depth=int(state["max_depth"]),
            min_coverage=int(state["min_coverage"]),
            _store=CoverageStore.from_state(state["store"], bundle),
        )
        views = index.store.interned_views()
        index._num_sentences = int(state["num_sentences"])
        for record in state["nodes"]:
            grammar_name = record["g"]
            view = views[int(record["s"])]
            if grammar_name == "*":
                index.nodes[ROOT_KEY].sentence_ids = view
                continue
            grammar = index.grammars.get(grammar_name)
            if grammar is None:
                raise CorpusIndexError(
                    f"checkpoint references unknown grammar {grammar_name!r}"
                )
            key = (grammar_name, grammar.parse(record["e"]))
            index.nodes[key] = IndexNode(
                key=key, depth=int(record["d"]), sentence_ids=view
            )
        index.link_structure()
        index._sealed = True
        index._key_list = [key for key in index.nodes if key != ROOT_KEY]
        index._key_reprs = [repr(key) for key in index._key_list]
        index._key_positions = {
            key: position for position, key in enumerate(index._key_list)
        }
        index._node_counts = np.asarray(
            bundle.get(state["node_counts"]), dtype=np.int64
        )
        index._inv_nodes = np.asarray(bundle.get(state["inv_nodes"]), dtype=np.int32)
        index._inv_starts = np.asarray(bundle.get(state["inv_starts"]), dtype=np.int64)
        if "node_table" in state:
            index._node_ranks = np.asarray(
                bundle.get(state["node_ranks"]), dtype=np.int64
            )
            index._rank_order = np.argsort(index._node_ranks, kind="stable")
            index._node_table = NodeTable.from_state(state["node_table"], bundle)
            index._seal_columns()
        else:
            # Pre-node-table checkpoint: derive the columns from the restored
            # graph (deterministic, so resume behaviour is unchanged).
            index._rebuild_node_table()
        return index

    def stats(self) -> Dict[str, float]:
        """Summary statistics (used by the efficiency bench)."""
        counts = np.array(
            [node.count for key, node in self.nodes.items() if key != ROOT_KEY],
            dtype=np.int64,
        )
        stats = {
            "num_nodes": float(len(self.nodes) - 1),
            "num_sentences": float(self._num_sentences),
            "mean_coverage": float(counts.mean()) if counts.size else 0.0,
            "max_coverage": float(counts.max()) if counts.size else 0.0,
        }
        if self._sealed:
            stats["interned_coverages"] = float(self.store.num_interned)
            stats["interned_bytes"] = float(self.store.bytes_interned)
        return stats

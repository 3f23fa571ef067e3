"""Corpus indexing: derivation sketches, the merged corpus index, hierarchies,
and the columnar coverage store backing all of them (its columns live in a
memory-mapped arena, so larger-than-memory coverage stays queryable)."""

from .arena import CoverageArena
from .coverage import (
    CoverageStore,
    CoverageView,
    batched_new_counts,
    batched_overlap_counts,
)
from .nodetable import NodeTable, lexicographic_ranks
from .overlay import OverlayCoverageStore
from .sketch import DerivationSketch, build_sketch
from .trie_index import CorpusIndex, IndexNode
from .hierarchy import RuleHierarchy

__all__ = [
    "CoverageArena",
    "CoverageStore",
    "CoverageView",
    "batched_new_counts",
    "batched_overlap_counts",
    "NodeTable",
    "lexicographic_ranks",
    "OverlayCoverageStore",
    "DerivationSketch",
    "build_sketch",
    "CorpusIndex",
    "IndexNode",
    "RuleHierarchy",
]

"""Checker registry + lint configuration.

Mirrors :mod:`repro.engine.registry`: checkers are string-keyed factories in
a shared :class:`~repro.engine.registry.Registry`, registered with the
``@register_checker("RPR00x")`` decorator. The driver runs every registered
checker over each file (or the subset selected with ``--select``); adding a
project invariant is one new module under ``repro/analysis/checkers/`` plus
an import in that package's ``__init__``.

A checker is a callable ``check(ctx) -> Iterable[Diagnostic]`` receiving a
:class:`~repro.analysis.driver.FileContext`. Checkers must be pure functions
of the file contents + :class:`LintConfig` — no filesystem access, no
imports of the linted code (everything is :mod:`ast`-level, so the linter
can run over files with unimportable dependencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from ..engine.registry import Registry

CHECKERS = Registry("checker")
register_checker = CHECKERS.register


def _norm(path: str) -> str:
    return path.replace("\\", "/")


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs grounding the checkers in this repo's conventions.

    The defaults encode the real invariants; tests point the path-based
    exemptions elsewhere so fixture files always trigger.
    """

    # RPR001 — modules allowed to own process-global randomness / seeds.
    rng_owner_suffixes: Tuple[str, ...] = ("repro/utils/rng.py",)

    # RPR002 — serializer method → accepted counterpart methods.
    state_pairs: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "to_state": ("from_state", "from_state_over", "load_state",
                         "restore_state"),
            "state_dict": ("load_state", "from_state", "restore_state"),
        }
    )

    # RPR003 — attribute names whose reads hand out sealed (read-only)
    # arrays: CoverageView.ids / CoverageView._ids, the NodeTable interval +
    # CSR columns, the index's inverted-map columns, and a corpus's
    # TokenColumn.ids / TokenColumn.offsets.
    sealed_attrs: frozenset = frozenset({
        "ids", "_ids", "offsets", "pre", "post", "order_by_pre", "store_slot",
        "parent_starts", "parent_ids", "child_starts", "child_ids",
        "_inv_nodes", "_inv_starts", "_node_counts", "_node_ranks",
        "_rank_order",
    })
    # Calls whose results are sealed arrays (arena slices, id normalizers).
    sealed_calls: frozenset = frozenset({
        "values_slice", "as_id_array", "_as_sorted_ids",
    })
    # ndarray methods that mutate their receiver in place.
    array_mutators: frozenset = frozenset({
        "sort", "fill", "resize", "partition", "put", "byteswap", "itemset",
    })

    # RPR004 — container methods counted as mutations of a self attribute.
    container_mutators: frozenset = frozenset({
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "pop", "popleft", "popitem", "remove", "setdefault",
        "update", "move_to_end", "sort", "reverse",
    })

    # RPR005 — modules allowed to construct registries/tracers at import
    # time (the telemetry layer itself).
    obs_owner_suffixes: Tuple[str, ...] = ("repro/obs/",)

    def path_matches(self, path: str, suffixes: Tuple[str, ...]) -> bool:
        """True when ``path`` ends with (or contains a dir of) ``suffixes``."""
        normalized = _norm(path)
        for suffix in suffixes:
            if suffix.endswith("/"):
                if suffix in normalized or normalized.startswith(suffix):
                    return True
            elif normalized.endswith(suffix):
                return True
        return False


DEFAULT_CONFIG = LintConfig()

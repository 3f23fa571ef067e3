"""Columnar coverage store: interned, immutable coverage sets.

Motivation (multi-layer refactor)
---------------------------------

Every layer of the reproduction used to round-trip coverage through copied
Python sets: the index materialized a fresh ``set`` per :meth:`coverage` call,
``heuristic()`` built a new ``frozenset`` per node, the benefit scorer walked
``C_r \\ P`` id by id in Python, and ranking by overlap intersected Python
sets against every index node. Following the compact in-memory representation
argument of "Extracting and Analyzing Hidden Graphs from Relational
Databases" (Xirogiannopoulos & Deshpande), this module replaces all of that
with a single columnar layer:

* :class:`CoverageStore` interns each **distinct** coverage exactly once as an
  immutable, sorted ``numpy`` ``int32`` array. Nodes, heuristics, and rule
  sets hold cheap :class:`CoverageView` handles; two nodes with identical
  coverage share one array (and one hash).
* :class:`CoverageView` is a :class:`collections.abc.Set` — existing callers
  that treat coverage as a set (``len``, ``in``, ``&``, ``|``, ``-``, ``<=``,
  ``==`` against plain sets) keep working unchanged — while hot paths use the
  vectorized primitives ``intersect_count``, ``subtract``, ``union_into``,
  ``overlap_with`` and ``new_ids_given`` instead of per-id Python loops.
  Intersections between two views are a ``searchsorted`` merge of the
  smaller array into the larger; the sorted array is the only representation.

Storage
-------

Interned arrays live in a memory-mapped
:class:`~repro.index.arena.CoverageArena` file; ``view.ids`` is a **zero-copy
mmap slice**, so the OS page cache decides which coverage bytes are resident
and corpora larger than RAM stay queryable. Only the offsets column and the
dedup digests stay on the heap. The arena is the file the caller names, or an
unlinked-on-close temporary file when none is given; checkpoints reference
the former and carry the latter's columns inline (see
:meth:`CoverageStore.to_state`).

Migration notes
---------------

``LabelingHeuristic.coverage_ids`` may now be a :class:`CoverageView` instead
of a ``frozenset``; both are immutable set-likes, and ``with_coverage``
accepts either (views are kept as-is, avoiding a copy). ``CorpusIndex``
seals node id-sets into interned views once construction finishes; code that
mutates ``IndexNode.sentence_ids`` after sealing must go through
``CorpusIndex.add_sketch`` (which transparently un-seals).
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Set as AbstractSet
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from .arena import CoverageArena

IdsLike = Union["CoverageView", Iterable[int], np.ndarray]

_EMPTY_IDS = np.empty(0, dtype=np.int32)
_EMPTY_IDS.setflags(write=False)


def _as_sorted_ids(ids: IdsLike) -> np.ndarray:
    """Normalize ``ids`` to a sorted, unique, read-only ``int32`` array.

    An ``int32`` array that is already strictly increasing (an O(n) check)
    is returned as a read-only view without re-sorting.
    """
    if isinstance(ids, CoverageView):
        return ids.ids
    if (
        isinstance(ids, np.ndarray)
        and ids.dtype == np.int32
        and ids.ndim == 1
        and bool(np.all(ids[1:] > ids[:-1]))
    ):
        array = ids.view()
        array.setflags(write=False)
        return array
    if not isinstance(ids, (np.ndarray, list, tuple)):
        # Sets, dict views, generators, other AbstractSets: np.asarray cannot
        # consume these directly.
        ids = list(ids)
    array = np.asarray(ids, dtype=np.int64)
    if array.ndim != 1:
        array = array.reshape(-1)
    if array.size:
        array = np.unique(array)  # sorts and dedups
    array = array.astype(np.int32, copy=False)
    array.setflags(write=False)
    return array


def _coverage_key(array: np.ndarray) -> bytes:
    """Dedup key for one normalized (sorted ``int32``) coverage array.

    A 128-bit BLAKE2b digest of the array buffer, computed without copying
    the column onto the heap, so the dedup map stays O(digest) per distinct
    coverage instead of keeping every column resident.
    """
    return hashlib.blake2b(
        np.ascontiguousarray(array, dtype=np.int32), digest_size=16
    ).digest()


class CoverageView(AbstractSet):
    """Immutable handle over one interned coverage set.

    Behaves like a ``frozenset`` of sentence ids (it is a
    :class:`collections.abc.Set`, so comparisons and binary operators against
    plain sets work, and its hash equals ``frozenset``'s for the same ids)
    while exposing vectorized primitives for the hot paths. The backing id
    array is a zero-copy slice of a memory-mapped
    :class:`~repro.index.arena.CoverageArena` (or, for tenant-local overlay
    interns, a heap array) — callers cannot tell the difference.
    """

    __slots__ = ("_ids", "_store", "_slot", "_hash")

    def __init__(
        self,
        ids: np.ndarray,
        store: Optional["CoverageStore"] = None,
        slot: Optional[int] = None,
    ) -> None:
        self._ids = ids
        self._store = store
        self._slot = slot
        self._hash: Optional[int] = None

    # ------------------------------------------------------------- columnar
    @property
    def ids(self) -> np.ndarray:
        """The sorted, unique, read-only ``int32`` id array."""
        return self._ids

    @property
    def count(self) -> int:
        """``|C|`` — number of covered sentences."""
        return int(self._ids.size)

    @property
    def store(self) -> Optional["CoverageStore"]:
        """The interning store this view belongs to (None for free views)."""
        return self._store

    @property
    def slot(self) -> Optional[int]:
        """This view's interning slot in its store (None for free views)."""
        return self._slot

    def intersect_count(self, other: IdsLike) -> int:
        """``|C ∩ other|`` without materializing the intersection."""
        if isinstance(other, np.ndarray) and other.dtype == np.bool_:
            return self.overlap_with(other)
        if other is self:
            return self.count
        a, b = self._ids, _as_sorted_ids(other)
        if not a.size or not b.size:
            return 0
        if a.size > b.size:
            a, b = b, a
        # Probe the smaller array into the larger via binary search.
        positions = np.searchsorted(b, a)
        positions[positions == b.size] = b.size - 1
        return int(np.count_nonzero(b[positions] == a))

    def subtract(self, other: IdsLike) -> np.ndarray:
        """Ids in ``C`` but not in ``other`` (sorted ``int32`` array)."""
        if isinstance(other, np.ndarray) and other.dtype == np.bool_:
            return self.new_ids_given(other)
        b = _as_sorted_ids(other)
        if not self._ids.size or not b.size:
            return self._ids
        keep = np.isin(self._ids, b, assume_unique=True, invert=True)
        return self._ids[keep]

    def union_into(self, mask: np.ndarray) -> np.ndarray:
        """Set ``mask[id] = True`` for every covered id; returns ``mask``."""
        if self._ids.size:
            mask[self._ids] = True
        return mask

    def overlap_with(self, mask: np.ndarray) -> int:
        """``|C ∩ mask|`` for a boolean membership mask."""
        if not self._ids.size:
            return 0
        ids = self._ids
        if ids[-1] >= mask.size:
            ids = ids[ids < mask.size]
            if not ids.size:
                return 0
        return int(np.count_nonzero(mask[ids]))

    def new_ids_given(self, mask: np.ndarray) -> np.ndarray:
        """Ids **not** flagged in ``mask`` (the ``C_r \\ P`` primitive)."""
        if not self._ids.size:
            return self._ids
        ids = self._ids
        if ids[-1] >= mask.size:
            inside = ids[ids < mask.size]
            outside = ids[ids >= mask.size]
            kept = inside[~mask[inside]] if inside.size else inside
            return np.concatenate([kept, outside]) if outside.size else kept
        return ids[~mask[ids]]

    def to_set(self) -> frozenset:
        """Materialize a plain ``frozenset`` (compatibility escape hatch)."""
        return frozenset(int(i) for i in self._ids)

    # ------------------------------------------------------- set protocol
    def __len__(self) -> int:
        return int(self._ids.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __contains__(self, item: object) -> bool:
        try:
            value = int(item)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        position = int(np.searchsorted(self._ids, value))
        return position < self._ids.size and int(self._ids[position]) == value

    @classmethod
    def _from_iterable(cls, iterable: Iterable[int]) -> frozenset:
        # Binary Set operators (& | - ^) produce plain frozensets: callers of
        # those operators expect generic set semantics, not interned views.
        return frozenset(iterable)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, CoverageView):
            return np.array_equal(self._ids, other._ids)
        if isinstance(other, (set, frozenset, AbstractSet)):
            return len(other) == len(self) and all(i in self for i in other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        # Matches frozenset's hash (collections.abc.Set._hash), so views and
        # frozensets with equal contents collide correctly in dicts/sets.
        if self._hash is None:
            self._hash = self._hash_ids()
        return self._hash

    def _hash_ids(self) -> int:
        return AbstractSet._hash(self)

    def __repr__(self) -> str:
        preview = ", ".join(str(int(i)) for i in self._ids[:6])
        suffix = ", ..." if self._ids.size > 6 else ""
        return f"CoverageView({{{preview}{suffix}}}, n={self._ids.size})"


class CoverageStore:
    """Interning store for coverage sets over a sentence-id universe.

    Each distinct coverage is held exactly once; :meth:`intern` returns the
    shared :class:`CoverageView` for its contents, so identical coverages are
    identical objects (``a is b``) and caches may key by ``id(view)``.

    Args:
        universe_size: Number of sentences (ids are ``0 .. universe_size-1``).
            May be grown later with :meth:`ensure_universe`. The universe
            sizes membership masks (:meth:`new_mask`); counts never depend
            on it.
        path: Arena file location. An existing arena file is reattached; a
            missing one is created. ``None`` creates a temporary file that
            is unlinked when the store is closed (or garbage collected).
        create: Force a **fresh** arena, truncating any existing file at the
            path instead of attaching to it. Index builds pass this: adopting
            a stale arena's slots into a new build would inflate the universe
            and grow the file without bound across reruns.
    """

    def __init__(
        self,
        universe_size: int = 0,
        path: Optional[str] = None,
        create: bool = False,
        _arena: Optional[CoverageArena] = None,
    ) -> None:
        self._universe = int(universe_size)
        self._views: List[CoverageView] = []
        self._by_key: Dict[bytes, int] = {}
        if _arena is not None:
            self._arena = _arena
        elif not create and path is not None and os.path.exists(path):
            self._arena = CoverageArena.open(path)
        else:
            self._arena = CoverageArena.create(path)
        self._adopt_arena_slots()
        self.empty = self.intern(())

    def _adopt_arena_slots(self) -> None:
        """Register views for every slot already present in the arena.

        Runs once at attach time: one sequential pass over the mapped values
        column computes each slot's dedup digest and the universe bound.
        The digests hash the mmap slices in place (no per-slot heap copy),
        so the pass streams through the page cache the digest verification
        in :meth:`CoverageArena.open` just warmed.
        """
        arena = self._arena
        max_id = -1
        for slot in range(arena.num_interned):
            ids = arena.values_slice(slot)
            view = CoverageView(ids, store=self, slot=slot)
            self._views.append(view)
            self._by_key.setdefault(_coverage_key(ids), slot)
            if ids.size:
                max_id = max(max_id, int(ids[-1]))
        if max_id >= 0:
            self.ensure_universe(max_id + 1)

    # ----------------------------------------------------------------- admin
    @property
    def universe_size(self) -> int:
        """Current sentence-id universe size."""
        return self._universe

    @property
    def num_interned(self) -> int:
        """Number of distinct coverage sets interned (including empty)."""
        return len(self._views)

    @property
    def bytes_interned(self) -> int:
        """Total bytes held by the interned id arrays.

        This is the on-disk values column size; the heap-resident footprint
        is :attr:`resident_coverage_bytes`.
        """
        return sum(view.ids.nbytes for view in self._views)

    @property
    def arena(self) -> CoverageArena:
        """The backing arena."""
        return self._arena

    @property
    def resident_coverage_bytes(self) -> int:
        """Heap bytes pinned by coverage data: the offsets column.

        The values column lives in the arena file and is only resident at
        the OS page cache's discretion.
        """
        return (self.num_interned + 1) * 8

    def ensure_universe(self, size: int) -> None:
        """Grow the universe to at least ``size`` sentences."""
        if size > self._universe:
            self._universe = int(size)

    # ------------------------------------------------------------- interning
    def intern(self, ids: IdsLike) -> CoverageView:
        """The unique view for ``ids`` (created on first sight)."""
        if isinstance(ids, CoverageView) and ids.store is self:
            return ids
        array = _as_sorted_ids(ids)
        key = _coverage_key(array)
        slot = self._by_key.get(key)
        if slot is not None:
            return self._views[slot]
        if array.size:
            self.ensure_universe(int(array[-1]) + 1)
        new_slot = self._arena.append(array)
        view = CoverageView(
            self._arena.values_slice(new_slot), store=self, slot=new_slot
        )
        self._by_key[key] = len(self._views)
        self._views.append(view)
        return view

    def intern_many(self, ids_list: Sequence[IdsLike]) -> List[CoverageView]:
        """Intern several coverages with one arena write; returns views.

        All new coverages are appended as **one** contiguous values segment
        (column concatenation, offsets rebased onto the current extent) —
        this is what :meth:`CorpusIndex.seal` and :meth:`from_state` call,
        keeping the number of file writes O(batches) instead of
        O(coverages).
        """
        resolved: List[Optional[CoverageView]] = []
        keys: List[Optional[bytes]] = []
        new_order: List[bytes] = []
        new_arrays: Dict[bytes, np.ndarray] = {}
        for ids in ids_list:
            if isinstance(ids, CoverageView) and ids.store is self:
                resolved.append(ids)
                keys.append(None)
                continue
            array = _as_sorted_ids(ids)
            key = _coverage_key(array)
            if key in self._by_key:
                resolved.append(self._views[self._by_key[key]])
                keys.append(None)
                continue
            resolved.append(None)
            keys.append(key)
            if key not in new_arrays:
                new_arrays[key] = array
                new_order.append(key)
        if new_order:
            arrays = [new_arrays[key] for key in new_order]
            max_id = max(
                (int(a[-1]) for a in arrays if a.size), default=-1
            )
            if max_id >= 0:
                self.ensure_universe(max_id + 1)
            slots = self._arena.append_many(arrays)
            for key, slot in zip(new_order, slots):
                view = CoverageView(
                    self._arena.values_slice(slot), store=self, slot=slot
                )
                self._by_key[key] = len(self._views)
                self._views.append(view)
        return [
            view if view is not None else self._views[self._by_key[keys[i]]]
            for i, view in enumerate(resolved)
        ]

    def from_mask(self, mask: np.ndarray) -> CoverageView:
        """Intern the coverage flagged in a boolean ``mask``."""
        return self.intern(np.flatnonzero(mask))

    def union(self, coverages: Iterable[IdsLike]) -> CoverageView:
        """Intern the union of several coverages via one running mask."""
        mask = self.new_mask()
        for coverage in coverages:
            ids = _as_sorted_ids(coverage)
            if not ids.size:
                continue
            if int(ids[-1]) >= mask.size:
                grown = np.zeros(int(ids[-1]) + 1, dtype=bool)
                grown[: mask.size] = mask
                mask = grown
            mask[ids] = True
        return self.from_mask(mask)

    def new_mask(self) -> np.ndarray:
        """A fresh all-False membership mask over the universe."""
        return np.zeros(max(self._universe, 1), dtype=bool)

    def mask_of(self, ids: IdsLike) -> np.ndarray:
        """A boolean membership mask with ``ids`` flagged."""
        array = _as_sorted_ids(ids)
        size = max(self._universe, int(array[-1]) + 1 if array.size else 1)
        mask = np.zeros(size, dtype=bool)
        if array.size:
            mask[array] = True
        return mask

    # -------------------------------------------------------- state protocol
    def interned_views(self) -> list:
        """The interned views in insertion order (slot order for checkpoints)."""
        return list(self._views)

    def flush(self) -> None:
        """Persist the backing arena."""
        self._arena.flush()

    def close(self) -> None:
        """Release the backing arena. Idempotent.

        Interned views stay readable (they hold their own reference to the
        arena's memory map), but the store stops pinning the mapping and the
        file handle — the half of the strict-unlink contract the store owns.
        A temporary arena's file is unlinked here.
        """
        self._arena.close()

    def detach_arena(self) -> None:
        """Release the arena mapping for a cross-process handoff (pre-fork).

        Closes the arena's descriptor and mapping and rebinds every interned
        view to a dormant state, so nothing in this process — and nothing a
        forked child inherits — pins the parent's mmap. Coverage reads raise
        until :meth:`reattach_arena` runs (in the child, against a fresh
        mapping of the same file).
        """
        if self._arena.closed:
            return
        self._arena.detach()
        for view in self._views:
            # Dormant marker: any accidental read fails loudly (`None` has
            # no `.size`) instead of serving stale mapped bytes.
            view._ids = None

    def reattach_arena(self) -> None:
        """Re-map the arena by path and rebind every view (post-spawn half).

        Each view's id array becomes a zero-copy slice of the *fresh*
        mapping, digest-verified by :meth:`CoverageArena.reattach` — the
        worker-process counterpart of :meth:`detach_arena`. Idempotent.
        """
        self._arena.reattach()
        for slot, view in enumerate(self._views):
            if view._ids is None:
                view._ids = self._arena.values_slice(slot)

    def find(self, ids: IdsLike) -> Optional[CoverageView]:
        """The interned view for ``ids`` if one exists, else None (no intern).

        The read-only half of :meth:`intern`: overlay stores probe their
        shared base with this before falling back to a tenant-local intern.
        """
        if isinstance(ids, CoverageView) and ids.store is self:
            return ids
        slot = self._by_key.get(_coverage_key(_as_sorted_ids(ids)))
        return self._views[slot] if slot is not None else None

    def to_state(self, bundle, prefix: str = "coverage/") -> Dict[str, object]:
        """Serialize the interned coverages.

        An arena at a caller-given path is durable, so the state is a
        **reference** — the arena path plus a content digest — instead of a
        copy of the columns; :meth:`from_state` reattaches the file and
        verifies the digest. The checkpoint stays O(manifest) no matter how
        large the coverage columns are.

        A temporary arena is unlinked when its store closes, so the state
        carries its columns **inline**: the arena's own ``int32`` values
        column and ``int64`` offsets column (CSR layout; slot ``i`` is
        ``values[offsets[i]:offsets[i+1]]``, in interning order), so other
        layers can reference coverages by slot index.

        Args:
            bundle: :class:`repro.engine.state.ArrayBundle` receiving arrays.
            prefix: Namespace for the bundle keys.
        """
        arena = self._arena
        arena.flush()
        if arena.temporary:
            return {
                "universe_size": int(self._universe),
                "num_interned": self.num_interned,
                "values": bundle.put(prefix + "values", arena.values_column()),
                "offsets": bundle.put(prefix + "offsets", arena.offsets_array()),
            }
        return {
            "universe_size": int(self._universe),
            "num_interned": self.num_interned,
            "arena": {
                "path": os.path.abspath(arena.path),
                "digest": arena.digest,
                "num_interned": arena.num_interned,
                "num_values": arena.num_values,
                "read_only": arena.read_only,
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], bundle) -> "CoverageStore":
        """Rebuild a store from :meth:`to_state` output.

        Arena references are reattached in place (the file is opened and its
        content digest verified — a missing, truncated, or modified arena
        raises :class:`~repro.errors.ConfigurationError`); inline columns
        are interned into a fresh temporary arena with one
        :meth:`intern_many`. Slot order is preserved either way, so
        ``store.interned_views()[i]`` is the view serialized at slot ``i``.

        Args:
            state: :meth:`to_state` output.
            bundle: Array source for inline states. Arena references need
                none: the arena path always comes from the state reference.
        """
        if state.get("backend") == "overlay":
            from .overlay import OverlayCoverageStore

            return OverlayCoverageStore.from_state(state, bundle)
        universe_size = int(state.get("universe_size", 0))
        recorded = state.get("num_interned")
        if "arena" in state:
            reference = state["arena"]
            if not isinstance(reference, dict) or not reference.get("path"):
                raise ConfigurationError(
                    "coverage state records no usable arena reference"
                )
            arena = CoverageArena.open(
                str(reference["path"]),
                expected_digest=reference.get("digest"),
                read_only=bool(reference.get("read_only", False)),
            )
            store = cls(universe_size=universe_size, _arena=arena)
            if recorded is not None and int(recorded) != store.num_interned:
                raise ConfigurationError(
                    f"coverage state records num_interned={recorded} but the "
                    f"arena at {arena.path} holds {store.num_interned} slots"
                )
            return store
        values = np.asarray(bundle.get(state["values"]), dtype=np.int32)
        offsets = np.asarray(bundle.get(state["offsets"]), dtype=np.int64)
        if (
            offsets.size == 0
            or int(offsets[0]) != 0
            or int(offsets[-1]) != values.size
            or (offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)))
        ):
            raise ConfigurationError(
                "coverage state offsets column is inconsistent with its "
                "values column"
            )
        if recorded is not None and int(recorded) != offsets.size - 1:
            # The offsets column is the ground truth for how many coverages
            # were serialized; trusting a disagreeing num_interned used to
            # silently truncate (or overrun) the restored store.
            raise ConfigurationError(
                f"coverage state records num_interned={recorded} but its "
                f"offsets column holds {offsets.size - 1} slots"
            )
        store = cls(universe_size=universe_size)
        store.intern_many(
            [values[offsets[i]:offsets[i + 1]] for i in range(offsets.size - 1)]
        )
        return store

    def stats(self) -> Dict[str, float]:
        """Summary statistics for diagnostics and benchmarks."""
        return {
            "universe_size": float(self._universe),
            "num_interned": float(self.num_interned),
            "bytes_interned": float(self.bytes_interned),
            "resident_coverage_bytes": float(self.resident_coverage_bytes),
        }

    def __repr__(self) -> str:
        return (
            f"CoverageStore(universe={self._universe}, "
            f"interned={self.num_interned}, arena={self._arena.path!r})"
        )


def as_id_array(ids: IdsLike) -> np.ndarray:
    """Public helper: normalize any id collection to a sorted int32 array."""
    return _as_sorted_ids(ids)


def membership_mask(ids: IdsLike, size: int) -> np.ndarray:
    """Boolean membership mask of length >= ``size`` for ``ids``."""
    array = _as_sorted_ids(ids)
    length = max(int(size), int(array[-1]) + 1 if array.size else 1)
    mask = np.zeros(length, dtype=bool)
    if array.size:
        mask[array] = True
    return mask


def batched_overlap_counts(
    views: Sequence[CoverageView], mask: np.ndarray
) -> np.ndarray:
    """``|C_i ∩ mask|`` for every view, as one fused kernel.

    Equivalent to ``[v.overlap_with(mask) for v in views]`` — ids beyond the
    mask length count as uncovered, matching :meth:`CoverageView.overlap_with`
    — but the id arrays are concatenated once and probed with a single mask
    gather, and the per-view counts fall out of a segmented prefix sum, so
    there is no Python (and no per-view numpy dispatch) in the loop.
    """
    n = len(views)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.fromiter((view.count for view in views), dtype=np.int64, count=n)
    if not int(sizes.sum()):
        return np.zeros(n, dtype=np.int64)
    all_ids = np.concatenate([view.ids for view in views])
    if int(all_ids.max()) < mask.size:
        covered = mask[all_ids]
    else:
        inside = all_ids < mask.size
        covered = inside.copy()
        covered[inside] = mask[all_ids[inside]]
    # Segmented reduction: empty views contribute no boundary (reduceat would
    # misread a repeated index), so reduce over the non-empty segments only.
    ends = np.cumsum(sizes)
    nonempty = sizes > 0
    counts = np.zeros(n, dtype=np.int64)
    counts[nonempty] = np.add.reduceat(
        covered, (ends - sizes)[nonempty], dtype=np.int64
    )
    return counts


def batched_new_counts(
    views: Sequence[CoverageView], mask: np.ndarray
) -> np.ndarray:
    """``|C_i \\ mask|`` for every view (the batched ``new_count`` kernel).

    Equivalent to ``[v.new_ids_given(mask).size for v in views]`` without
    materializing any difference arrays.
    """
    n = len(views)
    sizes = np.fromiter((view.count for view in views), dtype=np.int64, count=n)
    return sizes - batched_overlap_counts(views, mask)

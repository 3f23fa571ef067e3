"""Copy-on-write coverage overlay: tenant-local interns over a shared store.

The multi-tenant split of the Darwin loop is per-tenant *mutable* state
(rules, hierarchy, classifier weights, traversal pools) over corpus-wide
*immutable* state (the index and its interned coverage columns). This module
provides the coverage half of that split: :class:`OverlayCoverageStore` wraps
a shared, read-only base :class:`~repro.index.coverage.CoverageStore` (in a
:class:`~repro.serving.TenantPool`, one frozen arena store mapped by every
tenant) and gives each tenant its own append-only side store.

Id-space partitioning
---------------------

Slots are partitioned at attach time: the base's ``num_interned`` slots keep
ids ``0 .. base_count-1``, and tenant-local interns are numbered from
``base_count`` upward in the tenant's own slot space. Lookups probe the base
first — a coverage already interned in the shared columns resolves to the
*shared* view (same object every tenant sees, zero copies) — and only
genuinely new coverages land in the tenant's side store. The shared
CSR columns are therefore never copied, and nothing a tenant interns
can perturb another tenant's views or the shared columns (enforced by the
read-only arena attach underneath, and property-tested in
``tests/test_serving.py``).

Checkpoints
-----------

:meth:`OverlayCoverageStore.to_state` serializes the overlay as the base's
own state (for a base arena at a durable path, a path + content digest
reference — no column copy) plus the tenant-local columns inline, so a tenant
checkpoint stays O(what the tenant itself added).
:meth:`CoverageStore.from_state` dispatches ``backend == "overlay"`` states
back here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .coverage import (
    CoverageStore,
    CoverageView,
    IdsLike,
    _as_sorted_ids,
    _coverage_key,
)


class OverlayCoverageStore(CoverageStore):
    """A tenant-local coverage store layered over a shared read-only base.

    Behaves exactly like a :class:`CoverageStore` to callers (interning,
    masks, unions, the state protocol), but :meth:`intern` resolves against
    the shared base first and appends novel coverages to a tenant-local heap
    side store. The base is never written, and the overlay opens no arena of
    its own.

    Args:
        base: The shared store (typically frozen read-only).
            Must not itself be an overlay — one level of layering keeps the
            slot arithmetic trivially correct.
        universe_size: Optional larger universe for the tenant (the base's
            universe is the floor).
    """

    def __init__(self, base: CoverageStore, universe_size: int = 0) -> None:
        if isinstance(base, OverlayCoverageStore):
            raise ConfigurationError(
                "overlay stores do not stack: attach every tenant directly "
                "to the shared base store"
            )
        self._base = base
        self._base_count = base.num_interned
        # Intern-routing counters (observability): how many intern() calls
        # resolved against the shared base vs. an existing local view vs.
        # appended a new local view. Plain ints — the coordinator drives each
        # tenant single-threaded, and the pool collector only reads them.
        self._shared_routed = 0
        self._local_routed = 0
        self._local_interned = 0
        self._universe = max(base.universe_size, int(universe_size))
        self._views: List[CoverageView] = []
        self._by_key: Dict[bytes, int] = {}
        self.empty = self.intern(())

    # ----------------------------------------------------------------- layout
    @property
    def base(self) -> CoverageStore:
        """The shared base store (read-only from this overlay's view)."""
        return self._base

    @property
    def base_count(self) -> int:
        """Shared slots ``0 .. base_count-1``; local slots start here."""
        return self._base_count

    @property
    def num_interned(self) -> int:
        """Shared plus tenant-local distinct coverages."""
        return self._base_count + len(self._views)

    @property
    def num_overlay_interned(self) -> int:
        """Distinct coverages this tenant added on top of the base."""
        return len(self._views)

    @property
    def overlay_bytes(self) -> int:
        """Heap bytes held by the tenant-local id arrays."""
        return sum(view.ids.nbytes for view in self._views)

    @property
    def bytes_interned(self) -> int:
        """Shared column bytes (counted once, in the base) plus local bytes."""
        return self._base.bytes_interned + self.overlay_bytes

    @property
    def resident_coverage_bytes(self) -> int:
        """This tenant's *marginal* heap residency: the local arrays.

        The shared base's residency is deliberately excluded: it exists once
        per pool, not once per tenant, and is accounted by
        :meth:`repro.serving.TenantPool.memory_stats`.
        """
        return self.overlay_bytes

    def interned_views(self) -> list:
        """Base views (slots ``< base_count``) then local views, slot order."""
        return self._base.interned_views()[: self._base_count] + list(self._views)

    def overlay_views(self) -> List[CoverageView]:
        """The tenant-local views only, in local interning order."""
        return list(self._views)

    # -------------------------------------------------------------- interning
    def find(self, ids: IdsLike) -> Optional[CoverageView]:
        """The shared or local view for ``ids`` if interned, else None."""
        if isinstance(ids, CoverageView) and ids.store is self:
            return ids
        array = _as_sorted_ids(ids)
        shared = self._resolve_shared(array)
        if shared is not None:
            return shared
        position = self._by_key.get(_coverage_key(array))
        return self._views[position] if position is not None else None

    def _resolve_shared(self, array: np.ndarray) -> Optional[CoverageView]:
        """The base's view for ``array`` when it predates the attach point."""
        shared = self._base.find(array)
        if shared is None:
            return None
        if shared.slot is not None and shared.slot >= self._base_count:
            # Interned into the base after this overlay attached — outside
            # our frozen id space, so treat it as unknown and keep isolation.
            return None
        return shared

    def intern(self, ids: IdsLike) -> CoverageView:
        """The unique view for ``ids``: shared when the base has it, else a
        tenant-local view with a slot in the overlay id range."""
        if isinstance(ids, CoverageView):
            if ids.store is self:
                return ids
            if ids.store is self._base and (
                ids.slot is None or ids.slot < self._base_count
            ):
                self._shared_routed += 1
                return ids
        array = _as_sorted_ids(ids)
        shared = self._resolve_shared(array)
        if shared is not None:
            self._shared_routed += 1
            return shared
        key = _coverage_key(array)
        position = self._by_key.get(key)
        if position is not None:
            self._local_routed += 1
            return self._views[position]
        self._local_interned += 1
        if array.size:
            self.ensure_universe(int(array[-1]) + 1)
        view = CoverageView(
            array, store=self, slot=self._base_count + len(self._views)
        )
        self._by_key[key] = len(self._views)
        self._views.append(view)
        return view

    def intern_many(self, ids_list: Sequence[IdsLike]) -> List[CoverageView]:
        """Intern several coverages (heap side store — no bulk-write concern)."""
        return [self.intern(ids) for ids in ids_list]

    # ------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        """No-op: the base is read-only and the overlay lives on the heap."""

    def close(self) -> None:
        """No-op: the overlay owns no arena; the pool closes the base."""

    # -------------------------------------------------------- state protocol
    def to_state(self, bundle, prefix: str = "coverage/") -> Dict[str, object]:
        """Serialize as the base's state plus inline tenant-local columns.

        The base state sits under the ``base`` key (see
        :meth:`CoverageStore.to_state`): for a base arena at a durable path
        it is a path + content digest reference, so a tenant checkpoint never
        copies the shared columns; a temporary base arena is inlined. Local
        slots keep their order, so restored overlays are slot-for-slot
        identical.
        """
        views = self._views
        offsets = np.zeros(len(views) + 1, dtype=np.int64)
        for position, view in enumerate(views):
            offsets[position + 1] = offsets[position] + view.ids.size
        values = (
            np.concatenate([view.ids for view in views])
            if views and int(offsets[-1])
            else np.empty(0, dtype=np.int32)
        )
        return {
            "backend": "overlay",
            "universe_size": int(self._universe),
            "num_interned": self.num_interned,
            "base_count": self._base_count,
            "base": self._base.to_state(bundle, prefix + "base/"),
            "values": bundle.put(
                prefix + "values", values.astype(np.int32, copy=False)
            ),
            "offsets": bundle.put(prefix + "offsets", offsets),
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, object], bundle
    ) -> "OverlayCoverageStore":
        """Rebuild an overlay from :meth:`to_state` output.

        The base is reattached first (digest-verified for arena references);
        a base whose slot count no longer matches the recorded partition
        point raises :class:`~repro.errors.ConfigurationError`, because every
        node/slot reference in the checkpoint would otherwise be silently
        misaligned.
        """
        recorded_backend = state.get("backend")
        if recorded_backend is not None and recorded_backend != "overlay":
            raise ConfigurationError(
                f"state records backend {recorded_backend!r}, not an "
                f"overlay coverage store"
            )
        base_state = state.get("base")
        if not isinstance(base_state, dict):
            raise ConfigurationError(
                "overlay coverage state records no base store"
            )
        base = CoverageStore.from_state(base_state, bundle)
        return cls.from_state_over(base, state, bundle)

    @classmethod
    def from_state_over(
        cls, base: CoverageStore, state: Dict[str, object], bundle
    ) -> "OverlayCoverageStore":
        """Rebuild an overlay from :meth:`to_state` output over an
        **already-attached** base store.

        The tenant-migration path: a fleet worker adopting a checkpointed
        tenant already holds the shared base (same arena every worker maps),
        so the checkpoint's base *reference* is validated against it — slot
        partition point, and arena content digest when both sides record one
        — instead of reattaching a second copy from disk. Local columns are
        re-interned in slot order, so every coverage id the checkpointed
        Darwin state references stays aligned.
        """
        recorded_backend = state.get("backend")
        if recorded_backend is not None and recorded_backend != "overlay":
            raise ConfigurationError(
                f"state records backend {recorded_backend!r}, not an "
                f"overlay coverage store"
            )
        recorded_base = state.get("base_count")
        if recorded_base is not None and int(recorded_base) != base.num_interned:
            raise ConfigurationError(
                f"overlay state partitions the id space at base_count="
                f"{recorded_base} but the supplied base holds "
                f"{base.num_interned} slots"
            )
        base_state = state.get("base")
        if isinstance(base_state, dict):
            reference = base_state.get("arena")
            if isinstance(reference, dict):
                digest = reference.get("digest")
                if digest is not None and digest != base.arena.digest:
                    raise ConfigurationError(
                        f"overlay checkpoint references arena digest "
                        f"{digest} but the attached base arena has "
                        f"{base.arena.digest}; this tenant belongs to a "
                        f"different substrate"
                    )
        store = cls(base, universe_size=int(state.get("universe_size", 0)))
        values = np.asarray(bundle.get(state["values"]), dtype=np.int32)
        offsets = np.asarray(bundle.get(state["offsets"]), dtype=np.int64)
        if (
            offsets.size == 0
            or int(offsets[0]) != 0
            or int(offsets[-1]) != values.size
            or (offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)))
        ):
            raise ConfigurationError(
                "overlay coverage state offsets column is inconsistent with "
                "its values column"
            )
        for position in range(offsets.size - 1):
            store.intern(values[offsets[position]:offsets[position + 1]])
        recorded = state.get("num_interned")
        if recorded is not None and int(recorded) != store.num_interned:
            raise ConfigurationError(
                f"overlay coverage state records num_interned={recorded} but "
                f"the restored store holds {store.num_interned}"
            )
        return store

    def stats(self) -> Dict[str, float]:
        """Summary statistics: overlay-marginal plus the base's, prefixed."""
        stats = {
            "universe_size": float(self._universe),
            "num_interned": float(self.num_interned),
            "num_overlay_interned": float(self.num_overlay_interned),
            "overlay_bytes": float(self.overlay_bytes),
            "resident_coverage_bytes": float(self.resident_coverage_bytes),
            "shared_routed": float(self._shared_routed),
            "local_routed": float(self._local_routed),
            "local_interned": float(self._local_interned),
        }
        stats.update(
            {f"base_{key}": value for key, value in self._base.stats().items()}
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"OverlayCoverageStore(base_slots={self._base_count}, "
            f"overlay_slots={self.num_overlay_interned}, "
            f"universe={self._universe})"
        )

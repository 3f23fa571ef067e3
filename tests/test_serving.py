"""Tests for multi-tenant serving: the overlay store, the shared featurizer
cache, read-only arena attach, the tenant pool, and the serve loop.

The load-bearing properties:

* **isolation** — interleaved interns from two tenants over one shared store
  never perturb each other's views or the shared columns (hypothesis
  property, extending the arena-vs-Python-sets property to the overlay);
* **no double-compute** — tenants featurizing overlapping sentence ranges
  share one cache and identical vectors;
* **attach safety** — a read-only arena attach is digest-verified and refuses
  appends; ``close()`` is idempotent and releases the memory maps before the
  file could be unlinked (the pool's ``__exit__`` ordering).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClassifierConfig, CrowdConfig, DarwinConfig, IndexConfig
from repro.engine.engine import DarwinEngine
from repro.engine.state import ArrayBundle
from repro.errors import ConfigurationError
from repro.index.arena import CoverageArena
from repro.index.coverage import CoverageStore
from repro.index.overlay import OverlayCoverageStore
from repro.serving import TenantPool, serve
from repro.serving.pool import SharedIndexView

SEED_RULE = "best way to get to"


def serving_config(tmp_path=None, budget=5, **overrides) -> DarwinConfig:
    index = IndexConfig()
    if tmp_path is not None:
        index = IndexConfig(arena_path=str(tmp_path / "pool.arena"))
    return DarwinConfig(
        budget=budget,
        num_candidates=250,
        min_coverage=2,
        classifier=ClassifierConfig(epochs=10, embedding_dim=30),
        index=index,
        **overrides,
    )


@pytest.fixture()
def shared_base(tmp_path) -> CoverageStore:
    """A small arena-backed base store, frozen read-only (the pool shape)."""
    store = CoverageStore(path=str(tmp_path / "base.arena"))
    store.intern([1, 2, 3])
    store.intern([5, 9])
    store.intern(np.arange(0, 64, 2, dtype=np.int32))
    store.flush()
    store.arena.reopen_read_only()
    return store


class TestOverlayStore:
    def test_shared_coverages_resolve_to_base_views(self, shared_base):
        overlay = OverlayCoverageStore(shared_base)
        base_view = shared_base.find([1, 2, 3])
        assert overlay.intern([3, 2, 1]) is base_view
        assert overlay.num_overlay_interned == 0
        assert overlay.empty is shared_base.empty

    def test_new_interns_partition_the_id_space(self, shared_base):
        overlay = OverlayCoverageStore(shared_base)
        base_count = shared_base.num_interned
        first = overlay.intern([7, 11])
        second = overlay.intern([13])
        assert first.slot == base_count
        assert second.slot == base_count + 1
        assert overlay.num_interned == base_count + 2
        views = overlay.interned_views()
        assert views[first.slot] is first
        assert views[: base_count] == shared_base.interned_views()

    def test_base_is_never_written(self, shared_base):
        overlay = OverlayCoverageStore(shared_base)
        before = shared_base.num_interned
        overlay.intern([100, 200])
        overlay.union([[1, 2], [300]])
        assert shared_base.num_interned == before
        assert shared_base.find([100, 200]) is None
        with pytest.raises(ConfigurationError, match="read-only"):
            shared_base.intern([999])

    def test_two_overlays_are_isolated(self, shared_base):
        a = OverlayCoverageStore(shared_base)
        b = OverlayCoverageStore(shared_base)
        view_a = a.intern([42, 43])
        assert b.find([42, 43]) is None
        view_b = b.intern([42, 43])
        assert view_b is not view_a
        assert view_a.ids.tolist() == view_b.ids.tolist()
        assert view_a.slot == view_b.slot  # same partition point, own spaces

    def test_overlays_do_not_stack(self, shared_base):
        overlay = OverlayCoverageStore(shared_base)
        with pytest.raises(ConfigurationError, match="stack"):
            OverlayCoverageStore(overlay)

    def test_state_roundtrip_references_shared_arena(self, shared_base):
        overlay = OverlayCoverageStore(shared_base)
        local = overlay.intern([70, 71, 72])
        bundle = ArrayBundle()
        state = overlay.to_state(bundle)
        assert state["backend"] == "overlay"
        assert "values" not in state["base"]  # a reference, not a copy
        assert state["base"]["arena"]["digest"] == shared_base.arena.digest
        assert state["base"]["arena"]["read_only"] is True

        restored = CoverageStore.from_state(state, bundle)
        assert isinstance(restored, OverlayCoverageStore)
        assert restored.base_count == overlay.base_count
        assert restored.interned_views()[local.slot].ids.tolist() == [70, 71, 72]
        assert restored.base.arena.read_only
        restored.base.close()

    def test_state_rejects_mismatched_partition(self, shared_base):
        overlay = OverlayCoverageStore(shared_base)
        overlay.intern([70])
        bundle = ArrayBundle()
        state = overlay.to_state(bundle)
        state["base_count"] = 99
        with pytest.raises(ConfigurationError, match="base_count"):
            CoverageStore.from_state(state, bundle)

    def test_mixed_universe_intersections_stay_exact(self, shared_base):
        # A tenant whose universe outgrew the base still intersects exactly
        # with dense base views: counts never depend on either universe.
        overlay = OverlayCoverageStore(shared_base)
        dense_base = shared_base.find(np.arange(0, 64, 2, dtype=np.int32))
        local = overlay.intern(np.arange(0, 300, 3, dtype=np.int32))
        expected = len(set(dense_base.ids.tolist()) & set(local.ids.tolist()))
        assert local.intersect_count(dense_base) == expected
        assert dense_base.intersect_count(local) == expected


class TestOverlayInterleavingProperty:
    """The overlay extension of the arena-vs-Python-sets hypothesis property."""

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.lists(st.integers(min_value=0, max_value=120), max_size=20),
            ),
            max_size=24,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_tenant_interns_never_perturb_each_other(
        self, tmp_path_factory, ops
    ):
        tmp = tmp_path_factory.mktemp("overlay-prop")
        base = CoverageStore(path=str(tmp / "base.arena"))
        base.intern([1, 2, 3])
        base.intern(list(range(0, 100, 5)))
        base.flush()
        base.arena.reopen_read_only()
        base_snapshot = [view.ids.tolist() for view in base.interned_views()]
        base_count = base.num_interned

        overlays = [OverlayCoverageStore(base), OverlayCoverageStore(base)]
        # Reference: each tenant replayed against its own solo store
        # seeded with the same shared coverages.
        solos = []
        for _ in range(2):
            solo = CoverageStore(universe_size=base.universe_size)
            for ids in base_snapshot:
                solo.intern(ids)
            solos.append(solo)

        produced = ([], [])
        for tenant, ids in ops:
            view = overlays[tenant].intern(ids)
            solo_view = solos[tenant].intern(ids)
            produced[tenant].append((view, solo_view))
            # Same ids, and the same shared-vs-local placement decision: the
            # solo store interned the shared coverages at the same slots.
            assert view.ids.tolist() == solo_view.ids.tolist()
            assert (view.slot < base_count) == (solo_view.slot < base_count)

        # The shared columns never moved.
        assert base.num_interned == base_count
        for view, ids in zip(base.interned_views(), base_snapshot):
            assert view.ids.tolist() == ids
        # Every view a tenant was handed still reads exactly what it read at
        # intern time, regardless of what the *other* tenant did since.
        for tenant in (0, 1):
            for view, solo_view in produced[tenant]:
                assert view.ids.tolist() == solo_view.ids.tolist()
            assert (
                overlays[tenant].num_overlay_interned
                == solos[tenant].num_interned - base_count
            )
        base.close()


class TestSharedFeaturizerCache:
    def test_two_engines_share_vectors_without_double_compute(
        self, tmp_path, directions_corpus
    ):
        config = serving_config(tmp_path, budget=2)
        with TenantPool(
            directions_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            first, second = pool.spawn_many(2)
            assert first.darwin.featurizer is second.darwin.featurizer
            first.run()
            second.run()
            stats = pool.featurizer.stats()
            # Both tenants retrained and rescored over one store, whose N
            # rows were computed once in total.
            assert first.darwin.trainer.retrain_count >= 1
            assert second.darwin.trainer.retrain_count >= 1
            assert stats["misses"] == len(directions_corpus)
            assert stats["entries"] == len(directions_corpus)
            assert stats["hits"] >= 2 * len(directions_corpus)


class TestReadOnlyArenaAttach:
    def _arena(self, tmp_path, name="ro.arena"):
        path = str(tmp_path / name)
        arena = CoverageArena.create(path)
        arena.append(np.array([1, 2, 3], dtype=np.int32))
        arena.flush()
        digest = arena.digest
        arena.close()
        return path, digest

    def test_read_only_attach_verifies_digest(self, tmp_path):
        path, digest = self._arena(tmp_path)
        arena = CoverageArena.open(path, expected_digest=digest, read_only=True)
        assert arena.read_only
        assert arena.values_slice(0).tolist() == [1, 2, 3]
        arena.close()
        with pytest.raises(ConfigurationError, match="checkpoint reference"):
            CoverageArena.open(path, expected_digest="f" * 32, read_only=True)

    def test_read_only_attach_refuses_appends(self, tmp_path):
        path, _ = self._arena(tmp_path)
        arena = CoverageArena.open(path, read_only=True)
        with pytest.raises(ConfigurationError, match="read-only"):
            arena.append(np.array([9], dtype=np.int32))
        arena.close()

    def test_close_is_idempotent_and_releases_mmaps(self, tmp_path):
        path, _ = self._arena(tmp_path)
        arena = CoverageArena.open(path)
        ids = arena.values_slice(0)
        assert arena._values_map is not None
        arena.close()
        assert arena.closed and arena._values_map is None
        arena.close()  # second close must be a no-op, not an error
        # Slices handed out before close stay readable (they own a reference
        # to the map), but fresh maps are refused.
        assert ids.tolist() == [1, 2, 3]
        with pytest.raises(ConfigurationError, match="closed"):
            arena.append(np.array([4], dtype=np.int32))

    def test_reopen_read_only_freezes_in_place(self, tmp_path):
        path = str(tmp_path / "freeze.arena")
        arena = CoverageArena.create(path)
        arena.append(np.array([5, 6], dtype=np.int32))
        view_before = arena.values_slice(0)
        arena.reopen_read_only()
        assert arena.read_only
        assert view_before.tolist() == [5, 6]
        with pytest.raises(ConfigurationError, match="read-only"):
            arena.append(np.array([7], dtype=np.int32))
        arena.close()


@pytest.fixture(scope="module")
def serving_corpus(directions_corpus):
    return directions_corpus


class TestTenantPool:
    def test_tenant_history_identical_to_solo_engine(
        self, tmp_path, serving_corpus, directions_featurizer
    ):
        config = serving_config(tmp_path, budget=5)
        solo = DarwinEngine(
            serving_corpus,
            config=serving_config(budget=5),
            featurizer=directions_featurizer,
            seeds={"rule_texts": [SEED_RULE]},
        ).run()

        with TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            tenants = pool.spawn_many(3)
            results = [tenant.run() for tenant in tenants]
            for result in results:
                assert [
                    (h.rule, h.answer, h.covered) for h in result.history
                ] == [(h.rule, h.answer, h.covered) for h in solo.history]

    def test_shared_bytes_do_not_grow_with_tenants(
        self, tmp_path, serving_corpus
    ):
        config = serving_config(tmp_path, budget=4)
        with TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            pool.spawn()
            one = pool.shared_resident_bytes()
            pool.spawn_many(7)
            eight = pool.shared_resident_bytes()
            assert pool.num_tenants == 8
            # The shared substrate exists once; spawning must not copy it.
            assert eight == one

    def test_arena_attach_is_digest_verified(self, tmp_path, serving_corpus):
        config = serving_config(tmp_path, budget=4)
        with pytest.raises(ConfigurationError, match="digest"):
            TenantPool(
                serving_corpus, config, expected_digest="0" * 32,
                seeds={"rule_texts": [SEED_RULE]},
            )

    def test_tenant_checkpoint_references_shared_arena(
        self, tmp_path, serving_corpus
    ):
        config = serving_config(tmp_path, budget=4)
        pool = TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]},
            dataset_spec={
                "name": "directions",
                "options": {"num_sentences": 600, "seed": 11,
                            "parse_trees": False},
            },
        )
        try:
            tenant = pool.spawn()
            tenant.run(budget=3)
            checkpoint = tenant.save(str(tmp_path / "tenant.npz"))
            summary = DarwinEngine.describe_checkpoint(checkpoint)
            assert summary["coverage_checkpoint"] == "overlay"
            assert summary["arena"]["path"] == str(tmp_path / "pool.arena")
            assert summary["arena"]["digest"] == pool.arena_digest
            # No shared column is re-serialized into the checkpoint.
            assert not any(
                name.startswith("index/store/base/") for name in summary["arrays"]
            )

            restored = DarwinEngine.load(checkpoint)
            assert restored.questions_asked == 3
            assert isinstance(restored.darwin.index.store, OverlayCoverageStore)
            restored.darwin.index.store.base.close()
        finally:
            pool.close()

    def test_shared_index_view_refuses_mutation(self, tmp_path, serving_corpus):
        config = serving_config(tmp_path, budget=4)
        with TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            tenant = pool.spawn()
            index = tenant.darwin.index
            assert isinstance(index, SharedIndexView)
            with pytest.raises(ConfigurationError, match="read-only"):
                index.prune(2)

    def test_exit_releases_mmaps_before_unlink(self, tmp_path, serving_corpus):
        config = serving_config(tmp_path, budget=4)
        arena_path = str(tmp_path / "pool.arena")
        with TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            pool.spawn()
            arena = pool.index.store.arena
            assert arena._values_map is not None
        # __exit__ ran: tenants closed first, then the shared store — the
        # arena handle is closed and its map released, so a strict-unlink
        # filesystem could now delete the file.
        assert pool.closed
        assert arena.closed and arena._values_map is None
        pool.close()  # idempotent
        os.unlink(arena_path)
        with pytest.raises(ConfigurationError, match="not found"):
            CoverageArena.open(arena_path)
        with pytest.raises(ConfigurationError, match="closed"):
            pool.spawn()

    def test_evict_keeps_other_tenants_running(self, tmp_path, serving_corpus):
        config = serving_config(tmp_path, budget=4)
        with TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            keeper = pool.spawn("keeper")
            pool.spawn("goner")
            pool.evict("goner")
            assert pool.num_tenants == 1
            with pytest.raises(ConfigurationError, match="no tenant"):
                pool.tenant("goner")
            result = keeper.run()
            assert result.queries_used == 4


class TestServeLoop:
    def test_serve_multiplexes_tenants_on_one_loop(
        self, tmp_path, serving_corpus
    ):
        config = serving_config(tmp_path, budget=4)
        crowd = CrowdConfig(
            num_annotators=2, redundancy=1, batch_size=1,
            annotator_latency=0.0, budget=4,
        )
        solo = DarwinEngine(
            serving_corpus, config=serving_config(budget=4),
            seeds={"rule_texts": [SEED_RULE]},
        ).run()
        with TenantPool(
            serving_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            report = serve(pool, num_tenants=3, crowd_config=crowd)
            assert len(report.results) == 3
            assert report.questions_committed == 12
            for result in report.results.values():
                assert [
                    (h.rule, h.answer) for h in result.crowd.darwin_result.history
                ] == [(h.rule, h.answer) for h in solo.history]
            assert report.memory["num_tenants"] == 3.0
            assert report.answers_per_sec > 0

    def test_serve_requires_tenants(self, serving_corpus):
        with TenantPool(serving_corpus, serving_config(budget=4)) as pool:
            with pytest.raises(ConfigurationError, match="tenants"):
                serve(pool)

"""Tests for the memory-mapped coverage arena.

Covers the arena file format (create / append / reattach / corruption), the
:class:`CoverageStore` over it (zero-copy views, digest-verified checkpoint
references, inline checkpoints of temporary arenas, the
``num_interned``-vs-offsets validation bugfix), index builds checked
against plain-Python references, and the engine
checkpoint/resume path for both arena placements.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.engine import DarwinEngine
from repro.engine.state import ArrayBundle
from repro.errors import ConfigurationError
from repro.grammars import TokensRegexGrammar
from repro.index.arena import CoverageArena, HEADER_SIZE
from repro.index.coverage import CoverageStore
from repro.index.sketch import build_sketch
from repro.index.trie_index import ROOT_KEY, CorpusIndex


def arena_store(tmp_path, name="store.arena"):
    return CoverageStore(path=str(tmp_path / name))


class TestCoverageArenaFile:
    def test_create_append_reattach_roundtrip(self, tmp_path):
        path = str(tmp_path / "roundtrip.arena")
        arena = CoverageArena.create(path)
        first = arena.append(np.array([1, 5, 9], dtype=np.int32))
        second = arena.append(np.array([], dtype=np.int32))
        third = arena.append(np.array([2, 3], dtype=np.int32))
        arena.flush()
        digest = arena.digest
        arena.close()

        reattached = CoverageArena.open(path, expected_digest=digest)
        assert reattached.num_interned == 3
        assert reattached.values_slice(first).tolist() == [1, 5, 9]
        assert reattached.values_slice(second).tolist() == []
        assert reattached.values_slice(third).tolist() == [2, 3]
        reattached.close()

    def test_values_slice_is_mmap_backed(self, tmp_path):
        arena = CoverageArena.create(str(tmp_path / "mmap.arena"))
        slot = arena.append(np.arange(10, dtype=np.int32))
        ids = arena.values_slice(slot)
        root = ids
        while getattr(root, "base", None) is not None:
            root = root.base
        assert isinstance(root, (np.memmap, memoryview)) or hasattr(root, "flush")
        assert not ids.flags.writeable

    def test_append_after_reattach_keeps_earlier_slots(self, tmp_path):
        path = str(tmp_path / "grow.arena")
        arena = CoverageArena.create(path)
        arena.append(np.array([7, 8], dtype=np.int32))
        arena.flush()
        arena.close()

        grown = CoverageArena.open(path)
        grown.append(np.array([10, 20, 30], dtype=np.int32))
        grown.flush()
        grown.close()

        final = CoverageArena.open(path)
        assert final.num_interned == 2
        assert final.values_slice(0).tolist() == [7, 8]
        assert final.values_slice(1).tolist() == [10, 20, 30]
        final.close()

    def test_append_self_commits_without_explicit_flush(self, tmp_path):
        path = str(tmp_path / "autocommit.arena")
        arena = CoverageArena.create(path)
        arena.append(np.array([4, 5], dtype=np.int32))
        arena.append(np.array([6], dtype=np.int32))
        # No flush() call: every append batch must leave the file consistent.
        reattached = CoverageArena.open(path)
        assert reattached.num_interned == 2
        assert reattached.values_slice(0).tolist() == [4, 5]
        assert reattached.values_slice(1).tolist() == [6]
        reattached.close()
        arena.close()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            CoverageArena.open(str(tmp_path / "nope.arena"))

    def test_garbage_header_raises(self, tmp_path):
        path = tmp_path / "garbage.arena"
        path.write_bytes(b"not an arena at all" * 300)
        with pytest.raises(ConfigurationError, match="not a coverage arena"):
            CoverageArena.open(str(path))

    def test_truncated_file_raises(self, tmp_path):
        path = str(tmp_path / "truncated.arena")
        arena = CoverageArena.create(path)
        arena.append(np.arange(100, dtype=np.int32))
        arena.flush()
        arena.close()
        with open(path, "r+b") as handle:
            handle.truncate(HEADER_SIZE + 40)
        with pytest.raises(ConfigurationError, match="truncated"):
            CoverageArena.open(path)

    def test_corrupted_values_raise(self, tmp_path):
        path = str(tmp_path / "corrupt.arena")
        arena = CoverageArena.create(path)
        arena.append(np.arange(50, dtype=np.int32))
        arena.flush()
        arena.close()
        with open(path, "r+b") as handle:
            handle.seek(HEADER_SIZE + 8)
            handle.write(b"\xde\xad\xbe\xef")
        with pytest.raises(ConfigurationError, match="corrupted"):
            CoverageArena.open(path)

    def test_expected_digest_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "swapped.arena")
        arena = CoverageArena.create(path)
        arena.append(np.array([1, 2], dtype=np.int32))
        arena.flush()
        arena.close()
        with pytest.raises(ConfigurationError, match="checkpoint reference"):
            CoverageArena.open(path, expected_digest="0" * 32)


class TestArenaStore:
    def test_interning_dedup_and_set_semantics(self, tmp_path):
        store = arena_store(tmp_path)
        view = store.intern([4, 2, 2, 8])
        again = store.intern({8, 4, 2})
        assert view is again
        assert view == {2, 4, 8}
        assert view.ids.tolist() == [2, 4, 8]
        assert 4 in view and 5 not in view
        assert store.intern([]) is store.empty

    def test_empty_store_state_roundtrip(self, tmp_path):
        store = arena_store(tmp_path)
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        assert state["arena"]["path"] == store.arena.path
        restored = CoverageStore.from_state(state, bundle)
        assert restored.arena.path == store.arena.path
        assert restored.num_interned == 1  # just the empty slot
        assert restored.empty.count == 0

    def test_reattach_after_restart(self, tmp_path):
        store = arena_store(tmp_path)
        coverages = [[1, 2, 3], [9], [5, 6], list(range(40))]
        views = [store.intern(ids) for ids in coverages]
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        del store, views  # "process exit": drop every live handle

        restored = CoverageStore.from_state(state, bundle)
        assert restored.num_interned == 1 + len(coverages)
        for position, ids in enumerate(coverages):
            view = restored.interned_views()[position + 1]
            assert view.ids.tolist() == sorted(ids)
            assert restored.intern(ids) is view

    def test_from_state_digest_mismatch_raises(self, tmp_path):
        store = arena_store(tmp_path)
        store.intern(np.arange(64, dtype=np.int32))
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        # Mutate the arena after the checkpoint reference was taken.
        store.intern([999, 1000])
        store.flush()
        with pytest.raises(ConfigurationError, match="digest"):
            CoverageStore.from_state(state, bundle)

    def test_from_state_missing_arena_raises(self, tmp_path):
        store = arena_store(tmp_path)
        store.intern([1, 2])
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        os.unlink(state["arena"]["path"])
        with pytest.raises(ConfigurationError, match="not found"):
            CoverageStore.from_state(state, bundle)

    def test_from_state_num_interned_mismatch_arena(self, tmp_path):
        store = arena_store(tmp_path)
        store.intern([1, 2])
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        state["num_interned"] = 7
        with pytest.raises(ConfigurationError, match="num_interned"):
            CoverageStore.from_state(state, bundle)

    def test_from_state_num_interned_mismatch_inline(self):
        # The bugfix: a disagreeing num_interned used to silently truncate
        # the restored store instead of raising.
        store = CoverageStore(universe_size=16)
        store.intern([1, 2])
        store.intern([3])
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        state["num_interned"] = 1
        with pytest.raises(ConfigurationError, match="num_interned"):
            CoverageStore.from_state(state, bundle)

    def test_from_state_inconsistent_offsets_inline(self):
        store = CoverageStore(universe_size=16)
        store.intern([1, 2, 3])
        bundle = ArrayBundle()
        state = store.to_state(bundle)
        bad_bundle = ArrayBundle()
        bad_bundle.put(state["values"], bundle.get(state["values"]))
        bad_bundle.put(state["offsets"], np.array([0, 99], dtype=np.int64))
        state["num_interned"] = 1
        with pytest.raises(ConfigurationError, match="offsets"):
            CoverageStore.from_state(state, bad_bundle)


class TestArenaStoreProperties:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=120), max_size=25),
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_arena_interning_matches_memory(self, tmp_path_factory, coverages):
        """Arena interning agrees view for view with in-memory Python sets."""
        tmp = tmp_path_factory.mktemp("arena-prop")
        arena = CoverageStore(path=str(tmp / "prop.arena"))
        arena.ensure_universe(128)
        views = [arena.intern(ids) for ids in coverages]
        expected = [frozenset(ids) for ids in coverages]
        # One slot per distinct coverage, plus the empty slot.
        assert arena.num_interned == len(set(expected) | {frozenset()})
        probe = np.zeros(128, dtype=bool)
        probe[::3] = True
        probe_ids = set(range(0, 128, 3))
        for view, ids, reference in zip(views, coverages, expected):
            assert view.ids.tolist() == sorted(set(ids))
            assert view.to_set() == reference
            assert hash(view) == hash(reference)
            assert view.overlap_with(probe) == len(reference & probe_ids)
            for other, other_reference in zip(views, expected):
                assert view.intersect_count(other) == len(
                    reference & other_reference
                )


def _reference_coverage(corpus, grammars, max_depth, min_coverage):
    """Per-key sentence-id sets from the raw sketches, in plain dicts."""
    coverage = {ROOT_KEY: set()}
    for sentence in corpus:
        sketch = build_sketch(sentence, grammars, max_depth)
        coverage[ROOT_KEY].add(sketch.sentence_id)
        for key in sketch.entries:
            coverage.setdefault(key, set()).add(sketch.sentence_id)
    return {
        key: ids for key, ids in coverage.items()
        if key == ROOT_KEY or len(ids) >= min_coverage
    }


class TestArenaIndex:
    def test_serial_build_matches_memory(self, tmp_path, directions_corpus):
        """A serial build equals in-memory dict coverage from the sketches."""
        grammars = [TokensRegexGrammar(max_phrase_len=4)]
        reference = _reference_coverage(directions_corpus, grammars, 10, 2)
        index = CorpusIndex.build(
            directions_corpus, grammars, max_depth=10, min_coverage=2,
            arena_path=str(tmp_path / "serial.arena"),
        )
        assert set(index.nodes) == set(reference)
        for key, ids in reference.items():
            assert list(index.nodes[key].sentence_ids) == sorted(ids)
        query = set(sorted(directions_corpus.positive_ids())[:15])
        ranked = sorted(
            (
                (key, len(ids & query))
                for key, ids in reference.items()
                if key != ROOT_KEY and ids & query
            ),
            key=lambda item: (-item[1], -len(reference[item[0]]), repr(item[0])),
        )
        assert index.top_by_overlap(query, 25) == ranked[:25]

    def test_rebuild_over_existing_arena_path_starts_fresh(
        self, tmp_path, example1_corpus, tokensregex
    ):
        # A fresh build must truncate a stale arena at the same path, not
        # adopt its slots (which would inflate the universe) or grow the
        # file across reruns.
        path = str(tmp_path / "reused.arena")
        stale = CoverageStore(path=path)
        stale.intern(np.arange(0, 200_000, 7, dtype=np.int32))
        stale.flush()
        del stale
        first_size = os.path.getsize(path)

        index = CorpusIndex.build(
            example1_corpus, [tokensregex], max_depth=6, arena_path=path
        )
        assert index.store.universe_size == len(example1_corpus)
        assert os.path.getsize(path) < first_size
        again = CorpusIndex.build(
            example1_corpus, [tokensregex], max_depth=6, arena_path=path
        )
        assert again.store.num_interned == index.store.num_interned


ENGINE_SPEC = {
    "dataset": {"name": "directions", "num_sentences": 400, "seed": 3,
                "parse_trees": False},
    "config": {"budget": 8, "num_candidates": 300,
               "grammars": ["tokensregex"], "oracle": "ground_truth",
               "classifier": {"model": "logistic", "epochs": 10,
                              "embedding_dim": 30}},
    "seeds": {"rule_texts": ["best way to get to"]},
}


def engine_spec(tmp_path=None):
    import copy

    spec = copy.deepcopy(ENGINE_SPEC)
    if tmp_path is not None:
        spec["config"]["index"] = {"arena_path": str(tmp_path / "engine.arena")}
    return spec


class TestArenaEngine:
    def test_checkpoint_resume_matches_uninterrupted_run(self, tmp_path):
        uninterrupted = DarwinEngine.from_config(engine_spec()).run().history

        engine = DarwinEngine.from_config(engine_spec(tmp_path))
        engine.run(budget=4)
        checkpoint = str(tmp_path / "engine.npz")
        engine.save(checkpoint)

        resumed = DarwinEngine.load(checkpoint)
        assert resumed.darwin.index.store.arena.path == str(
            tmp_path / "engine.arena"
        )
        assert resumed.questions_asked == 4
        result = resumed.run(budget=8)
        assert result.history == uninterrupted

    def test_temp_arena_checkpoint_outlives_its_arena(self, tmp_path):
        uninterrupted = DarwinEngine.from_config(engine_spec()).run().history

        engine = DarwinEngine.from_config(engine_spec())
        arena_path = engine.darwin.index.store.arena.path
        engine.run(budget=4)
        checkpoint = str(tmp_path / "inline.npz")
        engine.save(checkpoint)
        engine.darwin.index.store.close()
        del engine
        assert not os.path.exists(arena_path)

        summary = DarwinEngine.describe_checkpoint(checkpoint)
        assert summary["coverage_checkpoint"] == "inline"
        assert summary["arena"] is None
        assert {"index/store/values", "index/store/offsets"} <= set(
            summary["arrays"]
        )
        resumed = DarwinEngine.load(checkpoint)
        assert resumed.questions_asked == 4
        assert resumed.run(budget=8).history == uninterrupted

    def test_checkpoint_is_reference_not_copy(self, tmp_path):
        engine = DarwinEngine.from_config(engine_spec(tmp_path))
        engine.run(budget=3)
        checkpoint = str(tmp_path / "reference.npz")
        engine.save(checkpoint)
        summary = DarwinEngine.describe_checkpoint(checkpoint)
        assert summary["coverage_checkpoint"] == "reference"
        assert summary["arena"]["path"] == str(tmp_path / "engine.arena")
        # The coverage columns must not be re-serialized into the npz.
        assert not any(
            name.startswith("index/store/") for name in summary["arrays"]
        )

    def test_load_with_deleted_arena_raises(self, tmp_path):
        engine = DarwinEngine.from_config(engine_spec(tmp_path))
        engine.run(budget=3)
        checkpoint = str(tmp_path / "dangling.npz")
        engine.save(checkpoint)
        del engine
        os.unlink(str(tmp_path / "engine.arena"))
        with pytest.raises(ConfigurationError, match="not found"):
            DarwinEngine.load(checkpoint)

    def test_load_with_tampered_arena_raises(self, tmp_path):
        engine = DarwinEngine.from_config(engine_spec(tmp_path))
        engine.run(budget=3)
        checkpoint = str(tmp_path / "tampered.npz")
        engine.save(checkpoint)
        del engine
        with open(str(tmp_path / "engine.arena"), "r+b") as handle:
            handle.seek(HEADER_SIZE)
            handle.write(b"\xff\xff\xff\x7f")
        with pytest.raises(ConfigurationError, match="corrupted|digest"):
            DarwinEngine.load(checkpoint)

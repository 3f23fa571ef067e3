"""Kernel/legacy equivalence for the interval-encoded node tables.

Every windowed kernel introduced by the node-table refactor must return
*identical* results to the per-node Python path it replaced: rankings
(``top_by_overlap``/``top_by_coverage``), hierarchy cleanup survivors,
reachability sets, and benefit counts. The hypothesis properties below
compare each kernel against a faithful reference implementation on random
graphs/corpora; the Darwin history test replays a full interactive run with
the legacy paths monkeypatched back in and asserts the question sequence is
unchanged (on both arena placements, temporary and durable path, via the
session-parametrized fixtures).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ClassifierConfig, DarwinConfig
from repro.core.benefit import BenefitScorer
from repro.core.darwin import Darwin
from repro.core.oracle import GroundTruthOracle
from repro.datasets import load_dataset
from repro.engine.state import ArrayBundle
from repro.grammars import TokensRegexGrammar
from repro.index import CorpusIndex, NodeTable, RuleHierarchy
from repro.index.coverage import (
    CoverageStore,
    batched_new_counts,
    batched_overlap_counts,
)
from repro.index.nodetable import lexicographic_ranks
from repro.rules.heuristic import LabelingHeuristic

_GRAMMAR = TokensRegexGrammar(max_phrase_len=4)


# ----------------------------------------------------------------- strategies
@st.composite
def random_dags(draw):
    """(num_nodes, edges, counts) with edges i->j only for i < j (acyclic)."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=36, unique=True)
    ) if pairs else []
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n)
    )
    return n, edges, counts


@st.composite
def random_coverages(draw):
    """A list of coverage id-lists plus a covered subset of the universe."""
    universe = draw(st.integers(min_value=1, max_value=60))
    coverages = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=universe - 1),
                min_size=0, max_size=20,
            ),
            min_size=1, max_size=12,
        )
    )
    covered = draw(
        st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=40)
    )
    return universe, coverages, set(covered)


def _placed_store(arena_placement: str, tmp_path, name: str) -> CoverageStore:
    """A store on the parametrized arena placement (see ``conftest.py``)."""
    path = str(tmp_path / name) if arena_placement == "arena" else None
    return CoverageStore(path=path)


def _mk_rule(tag: int, coverage) -> LabelingHeuristic:
    """A distinct TokensRegex rule carrying frozenset coverage."""
    phrase = " ".join(f"w{digit}" for digit in str(tag))
    return LabelingHeuristic(_GRAMMAR, _GRAMMAR.parse(phrase), frozenset(coverage))


# ------------------------------------------------------------ rank column
class TestLexicographicRanks:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.text(max_size=6)),
            min_size=0, max_size=30,
        )
    )
    @settings(max_examples=80)
    def test_matches_python_sort(self, items):
        counts = np.array([count for count, _ in items], dtype=np.int64)
        reprs = [text for _, text in items]
        ranks = lexicographic_ranks(counts, reprs)
        # Reference: position under (count desc, repr asc), stable.
        order = sorted(
            range(len(items)), key=lambda i: (-counts[i], reprs[i], i)
        )
        expected = np.empty(len(items), dtype=np.int64)
        expected[order] = np.arange(len(items))
        assert ranks.tolist() == expected.tolist()


# ------------------------------------------------------------- graph kernels
def _reference_closure(n, edges, start, forward):
    adjacency = {i: set() for i in range(n)}
    for parent, child in edges:
        if forward:
            adjacency[parent].add(child)
        else:
            adjacency[child].add(parent)
    seen = set()
    frontier = list(adjacency[start])
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(adjacency[node])
    return seen


class TestNodeTableGraph:
    @given(random_dags())
    @settings(max_examples=120, deadline=None)
    def test_reachability_matches_reference(self, dag):
        n, edges, counts = dag
        counts = np.asarray(counts, dtype=np.int64)
        ranks = lexicographic_ranks(counts, [str(i) for i in range(n)])
        table = NodeTable.build(n, edges, counts=counts, ranks=ranks)
        for node in range(n):
            descendants = set(table.descendants_of(node).tolist())
            ancestors = set(table.ancestors_of(node).tolist())
            assert descendants == _reference_closure(n, edges, node, True)
            assert ancestors == _reference_closure(n, edges, node, False)

    @given(random_dags())
    @settings(max_examples=120, deadline=None)
    def test_adjacency_windows_in_rank_order(self, dag):
        n, edges, counts = dag
        counts = np.asarray(counts, dtype=np.int64)
        ranks = lexicographic_ranks(counts, [str(i) for i in range(n)])
        table = NodeTable.build(n, edges, counts=counts, ranks=ranks)
        parents = {i: set() for i in range(n)}
        children = {i: set() for i in range(n)}
        for parent, child in edges:
            children[parent].add(child)
            parents[child].add(parent)
        for node in range(n):
            got_children = table.children_of(node).tolist()
            got_parents = table.parents_of(node).tolist()
            assert set(got_children) == children[node]
            assert set(got_parents) == parents[node]
            assert got_children == sorted(got_children, key=lambda i: ranks[i])
            assert got_parents == sorted(got_parents, key=lambda i: ranks[i])
        assert set(table.roots().tolist()) == {
            i for i in range(n) if not parents[i]
        }
        assert set(table.leaves().tolist()) == {
            i for i in range(n) if not children[i]
        }

    @given(random_dags())
    @settings(max_examples=120, deadline=None)
    def test_forest_intervals_are_exact(self, dag):
        n, edges, counts = dag
        # Thin the edges to a forest: keep the first parent per child.
        seen_children = set()
        forest_edges = []
        for parent, child in edges:
            if child not in seen_children:
                seen_children.add(child)
                forest_edges.append((parent, child))
        counts = np.asarray(counts, dtype=np.int64)
        ranks = lexicographic_ranks(counts, [str(i) for i in range(n)])
        table = NodeTable.build(n, forest_edges, counts=counts, ranks=ranks)
        assert table.is_forest
        for node in range(n):
            window = set(table.descendant_window(node).tolist())
            assert window == _reference_closure(n, forest_edges, node, True)
            for other in range(n):
                assert table.is_ancestor(node, other) == (
                    node in _reference_closure(n, forest_edges, other, False)
                )

    def test_state_roundtrip_is_verbatim(self):
        rng = random.Random(5)
        n = 30
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.1
        ]
        counts = np.asarray([rng.randint(0, 9) for _ in range(n)], dtype=np.int64)
        ranks = lexicographic_ranks(counts, [str(i) for i in range(n)])
        table = NodeTable.build(n, edges, counts=counts, ranks=ranks)
        bundle = ArrayBundle()
        state = table.to_state(bundle, "t/")
        restored = NodeTable.from_state(state, ArrayBundle(bundle.as_mapping()))
        for column in NodeTable.__slots__:
            if column == "is_forest":
                assert restored.is_forest == table.is_forest
            else:
                assert getattr(restored, column).tolist() == getattr(
                    table, column
                ).tolist()


# -------------------------------------------------------- batched mask kernels
class TestBatchedCoverageKernels:
    @given(random_coverages())
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_per_view_probes(self, arena_placement, tmp_path, case):
        universe, coverages, covered = case
        store = _placed_store(arena_placement, tmp_path, "kernels.arena")
        views = [store.intern(ids) for ids in coverages]
        store.flush()
        mask = np.zeros(universe, dtype=bool)
        mask[list(covered)] = True
        overlaps = batched_overlap_counts(views, mask)
        news = batched_new_counts(views, mask)
        assert overlaps.tolist() == [v.overlap_with(mask) for v in views]
        assert news.tolist() == [v.new_ids_given(mask).size for v in views]

    def test_empty_views_list(self):
        mask = np.zeros(4, dtype=bool)
        assert batched_overlap_counts([], mask).size == 0
        assert batched_new_counts([], mask).size == 0


# -------------------------------------------------------------- index kernels
def _legacy_top_by_overlap(index, sentence_ids, limit):
    query = set(sentence_ids)
    scored = []
    for key in index.keys():
        overlap = len(set(index.nodes[key].sentence_ids) & query)
        if overlap > 0:
            scored.append((key, overlap))
    scored.sort(
        key=lambda item: (-item[1], -index.nodes[item[0]].count, repr(item[0]))
    )
    return scored[:limit]


def _legacy_top_by_coverage(index, limit, grammar_name=None):
    keys = (
        key for key in index.keys()
        if grammar_name is None or key[0] == grammar_name
    )
    return sorted(keys, key=lambda k: (-index.nodes[k].count, repr(k)))[:limit]


class TestIndexKernelEquivalence:
    def test_top_by_overlap_matches_legacy(self, placed_directions_index):
        index = placed_directions_index
        rng = random.Random(17)
        n = index._num_sentences
        for _ in range(20):
            query = rng.sample(range(n), rng.randint(1, min(60, n)))
            for limit in (1, 7, 50, 10**6):
                assert index.top_by_overlap(query, limit) == \
                    _legacy_top_by_overlap(index, query, limit)
        # Out-of-range and empty queries.
        assert index.top_by_overlap([], 10) == []
        assert index.top_by_overlap([n + 5, -3], 10) == []
        assert index.top_by_overlap(range(n), 0) == []

    def test_top_by_coverage_matches_legacy(self, placed_directions_index):
        index = placed_directions_index
        for limit in (1, 5, 100, 10**6):
            assert index.top_by_coverage(limit) == \
                _legacy_top_by_coverage(index, limit)
            assert index.top_by_coverage(limit, "tokensregex") == \
                _legacy_top_by_coverage(index, limit, "tokensregex")
        assert index.top_by_coverage(0) == []
        assert index.top_by_coverage(3, "no-such-grammar") == []

    def test_coverage_memo_survives_repeat_calls(self, placed_directions_index):
        index = placed_directions_index
        first = index.top_by_coverage(25)
        assert index.top_by_coverage(25) == first
        assert None in index._coverage_order_cache

    def test_node_table_alignment(self, placed_directions_index):
        index = placed_directions_index
        table = index.node_table
        assert table is not None
        assert len(table) == len(index._key_list)
        for key in random.Random(3).sample(index._key_list, 25):
            position = index.node_position(key)
            assert table.count[position] == index.nodes[key].count
            view = index.nodes[key].coverage_view
            if view is not None and view.slot is not None:
                assert table.store_slot[position] == view.slot

    def test_unseal_invalidates_table_and_memo(self, example1_corpus):
        grammar = TokensRegexGrammar(max_phrase_len=4)
        index = CorpusIndex.build(example1_corpus, [grammar], max_depth=4)
        assert index.node_table is not None
        index.top_by_coverage(5)
        assert index._coverage_order_cache
        index._unseal()
        assert index._node_table is None
        assert not index._coverage_order_cache
        index.seal()
        assert index.node_table is not None
        assert index.top_by_coverage(5) == _legacy_top_by_coverage(index, 5)


# ---------------------------------------------------------- hierarchy kernels
def _legacy_cleanup(hierarchy, covered_ids):
    """The pre-batch implementation: per-rule probe + sequential remove()."""
    if isinstance(covered_ids, np.ndarray) and covered_ids.dtype == np.bool_:
        mask, covered_set = covered_ids, set()
    else:
        mask, covered_set = None, set(covered_ids)

    def has_gain(rule):
        view = rule.coverage_view
        if view is not None:
            if mask is not None:
                return bool(view.new_ids_given(mask).size)
            return view.count > view.intersect_count(covered_set)
        if mask is not None:
            return any(
                sid >= mask.size or not mask[sid] for sid in rule.coverage
            )
        return bool(set(rule.coverage) - covered_set)

    removable = [rule for rule in hierarchy._nodes if not has_gain(rule)]
    for rule in removable:
        hierarchy.remove(rule)
    return len(removable)


def _snapshot(hierarchy):
    return (
        set(hierarchy._nodes),
        {rule: frozenset(hierarchy._parents[rule]) for rule in hierarchy._nodes},
        {rule: frozenset(hierarchy._children[rule]) for rule in hierarchy._nodes},
    )


@st.composite
def hierarchy_cases(draw):
    universe = 40
    n = draw(st.integers(min_value=1, max_value=12))
    coverages = [
        draw(
            st.lists(
                st.integers(0, universe - 1), min_size=1, max_size=10
            )
        )
        for _ in range(n)
    ]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=30, unique=True)
    ) if pairs else []
    covered = draw(st.lists(st.integers(0, universe - 1), max_size=50))
    return universe, coverages, edges, set(covered)


class TestHierarchyKernelEquivalence:
    @given(hierarchy_cases())
    @settings(max_examples=60, deadline=None)
    def test_cleanup_survivors_match_sequential_removal(self, case):
        universe, coverages, edges, covered = case
        batch_h, legacy_h = RuleHierarchy(), RuleHierarchy()
        rules = [_mk_rule(100 + i, cov) for i, cov in enumerate(coverages)]
        for rule in rules:
            batch_h.add(rule)
            legacy_h.add(rule)
        for i, j in edges:
            batch_h.add_edge(rules[i], rules[j])
            legacy_h.add_edge(rules[i], rules[j])
        removed_batch = batch_h.cleanup(covered)
        removed_legacy = _legacy_cleanup(legacy_h, covered)
        assert removed_batch == removed_legacy
        assert _snapshot(batch_h) == _snapshot(legacy_h)

    @given(hierarchy_cases())
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cleanup_mask_path_matches_on_views(
        self, arena_placement, tmp_path, case
    ):
        universe, coverages, edges, covered = case
        store = _placed_store(arena_placement, tmp_path, "cleanup.arena")
        batch_h, legacy_h = RuleHierarchy(), RuleHierarchy()
        rules = []
        for i, cov in enumerate(coverages):
            view = store.intern(cov)
            rules.append(_mk_rule(500 + i, cov).with_coverage(view))
        store.flush()
        for rule in rules:
            batch_h.add(rule)
            legacy_h.add(rule)
        for i, j in edges:
            batch_h.add_edge(rules[i], rules[j])
            legacy_h.add_edge(rules[i], rules[j])
        mask = np.zeros(universe, dtype=bool)
        mask[list(covered)] = True
        assert batch_h.cleanup(mask) == _legacy_cleanup(legacy_h, mask)
        assert _snapshot(batch_h) == _snapshot(legacy_h)

    @given(hierarchy_cases())
    @settings(max_examples=60, deadline=None)
    def test_reachability_matches_python_walk(self, case):
        universe, coverages, edges, _ = case
        hierarchy = RuleHierarchy()
        rules = [_mk_rule(300 + i, cov) for i, cov in enumerate(coverages)]
        for rule in rules:
            hierarchy.add(rule)
        for i, j in edges:
            hierarchy.add_edge(rules[i], rules[j])
        for position, rule in enumerate(rules):
            expected_down = {
                rules[j] for j in _reference_closure(
                    len(rules), edges, position, True
                )
            }
            expected_up = {
                rules[j] for j in _reference_closure(
                    len(rules), edges, position, False
                )
            }
            assert hierarchy.descendants(rule) == expected_down
            assert hierarchy.ancestors(rule) == expected_up

    def test_accessors_sorted_by_stable_rank(self):
        rng = random.Random(23)
        hierarchy = RuleHierarchy()
        rules = [
            _mk_rule(700 + i, rng.sample(range(40), rng.randint(1, 8)))
            for i in range(15)
        ]
        for rule in rules:
            hierarchy.add(rule)
        for i in range(15):
            for j in range(i + 1, 15):
                if rng.random() < 0.3:
                    hierarchy.add_edge(rules[i], rules[j])

        def rank_key(rule):
            return (-rule.coverage_size, rule.render())

        for rule in rules:
            for listing in (hierarchy.parents(rule), hierarchy.children(rule)):
                assert [rank_key(r) for r in listing] == sorted(
                    rank_key(r) for r in listing
                )
        for listing in (hierarchy.roots(), hierarchy.leaves()):
            assert [rank_key(r) for r in listing] == sorted(
                rank_key(r) for r in listing
            )


# ------------------------------------------------------------- benefit kernel
class TestBenefitPriming:
    @given(random_coverages())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_primed_counts_equal_per_rule_probes(
        self, arena_placement, tmp_path, case
    ):
        universe, coverages, covered = case
        store = _placed_store(arena_placement, tmp_path, "benefit.arena")
        rules = []
        for i, cov in enumerate(coverages):
            view = store.intern(cov)
            rules.append(_mk_rule(900 + i, cov).with_coverage(view))
        store.flush()
        scores = np.linspace(0.0, 1.0, universe)
        primed = BenefitScorer(scores, covered)
        primed.prime_new_counts(rules)
        plain = BenefitScorer(scores, covered)
        for rule in rules:
            expected = len(set(rule.coverage) - covered)
            assert primed.new_count(rule) == expected
            assert plain.new_count(rule) == expected


# -------------------------------------------------- Darwin history identity
def _run_history(corpus, index, featurizer, budget=12):
    config = DarwinConfig(
        budget=budget, num_candidates=200, min_coverage=2, retrain_every=4,
        hierarchy_refresh="incremental",
        classifier=ClassifierConfig(model="logistic", epochs=10, embedding_dim=30),
    )
    darwin = Darwin(
        corpus, grammars=[TokensRegexGrammar(max_phrase_len=4)],
        config=config, index=index, featurizer=featurizer,
    )
    darwin.start(seed_rule_texts=[_HISTORY_SEEDS[corpus.name]])
    oracle = GroundTruthOracle(corpus)
    history = []
    for _ in range(budget):
        rule = darwin.propose_next()
        if rule is None:
            break
        answer = oracle.ask(rule, darwin.sample_for_query(rule))
        darwin.record_answer(rule, answer.is_useful)
        history.append((rule.render(), answer.is_useful))
    accepted = sorted(r.render() for r in darwin.rule_set.rules)
    return history, accepted


_HISTORY_SEEDS = {
    "directions": "best way to get to",
    "professions": "works as a",
}


@pytest.fixture(scope="module", params=["directions", "professions"])
def history_setup(request, arena_placement, tmp_path_factory):
    """Corpus + sealed index (per dataset, per arena placement) + featurizer."""
    from repro.classifier.features import SentenceFeaturizer

    name = request.param
    corpus = load_dataset(name, num_sentences=300, seed=13, parse_trees=False)
    grammar = TokensRegexGrammar(max_phrase_len=4)
    arena_path = None
    if arena_placement == "arena":
        path = tmp_path_factory.mktemp("history-arena") / f"{name}.arena"
        arena_path = str(path)
    index = CorpusIndex.build(
        corpus, [grammar], max_depth=10, min_coverage=2, arena_path=arena_path
    )
    featurizer = SentenceFeaturizer.fit(corpus, embedding_dim=30, seed=0)
    return corpus, index, featurizer


class TestDarwinHistoryIdentity:
    def test_history_matches_legacy_paths(self, history_setup, monkeypatch):
        corpus, index, featurizer = history_setup
        new_history, new_accepted = _run_history(corpus, index, featurizer)

        # Patch every refactored hot path back to its pre-refactor behaviour:
        # Python-comparator rankings, unsorted set-order neighbourhoods,
        # per-rule sequential cleanup, and per-rule benefit probes.
        monkeypatch.setattr(
            CorpusIndex, "top_by_overlap",
            lambda self, sentence_ids, limit: _legacy_top_by_overlap(
                self, sentence_ids, limit
            ),
        )
        monkeypatch.setattr(
            CorpusIndex, "top_by_coverage",
            lambda self, limit, grammar_name=None: _legacy_top_by_coverage(
                self, limit, grammar_name
            ),
        )
        monkeypatch.setattr(RuleHierarchy, "cleanup", _legacy_cleanup)
        monkeypatch.setattr(
            RuleHierarchy, "parents",
            lambda self, rule: list(self._parents.get(rule, set())),
        )
        monkeypatch.setattr(
            RuleHierarchy, "children",
            lambda self, rule: list(self._children.get(rule, set())),
        )
        monkeypatch.setattr(
            RuleHierarchy, "roots",
            lambda self: [r for r in self._nodes if not self._parents[r]],
        )
        monkeypatch.setattr(
            BenefitScorer, "prime_new_counts", lambda self, rules: None
        )
        legacy_history, legacy_accepted = _run_history(corpus, index, featurizer)

        assert new_history == legacy_history
        assert new_accepted == legacy_accepted

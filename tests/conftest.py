"""Shared pytest fixtures.

Fixtures are intentionally small (hundreds of sentences at most) so the full
suite runs in well under a minute; the benchmark harness exercises the larger
configurations.

Arena placement axis: every index keeps its coverage in a memory-mapped
arena, and where that arena lives decides what a checkpoint holds. The
session-parametrized :func:`arena_placement` fixture runs every test that
(directly or transitively) depends on it once per placement:

* ``memory`` — no ``arena_path``: an unlinked-on-close temporary arena, so
  checkpoints carry the coverage columns inline and resume in any process
  (the id is the historic name of this self-contained placement);
* ``arena`` — a durable caller-given arena path, so checkpoints are
  digest-verified references to that file.

The core Darwin, engine, and crowd suites request it through
:func:`placed_directions_index` / :func:`placed_index_spec`, so a behavioural
difference between the two checkpoint forms fails those suites.
"""

from __future__ import annotations

import pytest

from repro.classifier.features import SentenceFeaturizer
from repro.config import ClassifierConfig, DarwinConfig
from repro.datasets import load_dataset
from repro.grammars import TokensRegexGrammar, TreeMatchGrammar
from repro.index import CorpusIndex
from repro.text import Corpus

EXAMPLE1_TEXTS = [
    "What is the best way to get to SFO airport?",
    "Is there a bart from SFO to the hotel?",
    "What is the best way to check in there?",
    "Is Uber the fastest way to get to the airport?",
    "Would Uber Eats be the fastest way to order?",
    "What is the best way to order food from you?",
]
EXAMPLE1_LABELS = [True, True, False, True, False, False]


@pytest.fixture(scope="session")
def example1_corpus() -> Corpus:
    """The six-sentence corpus of the paper's Example 1."""
    return Corpus.from_texts(EXAMPLE1_TEXTS, EXAMPLE1_LABELS, name="example1")


@pytest.fixture(scope="session")
def tokensregex() -> TokensRegexGrammar:
    """A TokensRegex grammar with the default phrase length."""
    return TokensRegexGrammar(max_phrase_len=4)


@pytest.fixture(scope="session")
def treematch() -> TreeMatchGrammar:
    """A TreeMatch grammar over dependency trees."""
    return TreeMatchGrammar()


@pytest.fixture(scope="session")
def example1_index(example1_corpus, tokensregex) -> CorpusIndex:
    """Corpus index over the Example 1 corpus (TokensRegex only)."""
    return CorpusIndex.build(example1_corpus, [tokensregex], max_depth=6)


@pytest.fixture(scope="session")
def directions_corpus() -> Corpus:
    """A small (~600 sentence) directions corpus with ground truth."""
    return load_dataset("directions", num_sentences=600, seed=11, parse_trees=False)


@pytest.fixture(scope="session")
def musicians_corpus() -> Corpus:
    """A small (~600 sentence) musicians corpus with ground truth."""
    return load_dataset("musicians", num_sentences=600, seed=11, parse_trees=False)


@pytest.fixture(scope="session")
def directions_index(directions_corpus) -> CorpusIndex:
    """Corpus index over the small directions corpus."""
    grammar = TokensRegexGrammar(max_phrase_len=4)
    return CorpusIndex.build(directions_corpus, [grammar], max_depth=10, min_coverage=2)


@pytest.fixture(scope="session")
def directions_featurizer(directions_corpus) -> SentenceFeaturizer:
    """Featurizer fitted on the small directions corpus."""
    return SentenceFeaturizer.fit(directions_corpus, embedding_dim=30, seed=0)


@pytest.fixture()
def fast_config() -> DarwinConfig:
    """A Darwin configuration tuned for unit-test speed."""
    return DarwinConfig(
        budget=15,
        num_candidates=200,
        min_coverage=2,
        classifier=ClassifierConfig(epochs=25, embedding_dim=30),
    )


@pytest.fixture(scope="session", params=["memory", "arena"])
def arena_placement(request) -> str:
    """Where the coverage arena lives: ``memory`` (temporary) or ``arena``
    (a durable path). See the module docstring."""
    return request.param


@pytest.fixture(scope="session")
def placed_directions_index(
    directions_corpus, arena_placement, tmp_path_factory
) -> CorpusIndex:
    """The small directions index on the parametrized arena placement.

    Identical to :func:`directions_index` (a temporary arena) for
    ``memory``; the ``arena`` placement puts its columns in a
    session-temporary durable arena file.
    """
    arena_path = None
    if arena_placement == "arena":
        path = tmp_path_factory.mktemp("coverage-arena") / "directions.arena"
        arena_path = str(path)
    grammar = TokensRegexGrammar(max_phrase_len=4)
    return CorpusIndex.build(
        directions_corpus, [grammar], max_depth=10, min_coverage=2,
        arena_path=arena_path,
    )


@pytest.fixture()
def placed_index_spec(arena_placement, tmp_path):
    """A fresh ``IndexConfig`` mapping for engine config dicts, per placement.

    A factory so one test can build several engines without them truncating
    each other's arena file: every call allocates a distinct path.
    """
    counter = {"n": 0}

    def make() -> dict:
        if arena_placement == "memory":
            return {}
        counter["n"] += 1
        return {"arena_path": str(tmp_path / f"placed-{counter['n']}.arena")}

    return make

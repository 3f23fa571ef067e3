"""repro — a reproduction of "Adaptive Rule Discovery for Labeling Text Data".

The package implements Darwin, an interactive system that discovers labeling
heuristics (rules) for weakly-supervised text labeling, together with every
substrate the paper relies on: a text-processing pipeline, heuristic grammars,
a corpus index over derivation sketches, benefit classifiers, a Snorkel-style
label model, the Snuba / active-learning / keyword-sampling baselines, five
synthetic dataset generators mirroring the paper's corpora, and an experiment
harness regenerating every table and figure of the evaluation.

Quickstart (declarative engine API)::

    from repro import DarwinEngine

    engine = DarwinEngine.from_config({
        "dataset": {"name": "directions", "scale": 0.2, "seed": 7},
        "config": {"budget": 50, "oracle": "ground_truth",
                   "grammars": ["tokensregex"]},
        "seeds": {"rule_texts": ["best way to get to"]},
    })
    result = engine.run()
    print(result.final_recall, result.accepted_rules()[:5])

The engine supports whole-session checkpointing (``engine.save(path)`` /
``DarwinEngine.load(path)``) with question-for-question identical resume.
The pre-engine entry points remain available::

    from repro import Darwin, DarwinConfig, GroundTruthOracle
    from repro.datasets import load_dataset

    corpus = load_dataset("directions", scale=0.2, seed=7)
    darwin = Darwin(corpus, config=DarwinConfig(budget=50))
    oracle = GroundTruthOracle(corpus)
    result = darwin.run(oracle, seed_rule_texts=["best way to get to"])
"""

from .config import (
    ClassifierConfig,
    CrowdConfig,
    DarwinConfig,
    FleetConfig,
    IndexConfig,
    DEFAULT_CONFIG,
)
from .errors import (
    BudgetExhaustedError,
    ClassifierError,
    ConfigurationError,
    CorpusIndexError,
    DatasetError,
    EvaluationError,
    GrammarError,
    OracleError,
    ReproError,
    RuleParseError,
    TraversalError,
)
from .core import (
    BenefitScorer,
    BudgetedOracle,
    Darwin,
    DarwinResult,
    GroundTruthOracle,
    LabelingSession,
    MajorityVoteOracle,
    NoisyOracle,
    Oracle,
    OracleAnswer,
    OracleQuery,
    QueryRecord,
    SampleBasedOracle,
)
from .crowd import (
    Assignment,
    CrowdCoordinator,
    CrowdResult,
    CrowdRunResult,
    run_crowd,
    simulated_annotators,
)
from .engine.engine import DarwinEngine
from .engine.registry import (
    register_classifier,
    register_dataset,
    register_grammar,
    register_oracle,
    register_traversal,
)
from .grammars import TokensRegexGrammar, TreeMatchGrammar, TreePattern
from .index import (
    CorpusIndex,
    CoverageArena,
    CoverageStore,
    CoverageView,
    OverlayCoverageStore,
    RuleHierarchy,
)
from .rules import LabelingHeuristic, RuleSet
from .serving import ServeReport, Tenant, TenantPool, serve
from .text import Corpus, Sentence
from . import obs
from .obs import MetricsRegistry, SpanTracer

__version__ = "1.1.0"

__all__ = [
    "ClassifierConfig",
    "CrowdConfig",
    "DarwinConfig",
    "FleetConfig",
    "IndexConfig",
    "DEFAULT_CONFIG",
    "ReproError",
    "ConfigurationError",
    "GrammarError",
    "RuleParseError",
    "CorpusIndexError",
    "TraversalError",
    "OracleError",
    "BudgetExhaustedError",
    "ClassifierError",
    "DatasetError",
    "EvaluationError",
    "Darwin",
    "DarwinEngine",
    "DarwinResult",
    "QueryRecord",
    "LabelingSession",
    "register_grammar",
    "register_classifier",
    "register_traversal",
    "register_oracle",
    "register_dataset",
    "Assignment",
    "CrowdCoordinator",
    "CrowdResult",
    "CrowdRunResult",
    "run_crowd",
    "simulated_annotators",
    "BenefitScorer",
    "Oracle",
    "OracleQuery",
    "OracleAnswer",
    "GroundTruthOracle",
    "SampleBasedOracle",
    "NoisyOracle",
    "MajorityVoteOracle",
    "BudgetedOracle",
    "TokensRegexGrammar",
    "TreeMatchGrammar",
    "TreePattern",
    "CorpusIndex",
    "CoverageArena",
    "CoverageStore",
    "CoverageView",
    "OverlayCoverageStore",
    "RuleHierarchy",
    "LabelingHeuristic",
    "RuleSet",
    "Tenant",
    "TenantPool",
    "ServeReport",
    "serve",
    "Corpus",
    "Sentence",
    "obs",
    "MetricsRegistry",
    "SpanTracer",
    "__version__",
]

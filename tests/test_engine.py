"""Tests for the declarative engine API: registries, config construction,
the checkpoint/resume state protocol and engine sessions.

The construction and checkpoint/resume suites run on both arena placements
through the shared ``placed_index_spec`` conftest fixture, so the replay
guarantee is enforced for inline checkpoints (temporary arena) and for arena
references (durable path) alike."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Darwin, DarwinEngine, GroundTruthOracle
from repro.config import ClassifierConfig, DarwinConfig
from repro.datasets import load_dataset
from repro.engine.registry import (
    CLASSIFIERS,
    DATASETS,
    GRAMMARS,
    ORACLES,
    TRAVERSALS,
    Registry,
    check_shipped_registrations,
)
from repro.engine.state import (
    STATE_SCHEMA_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.errors import ConfigurationError
from repro.grammars import TokensRegexGrammar


def engine_spec(dataset: str, seed_rule: str, budget: int = 12) -> dict:
    """A small, fast engine config used across the checkpoint tests."""
    return {
        "dataset": {"name": dataset, "num_sentences": 450, "seed": 3,
                    "parse_trees": False},
        "config": {"budget": budget, "traversal": "hybrid",
                   "num_candidates": 300, "grammars": ["tokensregex"],
                   "oracle": "ground_truth",
                   "classifier": {"model": "logistic", "epochs": 10}},
        "seeds": {"rule_texts": [seed_rule]},
    }


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("widget")
        registry.register("fixed", lambda value=1: value * 2)
        assert "fixed" in registry
        assert registry.create("fixed", value=4) == 8
        assert registry.names() == ("fixed",)

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("deco")
        def make(value: int = 0):
            return value + 1

        assert registry.create("deco", value=9) == 10

    def test_duplicate_rejected_without_overwrite(self):
        registry = Registry("widget")
        registry.register("x", lambda: 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("x", lambda: 2)
        registry.register("x", lambda: 3, overwrite=True)
        assert registry.create("x") == 3

    def test_unknown_name_lists_available(self):
        registry = Registry("widget")
        registry.register("only", lambda: 1)
        with pytest.raises(ConfigurationError, match="only"):
            registry.get("missing")

    def test_shipped_components_are_registered(self):
        check_shipped_registrations()
        assert {"tokensregex", "treematch"} <= set(GRAMMARS.names())
        assert {"logistic", "mlp", "cnn"} <= set(CLASSIFIERS.names())
        assert {"local", "universal", "hybrid"} <= set(TRAVERSALS.names())
        assert "ground_truth" in ORACLES
        assert {"directions", "musicians", "professions", "tweets",
                "cause-effect"} <= set(DATASETS.names())


class TestConfigNames:
    def test_unknown_grammar_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown grammar"):
            DarwinConfig(grammars=("not-a-grammar",))

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown oracle"):
            DarwinConfig(oracle="psychic")

    def test_dict_roundtrip(self):
        config = DarwinConfig(
            budget=9, grammars=("tokensregex", "treematch"),
            oracle="sample_based",
            classifier=ClassifierConfig(model="mlp", epochs=5),
        )
        assert DarwinConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="bad darwin config"):
            DarwinConfig.from_dict({"budget": 5, "warp_speed": True})


class TestFromConfig:
    def test_builds_and_runs_without_class_imports(self, placed_index_spec):
        spec = engine_spec("directions", "best way to get to", budget=5)
        spec["config"]["index"] = placed_index_spec()
        engine = DarwinEngine.from_config(spec)
        result = engine.run()
        assert result.queries_used == 5
        assert engine.questions_asked == 5

    def test_matches_legacy_darwin_entry_point(self):
        corpus = load_dataset("directions", num_sentences=450, seed=3,
                              parse_trees=False)
        config = DarwinConfig(budget=6, num_candidates=300,
                              classifier=ClassifierConfig(epochs=10))
        legacy = Darwin(corpus, config=config).run(
            GroundTruthOracle(corpus), seed_rule_texts=["best way to get to"]
        )
        engine = DarwinEngine(
            corpus, config=config,
            seeds={"rule_texts": ["best way to get to"]},
        ).run()
        assert engine.history == legacy.history

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine config"):
            DarwinEngine.from_config({"datasets": {"name": "directions"}})

    def test_missing_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            DarwinEngine.from_config({"config": {"budget": 5}})

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            DarwinEngine.from_config({"dataset": "reviews"})


@pytest.mark.parametrize(
    "dataset, seed_rule",
    [("directions", "best way to get to"), ("musicians", "composer")],
)
class TestCheckpointResume:
    def test_resume_is_question_for_question_identical(
        self, tmp_path, dataset, seed_rule, placed_index_spec
    ):
        spec = engine_spec(dataset, seed_rule, budget=12)
        spec["config"]["index"] = placed_index_spec()
        straight = DarwinEngine.from_config(spec).run()

        # A fresh index spec per engine: two engines must never build over
        # (and truncate) one another's arena file.
        spec = engine_spec(dataset, seed_rule, budget=12)
        spec["config"]["index"] = placed_index_spec()
        interrupted = DarwinEngine.from_config(spec)
        interrupted.run(budget=6)
        path = interrupted.save(str(tmp_path / "mid.npz"))

        resumed = DarwinEngine.load(path)
        assert resumed.questions_asked == 6
        result = resumed.run(budget=12)

        assert result.history == straight.history
        assert result.rule_set.describe() == straight.rule_set.describe()
        assert result.covered_ids == straight.covered_ids

    def test_resume_identical_with_stochastic_oracle(
        self, tmp_path, dataset, seed_rule, placed_index_spec
    ):
        # The replay guarantee must hold for noisy oracles too: the oracle's
        # RNG stream is checkpointed and resumed mid-stream, not re-seeded.
        def noisy_spec() -> dict:
            spec = engine_spec(dataset, seed_rule, budget=12)
            spec["config"]["index"] = placed_index_spec()
            spec["config"]["oracle"] = "noisy_ground_truth"
            spec["oracle_options"] = {"flip_prob": 0.3, "seed": 11}
            return spec

        straight = DarwinEngine.from_config(noisy_spec()).run()

        interrupted = DarwinEngine.from_config(noisy_spec())
        interrupted.run(budget=7)
        path = interrupted.save(str(tmp_path / "noisy.npz"))
        resumed = DarwinEngine.load(path).run(budget=12)

        assert resumed.history == straight.history

    def test_restored_engine_state_matches(
        self, tmp_path, dataset, seed_rule, placed_index_spec
    ):
        spec = engine_spec(dataset, seed_rule, budget=12)
        spec["config"]["index"] = placed_index_spec()
        engine = DarwinEngine.from_config(spec)
        engine.run(budget=6)
        path = engine.save(str(tmp_path / "mid.npz"))
        restored = DarwinEngine.load(path)

        darwin, other = engine.darwin, restored.darwin
        assert other.positive_ids == darwin.positive_ids
        assert other.rule_set.describe() == darwin.rule_set.describe()
        assert sorted(r.render() for r in other.hierarchy.rules()) == sorted(
            r.render() for r in darwin.hierarchy.rules()
        )
        assert {r.render() for r in other.traversal.context.queried} == {
            r.render() for r in darwin.traversal.context.queried
        }
        assert other.trainer.retrain_count == darwin.trainer.retrain_count
        np.testing.assert_allclose(
            other.trainer.score_corpus(), darwin.trainer.score_corpus()
        )
        # The restored classifier answers without a retrain.
        assert other.trainer.classifier is not None
        assert other.trainer.classifier.is_fitted


class TestCheckpointValidation:
    def _small_checkpoint(self, tmp_path) -> str:
        engine = DarwinEngine.from_config(
            engine_spec("directions", "best way to get to", budget=4)
        )
        engine.run(budget=2)
        return engine.save(str(tmp_path / "ck.npz"))

    def test_truncated_file_raises(self, tmp_path):
        path = self._small_checkpoint(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 3])
        with pytest.raises(ConfigurationError):
            DarwinEngine.load(path)

    def test_garbage_file_raises(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as handle:
            handle.write(b"this is not a checkpoint")
        with pytest.raises(ConfigurationError):
            DarwinEngine.load(path)

    def test_foreign_npz_raises(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        with open(path, "wb") as handle:
            np.savez(handle, values=np.arange(4))
        with pytest.raises(ConfigurationError, match="not a Darwin engine"):
            DarwinEngine.load(path)

    def test_mismatched_schema_version_raises(self, tmp_path):
        path = self._small_checkpoint(tmp_path)
        manifest, bundle = read_checkpoint(path)
        manifest["schema_version"] = STATE_SCHEMA_VERSION + 1
        arrays = {name: bundle.get(name) for name in bundle.names()}
        write_checkpoint(path, manifest, arrays)
        with pytest.raises(ConfigurationError, match="schema version"):
            DarwinEngine.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            DarwinEngine.load(str(tmp_path / "nope.npz"))

    def test_mismatched_corpus_rejected_on_load(self, tmp_path):
        path = self._small_checkpoint(tmp_path)
        wrong_size = load_dataset("directions", num_sentences=200, seed=3,
                                  parse_trees=False)
        with pytest.raises(ConfigurationError, match="sentences"):
            DarwinEngine.load(path, corpus=wrong_size)
        wrong_name = load_dataset("musicians", num_sentences=450, seed=3,
                                  parse_trees=False)
        with pytest.raises(ConfigurationError, match="corpus"):
            DarwinEngine.load(path, corpus=wrong_name)

    def test_checkpoint_path_alone_writes_final_state(self, tmp_path):
        path = str(tmp_path / "final_only.npz")
        engine = DarwinEngine.from_config(
            engine_spec("directions", "best way to get to", budget=4)
        )
        engine.run(budget=3, checkpoint_path=path)
        assert DarwinEngine.load(path).questions_asked == 3

    def test_explicit_grammars_demanded_back_on_load(self, tmp_path):
        corpus = load_dataset("directions", num_sentences=450, seed=3,
                              parse_trees=False)
        grammar = TokensRegexGrammar(max_phrase_len=6)
        engine = DarwinEngine(
            corpus, config=DarwinConfig(budget=4, num_candidates=300,
                                        classifier=ClassifierConfig(epochs=8)),
            grammars=[grammar],
            seeds={"rule_texts": ["best way to get to"]},
        )
        engine.run(budget=2)
        path = engine.save(str(tmp_path / "explicit.npz"))
        # Silently rebuilding from registry defaults would hand back a
        # max_phrase_len=4 grammar; the load must demand the instances.
        with pytest.raises(ConfigurationError, match="explicit grammar"):
            DarwinEngine.load(path, corpus=corpus)
        restored = DarwinEngine.load(path, corpus=corpus, grammars=[grammar])
        assert restored.questions_asked == 2

    def test_foreign_oracle_demanded_back_on_load(self, tmp_path):
        from repro import GroundTruthOracle, NoisyOracle

        spec = engine_spec("directions", "best way to get to", budget=6)
        engine = DarwinEngine.from_config(spec)
        oracle = NoisyOracle(GroundTruthOracle(engine.corpus), flip_prob=0.4,
                             seed=11)
        engine.run(oracle=oracle, budget=3)
        path = engine.save(str(tmp_path / "foreign_oracle.npz"))
        # config.oracle is 'ground_truth'; rebuilding that would silently
        # drop the noisy oracle's RNG stream.
        with pytest.raises(ConfigurationError, match="NoisyOracle"):
            DarwinEngine.load(path)
        fresh = NoisyOracle(GroundTruthOracle(engine.corpus), flip_prob=0.4,
                            seed=11)
        restored = DarwinEngine.load(path, oracle=fresh)
        assert restored.oracle is fresh
        assert fresh._rng.bit_generator.state == oracle._rng.bit_generator.state


class TestEngineSessions:
    def test_session_continues_after_load(self, tmp_path):
        spec = engine_spec("directions", "best way to get to", budget=8)
        engine = DarwinEngine.from_config(spec)
        engine.run(budget=4)
        path = engine.save(str(tmp_path / "mid.npz"))

        restored = DarwinEngine.load(path)
        session = restored.session(budget=8, oracle=restored.build_oracle())
        assert session.questions_asked == 0  # session-level counter
        question = session.next_question()
        assert question is not None
        record = session.submit_answer()
        assert record.question_number == 5  # continues the run's history

    def test_session_oracle_is_adopted_into_checkpoints(self, tmp_path):
        from repro import GroundTruthOracle, NoisyOracle

        engine = DarwinEngine.from_config(
            engine_spec("directions", "best way to get to", budget=6)
        )
        noisy = NoisyOracle(GroundTruthOracle(engine.corpus), flip_prob=0.4,
                            seed=7)
        session = engine.session(budget=6, oracle=noisy)
        session.next_question()
        session.submit_answer()
        path = engine.save(str(tmp_path / "session_oracle.npz"))
        # The session's oracle became the engine's persistent one, so load()
        # detects that the config cannot rebuild it instead of silently
        # substituting a fresh ground-truth oracle.
        with pytest.raises(ConfigurationError, match="NoisyOracle"):
            DarwinEngine.load(path)

    def test_crowd_over_started_engine(self):
        engine = DarwinEngine.from_config(
            engine_spec("directions", "best way to get to", budget=6)
        )
        engine.start()
        coordinator = engine.crowd()
        assignment = coordinator.request_question(0)
        assert assignment is not None

    def test_continued_session_cannot_exceed_config_budget(self, tmp_path):
        spec = engine_spec("directions", "best way to get to", budget=8)
        engine = DarwinEngine.from_config(spec)
        engine.run(budget=5)
        path = engine.save(str(tmp_path / "mid.npz"))
        restored = DarwinEngine.load(path)
        # 5 of the 8 budgeted questions are spent; a continued session only
        # gets the remainder no matter what it asks for.
        session = restored.session(budget=8, oracle=restored.build_oracle())
        assert session.budget == 3

    def test_in_flight_questions_are_released_on_restore(self, tmp_path):
        from repro.config import CrowdConfig

        engine = DarwinEngine.from_config(
            engine_spec("directions", "best way to get to", budget=8)
        )
        engine.start()
        coordinator = engine.crowd(CrowdConfig(num_annotators=2, batch_size=2))
        first = coordinator.request_question(0)
        second = coordinator.request_question(1)
        assert first is not None and second is not None
        assert first.rule != second.rule
        assert len(engine.darwin.in_flight) == 2

        path = engine.save(str(tmp_path / "inflight.npz"))
        manifest, _ = read_checkpoint(path)
        assert len(manifest["darwin"]["in_flight"]) == 2

        restored = DarwinEngine.load(path)
        # The votes died with the process: reservations come back released,
        # so a resumed session can re-propose exactly those rules.
        assert restored.darwin.in_flight == set()
        reproposed = restored.darwin.propose_next()
        assert reproposed is not None
        assert reproposed.render() in {first.rule.render(), second.rule.render()}

    def test_export_state_summary(self, tmp_path):
        from repro.engine.engine import export_state_json

        engine = DarwinEngine.from_config(
            engine_spec("directions", "best way to get to", budget=4)
        )
        engine.run(budget=3)
        path = engine.save(str(tmp_path / "ck.npz"))
        summary = json.loads(export_state_json(path))
        assert summary["schema_version"] == STATE_SCHEMA_VERSION
        assert summary["questions_asked"] == 3
        assert summary["dataset"]["name"] == "directions"
        assert "darwin/trainer/scores" in summary["arrays"]


class TestCliVersion:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

"""Tests for repro.config and repro.errors."""

from __future__ import annotations

import pytest

from repro.config import ClassifierConfig, DarwinConfig, DEFAULT_CONFIG
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    CorpusIndexError,
    OracleError,
    ReproError,
)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc_type in (ConfigurationError, CorpusIndexError, OracleError,
                         BudgetExhaustedError):
            assert issubclass(exc_type, ReproError)

    def test_budget_error_is_oracle_error(self):
        assert issubclass(BudgetExhaustedError, OracleError)

    def test_errors_carry_messages(self):
        with pytest.raises(ConfigurationError, match="broken"):
            raise ConfigurationError("broken")


class TestClassifierConfig:
    def test_defaults_are_valid(self):
        config = ClassifierConfig()
        assert config.model == "logistic"
        assert config.epochs > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig(model="transformer")

    def test_non_positive_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig(epochs=0)

    def test_non_positive_learning_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig(learning_rate=0.0)

    def test_negative_sample_ratio_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ClassifierConfig(negative_sample_ratio=0.0)

    def test_frozen(self):
        config = ClassifierConfig()
        with pytest.raises(Exception):
            config.epochs = 3  # type: ignore[misc]

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0),
        ("hidden_dim", 0),
        ("embedding_dim", 0),
        ("l2", -5.0),
    ])
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ClassifierConfig(**{field: value})

    @pytest.mark.parametrize("field", ["classifier", "index"])
    def test_nested_config_must_not_be_a_plain_dict(self, field):
        with pytest.raises(ConfigurationError, match=field):
            DarwinConfig(**{field: {}})
        # The converting entry points still accept mappings.
        assert DarwinConfig.from_dict({field: {}})
        assert DarwinConfig().with_overrides(**{field: {}})


class TestDarwinConfig:
    def test_defaults_are_valid(self):
        config = DarwinConfig()
        assert config.traversal == "hybrid"
        assert config.budget == 100
        assert config.tau == 5
        assert config.benefit_cutoff == pytest.approx(0.5)

    @pytest.mark.parametrize("field,value", [
        ("budget", 0),
        ("tau", 0),
        ("num_candidates", 0),
        ("max_sketch_depth", 0),
        ("max_phrase_len", 0),
        ("min_coverage", 0),
        ("oracle_sample_size", 0),
        ("retrain_every", 0),
    ])
    def test_positive_fields_rejected_at_zero(self, field, value):
        with pytest.raises(ConfigurationError):
            DarwinConfig(**{field: value})

    def test_unknown_traversal_rejected(self):
        with pytest.raises(ConfigurationError):
            DarwinConfig(traversal="depth-first")

    def test_benefit_cutoff_bounds(self):
        with pytest.raises(ConfigurationError):
            DarwinConfig(benefit_cutoff=1.5)

    def test_oracle_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            DarwinConfig(oracle_precision_threshold=0.0)
        with pytest.raises(ConfigurationError):
            DarwinConfig(oracle_precision_threshold=1.2)

    def test_with_overrides_simple_field(self):
        config = DarwinConfig().with_overrides(budget=7, traversal="local")
        assert config.budget == 7
        assert config.traversal == "local"
        # The original is unchanged (frozen dataclass copy semantics).
        assert DEFAULT_CONFIG.budget == 100

    def test_with_overrides_nested_classifier_mapping(self):
        config = DarwinConfig().with_overrides(classifier={"epochs": 3})
        assert config.classifier.epochs == 3
        assert config.classifier.model == "logistic"

    def test_with_overrides_nested_classifier_instance(self):
        replacement = ClassifierConfig(model="mlp")
        config = DarwinConfig().with_overrides(classifier=replacement)
        assert config.classifier.model == "mlp"

    def test_with_overrides_bad_classifier_type(self):
        with pytest.raises(ConfigurationError):
            DarwinConfig().with_overrides(classifier=42)

    def test_with_overrides_unknown_field(self):
        with pytest.raises(ConfigurationError):
            DarwinConfig().with_overrides(nonexistent=1)

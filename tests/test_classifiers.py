"""Tests for the classifier substrate (features, models, trainer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifier.base import TrainingSet, sigmoid
from repro.classifier.cnn import CNNTextClassifier
from repro.classifier.features import SentenceFeaturizer
from repro.classifier.logistic import LogisticTextClassifier
from repro.classifier.mlp import MLPTextClassifier
from repro.classifier.trainer import ClassifierTrainer, make_classifier
from repro.config import ClassifierConfig
from repro.errors import ClassifierError


def _separable_data(n=120, d=10, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = (features[:, 0] + 0.5 * features[:, 1] > 0).astype(np.float64)
    return TrainingSet(features=features, labels=labels)


class TestTrainingSetAndHelpers:
    def test_training_set_validation(self):
        with pytest.raises(ClassifierError):
            TrainingSet(features=np.zeros((3, 2)), labels=np.zeros(4))
        with pytest.raises(ClassifierError):
            TrainingSet(features=np.zeros((3, 2)), labels=np.zeros((3, 1)))

    def test_training_set_counts(self):
        ts = TrainingSet(features=np.zeros((4, 2)), labels=np.array([1, 0, 1, 0.0]))
        assert ts.num_positive == 2
        assert ts.num_negative == 2
        assert len(ts) == 4

    def test_sigmoid_stability(self):
        values = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0, abs=1e-9)


class TestSentenceFeaturizer:
    def test_vector_shape_and_cache(self, example1_corpus):
        """The frozen store is bit-identical to the per-sentence oracle and
        read-only."""
        featurizer = SentenceFeaturizer.fit(
            example1_corpus, embedding_dim=16, bow_dim=32, max_len=12
        )
        vector = featurizer.vector(example1_corpus[0])
        assert vector.shape == (featurizer.vector_dim,)
        sentences = example1_corpus.sentences
        vectors = featurizer.vectors(sentences)
        assert np.array_equal(
            vectors, np.stack([featurizer.vector(s) for s in example1_corpus])
        )
        matrices = featurizer.matrices(sentences)
        assert np.array_equal(
            matrices, np.stack([featurizer.matrix(s) for s in example1_corpus])
        )
        # A gather in any order returns the same rows.
        reordered = featurizer.vectors([sentences[3], sentences[0]])
        assert np.array_equal(reordered, vectors[[3, 0]])
        for frozen in (
            featurizer.corpus_vectors(example1_corpus),
            featurizer.corpus_matrices(example1_corpus),
        ):
            with pytest.raises(ValueError):
                frozen[0] = 0.0
        # Each store was built once: one computed row per sentence.
        stats = featurizer.cache.stats()
        assert stats["misses"] == 2 * len(example1_corpus)
        assert stats["entries"] == 2 * len(example1_corpus)

    def test_corpus_must_be_the_fitted_one(self, example1_corpus, directions_corpus):
        featurizer = SentenceFeaturizer.fit(example1_corpus, embedding_dim=8)
        with pytest.raises(ValueError, match="fit on"):
            featurizer.corpus_vectors(directions_corpus)
        unbound = SentenceFeaturizer(featurizer.embeddings)
        with pytest.raises(ValueError, match="no corpus"):
            unbound.vectors(example1_corpus.sentences)

    def test_matrix_shape(self, example1_corpus):
        featurizer = SentenceFeaturizer.fit(example1_corpus, embedding_dim=16, max_len=12)
        matrix = featurizer.matrix(example1_corpus[0])
        assert matrix.shape == (12, 16)

    def test_batch_shapes(self, example1_corpus):
        featurizer = SentenceFeaturizer.fit(example1_corpus, embedding_dim=16)
        vectors = featurizer.corpus_vectors(example1_corpus)
        matrices = featurizer.corpus_matrices(example1_corpus)
        assert vectors.shape == (6, featurizer.vector_dim)
        assert matrices.shape[0] == 6

    def test_empty_batches(self, example1_corpus):
        featurizer = SentenceFeaturizer.fit(example1_corpus, embedding_dim=8)
        assert featurizer.vectors([]).shape == (0, featurizer.vector_dim)
        assert featurizer.matrices([]).shape[0] == 0

    def test_bow_disabled(self, example1_corpus):
        featurizer = SentenceFeaturizer.fit(example1_corpus, embedding_dim=8, bow_dim=0)
        assert featurizer.vector_dim == 8 + 4

    def test_invalid_params(self, example1_corpus):
        featurizer = SentenceFeaturizer.fit(example1_corpus)
        with pytest.raises(ValueError):
            SentenceFeaturizer(featurizer.embeddings, max_len=0)
        with pytest.raises(ValueError):
            SentenceFeaturizer(featurizer.embeddings, bow_dim=-1)


@pytest.mark.parametrize("model_cls,kwargs", [
    (LogisticTextClassifier, {"epochs": 40, "learning_rate": 0.5}),
    (MLPTextClassifier, {"epochs": 60, "learning_rate": 0.2, "hidden_dim": 16}),
])
class TestVectorModels:
    def test_learns_separable_data(self, model_cls, kwargs):
        data = _separable_data()
        model = model_cls(seed=1, **kwargs)
        model.fit(data)
        accuracy = (model.predict(data.features) == data.labels).mean()
        assert accuracy > 0.85

    def test_predict_before_fit_raises(self, model_cls, kwargs):
        model = model_cls(**kwargs)
        with pytest.raises(ClassifierError):
            model.predict_proba(np.zeros((2, 10)))

    def test_probabilities_in_unit_interval(self, model_cls, kwargs):
        data = _separable_data(n=60)
        model = model_cls(seed=0, **kwargs).fit(data)
        probs = model.predict_proba(data.features)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_deterministic_given_seed(self, model_cls, kwargs):
        data = _separable_data(n=60)
        a = model_cls(seed=3, **kwargs).fit(data).predict_proba(data.features)
        b = model_cls(seed=3, **kwargs).fit(data).predict_proba(data.features)
        assert np.allclose(a, b)

    def test_single_vector_prediction(self, model_cls, kwargs):
        data = _separable_data(n=60)
        model = model_cls(seed=0, **kwargs).fit(data)
        assert model.predict_proba(data.features[0]).shape == (1,)


class TestCNN:
    def _sequence_data(self, n=60, max_len=6, dim=8, seed=0):
        rng = np.random.default_rng(seed)
        tensors = rng.standard_normal((n, max_len, dim)) * 0.1
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        # Positive sequences get a distinctive bigram pattern.
        for i in range(n):
            if labels[i] > 0.5:
                tensors[i, 2, :] += 1.0
                tensors[i, 3, :] -= 1.0
        return TrainingSet(features=tensors, labels=labels)

    def test_learns_sequence_pattern(self):
        data = self._sequence_data()
        model = CNNTextClassifier(epochs=15, learning_rate=0.1, num_filters=4, seed=2)
        model.fit(data)
        accuracy = (model.predict(data.features) == data.labels).mean()
        assert accuracy > 0.8

    def test_rejects_2d_features(self):
        with pytest.raises(ValueError):
            CNNTextClassifier(epochs=1).fit(_separable_data())

    def test_predict_single_matrix(self):
        data = self._sequence_data(n=30)
        model = CNNTextClassifier(epochs=5, num_filters=2, seed=0).fit(data)
        probs = model.predict_proba(data.features[0])
        assert probs.shape == (1,)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CNNTextClassifier(filter_widths=())
        with pytest.raises(ValueError):
            CNNTextClassifier(num_filters=0)
        with pytest.raises(ValueError):
            CNNTextClassifier(epochs=0)


class TestMakeClassifierAndTrainer:
    def test_make_classifier_dispatch(self):
        assert isinstance(make_classifier(ClassifierConfig(model="logistic")),
                          LogisticTextClassifier)
        assert isinstance(make_classifier(ClassifierConfig(model="mlp")),
                          MLPTextClassifier)
        assert isinstance(make_classifier(ClassifierConfig(model="cnn")),
                          CNNTextClassifier)

    def test_trainer_requires_positives(self, directions_corpus, directions_featurizer):
        trainer = ClassifierTrainer(directions_corpus, directions_featurizer)
        with pytest.raises(ClassifierError):
            trainer.retrain(set())

    def test_trainer_scores_improve_over_default(self, directions_corpus, directions_featurizer):
        trainer = ClassifierTrainer(
            directions_corpus, directions_featurizer,
            config=ClassifierConfig(epochs=40, embedding_dim=30),
        )
        truth = directions_corpus.positive_ids()
        seed_positives = set(sorted(truth)[:5])
        trainer.retrain(seed_positives)
        scores = trainer.score_corpus()
        assert scores.shape == (len(directions_corpus),)
        positives = np.array(sorted(truth))
        negatives = np.array(sorted(set(range(len(directions_corpus))) - truth))
        assert scores[positives].mean() > scores[negatives].mean()
        assert trainer.retrain_count == 1

    def test_trainer_f1_and_lookup(self, directions_corpus, directions_featurizer):
        trainer = ClassifierTrainer(
            directions_corpus, directions_featurizer,
            config=ClassifierConfig(epochs=30, embedding_dim=30),
        )
        truth = directions_corpus.positive_ids()
        trainer.retrain(set(sorted(truth)[:10]))
        f1 = trainer.f1_against(truth)
        assert 0.0 <= f1 <= 1.0
        assert set(trainer.scores_for([0, 1])) == {0, 1}
        assert 0.0 <= trainer.score(0) <= 1.0

    @pytest.mark.parametrize("model", ["logistic", "cnn"])
    def test_full_rescore_matches_per_sentence_features(
        self, model, directions_corpus, directions_featurizer
    ):
        trainer = ClassifierTrainer(
            directions_corpus, directions_featurizer,
            config=ClassifierConfig(model=model, epochs=2, embedding_dim=30),
        )
        trainer.retrain(set(sorted(directions_corpus.positive_ids())[:5]))
        row = (
            directions_featurizer.matrix if model == "cnn"
            else directions_featurizer.vector
        )
        stacked = np.stack([row(s) for s in directions_corpus])
        expected = trainer.classifier.predict_proba(stacked)
        assert np.array_equal(trainer.score_corpus(), expected)

"""Training / scoring orchestration for the benefit classifier.

The trainer reproduces how Darwin uses its classifier (Sections 3.3 and 4.5):

* the training set is the positives discovered so far plus randomly-sampled
  sentences presumed negative,
* the classifier is retrained (from scratch) whenever the oracle confirms a
  rule that adds new positives,
* after retraining, every corpus sentence gets a probability score ``p_s``
  used by the benefit function: one ``predict_proba`` over the featurizer's
  frozen corpus matrix.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

import numpy as np

from ..config import ClassifierConfig
from ..errors import ClassifierError
from ..text.corpus import Corpus
from ..utils.rng import derive_rng
from .base import TextClassifier, TrainingSet
from .features import SentenceFeaturizer


def make_classifier(config: ClassifierConfig) -> TextClassifier:
    """Instantiate the classifier selected by ``config.model``.

    Resolution goes through :data:`repro.engine.registry.CLASSIFIERS`, so
    custom models registered with ``@register_classifier("name")`` are
    constructible here (and therefore from a plain config dict) exactly like
    the shipped ``"logistic"``/``"mlp"``/``"cnn"`` factories.
    """
    from ..engine.registry import CLASSIFIERS

    if config.model not in CLASSIFIERS:
        raise ClassifierError(f"unknown classifier model {config.model!r}")
    return CLASSIFIERS.create(config.model, config)


class ClassifierTrainer:
    """Retrains the benefit classifier and maintains per-sentence scores.

    Args:
        corpus: The corpus being labeled.
        featurizer: Sentence featurizer (embeddings trained on the corpus).
        config: Classifier hyper-parameters.
    """

    def __init__(
        self,
        corpus: Corpus,
        featurizer: SentenceFeaturizer,
        config: Optional[ClassifierConfig] = None,
    ) -> None:
        self.corpus = corpus
        self.featurizer = featurizer
        self.config = config or ClassifierConfig()
        self.classifier: Optional[TextClassifier] = None
        self._scores = np.full(len(corpus), 0.5, dtype=np.float64)
        self._retrain_count = 0
        self._rng = derive_rng(self.config.seed, "trainer-negatives", corpus.name)

    # ---------------------------------------------------------------- training
    def retrain(self, positive_ids: Set[int]) -> TextClassifier:
        """Retrain from scratch on ``positive_ids`` plus sampled negatives."""
        if not positive_ids:
            raise ClassifierError("cannot train without at least one positive")
        positives = sorted(positive_ids)
        negatives = self._sample_negatives(positive_ids)
        sentences = [self.corpus[i] for i in positives] + [
            self.corpus[i] for i in negatives
        ]
        labels = np.array([1.0] * len(positives) + [0.0] * len(negatives))
        features = self._featurize(sentences)
        training_set = TrainingSet(features=features, labels=labels)
        self.classifier = make_classifier(self.config)
        self.classifier.fit(training_set)
        self._retrain_count += 1
        self._refresh_scores()
        return self.classifier

    def _sample_negatives(self, positive_ids: Set[int]) -> Sequence[int]:
        # Columnar pool construction: flag positives in one mask instead of a
        # per-sentence Python membership test over the whole corpus.
        mask = np.ones(len(self.corpus), dtype=bool)
        positives = np.fromiter(positive_ids, dtype=np.int64, count=len(positive_ids))
        mask[positives[positives < mask.size]] = False
        pool = np.flatnonzero(mask)
        if not pool.size:
            return []
        target = int(np.ceil(len(positive_ids) * self.config.negative_sample_ratio))
        target = max(target, 5)
        target = min(target, int(pool.size))
        chosen = self._rng.choice(pool.size, size=target, replace=False)
        return pool[chosen].tolist()

    def _featurize(self, sentences: Iterable) -> np.ndarray:
        if self.config.model == "cnn":
            return self.featurizer.matrices(sentences)
        return self.featurizer.vectors(sentences)

    # ----------------------------------------------------------------- scoring
    def _refresh_scores(self) -> None:
        if self.config.model == "cnn":
            features = self.featurizer.corpus_matrices(self.corpus)
        else:
            features = self.featurizer.corpus_vectors(self.corpus)
        self._scores[:] = self.classifier.predict_proba(features)

    def score_corpus(self) -> np.ndarray:
        """Current per-sentence positive-probability estimates (id order)."""
        return self._scores.copy()

    def score(self, sentence_id: int) -> float:
        """Probability estimate for one sentence."""
        return float(self._scores[sentence_id])

    def scores_for(self, sentence_ids: Iterable[int]) -> Dict[int, float]:
        """Probability estimates for specific sentences."""
        return {i: float(self._scores[i]) for i in sentence_ids}

    @property
    def retrain_count(self) -> int:
        """How many times the classifier has been retrained."""
        return self._retrain_count

    # ---------------------------------------------------------- state protocol
    def state_dict(self, bundle, prefix: str = "trainer/") -> "dict":
        """Serialize scores, retrain counter, RNG stream, and model weights.

        The per-sentence score column and the negative-sampling RNG state are
        what replay determinism needs (the classifier object is recreated
        from scratch at every retrain); the weights additionally let a
        restored trainer answer :meth:`predict_proba`-style queries without a
        retrain. Arrays go into ``bundle``; the returned dict is JSON-able.
        """
        from ..engine.state import rng_state_dict

        state = {
            "scores": bundle.put(prefix + "scores", self._scores),
            "retrain_count": self._retrain_count,
            "rng": rng_state_dict(self._rng),
            "classifier": None,
        }
        if self.classifier is not None and self.classifier.is_fitted:
            arrays = self.classifier.state_arrays()
            state["classifier"] = {
                "model": self.config.model,
                "arrays": {
                    name: bundle.put(prefix + "classifier/" + name, array)
                    for name, array in arrays.items()
                },
            }
        return state

    def load_state(self, state: "dict", bundle) -> None:
        """Restore :meth:`state_dict` output into this trainer."""
        from ..engine.state import restore_rng

        self._scores = np.asarray(bundle.get(state["scores"]), dtype=np.float64).copy()
        self._retrain_count = int(state["retrain_count"])
        self._rng = restore_rng(state["rng"])
        classifier_state = state.get("classifier")
        if classifier_state is None:
            self.classifier = None
        else:
            recorded_model = classifier_state.get("model")
            if recorded_model is not None and recorded_model != self.config.model:
                raise ClassifierError(
                    f"checkpoint holds {recorded_model!r} classifier weights "
                    f"but this trainer is configured for "
                    f"{self.config.model!r}"
                )
            self.classifier = make_classifier(self.config)
            self.classifier.load_state_arrays(
                {
                    name: bundle.get(key)
                    for name, key in classifier_state["arrays"].items()
                }
            )

    # -------------------------------------------------------------- evaluation
    def f1_against(self, positive_ids: Set[int], threshold: float = 0.5) -> float:
        """F1 of the current classifier against ground-truth ``positive_ids``."""
        predictions = self._scores >= threshold
        truth = np.zeros(len(self.corpus), dtype=bool)
        truth[list(positive_ids)] = True
        true_positive = int(np.sum(predictions & truth))
        predicted_positive = int(predictions.sum())
        actual_positive = int(truth.sum())
        if predicted_positive == 0 or actual_positive == 0 or true_positive == 0:
            return 0.0
        precision = true_positive / predicted_positive
        recall = true_positive / actual_positive
        return 2 * precision * recall / (precision + recall)

"""A small template engine for synthetic corpus generation.

A dataset is described by a :class:`TemplateBank`: a set of positive
:class:`TemplateMode` groups (each mode is one "way of expressing the positive
class", with its own templates and slot fillers) plus negative modes. The bank
samples sentences with a target positive fraction, tracking which mode
produced each sentence in the sentence's ``meta`` field so experiments can
construct biased seed sets ("exclude every seed containing 'shuttle'").

Templates are plain strings with ``{slot}`` placeholders; slot fillers are
drawn uniformly from per-mode (or bank-level shared) filler lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DatasetError
from ..text.corpus import Corpus, preprocess
from ..text.pos import PosTagger
from ..utils.rng import derive_rng

_SLOT_PATTERN = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class TemplateMode:
    """One mode of a class: a named group of templates sharing slot fillers.

    Attributes:
        name: Mode identifier (stored in each generated sentence's ``meta``).
        templates: Template strings with ``{slot}`` placeholders.
        weight: Relative sampling weight among modes of the same class.
    """

    name: str
    templates: Tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.templates:
            raise DatasetError(f"mode {self.name!r} needs at least one template")
        if self.weight <= 0:
            raise DatasetError(f"mode {self.name!r} needs a positive weight")


@dataclass
class TemplateBank:
    """The full generative description of a synthetic dataset.

    Attributes:
        name: Dataset name.
        positive_modes: Modes generating positive sentences.
        negative_modes: Modes generating negative sentences.
        fillers: Slot name -> candidate filler strings (shared by all modes).
        lexicon: Extra word -> universal POS tag entries registered with the
            tagger so that domain nouns/verbs parse consistently.
        keyword_hints: The ~10 keywords an annotator would provide for the
            Keyword Sampling baseline.
        default_seed_rules: Seed rule strings used by the experiments.
        biased_exclude_token: Token excluded from seed sampling in the
            Figure 8 biased-seed experiment.
    """

    name: str
    positive_modes: Sequence[TemplateMode]
    negative_modes: Sequence[TemplateMode]
    fillers: Dict[str, Sequence[str]] = field(default_factory=dict)
    lexicon: Dict[str, str] = field(default_factory=dict)
    keyword_hints: Sequence[str] = field(default_factory=tuple)
    default_seed_rules: Sequence[str] = field(default_factory=tuple)
    biased_exclude_token: str = ""

    def __post_init__(self) -> None:
        if not self.positive_modes or not self.negative_modes:
            raise DatasetError("a template bank needs positive and negative modes")
        for mode in list(self.positive_modes) + list(self.negative_modes):
            for template in mode.templates:
                for slot in _SLOT_PATTERN.findall(template):
                    if slot not in self.fillers:
                        raise DatasetError(
                            f"template {template!r} uses unknown slot {slot!r}"
                        )

    # ------------------------------------------------------------- generation
    def generate(
        self,
        num_sentences: int,
        positive_fraction: float,
        seed: int = 0,
        parse_trees: bool = True,
    ) -> Corpus:
        """Sample a labeled corpus of ``num_sentences`` sentences.

        Args:
            num_sentences: Total corpus size.
            positive_fraction: Target fraction of positive sentences.
            seed: RNG seed; the same seed reproduces the same corpus.
            parse_trees: Build dependency trees (needed by TreeMatch).
        """
        if num_sentences <= 0:
            raise DatasetError("num_sentences must be positive")
        if not 0.0 < positive_fraction < 1.0:
            raise DatasetError("positive_fraction must be in (0, 1)")
        rng = derive_rng(seed, "dataset", self.name)
        num_positive = max(2, int(round(num_sentences * positive_fraction)))
        num_negative = max(1, num_sentences - num_positive)

        tagger = PosTagger()
        if self.lexicon:
            tagger.add_lexicon(dict(self.lexicon))

        records: List[Tuple[str, bool, str]] = []
        records.extend(self._sample_class(self.positive_modes, num_positive, rng, True))
        records.extend(self._sample_class(self.negative_modes, num_negative, rng, False))
        rng.shuffle(records)
        sentences = preprocess(records, tagger=tagger, parse_trees=parse_trees)
        return Corpus(sentences, name=self.name)

    def _sample_class(
        self,
        modes: Sequence[TemplateMode],
        count: int,
        rng: np.random.Generator,
        label: bool,
    ) -> List[Tuple[str, bool, str]]:
        weights = np.array([mode.weight for mode in modes], dtype=np.float64)
        weights = weights / weights.sum()
        records: List[Tuple[str, bool, str]] = []
        for _ in range(count):
            mode = modes[int(rng.choice(len(modes), p=weights))]
            template = mode.templates[int(rng.integers(len(mode.templates)))]
            text = self._fill(template, rng)
            records.append((text, label, mode.name))
        return records

    def _fill(self, template: str, rng: np.random.Generator) -> str:
        def replace(match: re.Match) -> str:
            slot = match.group(1)
            choices = self.fillers[slot]
            return str(choices[int(rng.integers(len(choices)))])

        return _SLOT_PATTERN.sub(replace, template)

    # -------------------------------------------------------------- utilities
    def mode_names(self, positive_only: bool = True) -> List[str]:
        """Names of the modes (positive ones by default)."""
        modes = self.positive_modes if positive_only else (
            list(self.positive_modes) + list(self.negative_modes)
        )
        return [mode.name for mode in modes]

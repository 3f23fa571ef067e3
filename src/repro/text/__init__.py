"""Text substrate: tokenization, POS tagging, dependency parsing, embeddings.

The paper relies on SpaCy for linguistic preprocessing and pre-trained word
embeddings. This subpackage provides offline, dependency-free substitutes with
the properties Darwin actually needs:

* deterministic tokenization,
* a consistent universal POS tag per token,
* a projective dependency tree per sentence (for the TreeMatch grammar),
* one read-only token-id column per corpus, which the analyses that walk
  every token read,
* dense word vectors in which co-occurring words are close (for the benefit
  classifier's generalization across related phrases).
"""

from .tokenizer import Tokenizer, tokenize
from .pos import PosTagger, UNIVERSAL_TAGS
from .dependency import DependencyParser, DependencyTree
from .sentence import Sentence
from .column import TokenColumn
from .corpus import Corpus
from .vocabulary import Vocabulary
from .embeddings import EmbeddingModel, build_embeddings

__all__ = [
    "Tokenizer",
    "tokenize",
    "PosTagger",
    "UNIVERSAL_TAGS",
    "DependencyParser",
    "DependencyTree",
    "Sentence",
    "TokenColumn",
    "Corpus",
    "Vocabulary",
    "EmbeddingModel",
    "build_embeddings",
]

"""Lexicon-based scoring of referee-report text.

Sentiment is the signed hit ratio (positive - negative) / tokens, normalized
to [-1, 1]; category scores are percentages of tokens falling in each of the
seven category word lists.  Lexicons are always loaded from files (one word
per line: ``positive.txt``, ``negative.txt``, ``cat_<name>.txt``) so they can
be swapped without touching code.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from importlib import resources

CATEGORIES = (
    "future_tense",
    "negation",
    "insight",
    "causation",
    "inclusive",
    "exclusive",
    "positive_emotion",
)

_TOKEN_RE = re.compile(r"[a-z]+")

LEXICON_DIR_ENV = "REVNET_LEXICON_DIR"


@dataclass(frozen=True)
class Lexicon:
    positive: frozenset[str]
    negative: frozenset[str]
    categories: dict[str, frozenset[str]]

    def __post_init__(self):
        overlap = self.positive & self.negative
        if overlap:
            raise ValueError(f"positive/negative lexicons overlap: {sorted(overlap)[:5]}")


def _read_word_file(path) -> frozenset[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


def load_lexicon(directory=None) -> Lexicon:
    """Load a lexicon directory; defaults to the packaged word lists.

    The ``REVNET_LEXICON_DIR`` environment variable overrides the default.
    """
    if directory is None:
        directory = os.environ.get(LEXICON_DIR_ENV)
    if directory is None:
        directory = str(resources.files("revnet").joinpath("data/lexicons"))
    positive = _read_word_file(os.path.join(str(directory), "positive.txt"))
    negative = _read_word_file(os.path.join(str(directory), "negative.txt"))
    categories = {
        name: _read_word_file(os.path.join(str(directory), f"cat_{name}.txt"))
        for name in CATEGORIES
    }
    return Lexicon(positive, negative, categories)


def tokenize(text: str) -> list[str]:
    """Lowercase alphabetic runs; everything else is a separator."""
    return _TOKEN_RE.findall(text.lower())


def sentiment_score(text: str, lexicon: Lexicon) -> float:
    tokens = tokenize(text)
    if not tokens:
        return 0.0
    pos = sum(1 for t in tokens if t in lexicon.positive)
    neg = sum(1 for t in tokens if t in lexicon.negative)
    return (pos - neg) / len(tokens)


def category_percentages(text: str, lexicon: Lexicon) -> dict[str, float]:
    tokens = tokenize(text)
    if not tokens:
        return {name: 0.0 for name in CATEGORIES}
    return {
        name: 100.0 * sum(1 for t in tokens if t in lexicon.categories[name]) / len(tokens)
        for name in CATEGORIES
    }

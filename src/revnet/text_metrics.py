"""Lexicon-based scoring of referee-report text.

Sentiment is the signed hit ratio (positive - negative) / tokens, normalized
to [-1, 1]; category scores are percentages of tokens falling in each of the
seven category word lists.  Lexicons are always loaded from files (one word
per line: ``positive.txt``, ``negative.txt``, ``cat_<name>.txt``) so they can
be swapped without touching code.  A word is a token of :func:`tokenize`,
one ``[a-z]+`` run; every lexicon word must itself be one, or no text could
ever match it.  The scorers read a tokenized report, so the caller tokenizes
each report once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat

CATEGORIES = (
    "future_tense",
    "negation",
    "insight",
    "causation",
    "inclusive",
    "exclusive",
    "positive_emotion",
)

# After ``str.lower()`` a byte below 0x80 in the UTF-8 encoding is an ASCII
# character and every non-ASCII character encodes to bytes >= 0x80 (lone
# surrogates too, under "surrogatepass"), so mapping every byte but a-z to a
# space leaves exactly the ``[a-z]+`` runs.
_LETTERS = bytes(b if 0x61 <= b <= 0x7A else 0x20 for b in range(256))

LEXICON_DIR_ENV = "REVNET_LEXICON_DIR"


@dataclass(frozen=True)
class Lexicon:
    positive: frozenset[str]
    negative: frozenset[str]
    categories: dict[str, frozenset[str]]
    # word -> +1 (positive) or -1 (negative), for one-pass sentiment counts
    polarity: dict[str, int] = field(init=False, repr=False, compare=False)
    # word -> indexes into CATEGORIES of the lists holding it, for one-pass
    # category counts
    word_categories: dict[str, tuple[int, ...]] = field(init=False, repr=False,
                                                        compare=False)

    def __post_init__(self):
        overlap = self.positive & self.negative
        if overlap:
            raise ValueError(f"positive/negative lexicons overlap: {sorted(overlap)[:5]}")
        polarity = dict.fromkeys(self.positive, 1)
        polarity.update(dict.fromkeys(self.negative, -1))
        object.__setattr__(self, "polarity", polarity)
        word_categories: dict[str, tuple[int, ...]] = {}
        for i, name in enumerate(CATEGORIES):
            for word in self.categories[name]:
                word_categories[word] = word_categories.get(word, ()) + (i,)
        object.__setattr__(self, "word_categories", word_categories)


def _read_word_file(path) -> frozenset[str]:
    """Words of a one-word-per-line file, stripped and lowercased; blank lines
    are skipped and a word that is not one ``[a-z]+`` run raises ``ValueError``."""
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            word = line.strip().lower()
            if not word:
                continue
            if tokenize(word) != [word]:
                raise ValueError(f"{path}: line {lineno}: lexicon word {word!r} is not "
                                 f"one run of letters a-z, so no token can match it")
            words.add(word)
    return frozenset(words)


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
    """The ``[a-z]+`` runs of ``text.lower()``; everything else is a separator."""
    return (text.lower().encode("utf-8", "surrogatepass").translate(_LETTERS)
            .decode("ascii").split())


def sentiment_score(tokens: list[str], lexicon: Lexicon) -> float:
    if not tokens:
        return 0.0
    return sum(map(lexicon.polarity.get, tokens, repeat(0))) / len(tokens)


def category_percentages(tokens: list[str], lexicon: Lexicon) -> dict[str, float]:
    if not tokens:
        return {name: 0.0 for name in CATEGORIES}
    hits = [0] * len(CATEGORIES)
    for indexes in filter(None, map(lexicon.word_categories.get, tokens)):
        for i in indexes:
            hits[i] += 1
    return {name: 100.0 * hits[i] / len(tokens) for i, name in enumerate(CATEGORIES)}

"""Reviewer-interaction network analytics and citation-rank prediction."""

from .corpus import Corpus, CorpusError, parse_events, validate_events
from .features import FEATURE_NAMES, assemble_matrix, feature_vector
from .review_graph import build_graph
from .svr import SvrConfig, cross_validate, fit
from .synth import SynthConfig, generate, ground_truth
from .text_metrics import load_lexicon

__version__ = "0.1.0"

__all__ = [
    "Corpus", "CorpusError", "parse_events", "validate_events",
    "FEATURE_NAMES", "assemble_matrix", "feature_vector",
    "build_graph",
    "SvrConfig", "cross_validate", "fit",
    "SynthConfig", "generate", "ground_truth",
    "load_lexicon",
    "__version__",
]

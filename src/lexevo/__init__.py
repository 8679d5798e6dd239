"""Historical synonym competition: datasets, features, and prediction.

Builds datasets of competing synonyms from unigram frequency files and a
synset lexicon, extracts per-word fitness features, and trains a Gaussian
naive Bayes model to predict each synset's future leading word.
"""

__version__ = "0.1.0"

from .dataset import TimeWindow, schedule_windows
from .errors import DataError, LexevoError
from .model import NaiveBayesModel, fit

__all__ = [
    "DataError",
    "LexevoError",
    "NaiveBayesModel",
    "TimeWindow",
    "fit",
    "schedule_windows",
    "__version__",
]

"""Gaussian naive Bayes over feature vectors.

Every dimension (the seven scalars plus one binary dimension per trained
trigram) gets two Gaussians, one per class.  Priors carry add-one
smoothing.  Fitting uses exact sums, so a permutation of the training set
yields bit-identical parameters.

A model stores each fact once, as the data gave it: the class sizes, each
scalar's exact mean and unbiased variance per class, and each trained
trigram's count of ones per class, the sufficient statistics of a 0/1
column.  ``NaiveBayesModel`` derives the priors and every Gaussian from
them, whether ``fit`` or ``load_model`` builds it.  One function,
``_gaussian``, turns a dimension's statistics into the Gaussian scoring
uses: it floors the variance at an absolute 1e-9, so that a constant
column or a one-vector class gives no singular density.

Fitting and scoring cost O(nonzeros), not O(vectors x trigram dims).
``fit`` reads each scalar column of a class with one attrgetter map and
counts its trigram ones in one pass.  Scoring uses the Bernoulli
event-model form of naive Bayes (McCallum & Nigam 1998): the classes' log
densities with every trigram absent are summed once per model, and a word
only corrects them for its own trained trigrams, adding log N(1) -
log N(0) for each.  The model precomputes what scoring reads:
the log priors, a getter of the scalar values, each scalar Gaussian's
mean, log normaliser and twice its variance (the operands
``gaussian_log_pdf`` uses, so every term is the same float), and its
constant terms folded into exact parts.  ``math.fsum`` (Shewchuk 1997)
returns the correctly rounded exact sum of its inputs, so a group of
constant terms can be replaced by fewer floats with the same exact sum
(``_exact_parts``) and every score keeps its bits.  Each trained
trigram's four correction terms fold into about two floats, and the two
log priors plus the absent sum into the base parts that ``win_log_odds``
starts from.

A naive Bayes log odds is a sum of independent per-feature terms.
``feature_terms`` returns them for one vector, keyed by feature: the
class-1 terms and the negated class-0 terms of each scalar, and for
``unique_ngrams`` the exact parts of the absent sum plus the folded
corrections of the word's trained trigrams.  ``subset_log_odds`` is one
fsum over the prior terms and the terms of any feature subset, and
``win_log_odds`` one fsum of the same exact sum over all of the model's
features.  A dimension's Gaussians depend only on that dimension and the
class split, and the priors on no feature, so the subset log odds equals
what a model fitted on the subset alone gives, bit for bit: fsum is
exact in any order.  It is the correctly rounded difference of the dense
per-dimension class scores.  That matters: floored variances make single
terms reach about 5e8, where one ulp is about 6e-8, while the two classes
often differ by less than one.  The win probability is the logistic of
the log odds.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from ._util import _not_utf8, atomic_write_json, tuple_getter
from .errors import DataError, UnfittableModelError
from .features import FEATURE_NAMES, MAX_FEATURE_MAGNITUDE, SCALAR_FEATURES

VARIANCE_FLOOR = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)


class GaussianParams(NamedTuple):
    mean: float
    variance: float


def _density_constants(params):
    """(mean, log normaliser, 2 * variance) of N(mean, variance); math.log
    raises ValueError for a variance that is not positive."""
    return (params.mean, -0.5 * (_LOG_2PI + math.log(params.variance)),
            2.0 * params.variance)


def gaussian_log_pdf(params, x):
    """Log density of N(mean, variance) at x."""
    mean, log_normaliser, twice_variance = _density_constants(params)
    d = x - mean
    return log_normaliser - (d * d) / twice_variance


def _statistics(values):
    """Exact mean and unbiased variance of a value list; 0.0 for one value."""
    n = len(values)
    mean = math.fsum(values) / n
    ss = math.fsum([(x - mean) * (x - mean) for x in values])
    return GaussianParams(mean, ss / (n - 1 or 1))


def _binary_statistics(ones, n):
    """(mean, unbiased variance) of a 0/1 column of n values, ones of them
    1; 0.0 for one value.  A plain pair: the model stores counts, not these."""
    mean = ones / n
    # sum of squared deviations of a binary sample, in closed form
    ss = ones * (1.0 - mean) ** 2 + (n - ones) * mean ** 2
    return mean, ss / (n - 1 or 1)


def _gaussian(statistics):
    """The Gaussian a model scores with for a dimension's (mean, variance).

    The one variance rule: a variance is floored at VARIANCE_FLOOR, so a
    constant column (a trigram in none or all of a class's vectors among
    them) and a one-vector class give a nonsingular density.
    """
    mean, variance = statistics
    return GaussianParams(mean, max(variance, VARIANCE_FLOOR))


@dataclass
class NaiveBayesModel:
    """A fitted model's stored facts: the data's statistics, unfloored.
    __post_init__ derives priors, scalar_params (name -> class-0 and
    class-1 GaussianParams, the Gaussians scoring uses), trigram_dims
    (sorted) and trigram_params (trigram -> class-0 and class-1
    GaussianParams), every Gaussian through _gaussian, and the private
    constants scoring reads: the two log-prior terms, a getter of the
    scalar values and each scalar's _density_constants per class (both in
    scalar_params order), each trained trigram's folded correction parts,
    _absent_parts (the class-1 minus class-0 log density of "every trigram
    absent") and _base_parts (the log-prior terms plus that sum), each a
    few floats of the exact sum of the terms they replace.  Only the
    fields are saved, shown and compared."""

    features: tuple  # subset of FEATURE_NAMES used by this model
    class_sizes: tuple  # (class-0 vectors, class-1 vectors), each at least 1
    # name -> (class-0, class-1) GaussianParams of the column's exact mean
    # and unbiased variance (0.0 for a constant column or a one-vector class)
    scalar_statistics: dict
    trigram_ones: dict  # trigram -> (class-0 vectors with it, class-1 vectors with it)

    def __post_init__(self):
        n0, n1 = self.class_sizes
        self.priors = ((n0 + 1) / (n0 + n1 + 2), (n1 + 1) / (n0 + n1 + 2))
        self.trigram_dims = tuple(sorted(self.trigram_ones))
        self.scalar_params = {name: tuple(map(_gaussian, pair))
                              for name, pair in self.scalar_statistics.items()}
        self._prior_terms = (math.log(self.priors[1]), -math.log(self.priors[0]))
        self._scalar_values = tuple_getter(attrgetter, tuple(self.scalar_params))
        self._scalar_constants = tuple(
            tuple(_density_constants(p) for p in pair)
            for pair in self.scalar_params.values())
        # a trigram's Gaussians and terms depend only on its count pair,
        # which many trigrams share, so each distinct pair is computed once;
        # a word with a trained trigram replaces its log N(0) by log N(1)
        # in each class; a word without any adds only the absent sum
        by_pair = {}  # count pair -> (Gaussians, correction parts, absent terms)
        for ones in set(self.trigram_ones.values()):
            p0, p1 = params = tuple(_gaussian(_binary_statistics(k, n))
                                    for k, n in zip(ones, self.class_sizes))
            zero0, zero1 = gaussian_log_pdf(p0, 0.0), gaussian_log_pdf(p1, 0.0)
            by_pair[ones] = (params, _exact_parts((gaussian_log_pdf(p1, 1.0), -zero1,
                                                   -gaussian_log_pdf(p0, 1.0), zero0)),
                             (zero1, -zero0))
        self.trigram_params, self._trigram_parts, absent = {}, {}, []
        for tri in self.trigram_dims:
            params, parts, zeros = by_pair[self.trigram_ones[tri]]
            self.trigram_params[tri] = params
            self._trigram_parts[tri] = parts
            absent += zeros
        self._absent_parts = _exact_parts(absent)
        self._base_parts = _exact_parts(self._prior_terms + self._absent_parts)


def fit(vectors, features=FEATURE_NAMES):
    """Fit class priors and per-dimension Gaussians from labeled vectors.

    The trigram dimension space is the union of unique trigrams seen in
    the training vectors (when the trigram block is enabled).  Raises
    DataError when features is empty or names an unknown feature, and
    UnfittableModelError when either class is empty.
    """
    if not features:
        raise DataError("no features to fit")
    unknown = set(features) - set(FEATURE_NAMES)
    if unknown:
        raise DataError(f"unknown features: {sorted(unknown)}")
    by_class = {0: [], 1: []}
    for v in vectors:
        if v.target_class not in (0, 1):
            raise DataError(f"vector for {v.sense} has no target class")
        by_class[v.target_class].append(v)
    if not by_class[0] or not by_class[1]:
        raise UnfittableModelError(
            f"need vectors in both classes, got {len(by_class[0])}/{len(by_class[1])}"
        )
    # a column per map, not a zip transpose of rows: the rows' tuples
    # would outlive the fit on the interpreter's tuple free list
    scalar_statistics = {
        name: tuple(_statistics(list(map(attrgetter(name), by_class[c])))
                    for c in (0, 1))
        for name in SCALAR_FEATURES if name in features
    }
    trigram_ones = {}
    if "unique_ngrams" in features:
        ones0, ones1 = (
            Counter(chain.from_iterable(map(set, map(attrgetter("unique_ngrams"),
                                                     by_class[c]))))
            for c in (0, 1))
        trigram_ones = {tri: (ones0[tri], ones1[tri])
                        for tri in sorted(ones0.keys() | ones1.keys())}
    return NaiveBayesModel(tuple(features), (len(by_class[0]), len(by_class[1])),
                           scalar_statistics, trigram_ones)


def _exact_parts(terms):
    """Floats whose exact sum is the exact sum of terms.

    Each part is the correctly rounded remainder the earlier parts leave,
    so an fsum over the parts and further terms rounds only once.
    """
    terms = list(terms)
    parts = []
    while True:
        part = math.fsum(terms)
        if part == 0.0:
            return tuple(parts)
        parts.append(part)
        if not math.isfinite(part):
            return tuple(parts)
        terms.append(-part)


def feature_terms(model, vector):
    """{feature: class-1 minus class-0 log density terms} for one vector,
    for every feature of the model.

    A scalar's terms are its class-1 log density and its negated class-0
    one.  unique_ngrams' terms are the exact parts of the "every trigram
    absent" sum plus the folded correction parts of each trained trigram
    of the word; trigrams unseen in training are ignored.  The cost is
    O(scalar dims + the word's own trigrams).
    """
    terms = {}
    for name, x, ((mean0, log_normaliser0, twice_variance0),
                  (mean1, log_normaliser1, twice_variance1)) in zip(
            model.scalar_params, model._scalar_values(vector), model._scalar_constants):
        d0, d1 = x - mean0, x - mean1
        terms[name] = (log_normaliser1 - (d1 * d1) / twice_variance1,
                       -(log_normaliser0 - (d0 * d0) / twice_variance0))
    if "unique_ngrams" in model.features:
        parts = model._trigram_parts
        terms["unique_ngrams"] = model._absent_parts + tuple(chain.from_iterable(
            parts[tri] for tri in parts.keys() & vector.unique_ngrams))
    return terms


def subset_log_odds(model, terms, features):
    """log P(class 1) - log P(class 0), correctly rounded, under the model
    restricted to `features`, from one vector's feature_terms.

    One fsum over the log-prior terms and the subset's terms: it equals
    win_log_odds of a model fitted on that subset alone, bit for bit.
    """
    return math.fsum(chain(model._prior_terms, *map(terms.__getitem__, features)))


def win_log_odds(model, vector):
    """log P(class 1) - log P(class 0) for one vector, correctly rounded.

    One fsum over the model's base parts, the scalar terms and the folded
    parts of the word's trained trigrams: the same exact sum as
    subset_log_odds over all of the model's features, so the same float.
    Use this for ranking words: it never saturates the way win_probability
    does near 0 and 1.
    """
    terms = list(model._base_parts)
    # feature_terms' scalar terms, inline: a call per vector costs more
    for x, ((mean0, log_normaliser0, twice_variance0),
            (mean1, log_normaliser1, twice_variance1)) in zip(
            model._scalar_values(vector), model._scalar_constants):
        d0, d1 = x - mean0, x - mean1
        terms += (log_normaliser1 - (d1 * d1) / twice_variance1,
                  -(log_normaliser0 - (d0 * d0) / twice_variance0))
    parts = model._trigram_parts
    for tri in parts.keys() & vector.unique_ngrams:
        terms += parts[tri]
    return math.fsum(terms)


def logistic(odds):
    """P(class 1) from win_log_odds, computed without overflow."""
    if odds >= 0:
        return 1.0 / (math.exp(-odds) + 1.0)
    e = math.exp(odds)
    return e / (1.0 + e)


def win_probability(model, vector):
    """P(class 1) for one vector under the fitted model, in [0, 1]."""
    return logistic(win_log_odds(model, vector))


def _statistics_from_json(obj):
    statistics = GaussianParams(_number_from_json(obj, "mean"),
                                _number_from_json(obj, "variance"))
    # fit keeps means within the feature bound (up to rounding, hence the
    # factor 2) and variances finite and non-negative; with a feature value
    # within the bound, every score term of the derived Gaussians then
    # stays finite
    if not (abs(statistics.mean) <= 2 * MAX_FEATURE_MAGNITUDE
            and 0.0 <= statistics.variance < math.inf):
        raise ValueError(f"need a finite mean of magnitude at most "
                         f"{2 * MAX_FEATURE_MAGNITUDE:g} and a finite, non-negative "
                         f"variance, got {statistics.mean!r} and "
                         f"{statistics.variance!r}")
    return statistics


def save_model(model, path):
    """Serialize a model's stored facts to JSON; floats round-trip at full
    precision."""
    obj = {
        "features": list(model.features),
        "class_sizes": list(model.class_sizes),
        "scalar_features": {
            name: {"class0": p[0]._asdict(), "class1": p[1]._asdict()}
            for name, p in model.scalar_statistics.items()
        },
        "trigram_ones": {tri: list(ones) for tri, ones in model.trigram_ones.items()},
    }
    atomic_write_json(path, obj)


def load_model(path):
    """Read a model written by save_model.

    A file that is not JSON or not UTF-8 is a DataError naming the file
    and the line;
    a missing key or a malformed value is one naming the file and the key.
    So are counts that are not integers with 1 <= class size <= 2**53
    (an exact float) and 0 <= ones <= class size, a feature list that is
    empty or names an unknown feature, scalar statistics for other scalars
    than it names, that are not JSON numbers, or with a mean beyond twice
    the feature bound or a negative or infinite variance, or trigram
    counts without 'unique_ngrams' in it.  A file that stored floored
    variances loads to the same Gaussians as one that stores the data's.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except ValueError as exc:  # JSONDecodeError
        raise DataError(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: model file is not a JSON object")

    def value(key, convert):
        if key not in obj:
            raise DataError(f"{path}: model file has no key {key!r}")
        try:
            return convert(obj[key])
        except _VALUE_ERRORS as exc:
            raise DataError(f"{path}: bad key {key!r}: {exc}") from None

    features = value("features", _names_from_json)
    class_sizes = value("class_sizes",
                        lambda sizes: _counts_from_json(sizes, 1, (2 ** 53,) * 2))
    scalar_statistics = value("scalar_features", _statistics_by_name_from_json)
    trigram_ones = value("trigram_ones", lambda counts: {
        tri: _counts_from_json(ones, 0, class_sizes, f"{tri!r}: ")
        for tri, ones in counts.items()})
    unknown = sorted(set(features) - set(FEATURE_NAMES))
    if unknown:
        raise DataError(f"{path}: key 'features' names unknown features {unknown}")
    if set(scalar_statistics) != set(features) & set(SCALAR_FEATURES):
        raise DataError(f"{path}: keys 'features' and 'scalar_features' name "
                        "different scalar features")
    if trigram_ones and "unique_ngrams" not in features:
        raise DataError(f"{path}: key 'trigram_ones' must be empty when "
                        "'features' leaves out 'unique_ngrams'")
    return NaiveBayesModel(features, class_sizes, scalar_statistics, trigram_ones)


# what converting a malformed JSON value can raise
_VALUE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _names_from_json(obj):
    if not (isinstance(obj, list) and obj
            and all(isinstance(n, str) for n in obj)
            and len(set(obj)) == len(obj)):
        raise ValueError("need a nonempty list of distinct strings")
    return tuple(obj)


def _counts_from_json(obj, low, highs, prefix=""):
    """(class-0, class-1) counts: two ints, each from low to its high."""
    if not (isinstance(obj, list) and len(obj) == 2
            and all(type(k) is int and low <= k <= high
                    for k, high in zip(obj, highs))):
        raise ValueError(f"{prefix}need two integer counts from {low} to "
                         f"{list(highs)}, got {obj!r}")
    return tuple(obj)


def _number_from_json(obj, key):
    """obj[key] as a float: a JSON number, not a string or a bool, which
    float() would take."""
    number = obj[key]
    if type(number) not in (int, float):
        raise ValueError(f"{key!r} must be a number, got {number!r}")
    return float(number)


def _statistics_by_name_from_json(obj):
    """name -> (class-0, class-1) GaussianParams; ValueError names the name."""
    statistics = {}
    for name, pair in obj.items():
        try:
            statistics[name] = (_statistics_from_json(pair["class0"]),
                                _statistics_from_json(pair["class1"]))
        except KeyError as exc:
            raise ValueError(f"{name!r} has no key {exc.args[0]!r}") from None
        except _VALUE_ERRORS as exc:
            raise ValueError(f"{name!r}: {exc}") from None
    return statistics

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
log N(0) for each.  The model precomputes what scoring reads: each
scalar's mean, log normaliser and twice its variance per class are the
operands ``gaussian_log_pdf`` uses, so every term is the same float.
``math.fsum`` (Shewchuk 1997) returns the correctly rounded exact sum of
its inputs, so constant terms fold into fewer floats with the same exact
sum (``_exact_parts``): a trained trigram's four correction terms into
about two, and so does the absent sum.

A naive Bayes log odds is a sum of independent per-feature terms.
``feature_terms`` is their one statement: a list of one term sequence per
feature in FEATURE_NAMES order, a scalar's two class terms and, for
``unique_ngrams``, the absent parts plus the corrections of the word's
trained trigrams.  ``win_log_odds`` is one fsum over the log-prior terms
and every entry, and ``subset_log_odds`` over those at chosen positions.
A dimension's Gaussians depend only on that dimension and the class
split, and the priors on no feature, so a subset's log odds is what a
model fitted on the subset alone gives, bit for bit: fsum is exact in any
order.  It is the correctly rounded difference of the dense per-dimension
class scores.  That matters: floored variances make single terms reach
about 5e8, where one ulp is about 6e-8, while the two classes often
differ by less than one.  The win probability is the logistic of the log
odds.
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
    __post_init__ derives, in FEATURE_NAMES order whatever order fit's
    caller or the file gave: priors, term_positions (feature name -> index
    of its entry in a feature_terms list), scalar_params and
    trigram_params (name or trigram -> class-0 and class-1 GaussianParams,
    each through _gaussian), trigram_dims (sorted), and the constants
    scoring reads: the log-prior terms, a scalar getter, each scalar's two
    _density_constants as one 6-tuple, and the folded parts of each
    trained trigram's correction and of the absent sum (None without
    unique_ngrams).  Only the fields are saved, shown and compared."""

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
        order = tuple(name for name in FEATURE_NAMES if name in self.features)
        self.term_positions = {name: i for i, name in enumerate(order)}
        self.scalar_params = {name: tuple(map(_gaussian, self.scalar_statistics[name]))
                              for name in order if name != "unique_ngrams"}
        self._prior_terms = (math.log(self.priors[1]), -math.log(self.priors[0]))
        self._scalar_values = tuple_getter(attrgetter, tuple(self.scalar_params))
        self._scalar_constants = tuple(
            _density_constants(p0) + _density_constants(p1)
            for p0, p1 in self.scalar_params.values())
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
        self._absent_parts = _exact_parts(absent) if "unique_ngrams" in order else None


def fit(vectors, features=FEATURE_NAMES):
    """Fit class priors and per-dimension Gaussians from labeled vectors.

    The trigram dimension space is the union of unique trigrams seen in
    the training vectors (when the trigram block is enabled).  Raises
    DataError when features is empty, names an unknown feature or repeats
    one, and UnfittableModelError when either class is empty.
    """
    if not features:
        raise DataError("no features to fit")
    unknown = set(features) - set(FEATURE_NAMES)
    if unknown:
        raise DataError(f"unknown features: {sorted(unknown)}")
    repeated = sorted(name for name, n in Counter(features).items() if n > 1)
    if repeated:
        raise DataError(f"repeated features: {repeated}")
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
    """One vector's class-1 minus class-0 log density terms: a list of one
    term sequence per feature, at the model's term_positions.

    A scalar's terms are its class-1 log density and its negated class-0
    one.  unique_ngrams' terms are the absent parts plus the correction
    parts of each trained trigram of the word; unseen trigrams are
    ignored.  A trigram listed twice would count twice: read_feature_vectors
    refuses one, and extract_features never writes one.  The cost is
    O(scalar dims + the word's own trigrams).
    """
    terms = []
    for x, (mean0, log_normaliser0, twice_variance0,
            mean1, log_normaliser1, twice_variance1) in zip(
            model._scalar_values(vector), model._scalar_constants):
        d0, d1 = x - mean0, x - mean1
        # b - a is -(a - b) to the bit: rounding is symmetric in sign
        terms.append((log_normaliser1 - d1 * d1 / twice_variance1,
                      d0 * d0 / twice_variance0 - log_normaliser0))
    if model._absent_parts is not None:
        trigram_terms = list(model._absent_parts)
        parts = model._trigram_parts
        for tri in vector.unique_ngrams:
            if tri in parts:
                trigram_terms += parts[tri]
        terms.append(trigram_terms)
    return terms


def subset_log_odds(model, terms, positions):
    """log P(class 1) - log P(class 0), correctly rounded, under the model
    restricted to the features at `positions` of one vector's feature_terms.

    One fsum over the log-prior terms and those features' terms: it equals
    win_log_odds of a model fitted on that subset alone, bit for bit.
    """
    # one list, which fsum reads faster than a chain of the entries
    summed = list(model._prior_terms)
    for position in positions:
        summed += terms[position]
    return math.fsum(summed)


def win_log_odds(model, vector):
    """log P(class 1) - log P(class 0) for one vector, correctly rounded:
    subset_log_odds over every position of feature_terms.

    Use this for ranking words: it never saturates the way win_probability
    does near 0 and 1.
    """
    summed = list(model._prior_terms)
    for entry in feature_terms(model, vector):
        summed += entry
    return math.fsum(summed)


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

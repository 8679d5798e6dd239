"""Gaussian naive Bayes over feature vectors.

Every dimension (the seven scalars plus one binary dimension per trained
trigram) gets two Gaussians, one per class.  Priors carry add-one
smoothing and variances are floored so binary dimensions never produce a
singular density.  Fitting uses exact sums, so a permutation of the
training set yields bit-identical parameters.

A model stores each fact once: the class sizes, the scalar Gaussians and
each trained trigram's count of ones per class, the sufficient statistics
of a 0/1 column.  ``NaiveBayesModel`` derives the priors and the trigram
Gaussians from them, whether ``fit`` or ``load_model`` builds it.

Fitting and scoring cost O(nonzeros), not O(vectors x trigram dims).
``fit`` counts each class's trigram ones in one pass.  Scoring uses the
Bernoulli event-model form of naive Bayes (McCallum & Nigam 1998): the
classes' log densities with every trigram absent are summed once per
model, and a word only corrects them for its own trained trigrams, adding
log N(1) - log N(0) for each.  The model precomputes what scoring reads:
the log priors, each scalar Gaussian's mean, log normaliser and twice its
variance (the operands ``gaussian_log_pdf`` uses, so every term is the
same float), and each trained trigram's four correction terms.

A naive Bayes log odds is a sum of independent per-feature terms.
``feature_terms`` returns them for one vector, keyed by feature: the
class-1 terms and the negated class-0 terms of each scalar, and for
``unique_ngrams`` the exact parts of the absent sum plus the word's
corrections.  ``subset_log_odds`` is one ``math.fsum`` (Shewchuk 1997)
over the prior terms and the terms of any feature subset; ``win_log_odds``
is that fsum over all of the model's features.  A dimension's Gaussians
depend only on that dimension and the class split, and the priors on no
feature, so the subset log odds equals what a model fitted on the subset
alone gives, bit for bit: fsum is exact in any order.  It is the
correctly rounded difference of the dense per-dimension class scores.
That matters: floored variances make single terms reach about 5e8, where
one ulp is about 6e-8, while the two classes often differ by less than
one.  The win probability is the logistic of the log odds.
"""

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain

from ._util import _not_utf8, atomic_write_json
from .errors import DataError, UnfittableModelError
from .features import FEATURE_NAMES, MAX_FEATURE_MAGNITUDE, SCALAR_FEATURES

VARIANCE_FLOOR = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianParams:
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


def _fit_gaussian(values):
    """Exact mean and unbiased variance of a value list, floored."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        variance = VARIANCE_FLOOR
    else:
        ss = math.fsum((x - mean) * (x - mean) for x in values)
        variance = max(ss / (n - 1), VARIANCE_FLOOR)
    return GaussianParams(mean, variance)


def _fit_binary_gaussian(ones, n):
    """Gaussian of a 0/1 dimension from its count of ones (exact)."""
    mean = ones / n
    if n < 2:
        variance = VARIANCE_FLOOR
    else:
        # sum of squared deviations of a binary sample, in closed form
        ss = ones * (1.0 - mean) ** 2 + (n - ones) * mean ** 2
        variance = max(ss / (n - 1), VARIANCE_FLOOR)
    return GaussianParams(mean, variance)


@dataclass
class NaiveBayesModel:
    """A fitted model's stored facts.  __post_init__ derives priors,
    trigram_dims (sorted) and trigram_params (trigram -> class-0 and class-1
    GaussianParams), and the private constants feature_terms reads: the two
    log-prior terms, each scalar's _density_constants per class, each
    trained trigram's four correction terms and _absent_parts, floats
    summing exactly to the class-1 minus class-0 log density of "every
    trigram absent".  The private ones are not saved, shown or compared."""

    features: tuple  # subset of FEATURE_NAMES used by this model
    class_sizes: tuple  # (class-0 vectors, class-1 vectors), each at least 1
    scalar_params: dict  # name -> (GaussianParams class0, GaussianParams class1)
    trigram_ones: dict  # trigram -> (class-0 vectors with it, class-1 vectors with it)

    def __post_init__(self):
        n0, n1 = self.class_sizes
        self.priors = ((n0 + 1) / (n0 + n1 + 2), (n1 + 1) / (n0 + n1 + 2))
        self.trigram_dims = tuple(sorted(self.trigram_ones))
        self.trigram_params = {
            tri: tuple(_fit_binary_gaussian(ones, n)
                       for ones, n in zip(self.trigram_ones[tri], self.class_sizes))
            for tri in self.trigram_dims
        }
        self._prior_terms = (math.log(self.priors[1]), -math.log(self.priors[0]))
        self._scalar_constants = {
            name: tuple(_density_constants(p) for p in pair)
            for name, pair in self.scalar_params.items()
        }
        # a word with a trained trigram replaces its log N(0) by log N(1)
        # in each class; a word without any adds only the absent sum
        self._trigram_corrections = {}
        absent = []
        for tri, (p0, p1) in self.trigram_params.items():
            zero0, zero1 = gaussian_log_pdf(p0, 0.0), gaussian_log_pdf(p1, 0.0)
            self._trigram_corrections[tri] = (
                gaussian_log_pdf(p1, 1.0), -zero1, -gaussian_log_pdf(p0, 1.0), zero0)
            absent += [zero1, -zero0]
        self._absent_parts = _exact_parts(absent)


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
    scalar_params = {
        name: tuple(_fit_gaussian([v.scalar(name) for v in by_class[c]])
                    for c in (0, 1))
        for name in SCALAR_FEATURES if name in features
    }
    trigram_ones = {}
    if "unique_ngrams" in features:
        ones = (Counter(), Counter())
        for c in (0, 1):
            for v in by_class[c]:
                ones[c].update(set(v.unique_ngrams))
        trigram_ones = {tri: (ones[0][tri], ones[1][tri])
                        for tri in sorted(ones[0].keys() | ones[1].keys())}
    return NaiveBayesModel(tuple(features), (len(by_class[0]), len(by_class[1])),
                           scalar_params, trigram_ones)


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
    absent" sum plus four corrections per trained trigram of the word;
    trigrams unseen in training are ignored.  The cost is O(scalar dims +
    the word's own trigrams).
    """
    terms = {}
    for name, constants in model._scalar_constants.items():
        x = vector.scalar(name)
        (mean0, log_normaliser0, twice_variance0), (
            mean1, log_normaliser1, twice_variance1) = constants
        d0, d1 = x - mean0, x - mean1
        terms[name] = (log_normaliser1 - (d1 * d1) / twice_variance1,
                       -(log_normaliser0 - (d0 * d0) / twice_variance0))
    if "unique_ngrams" in model.features:
        corrections = model._trigram_corrections
        terms["unique_ngrams"] = model._absent_parts + tuple(chain.from_iterable(
            corrections[tri] for tri in corrections.keys() & vector.unique_ngrams))
    return terms


def subset_log_odds(model, terms, features):
    """log P(class 1) - log P(class 0), correctly rounded, under the model
    restricted to `features`, from one vector's feature_terms.

    One fsum over the log-prior terms and the subset's terms: it equals
    win_log_odds of a model fitted on that subset alone, bit for bit.
    """
    return math.fsum(chain(model._prior_terms, *(terms[f] for f in features)))


def win_log_odds(model, vector):
    """log P(class 1) - log P(class 0) for one vector, correctly rounded.

    Use this for ranking words: it never saturates the way win_probability
    does near 0 and 1.
    """
    return subset_log_odds(model, feature_terms(model, vector), model.features)


def logistic(odds):
    """P(class 1) from win_log_odds, computed without overflow."""
    if odds >= 0:
        return 1.0 / (math.exp(-odds) + 1.0)
    e = math.exp(odds)
    return e / (1.0 + e)


def win_probability(model, vector):
    """P(class 1) for one vector under the fitted model, in [0, 1]."""
    return logistic(win_log_odds(model, vector))


def _params_from_json(obj):
    params = GaussianParams(float(obj["mean"]), float(obj["variance"]))
    # fit keeps means within the feature bound (up to rounding, hence the
    # factor 2) and variances at or above the floor; with a feature value
    # within the bound, every score term then stays finite
    if not (abs(params.mean) <= 2 * MAX_FEATURE_MAGNITUDE
            and VARIANCE_FLOOR <= params.variance < math.inf):
        raise ValueError(f"need a finite mean of magnitude at most "
                         f"{2 * MAX_FEATURE_MAGNITUDE:g} and a finite variance of "
                         f"at least {VARIANCE_FLOOR:g}, got {params.mean!r} and "
                         f"{params.variance!r}")
    return params


def save_model(model, path):
    """Serialize a model's stored facts to JSON; floats round-trip at full
    precision."""
    obj = {
        "features": list(model.features),
        "class_sizes": list(model.class_sizes),
        "scalar_features": {
            name: {"class0": asdict(p[0]), "class1": asdict(p[1])}
            for name, p in model.scalar_params.items()
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
    empty or names an unknown feature, scalar parameters for other scalars
    than it names, or trigram counts without 'unique_ngrams' in it.
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
    scalar_params = value("scalar_features", _params_by_name_from_json)
    trigram_ones = value("trigram_ones", lambda counts: {
        tri: _counts_from_json(ones, 0, class_sizes, f"{tri!r}: ")
        for tri, ones in counts.items()})
    unknown = sorted(set(features) - set(FEATURE_NAMES))
    if unknown:
        raise DataError(f"{path}: key 'features' names unknown features {unknown}")
    if set(scalar_params) != set(features) & set(SCALAR_FEATURES):
        raise DataError(f"{path}: keys 'features' and 'scalar_features' name "
                        "different scalar features")
    if trigram_ones and "unique_ngrams" not in features:
        raise DataError(f"{path}: key 'trigram_ones' must be empty when "
                        "'features' leaves out 'unique_ngrams'")
    return NaiveBayesModel(features, class_sizes, scalar_params, trigram_ones)


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


def _params_by_name_from_json(obj):
    """name -> (class-0, class-1) GaussianParams; ValueError names the name."""
    params = {}
    for name, pair in obj.items():
        try:
            params[name] = (_params_from_json(pair["class0"]),
                            _params_from_json(pair["class1"]))
        except KeyError as exc:
            raise ValueError(f"{name!r} has no key {exc.args[0]!r}") from None
        except _VALUE_ERRORS as exc:
            raise ValueError(f"{name!r}: {exc}") from None
    return params

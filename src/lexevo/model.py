"""Gaussian naive Bayes over feature vectors.

Every dimension (the seven scalars plus one binary dimension per trained
trigram) gets two Gaussians, one per class.  Priors carry add-one
smoothing and variances are floored so binary dimensions never produce a
singular density.  Fitting uses exact sums, so a permutation of the
training set yields bit-identical parameters.

Fitting and scoring cost O(nonzeros), not O(vectors x trigram dims).
``fit`` counts each class's trigram ones in one pass.  Scoring uses the
Bernoulli event-model form of naive Bayes (McCallum & Nigam 1998): a
class's log density with every trigram absent is summed once per model,
and a word only corrects it for its own trained trigrams, adding
log N(1) - log N(0) for each.  A class score is one ``math.fsum``
(Shewchuk 1997) over the log prior, the scalar terms, the exact parts of
that absent sum and the corrections, so it is the correctly rounded sum
of the dense per-dimension terms.  That matters: floored variances make
single terms reach about 5e8, where one ulp is about 6e-8.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from ._util import atomic_write_json
from .errors import DataError, UnfittableModelError
from .features import FEATURE_NAMES, SCALAR_FEATURES

VARIANCE_FLOOR = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianParams:
    mean: float
    variance: float
    sample_count: int


def gaussian_log_pdf(params, x):
    """Log density of N(mean, variance) at x."""
    if params.variance <= 0:
        raise ValueError("variance must be positive")
    return -0.5 * (_LOG_2PI + math.log(params.variance)) - (
        (x - params.mean) ** 2
    ) / (2.0 * params.variance)


def _fit_gaussian(values, variance_floor):
    """Exact mean and unbiased variance of a value list, floored."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        variance = variance_floor
    else:
        ss = math.fsum((x - mean) ** 2 for x in values)
        variance = max(ss / (n - 1), variance_floor)
    return GaussianParams(mean, variance, n)


def _fit_binary_gaussian(ones, n, variance_floor):
    """Gaussian of a 0/1 dimension from its count of ones (exact)."""
    mean = ones / n
    if n < 2:
        variance = variance_floor
    else:
        # sum of squared deviations of a binary sample, in closed form
        ss = ones * (1.0 - mean) ** 2 + (n - ones) * mean ** 2
        variance = max(ss / (n - 1), variance_floor)
    return GaussianParams(mean, variance, n)


@dataclass
class NaiveBayesModel:
    priors: tuple  # (P(class 0), P(class 1))
    features: tuple  # subset of FEATURE_NAMES used by this model
    scalar_params: dict  # name -> (GaussianParams class0, GaussianParams class1)
    trigram_dims: tuple  # ordered trigram strings
    trigram_params: dict  # trigram -> (GaussianParams class0, GaussianParams class1)
    # per class, floats summing exactly to the log density of "every trigram
    # absent"; built by the first score, never saved, shown or compared
    _absent_parts: tuple = field(default=None, init=False, repr=False,
                                 compare=False)


def fit(vectors, features=FEATURE_NAMES, variance_floor=VARIANCE_FLOOR):
    """Fit class priors and per-dimension Gaussians from labeled vectors.

    The trigram dimension space is the union of unique trigrams seen in
    the training vectors (when the trigram block is enabled).  Raises
    UnfittableModelError when either class is empty.
    """
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
    n = len(vectors)
    priors = ((len(by_class[0]) + 1) / (n + 2), (len(by_class[1]) + 1) / (n + 2))

    scalar_params = {}
    for name in SCALAR_FEATURES:
        if name not in features:
            continue
        scalar_params[name] = tuple(
            _fit_gaussian([v.scalar(name) for v in by_class[c]], variance_floor)
            for c in (0, 1)
        )

    trigram_dims = ()
    trigram_params = {}
    if "unique_ngrams" in features:
        ones = (Counter(), Counter())
        for c in (0, 1):
            for v in by_class[c]:
                ones[c].update(set(v.unique_ngrams))
        trigram_dims = tuple(sorted(ones[0].keys() | ones[1].keys()))
        for tri in trigram_dims:
            trigram_params[tri] = tuple(
                _fit_binary_gaussian(ones[c][tri], len(by_class[c]),
                                     variance_floor)
                for c in (0, 1)
            )
    return NaiveBayesModel(priors, tuple(features), scalar_params,
                           trigram_dims, trigram_params)


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


def _absent_parts(model):
    """Per class, the exact parts of the sum of log N(0) over trigram dims."""
    if model._absent_parts is None:
        model._absent_parts = tuple(
            _exact_parts(gaussian_log_pdf(model.trigram_params[tri][c], 0.0)
                         for tri in model.trigram_dims)
            for c in (0, 1)
        )
    return model._absent_parts


def class_log_scores(model, vector):
    """Unnormalized log score (log prior + log likelihood) per class.

    Each score is the correctly rounded sum of the log prior and one term
    per dimension, trigrams absent from the word included; the cost is
    O(scalar dims + the word's own trigrams) once the model's absent sums
    exist.  Trigrams unseen in training are ignored.
    """
    terms = ([math.log(model.priors[0])], [math.log(model.priors[1])])
    for name in SCALAR_FEATURES:
        params = model.scalar_params.get(name)
        if params is None:
            continue
        x = vector.scalar(name)
        for c in (0, 1):
            terms[c].append(gaussian_log_pdf(params[c], x))
    if model.trigram_dims:
        absent = _absent_parts(model)
        for c in (0, 1):
            terms[c].extend(absent[c])
        for tri in set(vector.unique_ngrams):
            params = model.trigram_params.get(tri)
            if params is None:
                continue
            for c in (0, 1):
                terms[c].append(gaussian_log_pdf(params[c], 1.0))
                terms[c].append(-gaussian_log_pdf(params[c], 0.0))
    return math.fsum(terms[0]), math.fsum(terms[1])


def win_log_odds(model, vector):
    """log P(class 1) - log P(class 0); monotone in win_probability.

    Use this for ranking words: it never saturates the way the
    normalized probability does near 0 and 1.
    """
    s0, s1 = class_log_scores(model, vector)
    return s1 - s0


def win_probability(model, vector):
    """P(class 1) for one vector under the fitted model, in [0, 1].

    Trigram dimensions absent from the word's unique set contribute x=0;
    trigrams unseen in training are dropped (no fitted Gaussian exists).
    Computed with a stable two-class softmax over log scores.
    """
    s0, s1 = class_log_scores(model, vector)
    peak = max(s0, s1)
    e0 = math.exp(s0 - peak)
    e1 = math.exp(s1 - peak)
    return e1 / (e0 + e1)


def _params_to_json(params):
    return {
        "mean": params.mean,
        "variance": params.variance,
        "sample_count": params.sample_count,
    }


def _params_from_json(obj):
    params = GaussianParams(float(obj["mean"]), float(obj["variance"]),
                            int(obj["sample_count"]))
    if not params.variance > 0:
        raise ValueError(f"variance must be positive, got {params.variance!r}")
    return params


def save_model(model, path):
    """Serialize a model to JSON; floats round-trip at full precision."""
    obj = {
        "priors": list(model.priors),
        "features": list(model.features),
        "scalar_features": {
            name: {"class0": _params_to_json(p[0]), "class1": _params_to_json(p[1])}
            for name, p in model.scalar_params.items()
        },
        "trigram_dims": list(model.trigram_dims),
        "trigram_params": {
            tri: {"class0": _params_to_json(p[0]), "class1": _params_to_json(p[1])}
            for tri, p in model.trigram_params.items()
        },
    }
    atomic_write_json(path, obj)


def load_model(path):
    """Read a model written by save_model.

    A file that is not JSON, lacks a key or holds a malformed value raises
    DataError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a JSON model file: {exc}") from None
    try:
        model = _model_from_json(obj)
    except KeyError as exc:
        raise DataError(f"{path}: model file has no key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from None
    if len(model.priors) != 2 or not all(p > 0 for p in model.priors):
        raise DataError(f"{path}: priors must be two positive probabilities")
    if set(model.trigram_params) != set(model.trigram_dims):
        raise DataError(f"{path}: trigram_dims and trigram_params name "
                        "different trigrams")
    return model


def _model_from_json(obj):
    return NaiveBayesModel(
        priors=tuple(float(p) for p in obj["priors"]),
        features=tuple(obj["features"]),
        scalar_params={
            name: (_params_from_json(p["class0"]), _params_from_json(p["class1"]))
            for name, p in obj["scalar_features"].items()
        },
        trigram_dims=tuple(obj["trigram_dims"]),
        trigram_params={
            tri: (_params_from_json(p["class0"]), _params_from_json(p["class1"]))
            for tri, p in obj["trigram_params"].items()
        },
    )

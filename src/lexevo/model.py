"""Gaussian naive Bayes over feature vectors.

Every dimension (the seven scalars plus one binary dimension per trained
trigram) gets two Gaussians, one per class.  Priors carry add-one
smoothing and variances are floored so binary dimensions never produce a
singular density.  Fitting uses exact sums, so a permutation of the
training set yields bit-identical parameters.
"""

import json
import math
from dataclasses import dataclass

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
        dims = set()
        for v in vectors:
            dims.update(v.unique_ngrams)
        trigram_dims = tuple(sorted(dims))
        for tri in trigram_dims:
            trigram_params[tri] = tuple(
                _fit_binary_gaussian(
                    sum(1 for v in by_class[c] if tri in set(v.unique_ngrams)),
                    len(by_class[c]),
                    variance_floor,
                )
                for c in (0, 1)
            )
    return NaiveBayesModel(priors, tuple(features), scalar_params,
                           trigram_dims, trigram_params)


def class_log_scores(model, vector):
    """Unnormalized log score (log prior + log likelihood) per class."""
    scores = [math.log(model.priors[0]), math.log(model.priors[1])]
    # fixed dimension order keeps scores identical across (de)serialization
    for name in SCALAR_FEATURES:
        params = model.scalar_params.get(name)
        if params is None:
            continue
        x = vector.scalar(name)
        scores[0] += gaussian_log_pdf(params[0], x)
        scores[1] += gaussian_log_pdf(params[1], x)
    if model.trigram_dims:
        present = set(vector.unique_ngrams)
        for tri in model.trigram_dims:
            params = model.trigram_params[tri]
            x = 1.0 if tri in present else 0.0
            scores[0] += gaussian_log_pdf(params[0], x)
            scores[1] += gaussian_log_pdf(params[1], x)
    return tuple(scores)


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
    return GaussianParams(obj["mean"], obj["variance"], obj["sample_count"])


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
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    return NaiveBayesModel(
        priors=tuple(obj["priors"]),
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

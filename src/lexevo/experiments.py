"""Experiment suites: full pipeline runs, feature ablations, cycle sweeps,
and interpretation of fitted models.

Every run is deterministic given its inputs and configuration; reports
carry no timestamps, so repeated runs are byte-identical.
"""

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

from ._util import open_maybe_gzip
from .corpus import birth_years, load_corpus
from .dataset import build_dataset, schedule_windows
from .errors import ConvergenceError, DataError, UnfittableModelError
from .evaluate import (
    evaluate_predictions,
    evaluation_report,
    is_right,
    mcnemar_exact,
    random_baseline,
    uniform_baseline_tails,
)
from .features import (FEATURE_NAMES, SCALAR_FEATURES, extract_features,
                       load_syllable_exceptions, word_shapes)
from .lexicon import CatVarClusters, eligible_synsets, load_catvar, load_lexicon
from .model import feature_terms, fit, subset_log_odds, win_log_odds

ABLATION_MODES = ("drop_one", "single_only")


@dataclass
class PipelineInputs:
    """Everything the modeling stages need, loaded once up front."""

    corpus: object  # CorpusTable, keyed by (lemma, corpus POS) tuples
    synsets: list  # output of eligible_synsets
    clusters: object  # CatVarClusters
    births: dict  # corpus key -> birth year, for every key with a nonzero count
    syllable_exceptions: dict = field(default_factory=dict)
    # window -> prepare_window result, the PREPARED_WINDOWS prepared last
    _prepared: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @cached_property
    def word_shapes(self):
        """features.word_shapes of the synsets, computed on first use and
        kept by this object: every window prepared from it shares one table."""
        return word_shapes(self.synsets, self.syllable_exceptions)


def load_pipeline_inputs(corpus_paths, lexicon_path, catvar_path=None,
                         syllables_path=None):
    """Load all raw inputs into a PipelineInputs bundle.

    The corpus vocabulary filter covers the eligible synset members plus
    every cluster member, so categorial variations can be birth-dated.
    Each synset then gets its period getter, so that the members take
    the table's first slots, in synset order, and the first read of a
    sampling year sums their periods in one pass and never a cluster-only
    word's.  Returns (inputs, lexicon, corpus load report).
    """
    lexicon = _load_file(lexicon_path, load_lexicon)
    synsets = eligible_synsets(lexicon)
    clusters = _load_file(catvar_path, load_catvar) if catvar_path else CatVarClusters()
    exceptions = load_syllables(syllables_path)
    member_keys = {key for s in synsets for key in s.corpus_keys}
    table, report = load_corpus(corpus_paths, member_keys | set(clusters.members()))
    for synset in synsets:
        table.period_getter(synset.corpus_keys)
    inputs = PipelineInputs(
        corpus=table,
        synsets=synsets,
        clusters=clusters,
        births=birth_years(table),
        syllable_exceptions=exceptions,
    )
    return inputs, lexicon, report


def load_syllables(path=None):
    """Syllable exceptions from an optional file."""
    return _load_file(path, load_syllable_exceptions) if path else {}


def _load_file(path, loader):
    """loader(handle) over a plain or gzipped file."""
    with open_maybe_gzip(path) as handle:
        return loader(handle)


@dataclass(frozen=True)
class AblationSpec:
    mode: str  # drop_one | single_only
    feature: str

    def __post_init__(self):
        if self.mode not in ABLATION_MODES:
            raise DataError(f"unknown ablation mode {self.mode!r}")
        if self.feature not in FEATURE_NAMES:
            raise DataError(f"unknown feature {self.feature!r}")


# a window pair: what run_nbcp, an ablation and one sweep step each use
PREPARED_WINDOWS = 2


def prepare_window(window, inputs):
    """(dataset, tuple of labelled feature vectors) of one time window.

    This is the costly half of a run, so inputs keeps the results of the
    PREPARED_WINDOWS windows prepared last and returns a kept one again:
    repeated runs on one window pair, and a sweep's next pair, whose
    training window is this pair's test window, prepare nothing twice.
    The results are shared and must not be changed.  The lexical features
    come from inputs.word_shapes, computed once per inputs.
    """
    prepared = inputs._prepared
    if window not in prepared:
        dataset = build_dataset(inputs.synsets, inputs.corpus, window)
        vectors = tuple(extract_features(dataset, inputs.word_shapes,
                                         inputs.clusters, inputs.births))
        if len(prepared) == PREPARED_WINDOWS:
            del prepared[next(iter(prepared))]  # the oldest
        prepared[window] = dataset, vectors
    return prepared[window]


def run_nbcp(train_window, test_window, inputs):
    """Train on one window, score the next, and evaluate at synset level.

    The future period of the training window (the present of the test
    window) is the only future data the model ever sees.
    """
    train_ds, train_vectors = prepare_window(train_window, inputs)
    test_ds, test_vectors = prepare_window(test_window, inputs)
    model = fit(train_vectors)
    # rank by log-odds: same argmax as the probability, but immune to
    # float saturation at 0/1
    log_odds = {v.sense: win_log_odds(model, v) for v in test_vectors}
    counts, scores, _ = evaluate_predictions(test_ds.snapshots, log_odds)
    report = evaluation_report(counts, scores)
    report["train"] = train_ds.summary()
    report["test"] = test_ds.summary()
    report["features"] = list(FEATURE_NAMES)
    report["random"] = asdict(random_baseline(test_ds.snapshots))
    return {
        "report": report,
        "model": model,
        "train_vectors": train_vectors,
        "test_vectors": test_vectors,
    }


def run_ablations(specs, train_window, test_window, inputs):
    """F-score delta rows, one per AblationSpec, on one window pair, each
    with an exact test.

    drop_one: F(all features minus one) - F(all features); significant_95
    is an exact McNemar test on the synsets exactly one of the two runs
    gets right.
    single_only: F(one feature alone) - E[F] of random_baseline;
    significant_95 is the exact upper tail of the number of synsets right
    when a synset of k members is right with probability 1/k.

    prepare_window gives both windows, prepared once per inputs, so
    further calls on this pair prepare nothing again.  One model is fitted
    on all features.  A naive Bayes log odds is a sum of per-feature
    terms, and a dimension's Gaussians and the priors do not depend on the
    other features, so each variant's log odds is the exact sum of its
    features' entries of one feature_terms list per test vector: what
    fitting the variant's features alone gives, bit for bit.
    """
    _, train_vectors = prepare_window(train_window, inputs)
    test_ds, test_vectors = prepare_window(test_window, inputs)
    model = fit(train_vectors)
    terms = {v.sense: feature_terms(model, v) for v in test_vectors}

    def evaluate(features):
        """(F, outcome rows) of the model restricted to features."""
        positions = [model.term_positions[name] for name in features]
        log_odds = {sense: subset_log_odds(model, t, positions)
                    for sense, t in terms.items()}
        _, scores, outcomes = evaluate_predictions(test_ds.snapshots, log_odds)
        return scores.f_score, outcomes

    f_full, full_outcomes = evaluate(FEATURE_NAMES)
    full_right = [is_right(row) for row in full_outcomes]
    # only single_only rows compare against the random baseline, whose
    # tails depend on the test window alone
    if any(spec.mode == "single_only" for spec in specs):
        f_random = random_baseline(test_ds.snapshots).f_score
        tails = uniform_baseline_tails(len(s.counts) for s in test_ds.snapshots)
    rows = []
    for spec in specs:
        if spec.mode == "drop_one":
            f_variant, outcomes = evaluate(
                tuple(f for f in FEATURE_NAMES if f != spec.feature))
            f_baseline = f_full
            # both outcome lists follow test_ds.snapshots, so they pair up
            # by position; b counts the synsets only the full run gets right
            pairs = [(was, is_right(row)) for was, row in zip(full_right, outcomes)]
            b, c = pairs.count((True, False)), pairs.count((False, True))
            _, significant = mcnemar_exact(b, c)
            rule = "exact McNemar test of per-synset right/wrong, two-sided p < 0.05"
        else:
            f_variant, outcomes = evaluate((spec.feature,))
            f_baseline = f_random
            significant = 20 * tails[sum(map(is_right, outcomes))] < tails[0]
            rule = ("exact Poisson-binomial tail of synsets right under uniform "
                    "random, one-sided p < 0.05")
        delta = f_variant - f_baseline
        rows.append({
            "mode": spec.mode,
            "feature": spec.feature,
            "f_variant": f_variant,
            "f_baseline": f_baseline,
            "delta": delta,
            "delta_percent": round(100.0 * delta, 2),
            "significant_95": significant,
            "significance_rule": rule,
        })
    return rows


def run_ablation(spec, train_window, test_window, inputs):
    """run_ablations([spec], train_window, test_window, inputs)[0]."""
    return run_ablations([spec], train_window, test_window, inputs)[0]


def run_cycle_sweep(cycles, inputs):
    """Per-cycle, per-test-window summary rows, keyed by the future period.

    A cycle that cannot be scheduled, or a window pair whose training
    window leaves a class without vectors, is listed in ``skipped``.
    Each window is prepared once: a pair's training window is the previous
    pair's test window, which prepare_window keeps.
    """
    rows = []
    skipped = []
    for cycle in cycles:
        try:
            pairs = schedule_windows(cycle)
        except DataError as exc:
            skipped.append({"cycle": cycle, "reason": str(exc)})
            continue
        for train_window, test_window in pairs:
            try:
                run = run_nbcp(train_window, test_window, inputs)
            except UnfittableModelError as exc:
                skipped.append({"cycle": cycle, "window": test_window.label(),
                                "reason": str(exc)})
                continue
            report = run["report"]
            rows.append({
                "cycle": cycle,
                "future": test_window.future,
                "window": test_window.label(),
                "f_nbcp": report["metrics_percent"]["f_score"],
                "f_random": round(100.0 * report["random"]["f_score"], 1),
                "percent_changed": report["test"]["change_percent"],
                "synsets": report["counts"]["synsets"],
            })
    return {"rows": rows, "skipped": skipped}


def welch_t_test(mean1, var1, n1, mean2, var2, n2):
    """Two-tailed unpaired t test with unequal variances.

    Returns (t, degrees of freedom, p, significant at 5%).
    Both variances zero with equal means is reported as not significant.
    """
    if n1 < 2 or n2 < 2:
        raise DataError("welch_t_test needs at least two samples per group")
    if var1 < 0 or var2 < 0:
        raise DataError("negative variance")
    se2 = var1 / n1 + var2 / n2
    if se2 == 0:
        if mean1 == mean2:
            return 0.0, float(n1 + n2 - 2), 1.0, False
        return math.inf, float(n1 + n2 - 2), 0.0, True
    t = (mean1 - mean2) / math.sqrt(se2)
    # Welch-Satterthwaite df from the var/n terms scaled by one power of two
    # so that the larger is in [0.5, 1): their squares cannot underflow or
    # overflow, and every intermediate is an exact multiple of the unscaled
    # one, so df is the unscaled formula's wherever that one stays in range.
    # ldexp scales each term directly: below 2**-1024 the factor itself
    # would overflow.  Squares are products: x ** 2 goes through C pow,
    # which is not correctly rounded, so its scaling would not be exact.
    a, b = var1 / n1, var2 / n2
    exponent = math.frexp(max(a, b))[1]
    a, b = math.ldexp(a, -exponent), math.ldexp(b, -exponent)
    df = (a + b) * (a + b) / (a * a / (n1 - 1) + b * b / (n2 - 1))
    p = student_t_two_tailed_p(t, df)
    return t, df, p, p < 0.05


def fisher_exact(ones0, n0, ones1, n1):
    """Fisher's exact two-sided test of presence x class: ones_c of the n_c
    vectors of class c hold a trigram (Agresti, Categorical Data Analysis,
    2002).  p sums the hypergeometric weights comb(n0, x) * comb(n1, k - x)
    no larger than the observed one, over comb(n0 + n1, k) with k = ones0 +
    ones1.  Returns (p, significant at 5%), decided in exact integers.

    The weights are nonzero for x from max(0, k - n1) to min(k, n0); each
    is the last times (n0 - x)(k - x) / ((x + 1)(n1 - k + x + 1)), a
    division without remainder, and they sum to comb(n0 + n1, k).
    """
    k = ones0 + ones1
    low = max(0, k - n1)
    weight = math.comb(n0, low) * math.comb(n1, k - low)
    weights = [weight]
    for x in range(low, min(k, n0)):
        weight = weight * (n0 - x) * (k - x) // ((x + 1) * (n1 - k + x + 1))
        weights.append(weight)
    observed = weights[ones0 - low]
    tail = sum(w for w in weights if w <= observed)
    total = sum(weights)
    return tail / total, 20 * tail < total


_NORMAL_FROM_DF = 1e4
_CF_MAX_TERMS = 1000  # 3,000 random cases, df up to 1e15, needed at most 83
_CF_TOLERANCE = 1e-15
_CF_TINY = 1e-300


def student_t_two_tailed_p(t, df):
    """P(|T| >= |t|) for Student's t with df > 0 degrees of freedom.

    This is the regularized incomplete beta function I_x(df/2, 1/2) at
    x = df / (df + t^2) (Press et al., Numerical Recipes, 6.4).  From
    _NORMAL_FROM_DF degrees of freedom on, the log-gamma terms of the
    fraction's front factor and its first terms cancel (a 2e-5 relative
    error at df 1e10), so there the tail is the normal tail at Hill's
    transformed deviate (Hill 1970, ACM Algorithm 395): within 3e-13 of
    50-digit values for df from 1e4 to 1e14 and tails down to 1e-300.
    At df = inf, Student's t is the standard normal.
    """
    if df == math.inf:
        return math.erfc(abs(t) / math.sqrt(2.0))
    r = t * t / df  # x = 1 / (1 + r) and 1 - x = r / (1 + r)
    if r == 0:
        return 1.0
    if r == math.inf:
        return 0.0
    if df >= _NORMAL_FROM_DF:
        a = df - 0.5
        b = 48.0 * a * a
        y = a * math.log1p(r)
        w = (((-0.4 * y - 3.3) * y - 24.0) * y - 85.5) / (0.8 * y * y + 100.0 + b)
        z = ((w + y + 3.0) / b + 1.0) * math.sqrt(y)
        return math.erfc(z / math.sqrt(2.0))
    log_x = -math.log1p(r)
    log_y = math.log(r) + log_x
    a, b = df / 2.0, 0.5
    if r < (b + 1) / (a + 1):  # x > (a + 1) / (a + b + 2): I_x(a, b) = 1 - I_y(b, a)
        return 1.0 - _incomplete_beta(b, a, log_y, log_x)
    return _incomplete_beta(a, b, log_x, log_y)


def _incomplete_beta(a, b, log_x, log_y):
    """I_x(a, b) from log x and log(1 - x), for x at most (a + 1) / (a + b + 2).

    The continued fraction 1 / (1 + d1 / (1 + d2 / (1 + ...))) is
    evaluated by the modified Lentz method; f - 1 converges to it.
    """
    x = math.exp(log_x)
    log_front = (a * log_x + b * log_y + math.lgamma(a + b) - math.lgamma(a)
                 - math.lgamma(b))
    f, c, d = 1.0, 1.0, 0.0
    for i in range(_CF_MAX_TERMS):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2:
            numerator = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            numerator = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = 1.0 + numerator / c
        c = c if abs(c) > _CF_TINY else _CF_TINY
        f *= c * d
        if abs(c * d - 1.0) < _CF_TOLERANCE:
            return math.exp(log_front) * (f - 1.0) / a
    raise ConvergenceError(f"incomplete beta I_x({a!r}, {b!r}) at x = {x!r} "
                           f"did not converge in {_CF_MAX_TERMS} terms")


# trigram rows in an interpretation report
TOP_TRIGRAMS = 12


def interpretation_tables(model):
    """Loser/winner Gaussian means per dimension, with significance.

    Returns the JSON-ready {"scalar_features": rows, "top_trigrams":
    rows}: one row per fitted scalar feature, and the TOP_TRIGRAMS trigram
    rows of largest absolute mean gap (ties by trigram), each also naming
    the class the trigram suggests.  Scalar rows use Welch's t test on the
    data's means and variances (model.scalar_statistics, not the floored
    Gaussians), which needs two vectors per class, and trigram rows
    Fisher's exact test on their counts of ones.  The trigram block is
    analyzed dimension by dimension rather than as one feature.
    """
    n0, n1 = model.class_sizes

    def row(dimension, p0, p1, significant):
        return {
            "dimension": dimension,
            "loser_mean": p0.mean,
            "winner_mean": p1.mean,
            "difference": p1.mean - p0.mean,
            "significant_95": significant,
        }

    scalar_rows = []
    for name in SCALAR_FEATURES:
        if name not in model.scalar_statistics:
            continue
        p0, p1 = model.scalar_statistics[name]
        significant = n0 >= 2 and n1 >= 2 and welch_t_test(
            p1.mean, p1.variance, n1, p0.mean, p0.variance, n0)[3]
        scalar_rows.append(row(name, p0, p1, significant))
    # only the rows kept are tested
    ranked = sorted(model.trigram_params.items(), key=lambda item: (
        -abs(item[1][1].mean - item[1][0].mean), item[0]))
    trigram_rows = []
    for tri, (p0, p1) in ranked[:TOP_TRIGRAMS]:
        ones0, ones1 = model.trigram_ones[tri]
        trigram_rows.append(row(tri, p0, p1, fisher_exact(ones0, n0, ones1, n1)[1])
                            | {"suggests": "winner" if p1.mean > p0.mean else "loser"})
    return {"scalar_features": scalar_rows, "top_trigrams": trigram_rows}

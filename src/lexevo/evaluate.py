"""Synset-level evaluation: winner selection, contingency cells, metrics,
Wilson intervals, the expected metrics of the uniform-random baseline, and
exact tests of per-synset right/wrong outcomes.

A prediction counts as true positive only when the synset changed leader
and the predicted word is the actual future leader; a stable synset
predicted wrongly is a false positive, and so on (changed/stable crossed
with right/wrong).
"""

import math
import statistics as _stats
from dataclasses import asdict, dataclass
from itertools import accumulate


@dataclass(frozen=True)
class ContingencyCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f_score: float


def predict_synset_winner(scores):
    """Sense with the highest score; a tie takes the id that is smallest
    as a string.

    A score is anything that ranks senses by how likely each is to win,
    such as the model's log-odds.
    """
    return _winner(scores, scores)


def _winner(senses, scores):
    """predict_synset_winner over senses, in one pass; str only on a tie."""
    predicted = best = None
    for sense in senses:
        score = scores[sense]
        if (predicted is None or score > best
                or score == best and str(sense) < str(predicted)):
            predicted, best = sense, score
    if len(senses) < 2:
        raise ValueError("need at least two candidate senses")
    return predicted


def classify_outcome(present_leader, future_leader, predicted):
    """Map one synset outcome to its contingency cell name."""
    changed = future_leader != present_leader
    right = predicted == future_leader
    if changed and right:
        return "tp"
    if changed and not right:
        return "fn"
    if right:
        return "tn"
    return "fp"


def metrics(counts):
    """Precision, recall, F from contingency counts; division by zero is 0."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f_score = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return Metrics(precision, recall, f_score)


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes outside [0, n]")
    z = _stats.NormalDist().inv_cdf(0.975)  # two-sided 95%
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
    return max(center - half, 0.0), min(center + half, 1.0)


# The columns of an outcome row, and of the outcomes table evocli writes.
OUTCOME_COLUMNS = ("synset_id", "present_leader", "future_leader", "predicted",
                   "cell")


def evaluate_predictions(snapshots, scores):
    """Evaluate per-word scores at the synset level.

    scores maps SenseId -> score: the first member without one is a
    KeyError of its sense.  Each synset predicts its highest-scored member.
    Returns (ContingencyCounts, Metrics, per-synset outcome rows).
    """
    tallies = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    outcomes = []
    for snapshot in snapshots:
        predicted = _winner(snapshot.counts, scores)
        cell = classify_outcome(snapshot.present_leader, snapshot.future_leader,
                                predicted)
        tallies[cell] += 1
        outcomes.append({
            "synset_id": snapshot.synset.id,
            "present_leader": str(snapshot.present_leader),
            "future_leader": str(snapshot.future_leader),
            "predicted": str(predicted),
            "cell": cell,
        })
    counts = ContingencyCounts(**tallies)
    return counts, metrics(counts), outcomes


def evaluation_report(counts, scores):
    """JSON-ready report: counts, percentage metrics, Wilson intervals.

    wilson_95 holds a band for precision and one for recall, each only
    when it has at least one trial.
    """
    cells, fractions = asdict(counts), asdict(scores)
    report = {
        "counts": {**cells, "synsets": sum(cells.values())},
        "metrics_percent": {name: round(100.0 * value, 1)
                            for name, value in fractions.items()},
        "metrics": fractions,
    }
    # precision is tp of tp+fp trials and recall tp of tp+fn; F is not a
    # binomial proportion and has no band, nor has a proportion of 0 trials
    report["wilson_95"] = {
        name: list(wilson_interval(counts.tp, trials))
        for name, trials in (("precision", counts.tp + counts.fp),
                             ("recall", counts.tp + counts.fn))
        if trials
    }
    return report


def _poisson_binomial(trials):
    """(offset, pmf): P(offset + i successes) = pmf[i] over independent
    (p, 1 - p) trials.  Entries below 2**-64 of the largest are trimmed
    from both ends after each trial, so the list stays a few sd wide."""
    offset, pmf = 0, [1.0]
    for p, q in trials:
        pmf = [q * a + p * b for a, b in zip(pmf + [0.0], [0.0] + pmf)]
        floor = max(pmf) * 2.0 ** -64
        start = next(i for i, x in enumerate(pmf) if x >= floor)
        end = len(pmf) - next(i for i, x in enumerate(reversed(pmf)) if x >= floor)
        offset, pmf = offset + start, pmf[start:end]
    return offset, pmf


def random_baseline(snapshots):
    """Expected Metrics when each synset predicts one of its k members
    uniformly at random.

    tp (changed synsets right, each with p = 1/k) and fp (stable synsets
    wrong, each with p = (k - 1)/k) are independent Poisson-binomial counts,
    and fn = C - tp for C changed synsets.  So recall is exactly sum(1/k)/C,
    and E[precision] and E[F] sum P(tp=i) P(fp=j) i/(i+j) and 2i/(i+j+C),
    i = 0 counting 0 as in metrics.  Sorted sizes make it order-independent.
    """
    sizes = sorted((s.present_leader != s.future_leader, len(s.counts))
                   for s in snapshots)
    changed = [k for moved, k in sizes if moved]
    stable = [k for moved, k in sizes if not moved]
    c = len(changed)
    tp_offset, tp = _poisson_binomial((1 / k, (k - 1) / k) for k in changed)
    fp_offset, fp = _poisson_binomial(((k - 1) / k, 1 / k) for k in stable)

    # each expectation streams its terms into fsum: a list of them would
    # hold the product of the two pmfs' lengths
    return Metrics(
        math.fsum(a * b * (i / (i + j)) for i, a in enumerate(tp, tp_offset) if i
                  for j, b in enumerate(fp, fp_offset)),
        math.fsum(1 / k for k in changed) / c if c else 0.0,
        math.fsum(a * b * (2 * i / (i + j + c)) for i, a in enumerate(tp, tp_offset)
                  if i for j, b in enumerate(fp, fp_offset)))


def is_right(outcome):
    """True when an evaluate_predictions outcome row named the future leader."""
    return outcome["cell"] in ("tp", "tn")


def mcnemar_exact(b, c):
    """Exact two-sided McNemar test of b against c discordant pairs.

    b and c count the items only one of two paired classifiers gets right
    (Dietterich 1998).  Under the null each discordant pair is a fair coin,
    so p = 2 * P(Binomial(b + c, 1/2) <= min(b, c)), capped at 1.  Returns
    (p, significant at 5%); the decision is made in exact integers.  The
    tail sums comb(n, i), each from the last as comb(n, i) * (n - i) /
    (i + 1), a division without remainder.
    """
    n = b + c
    term = tail = 1  # comb(n, 0)
    for i in range(min(b, c)):
        term = term * (n - i) // (i + 1)
        tail += term
    return min(1.0, 2 * tail / 2 ** n), 40 * tail < 2 ** n


def uniform_baseline_tails(sizes):
    """Exact upper tails of the number of synsets right under the uniform
    baseline, as integers.

    A synset of k members is right with probability 1/k, independently, so
    the count is Poisson-binomial.  Its distribution is the coefficient
    list of the product over synsets of (k - 1 + z), divided by the product
    of the k.  Returns its suffix sums: tails[j] member choices get at
    least j of the len(sizes) synsets right, so tails[0] is the product of
    the k, P(at least j right) is tails[j] / tails[0], and it is below 5%
    exactly when 20 * tails[j] < tails[0].
    """
    ways = [1]  # ways[j]: member choices with exactly j synsets right
    for k in sizes:
        product = [(k - 1) * w for w in ways] + [0]
        for j, w in enumerate(ways):
            product[j + 1] += w
        ways = product
    return list(accumulate(reversed(ways)))[::-1]

import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lexevo._util import read_tsv, write_tsv
from lexevo.dataset import MemberCounts, build_dataset, schedule_windows
from lexevo.evaluate import (
    OUTCOME_COLUMNS,
    ContingencyCounts,
    Metrics,
    classify_outcome,
    evaluate_predictions,
    evaluation_report,
    mcnemar_exact,
    metrics,
    predict_synset_winner,
    random_baseline,
    uniform_baseline_tails,
    wilson_interval,
)
from lexevo.lexicon import SenseId, load_lexicon
from tests.conftest import snapshot_of


def snapshot_for(index, counts_by_lemma, pos="n"):
    lemmas = list(counts_by_lemma)
    text = f"s{index:05d}\t{pos}\t" + ",".join(lemmas) + "\n"
    synset = load_lexicon(io.StringIO(text)).synsets[0]
    counts = {m: MemberCounts(*counts_by_lemma[m.lemma]) for m in synset.members}
    return snapshot_of(synset, counts)


class TestPredictSynsetWinner:
    def test_highest_probability_wins(self):
        a, b = SenseId("aye", "n", 1), SenseId("bee", "n", 1)
        assert predict_synset_winner({a: 0.2, b: 0.9}) == b

    def test_tie_takes_smallest_id(self):
        a, b = SenseId("aye", "n", 1), SenseId("bee", "n", 1)
        assert predict_synset_winner({b: 0.5, a: 0.5}) == a
        # the smallest id as a string, not by sense number
        ten, two = SenseId("ab", "n", 10), SenseId("ab", "n", 2)
        assert predict_synset_winner({two: 0.5, ten: 0.5}) == ten

    def test_single_candidate_rejected(self):
        with pytest.raises(ValueError):
            predict_synset_winner({SenseId("one", "n", 1): 0.5})


class TestClassifyOutcome:
    A, B, C = "aye", "bee", "sea"

    @pytest.mark.parametrize("present,future,predicted,cell", [
        ("aye", "bee", "bee", "tp"),   # changed, predicted right
        ("aye", "bee", "aye", "fn"),   # changed, predicted wrong
        ("aye", "bee", "sea", "fn"),   # changed, predicted a third word
        ("aye", "aye", "aye", "tn"),   # stable, predicted right
        ("aye", "aye", "bee", "fp"),   # stable, predicted wrong
    ])
    def test_cells(self, present, future, predicted, cell):
        assert classify_outcome(present, future, predicted) == cell


class TestMetrics:
    def test_known_values(self):
        m = metrics(ContingencyCounts(tp=2, fp=1, fn=2, tn=5))
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(0.5)
        assert m.f_score == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))

    def test_all_zero(self):
        m = metrics(ContingencyCounts())
        assert (m.precision, m.recall, m.f_score) == (0.0, 0.0, 0.0)

    def test_never_predict_change(self):
        # a guesser that always keeps the present leader: tp = fp = 0
        m = metrics(ContingencyCounts(tp=0, fp=0, fn=7, tn=13))
        assert (m.precision, m.recall, m.f_score) == (0.0, 0.0, 0.0)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50))
    def test_f_between_precision_and_recall(self, tp, fp, fn, tn):
        m = metrics(ContingencyCounts(tp, fp, fn, tn))
        assert 0.0 <= m.f_score <= 1.0
        if m.precision > 0 and m.recall > 0:
            assert min(m.precision, m.recall) - 1e-12 <= m.f_score
            assert m.f_score <= max(m.precision, m.recall) + 1e-12


class TestWilsonInterval:
    def test_half_sample(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert high - low == pytest.approx(2 * 0.0965, abs=0.005)

    def test_against_normal_quantile(self):
        # closed-form check at p = 0.5, n = 100, z for 95%
        z = 1.959963984540054
        n, p = 100, 0.5
        denom = 1 + z * z / n
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        low, high = wilson_interval(50, 100)
        assert (high - low) / 2 == pytest.approx(half, abs=1e-12)

    def test_extremes_clamped(self):
        low, _ = wilson_interval(0, 10)
        _, high = wilson_interval(10, 10)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert high <= 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    @given(st.integers(1, 500), st.data())
    def test_interval_contains_proportion(self, n, data):
        successes = data.draw(st.integers(0, n))
        low, high = wilson_interval(successes, n)
        p = successes / n
        assert 0.0 <= low <= p + 1e-12
        assert p - 1e-12 <= high <= 1.0

    @given(st.integers(10, 400))
    def test_narrows_with_n(self, n):
        lo1, hi1 = wilson_interval(n // 2, n)
        lo2, hi2 = wilson_interval(n * 2, n * 4)
        assert hi2 - lo2 <= hi1 - lo1 + 1e-12


class TestEvaluatePredictions:
    def make_snapshots(self):
        return [
            snapshot_for(1, {"alpha": (5, 9, 9), "beta": (4, 5, 2)}),   # stable
            snapshot_for(2, {"gamma": (5, 9, 2), "delta": (4, 5, 9)}),  # changed
        ]

    def prob_map(self, snapshots, favored_lemmas):
        probabilities = {}
        for snap in snapshots:
            for sense in snap.counts:
                probabilities[sense] = 0.9 if sense.lemma in favored_lemmas else 0.1
        return probabilities

    def test_perfect_predictions(self):
        snaps = self.make_snapshots()
        counts, m, outcomes = evaluate_predictions(
            snaps, self.prob_map(snaps, {"alpha", "delta"})
        )
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 0, 1)
        assert m.f_score == 1.0
        assert [o["cell"] for o in outcomes] == ["tn", "tp"]

    def test_all_wrong(self):
        snaps = self.make_snapshots()
        counts, m, _ = evaluate_predictions(
            snaps, self.prob_map(snaps, {"beta", "gamma"})
        )
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 1, 1, 0)
        assert m.f_score == 0.0

    def test_outcome_tsv_shape(self, tmp_path):
        snaps = self.make_snapshots()
        _, _, outcomes = evaluate_predictions(
            snaps, self.prob_map(snaps, {"alpha", "delta"})
        )
        # written as evocli evaluate writes outcomes.tsv, then read back
        path = tmp_path / "outcomes.tsv"
        write_tsv(path, OUTCOME_COLUMNS,
                  ([row[c] for c in OUTCOME_COLUMNS] for row in outcomes))
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == [
            "synset_id", "present_leader", "future_leader", "predicted", "cell",
        ]
        assert len(lines) == 3
        assert read_tsv(path, OUTCOME_COLUMNS,
                        lambda fields: dict(zip(OUTCOME_COLUMNS, fields))) == outcomes


class TestEvaluationReport:
    def test_shape_and_rounding(self):
        counts = ContingencyCounts(tp=2, fp=1, fn=2, tn=5)
        report = evaluation_report(counts, metrics(counts))
        assert report["counts"]["synsets"] == 10
        assert report["metrics_percent"]["precision"] == 66.7
        assert set(report["wilson_95"]) == {"precision", "recall"}
        low, high = report["wilson_95"]["recall"]
        assert low <= 0.5 <= high

    def test_wilson_bands_use_their_own_trials(self):
        # precision is 2 of tp+fp = 3 trials, recall 2 of tp+fn = 4; the
        # synset total (10) is the denominator of neither
        counts = ContingencyCounts(tp=2, fp=1, fn=2, tn=5)
        bands = evaluation_report(counts, metrics(counts))["wilson_95"]
        assert bands["precision"] == list(wilson_interval(2, 3))
        assert bands["recall"] == list(wilson_interval(2, 4))

    @pytest.mark.parametrize("counts, names", [
        (ContingencyCounts(fn=3, tn=4), {"recall"}),
        (ContingencyCounts(fp=3, tn=4), {"precision"}),
        (ContingencyCounts(tn=4), set()),
        (ContingencyCounts(), set()),
    ])
    def test_band_without_trials_is_omitted(self, counts, names):
        assert set(evaluation_report(counts, metrics(counts))["wilson_95"]) == names


def baseline_snapshots(cases):
    """One synset per (k, changed) case: k members, the first leading the
    present and, when changed, the second leading the future."""
    snaps = []
    for index, (k, changed) in enumerate(cases):
        code = chr(ord("a") + index % 26) + chr(ord("a") + index // 26)
        future_leader = 1 if changed else 0
        snaps.append(snapshot_for(index, {
            f"{code}w{chr(ord('a') + m)}": (1, 3 if m == 0 else 2,
                                            3 if m == future_leader else 2)
            for m in range(k)
        }))
    return snaps


def poisson_binomial_fractions(probabilities):
    """Exact P(count = j) of independent trials, as a list of Fractions."""
    pmf = [Fraction(1)]
    for p in probabilities:
        pmf = [a * (1 - p) + b * p for a, b in zip(pmf + [0], [0] + pmf)]
    return pmf


cases_strategy = st.tuples(st.integers(2, 6), st.booleans())


class TestRandomBaseline:
    @given(st.lists(cases_strategy, max_size=5))
    def test_is_mean_over_every_prediction(self, cases):
        # every combination of one predicted member per synset is equally
        # likely, so the baseline is the plain mean of their metrics
        sizes = [k for k, _ in cases]
        outcomes = [metrics(ContingencyCounts(**{
            cell: sum(
                classify_outcome(0, 1 if changed else 0, choice) == cell
                for (_, changed), choice in zip(cases, choices))
            for cell in ("tp", "fp", "fn", "tn")}))
            for choices in itertools.product(*map(range, sizes))]
        got = random_baseline(baseline_snapshots(cases))
        for name in ("precision", "recall", "f_score"):
            mean = math.fsum(getattr(m, name) for m in outcomes) / len(outcomes)
            assert math.isclose(getattr(got, name), mean, rel_tol=1e-12)

    @given(st.lists(cases_strategy, max_size=60))
    def test_matches_fraction_oracle(self, cases):
        # tp and fp are independent, so their joint distribution is the
        # product of the two exact marginals
        changed = [k for k, moved in cases if moved]
        c = len(changed)
        tp = poisson_binomial_fractions([Fraction(1, k) for k in changed])
        fp = poisson_binomial_fractions(
            [Fraction(k - 1, k) for k, moved in cases if not moved])
        joint = [(i, j, a * b) for i, a in enumerate(tp) if i
                 for j, b in enumerate(fp)]
        oracle = (sum(w * Fraction(i, i + j) for i, j, w in joint),
                  sum(Fraction(1, k) for k in changed) / c if c else 0,
                  sum(w * Fraction(2 * i, i + j + c) for i, j, w in joint))
        got = random_baseline(baseline_snapshots(cases))
        for value, exact in zip((got.precision, got.recall, got.f_score), oracle):
            assert math.isclose(value, exact, rel_tol=1e-12)

    def test_order_invariant(self):
        snaps = baseline_snapshots([(2 + i % 5, i % 3 == 0) for i in range(40)])
        assert random_baseline(snaps) == random_baseline(list(reversed(snaps)))

    def test_recall_is_exact(self):
        # E[tp] is the sum of 1/k over the changed synsets, the mean of
        # the count uniform_baseline_tails models there
        cases = [(2 + i % 5, i % 3 == 0) for i in range(40)]
        changed = [k for k, moved in cases if moved]
        recall = random_baseline(baseline_snapshots(cases)).recall
        assert recall == math.fsum(1 / k for k in changed) / len(changed)

    def test_pinned_on_fixtures(self, synthetic_inputs, rapture_inputs):
        _, test_window = schedule_windows(50)[-1]

        def baseline(inputs):
            """random_baseline of the last cycle-50 test window."""
            return random_baseline(build_dataset(inputs.synsets, inputs.corpus,
                                                 test_window).snapshots)

        assert baseline(synthetic_inputs).f_score == pytest.approx(
            0.24013501798465856, rel=0, abs=1e-12)
        # rapture's one synset changed and has 5 members: P = R = F = 1/5
        assert baseline(rapture_inputs) == Metrics(0.2, 0.2, 0.2)


class TestMcNemarExact:
    @pytest.mark.parametrize("b,c,p,significant", [
        (7, 1, 18 / 256, False),  # p = 0.0703
        (9, 1, 22 / 1024, True),  # p = 0.0215
        (1, 9, 22 / 1024, True),
        (0, 0, 1.0, False),
        (3, 3, 1.0, False),
        (6, 0, 2 / 64, True),
        (5, 0, 2 / 32, False),
    ])
    def test_pinned(self, b, c, p, significant):
        assert mcnemar_exact(b, c) == (p, significant)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_matches_exact_binomial_tail(self, b, c):
        # two-sided p from the binomial(b + c, 1/2) tail in exact fractions
        n = b + c
        tail = sum(Fraction(math.comb(n, i), 2 ** n) for i in range(min(b, c) + 1))
        exact = min(Fraction(1), 2 * tail)
        p, significant = mcnemar_exact(b, c)
        assert p == float(exact)
        assert significant == (exact < Fraction(1, 20))
        assert mcnemar_exact(c, b) == (p, significant)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_matches_binomial_formula(self, b, c):
        # the term recurrence gives the tail that fresh binomials give
        n = b + c
        tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
        assert mcnemar_exact(b, c) == (min(1.0, 2 * tail / 2 ** n), 40 * tail < 2 ** n)


class TestUniformBaselineTail:
    @given(st.lists(st.integers(2, 4), max_size=6))
    def test_matches_enumeration(self, sizes):
        # enumerate every choice of one member per synset; member 0 is right
        choices = list(itertools.product(*(range(k) for k in sizes)))
        tails = uniform_baseline_tails(sizes)
        assert tails == [sum(1 for choice in choices if choice.count(0) >= right)
                         for right in range(len(sizes) + 1)]
        assert tails[0] == len(choices)

    def test_pairs_are_a_fair_binomial(self):
        # 20 two-member synsets: P(at least 15 right) = 21700 / 2**20
        tails = uniform_baseline_tails([2] * 20)
        assert tails[15] == sum(math.comb(20, j) for j in range(15, 21)) == 21700
        assert tails[0] == 2 ** 20
        # so 15 right is significant at 5%, and 14 right is not
        assert 20 * tails[15] < tails[0] <= 20 * tails[14]

    def test_none_right_is_certain(self):
        assert uniform_baseline_tails([3, 5, 2])[0] == 3 * 5 * 2
        assert uniform_baseline_tails([]) == [1]

    def test_more_right_than_synsets_is_impossible(self):
        # the tails end at every synset right
        assert uniform_baseline_tails([2, 2]) == [4, 3, 1]

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import lexevo.experiments as experiments_mod
from lexevo.dataset import schedule_windows
from lexevo.errors import ConvergenceError, DataError, LexevoError
from lexevo.evaluate import (evaluate_predictions, is_right, mcnemar_exact,
                             predict_synset_winner, random_baseline,
                             uniform_baseline_tails)
from lexevo.experiments import (
    AblationSpec,
    fisher_exact,
    interpretation_tables,
    load_pipeline_inputs,
    prepare_window,
    run_ablation,
    run_ablations,
    run_cycle_sweep,
    run_nbcp,
    student_t_two_tailed_p,
    welch_t_test,
)
from lexevo.features import FEATURE_NAMES, SCALAR_FEATURES
from lexevo.model import (VARIANCE_FLOOR, GaussianParams, NaiveBayesModel,
                          feature_terms, fit, subset_log_odds, win_log_odds)
from tests.test_model import make_vector, random_vectors


def t_density(x, df):
    return (
        math.gamma((df + 1) / 2)
        / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        * (1 + x * x / df) ** (-(df + 1) / 2)
    )


def tail_probability(t, df, intervals=20_000):
    """Two-tailed p by composite Simpson integration of the t density."""
    lo = abs(t)
    h = 60.0 / intervals
    weights = [1] + [4 if i % 2 else 2 for i in range(1, intervals)] + [1]
    one_tail = h / 3 * math.fsum(w * t_density(lo + i * h, df)
                                 for i, w in enumerate(weights))
    return 2.0 * one_tail


# 2 * scipy.special.stdtr(df, -|t|) from scipy 1.17.1, pinned so the tests
# need no numeric library: (df, |t|, two-tailed p)
STDTR_TWO_TAILED = [
    (1, 0.5, 0.7048327646991335),
    (1, 2, 0.2951672353008665),
    (1, 10, 0.06345103486110713),
    (1, 50, 0.012730698201945594),
    (1.5, 0.5, 0.68056711066994),
    (1.5, 2, 0.22418833035605112),
    (1.5, 10, 0.023659355113621557),
    (1.5, 50, 0.002132430910288866),
    (2.7, 0.5, 0.6549470619957614),
    (2.7, 2, 0.149423438070502),
    (2.7, 10, 0.003287656064689192),
    (2.7, 50, 4.380021292323658e-05),
    (10, 0.5, 0.627893605742973),
    (10, 2, 0.07338803477074037),
    (10, 10, 1.5895531755964125e-06),
    (10, 50, 2.47431032930268e-13),
    (1e3, 0.5, 0.6171850808338747),
    (1e3, 2, 0.04577034649325166),
    (1e3, 10, 1.6670702958600137e-22),
    (1e3, 50, 2.758672412325172e-274),
    (1e5, 0.5, 0.6170761776544179),
    (1e5, 2, 0.04550296345750651),
    (1e5, 10, 1.5633015300207252e-23),
    (1e5, 50, 0.0),  # below the smallest float
]


class TestStudentTTail:
    @pytest.mark.parametrize("df,t,expected", STDTR_TWO_TAILED)
    def test_matches_pinned_stdtr(self, df, t, expected):
        assert student_t_two_tailed_p(t, df) == pytest.approx(expected, rel=1e-8)
        assert student_t_two_tailed_p(-t, df) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("df", [1, 1.5, 2.7, 10, 1e3, 1e5])
    def test_zero_and_infinite_t(self, df):
        assert student_t_two_tailed_p(0.0, df) == 1.0
        assert student_t_two_tailed_p(math.inf, df) == 0.0
        assert student_t_two_tailed_p(-math.inf, df) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1, 1e5))
    def test_probability_symmetric_and_falling_in_abs_t(self, t1, t2, df):
        p1 = student_t_two_tailed_p(t1, df)
        p2 = student_t_two_tailed_p(t2, df)
        assert 0.0 <= p1 <= 1.0
        assert student_t_two_tailed_p(-t1, df) == p1
        if abs(t1) <= abs(t2):
            # math.lgamma rounds its large results to some ulps, so two
            # nearly equal |t| may come out in either order by up to ~1e-9
            # relative; the tail is asserted to 1e-8 above
            assert p2 <= p1 * (1 + 1e-8)

    @pytest.mark.parametrize("df", [1e10, 1e12])
    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    def test_large_df_matches_normal_limit(self, t, df):
        # the normal tail plus its 1/df term: 2 phi(t) (t^3 + t) / (4 df)
        # of the t distribution's expansion about the normal; the next term
        # is O(1/df^2), below 1e-15 relative here
        density = math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
        expected = math.erfc(t / math.sqrt(2)) + density * (t ** 3 + t) / (2 * df)
        assert student_t_two_tailed_p(t, df) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("df, t, expected", [
        # mpmath.betainc(df/2, 1/2, 0, df/(df + t^2)) at 50 digits
        (9999.0, 2.0, 0.045527263361510105),
        (9999.0, 4.0, 6.379871456258758e-05),
        (1e4, 2.0, 0.04552726066143544),
        (1e4, 4.0, 6.379866882313963e-05),
    ])
    def test_both_sides_of_the_normal_switch(self, df, t, expected):
        # the continued fraction below 1e4 degrees of freedom and Hill's
        # normal deviate from there on both hold the tail to 1e-10
        assert student_t_two_tailed_p(t, df) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0, 10.0])
    def test_infinite_df_is_normal_tail(self, t):
        expected = math.erfc(t / math.sqrt(2))
        assert student_t_two_tailed_p(t, math.inf) == expected
        assert student_t_two_tailed_p(-t, math.inf) == expected

    def test_infinite_df_at_zero_and_infinite_t(self):
        assert student_t_two_tailed_p(3.0, math.inf) == pytest.approx(0.0027, abs=1e-4)
        assert student_t_two_tailed_p(0.0, math.inf) == 1.0
        assert student_t_two_tailed_p(math.inf, math.inf) == 0.0

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(experiments_mod, "_CF_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError, match="did not converge"):
            student_t_two_tailed_p(1.7, 300.0)
        assert issubclass(ConvergenceError, LexevoError)


class TestWelchTTest:
    def test_identical_groups(self):
        t, df, p, significant = welch_t_test(1.0, 0.5, 10, 1.0, 0.5, 10)
        assert t == 0.0
        assert p == pytest.approx(1.0)
        assert not significant

    def test_symmetric_in_sign(self):
        t1, _, p1, _ = welch_t_test(2.0, 1.0, 8, 1.0, 1.0, 8)
        t2, _, p2, _ = welch_t_test(1.0, 1.0, 8, 2.0, 1.0, 8)
        assert t1 == -t2
        assert p1 == pytest.approx(p2)

    def test_degrees_of_freedom_formula(self):
        _, df, _, _ = welch_t_test(0.0, 2.0, 5, 1.0, 3.0, 7)
        se1, se2 = 2.0 / 5, 3.0 / 7
        expected = (se1 + se2) ** 2 / (se1 ** 2 / 4 + se2 ** 2 / 6)
        assert df == pytest.approx(expected, rel=1e-12)

    def test_p_matches_numerical_integration(self):
        cases = [
            (0.3, 0.8, 12, 0.1, 0.6, 15),
            (5.0, 1.0, 30, 3.0, 2.0, 25),
            (0.0, 1.0, 5, 0.2, 1.0, 5),
            (-1.0, 0.3, 9, 1.0, 0.4, 4),
        ]
        for case in cases:
            t, df, p, _ = welch_t_test(*case)
            assert p == pytest.approx(tail_probability(t, df), abs=1e-6)

    def test_degenerate_zero_variance(self):
        t, df, p, significant = welch_t_test(1.0, 0.0, 5, 1.0, 0.0, 5)
        assert (t, p, significant) == (0.0, 1.0, False)
        assert df == 8.0
        t, _, p, significant = welch_t_test(2.0, 0.0, 5, 1.0, 0.0, 5)
        assert t == math.inf
        assert (p, significant) == (0.0, True)

    @pytest.mark.parametrize("variance", [2.5e-323, 1e-310, 1e-170, 1e300])
    def test_extreme_variances_keep_df(self, variance):
        # the squares of var/n under- or overflow, but their ratio is 8;
        # at 2.5e-323, var/n is the smallest subnormal
        t, df, p, significant = welch_t_test(1.0, variance, 5, 2.0, variance, 5)
        assert df == 8.0
        assert p == student_t_two_tailed_p(t, 8.0)
        assert significant is (variance < 1)

    @given(st.floats(1e-100, 1e100), st.integers(2, 10 ** 6),
           st.floats(1e-100, 1e100), st.integers(2, 10 ** 6))
    # squared with ** (C pow, not correctly rounded), the first differs from
    # this reference in the last bit and the second from the code
    @example(2042029682732165.0, 661, 1.0, 2)
    @example(23346791400299.0, 9851, 1.0, 3)
    def test_df_is_the_unscaled_formula_in_range(self, var1, n1, var2, n2):
        se1, se2 = var1 / n1, var2 / n2
        expected = ((se1 + se2) * (se1 + se2)
                    / (se1 * se1 / (n1 - 1) + se2 * se2 / (n2 - 1)))
        assert welch_t_test(0.0, var1, n1, 1.0, var2, n2)[1] == expected

    def test_small_groups_rejected(self):
        with pytest.raises(DataError):
            welch_t_test(0.0, 1.0, 1, 0.0, 1.0, 5)

    def test_negative_variance_rejected(self):
        with pytest.raises(DataError):
            welch_t_test(0.0, -1.0, 5, 0.0, 1.0, 5)


class TestFisherExact:
    @pytest.mark.parametrize("ones0, n0, ones1, n1, p, significant", [
        (1, 4, 3, 4, 34 / 70, False),  # Fisher's tea tasting, p = 0.486
        (0, 5, 5, 5, 2 / 252, True),
        (0, 4, 1, 1, 1 / 5, False),  # one winner: Welch's test cannot run
        (2, 4, 1, 1, 1.0, False),
        (0, 3, 0, 3, 1.0, False),
    ])
    def test_pinned(self, ones0, n0, ones1, n1, p, significant):
        assert fisher_exact(ones0, n0, ones1, n1) == (p, significant)

    def test_matches_enumeration(self):
        # under the null every set of k holders among the n0 + n1 vectors
        # is equally likely; vectors below n0 are class 0
        for n0, n1 in itertools.product(range(1, 6), repeat=2):
            for ones0, ones1 in itertools.product(range(n0 + 1), range(n1 + 1)):
                k = ones0 + ones1
                ways = Counter(sum(i < n0 for i in holders) for holders
                               in itertools.combinations(range(n0 + n1), k))
                exact = Fraction(sum(w for w in ways.values() if w <= ways[ones0]),
                                 sum(ways.values()))
                p, significant = fisher_exact(ones0, n0, ones1, n1)
                assert p == float(exact)
                assert significant == (exact < Fraction(1, 20))
                assert fisher_exact(ones1, n1, ones0, n0) == (p, significant)

    @given(st.integers(1, 400), st.integers(1, 400), st.data())
    def test_matches_binomial_formula(self, n0, n1, data):
        # the weight recurrence gives the integers that fresh binomials give
        ones0 = data.draw(st.integers(0, n0))
        ones1 = data.draw(st.integers(0, n1))
        k = ones0 + ones1
        weights = [math.comb(n0, x) * math.comb(n1, k - x) for x in range(k + 1)]
        tail = sum(w for w in weights if w <= weights[ones0])
        total = math.comb(n0 + n1, k)
        assert fisher_exact(ones0, n0, ones1, n1) == (tail / total, 20 * tail < total)


class TestInterpretModel:
    def fitted_model(self, seed=21, n=30):
        rng = random.Random(seed)
        return random_vectors(rng, n), fit(random_vectors(rng, n))

    def test_differences_match_class_means(self):
        rng = random.Random(22)
        vectors = random_vectors(rng, 30)
        model = fit(vectors)
        tables = interpretation_tables(model)
        losers = [v for v in vectors if v.target_class == 0]
        winners = [v for v in vectors if v.target_class == 1]
        for row in tables["scalar_features"]:
            name = row["dimension"]
            loser_mean = sum(float(getattr(v, name)) for v in losers) / len(losers)
            winner_mean = sum(float(getattr(v, name)) for v in winners) / len(winners)
            assert row["loser_mean"] == pytest.approx(loser_mean, abs=1e-12)
            assert row["winner_mean"] == pytest.approx(winner_mean, abs=1e-12)
            assert row["difference"] == pytest.approx(
                winner_mean - loser_mean, abs=1e-12
            )
        for row in tables["top_trigrams"]:
            ones0 = sum(1 for v in losers if row["dimension"] in v.unique_ngrams)
            ones1 = sum(1 for v in winners if row["dimension"] in v.unique_ngrams)
            assert row["loser_mean"] == pytest.approx(ones0 / len(losers), abs=1e-12)
            assert row["significant_95"] == fisher_exact(ones0, len(losers),
                                                         ones1, len(winners))[1]

    def test_scalar_rows_cover_model_features(self):
        _, model = self.fitted_model()
        scalar_rows = interpretation_tables(model)["scalar_features"]
        assert [r["dimension"] for r in scalar_rows] == list(SCALAR_FEATURES)

    def test_trigram_rows_sorted_by_gap(self):
        _, model = self.fitted_model()
        # fewer trigrams than TOP_TRIGRAMS: every one gets a row
        trigram_rows = interpretation_tables(model)["top_trigrams"]
        assert (len(trigram_rows) == len(model.trigram_params)
                < experiments_mod.TOP_TRIGRAMS)
        gaps = [abs(r["difference"]) for r in trigram_rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_top_k_truncates(self, synthetic_inputs):
        # the table keeps the TOP_TRIGRAMS largest gaps, ties by trigram
        train_window, _ = schedule_windows(50)[1]
        model = fit(prepare_window(train_window, synthetic_inputs)[1])
        trigram_rows = interpretation_tables(model)["top_trigrams"]
        ranked = sorted((-abs(p1.mean - p0.mean), tri)
                        for tri, (p0, p1) in model.trigram_params.items())
        assert len(ranked) > experiments_mod.TOP_TRIGRAMS == 12
        assert ([r["dimension"] for r in trigram_rows]
                == [tri for _, tri in ranked[:experiments_mod.TOP_TRIGRAMS]])

    def test_planted_marker_ranks_first(self):
        # the marker trigram appears in every winner and no loser
        vectors = []
        rng = random.Random(23)
        for i in range(24):
            base = random_vectors(rng, 1)[0]
            target = i % 2
            trigrams = ("zzz",) if target else ("|ab",)
            vectors.append(make_vector(
                i,
                [base.normalized_length, base.syllable_count, base.shared_ngrams,
                 base.categorial_variations, base.relative_growth,
                 base.linear_extrapolation, base.present_age],
                trigrams, target,
            ))
        model = fit(vectors)
        trigram_rows = interpretation_tables(model)["top_trigrams"]
        assert trigram_rows[0]["dimension"] in ("zzz", "|ab")
        assert abs(trigram_rows[0]["difference"]) == pytest.approx(1.0)
        assert trigram_rows[0]["significant_95"]

    def test_welch_reads_the_data_variances(self):
        # the winners vary by 1e-12 and the losers not at all: on the data's
        # variances a gap of 1e-5 is significant, as it would not be on the
        # floored ones
        statistics = (GaussianParams(0.0, 0.0), GaussianParams(1e-5, 1e-12))
        model = NaiveBayesModel(("present_age",), (3, 3), {"present_age": statistics}, {})
        assert welch_t_test(1e-5, 1e-12, 3, 0.0, 0.0, 3)[3]
        assert not welch_t_test(1e-5, VARIANCE_FLOOR, 3, 0.0, VARIANCE_FLOOR, 3)[3]
        [row] = interpretation_tables(model)["scalar_features"]
        assert row["significant_95"]

    def test_tables_shape(self):
        _, model = self.fitted_model()
        tables = interpretation_tables(model)
        assert set(tables) == {"scalar_features", "top_trigrams"}
        # the CSV header is the first row's keys, in this order
        assert list(tables["scalar_features"][0]) == [
            "dimension", "loser_mean", "winner_mean", "difference", "significant_95"]
        assert list(tables["top_trigrams"][0]) == [
            "dimension", "loser_mean", "winner_mean", "difference", "significant_95",
            "suggests"]
        for row in tables["top_trigrams"]:
            assert row["suggests"] in ("winner", "loser")
            expected = "winner" if row["difference"] > 0 else "loser"
            assert row["suggests"] == expected


class TestLoadPipelineInputs:
    @pytest.mark.parametrize("bundle", ["synthetic", "rapture"])
    def test_one_key_form(self, request, bundle):
        # births, synset members and cluster members all name corpus keys
        # in the same (lemma, corpus POS) form the corpus table uses
        paths = request.getfixturevalue(f"{bundle}_paths")
        inputs, _, _ = load_pipeline_inputs([paths["corpus"]], paths["lexicon"],
                                            paths["catvar"])
        keys = set(inputs.corpus.keys())
        assert inputs.births and set(inputs.births) <= keys
        for synset in inputs.synsets:
            for member in synset.members:
                assert member.corpus_key() in keys
        for member in inputs.clusters.members():
            assert member in keys


class TestRunNbcp:
    def test_synthetic_end_to_end(self, synthetic_inputs):
        train_window, test_window = schedule_windows(50)[1]
        run = run_nbcp(train_window, test_window, synthetic_inputs)
        report = run["report"]
        assert report["counts"]["synsets"] == 50
        assert report["metrics"]["f_score"] >= 0.95
        assert report["features"] == list(FEATURE_NAMES)
        assert report["train"]["window"] == [
            train_window.past, train_window.present, train_window.future,
        ]
        assert set(report["random"]) == {"precision", "recall", "f_score"}


def count_window_calls(monkeypatch):
    """Patch experiments' build_dataset and extract_features to record
    the window of every call; returns the two lists."""
    import lexevo.experiments as experiments_mod

    builds, extracts = [], []
    build, extract = experiments_mod.build_dataset, experiments_mod.extract_features

    def counted_build(synsets, corpus, window, *args, **kwargs):
        builds.append(window)
        return build(synsets, corpus, window, *args, **kwargs)

    def counted_extract(dataset, *args, **kwargs):
        extracts.append(dataset.window)
        return extract(dataset, *args, **kwargs)

    monkeypatch.setattr(experiments_mod, "build_dataset", counted_build)
    monkeypatch.setattr(experiments_mod, "extract_features", counted_extract)
    return builds, extracts


class TestPrepareWindow:
    def test_run_nbcp_scores_the_prepared_windows(self, synthetic_inputs):
        train_window, test_window = schedule_windows(50)[1]
        run = run_nbcp(train_window, test_window, synthetic_inputs)
        train = prepare_window(train_window, synthetic_inputs)
        test = prepare_window(test_window, synthetic_inputs)
        assert train[0].window == train_window
        assert len(train[1]) == train[0].summary()["words"]
        assert run["test_vectors"] is test[1]
        assert run["report"]["train"] == train[0].summary()
        assert run["report"]["test"] == test[0].summary()


class TestRunAblation:
    def test_spec_validation(self):
        with pytest.raises(DataError):
            AblationSpec("bogus", "present_age")
        with pytest.raises(DataError):
            AblationSpec("drop_one", "bogus")

    def test_drop_one_delta(self, synthetic_inputs):
        train_window, test_window = schedule_windows(50)[1]
        result = run_ablation(
            AblationSpec("drop_one", "syllable_count"),
            train_window, test_window, synthetic_inputs,
        )
        assert result["mode"] == "drop_one"
        baseline = run_nbcp(train_window, test_window, synthetic_inputs)
        assert result["f_baseline"] == baseline["report"]["metrics"]["f_score"]
        assert result["delta"] == pytest.approx(
            result["f_variant"] - result["f_baseline"]
        )

    def test_single_only_uses_random_baseline(self, synthetic_inputs):
        train_window, test_window = schedule_windows(50)[1]
        result = run_ablation(
            AblationSpec("single_only", "relative_growth"),
            train_window, test_window, synthetic_inputs,
        )
        test_ds, _ = prepare_window(test_window, synthetic_inputs)
        assert result["f_baseline"] == random_baseline(test_ds.snapshots).f_score

    @pytest.mark.parametrize("bundle", ["synthetic", "rapture"])
    def test_significance_is_exact_paired_test(self, request, bundle):
        inputs = request.getfixturevalue(f"{bundle}_inputs")
        train_window, test_window = schedule_windows(50)[1]
        _, train_vectors = prepare_window(train_window, inputs)
        test_ds, test_vectors = prepare_window(test_window, inputs)

        def fit_and_evaluate(features):
            """(Metrics, outcome rows) of a model fitted on features alone."""
            model = fit(train_vectors, features)
            log_odds = {v.sense: win_log_odds(model, v) for v in test_vectors}
            return evaluate_predictions(test_ds.snapshots, log_odds)[1:]

        _, baseline = fit_and_evaluate(FEATURE_NAMES)
        sizes = [len(s.counts) for s in test_ds.snapshots]
        specs = [AblationSpec(mode, f) for mode in ("drop_one", "single_only")
                 for f in FEATURE_NAMES]
        rows = run_ablations(specs, train_window, test_window, inputs)
        for spec, row in zip(specs, rows):
            if spec.mode == "drop_one":
                features = [f for f in FEATURE_NAMES if f != spec.feature]
            else:
                features = [spec.feature]
            scores, outcomes = fit_and_evaluate(features)
            # the variant fitted on its features alone scores the same
            assert row["f_variant"] == scores.f_score
            right = [is_right(r) for r in outcomes]
            if spec.mode == "drop_one":
                # both runs list the test window's synsets in one order
                assert ([r["synset_id"] for r in outcomes]
                        == [r["synset_id"] for r in baseline])
                was_right = [is_right(r) for r in baseline]
                b = sum(w and not r for r, w in zip(right, was_right))
                c = sum(r and not w for r, w in zip(right, was_right))
                expected = mcnemar_exact(b, c)[1]
                assert "McNemar" in row["significance_rule"]
            else:
                tails = uniform_baseline_tails(sizes)
                expected = 20 * tails[sum(right)] < tails[0]
                assert "Poisson-binomial" in row["significance_rule"]
            assert row["significant_95"] is expected

    def test_single_only_significance_on_synthetic(self, synthetic_inputs):
        # one feature that ranks every synset right beats uniform random;
        # one that ranks none right is no better than it
        train_window, test_window = schedule_windows(50)[1]
        rows = run_ablations(
            [AblationSpec("single_only", "relative_growth"),
             AblationSpec("single_only", "categorial_variations")],
            train_window, test_window, synthetic_inputs)
        assert [row["f_variant"] for row in rows] == [1.0, 0.0]
        assert [row["significant_95"] for row in rows] == [True, False]

    def test_drop_one_prepares_two_windows(self, fresh_synthetic_inputs,
                                           monkeypatch):
        train_window, test_window = schedule_windows(50)[1]
        builds, extracts = count_window_calls(monkeypatch)
        run_ablation(AblationSpec("drop_one", "syllable_count"),
                     train_window, test_window, fresh_synthetic_inputs)
        assert sorted(builds) == sorted(extracts) == [train_window, test_window]

    def test_repeated_ablations_prepare_two_windows(self, fresh_synthetic_inputs,
                                                    monkeypatch):
        # one run_ablation call per feature on one inputs: the window pair
        # is prepared by the first call and kept for the other seven
        train_window, test_window = schedule_windows(50)[1]
        builds, extracts = count_window_calls(monkeypatch)
        for feature in FEATURE_NAMES:
            run_ablation(AblationSpec("drop_one", feature),
                         train_window, test_window, fresh_synthetic_inputs)
        assert sorted(builds) == sorted(extracts) == [train_window, test_window]

    def test_many_specs_share_one_baseline(self, synthetic_inputs, monkeypatch):
        import lexevo.experiments as experiments_mod

        train_window, test_window = schedule_windows(50)[1]
        specs = [AblationSpec("drop_one", f) for f in FEATURE_NAMES]
        fits = []
        original = experiments_mod.fit

        def counted(vectors, features=FEATURE_NAMES, **kwargs):
            fits.append(tuple(features))
            return original(vectors, features=features, **kwargs)

        monkeypatch.setattr(experiments_mod, "fit", counted)
        rows = run_ablations(specs, train_window, test_window, synthetic_inputs)
        assert fits == [FEATURE_NAMES]
        monkeypatch.undo()
        for spec, row in zip(specs, rows):
            assert row == run_ablation(spec, train_window, test_window,
                                       synthetic_inputs)

    @pytest.mark.parametrize("modes, calls", [
        (["drop_one"], 0), (["single_only"], 1), (["drop_one", "single_only"], 1),
    ], ids=["drop_one", "single_only", "both"])
    def test_random_baseline_only_for_single_only(self, synthetic_inputs,
                                                  monkeypatch, modes, calls):
        train_window, test_window = schedule_windows(50)[1]
        specs = [AblationSpec(mode, f) for mode in modes for f in FEATURE_NAMES]
        baselines = []
        original = experiments_mod.random_baseline

        def counted(snapshots):
            baselines.append(1)
            return original(snapshots)

        monkeypatch.setattr(experiments_mod, "random_baseline", counted)
        run_ablations(specs, train_window, test_window, synthetic_inputs)
        assert len(baselines) == calls

    @pytest.mark.parametrize("modes, calls", [
        (["drop_one"], 0), (["single_only"], 1), (["drop_one", "single_only"], 1),
    ], ids=["drop_one", "single_only", "both"])
    def test_one_tail_table_per_test_window(self, synthetic_inputs, monkeypatch,
                                            modes, calls):
        # the tails depend on the test window's synset sizes alone, so
        # every single_only spec reads one table
        train_window, test_window = schedule_windows(50)[1]
        specs = [AblationSpec(mode, f) for mode in modes for f in FEATURE_NAMES]
        builds = []
        original = experiments_mod.uniform_baseline_tails

        def counted(sizes):
            builds.append(1)
            return original(sizes)

        monkeypatch.setattr(experiments_mod, "uniform_baseline_tails", counted)
        rows = run_ablations(specs, train_window, test_window, synthetic_inputs)
        assert len(builds) == calls
        monkeypatch.undo()
        for spec, row in zip(specs, rows):
            assert row == run_ablation(spec, train_window, test_window,
                                       synthetic_inputs)


class TestRunCycleSweep:
    def test_rows_keyed_by_future_period(self, synthetic_inputs):
        sweep = run_cycle_sweep([50], synthetic_inputs)
        futures = [row["future"] for row in sweep["rows"]]
        assert futures == [1950, 2000]
        assert sweep["skipped"] == []
        for row in sweep["rows"]:
            assert row["cycle"] == 50
            assert 0 <= row["f_nbcp"] <= 100
            assert row["synsets"] > 0

    def test_invalid_cycle_is_skipped_not_fatal(self, synthetic_inputs):
        sweep = run_cycle_sweep([50, 10], synthetic_inputs)
        assert len(sweep["skipped"]) == 1
        assert sweep["skipped"][0]["cycle"] == 10
        assert [row["cycle"] for row in sweep["rows"]] == [50, 50]

    def test_each_window_prepared_once(self, fresh_synthetic_inputs, monkeypatch):
        cycles = [30, 40, 50, 60]
        builds, extracts = count_window_calls(monkeypatch)
        run_cycle_sweep(cycles, fresh_synthetic_inputs)
        windows = sorted({w for cycle in cycles
                          for pair in schedule_windows(cycle) for w in pair})
        assert sorted(builds) == sorted(extracts) == windows

    def test_one_run_nbcp_per_scheduled_pair(self, synthetic_inputs, monkeypatch):
        cycles = [30, 40, 50, 60]
        calls = []
        original = experiments_mod.run_nbcp

        def counted(train_window, test_window, inputs):
            calls.append((train_window, test_window))
            return original(train_window, test_window, inputs)

        monkeypatch.setattr(experiments_mod, "run_nbcp", counted)
        run_cycle_sweep(cycles, synthetic_inputs)
        assert calls == [pair for cycle in cycles for pair in schedule_windows(cycle)]

    def test_sweep_keeps_one_window_pair(self, fresh_synthetic_inputs, monkeypatch):
        # at every fit the inputs hold the pair being fitted and no other
        # window; the 14 distinct windows are each built once
        inputs = fresh_synthetic_inputs
        cycles = [30, 40, 50, 60]
        builds, _ = count_window_calls(monkeypatch)
        held = []
        original = experiments_mod.run_nbcp

        def counted(train_window, test_window, inputs):
            try:
                return original(train_window, test_window, inputs)
            finally:  # also when the pair's training window is unfittable
                held.append(len(inputs._prepared))

        monkeypatch.setattr(experiments_mod, "run_nbcp", counted)
        run_cycle_sweep(cycles, inputs)
        pairs = [pair for cycle in cycles for pair in schedule_windows(cycle)]
        assert held == [2] * len(pairs)
        assert list(inputs._prepared) == list(pairs[-1])
        assert len(builds) == len(set(builds)) == 14
        assert set(builds) == {w for pair in pairs for w in pair}


def floor_counts(inputs):
    """What the variance floor does on the cycle-50 pair: per class, the
    scalars and the count of trigram dims whose variance sits on the floor;
    the largest |log odds| of a test word; and how many test synsets pick
    the member that unique_ngrams alone picks, of how many."""
    train_window, test_window = schedule_windows(50)[-1]
    _, train_vectors = prepare_window(train_window, inputs)
    test_ds, test_vectors = prepare_window(test_window, inputs)
    model = fit(train_vectors)
    full = {v.sense: win_log_odds(model, v) for v in test_vectors}
    alone = {v.sense: subset_log_odds(model, feature_terms(model, v), ("unique_ngrams",))
             for v in test_vectors}
    same = sum(
        predict_synset_winner({s: full[s] for s in snapshot.counts})
        == predict_synset_winner({s: alone[s] for s in snapshot.counts})
        for snapshot in test_ds.snapshots)
    return {
        "floored_scalars": tuple(
            tuple(name for name, pair in model.scalar_params.items()
                  if pair[c].variance == VARIANCE_FLOOR) for c in (0, 1)),
        "floored_trigrams": tuple(
            sum(pair[c].variance == VARIANCE_FLOOR
                for pair in model.trigram_params.values()) for c in (0, 1)),
        "trigram_dims": len(model.trigram_dims),
        "largest_abs_log_odds": max(map(abs, full.values())),
        "picks_as_unique_ngrams_alone": (same, len(test_ds.snapshots)),
    }


class TestVarianceFloor:
    """Today's counts of what the absolute variance floor decides, pinned
    so that a change of the floor rule shows what it moves."""

    def test_synthetic_floor_counts(self, synthetic_inputs):
        # categorial_variations is 0 in every vector (the bundle has no
        # catvar cluster), and 35 of 51 trigrams occur in no training
        # winner: a floored term of about 5e8 per such trigram decides
        # every synset, as unique_ngrams alone would
        assert floor_counts(synthetic_inputs) == {
            "floored_scalars": (("categorial_variations",), ("categorial_variations",)),
            "floored_trigrams": (0, 35),
            "trigram_dims": 51,
            "largest_abs_log_odds": 3999999706.29621,
            "picks_as_unique_ngrams_alone": (50, 50),
        }

    def test_rapture_floor_counts(self, rapture_inputs):
        # one training winner: every class-1 variance is on the floor
        assert floor_counts(rapture_inputs) == {
            "floored_scalars": ((), SCALAR_FEATURES),
            "floored_trigrams": (7, 26),
            "trigram_dims": 26,
            "largest_abs_log_odds": 4518694204205.711,
            "picks_as_unique_ngrams_alone": (0, 1),
        }

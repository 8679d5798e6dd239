"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from lexevo.corpus import synset_annual_shares
from lexevo.dataset import (
    MemberCounts,
    TimeWindow,
    build_dataset,
    schedule_windows,
)
from lexevo.evaluate import ContingencyCounts, metrics, random_baseline, wilson_interval
from lexevo.experiments import interpretation_tables, run_nbcp
from lexevo.features import extract_features
from lexevo.lexicon import SenseId, Synset
from lexevo.model import fit, win_probability

from tests.conftest import snapshot_of
from tests.test_model import brute_force_probability, random_vectors

TEST1_WINDOW = TimeWindow(1850, 1900, 1950)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def rapture_vectors(inputs):
    ds = build_dataset(inputs.synsets, inputs.corpus, TEST1_WINDOW)
    vectors = extract_features(ds, inputs.word_shapes, inputs.clusters, inputs.births)
    return {v.sense.lemma: v for v in vectors}


def test_01_fixture_feature_values(rapture_inputs):
    with criterion(1, "fixture feature values"):
        started = time.perf_counter()
        by_lemma = rapture_vectors(rapture_inputs)
        rapturous = by_lemma["rapturous"]
        ecstatic = by_lemma["ecstatic"]

        assert rapturous.normalized_length == pytest.approx(0.900, abs=0.001)
        assert ecstatic.normalized_length == pytest.approx(0.800, abs=0.001)
        assert rapturous.syllable_count == 3
        assert ecstatic.syllable_count == 3
        assert set(rapturous.unique_ngrams) == {"uro", "rou", "ous", "us|"}
        assert set(ecstatic.unique_ngrams) == {
            "|ec", "ecs", "cst", "sta", "tat", "ati", "tic",
        }
        assert rapturous.shared_ngrams == pytest.approx(0.556, abs=0.001)
        assert ecstatic.shared_ngrams == pytest.approx(0.125, abs=0.001)
        assert rapturous.categorial_variations == 3
        assert ecstatic.categorial_variations == 2
        assert rapturous.relative_growth == pytest.approx(-0.122, abs=0.001)
        assert ecstatic.relative_growth == pytest.approx(0.107, abs=0.001)
        assert rapturous.linear_extrapolation == pytest.approx(0.119, abs=0.001)
        assert ecstatic.linear_extrapolation == pytest.approx(0.449, abs=0.001)
        assert rapturous.present_age == 258
        assert ecstatic.present_age == 213
        assert rapturous.target_class == 0
        assert ecstatic.target_class == 1
        assert time.perf_counter() - started < 1.0


def test_02_relative_frequency_arithmetic(rapture_inputs):
    with criterion(2, "relative frequency arithmetic"):
        # plain arithmetic on the raw period counts, no library calls
        past = {"ecstatic": 5576, "enraptured": 4334, "rapt": 5243,
                "rapturous": 8645, "rhapsodic": 45}
        present = {"ecstatic": 21716, "enraptured": 7148, "rapt": 18750,
                   "rapturous": 15320, "rhapsodic": 696}
        assert sum(present.values()) == 63630
        f1 = past["ecstatic"] / sum(past.values())
        f2 = present["ecstatic"] / sum(present.values())
        assert f2 == 21716 / 63630
        extrapolation = 2.0 * f2 - f1
        assert extrapolation == pytest.approx(0.449, abs=0.001)

        # the pipeline agrees with the hand calculation
        by_lemma = rapture_vectors(rapture_inputs)
        assert by_lemma["ecstatic"].linear_extrapolation == pytest.approx(
            extrapolation, abs=1e-12
        )


def test_03_metric_identities():
    with criterion(3, "metric identities"):
        # tp/(tp+fp) = 51/100 and tp/(tp+fn) = 31/100 with tp = lcm(51, 31)
        counts = ContingencyCounts(tp=1581, fp=1519, fn=3519, tn=0)
        m = metrics(counts)
        assert m.precision == pytest.approx(0.510, abs=1e-12)
        assert m.recall == pytest.approx(0.310, abs=1e-12)
        assert m.f_score == pytest.approx(0.385, abs=0.001)

        # a guesser that never predicts change has no tp and no fp
        never_change = metrics(ContingencyCounts(tp=0, fp=0, fn=3519, tn=9000))
        assert (never_change.precision, never_change.recall,
                never_change.f_score) == (0.0, 0.0, 0.0)


def test_04_wilson_half_width():
    with criterion(4, "wilson interval half width"):
        low, high = wilson_interval(1742, 3484)
        assert (high - low) / 2 == pytest.approx(0.0166, abs=0.0005)


def test_05_window_schedules():
    with criterion(5, "window schedules"):
        assert schedule_windows(50) == [
            (TimeWindow(1800, 1850, 1900), TimeWindow(1850, 1900, 1950)),
            (TimeWindow(1850, 1900, 1950), TimeWindow(1900, 1950, 2000)),
        ]
        assert [t.future for _, t in schedule_windows(30)] == [
            1910, 1940, 1970, 2000,
        ]
        sixty = schedule_windows(60)
        assert sixty == [
            (TimeWindow(1820, 1880, 1940), TimeWindow(1880, 1940, 2000)),
        ]


def test_06_naive_bayes_oracle():
    with criterion(6, "naive bayes vs brute force"):
        started = time.perf_counter()
        rng = random.Random(2026)
        scalar_pool = ("normalized_length", "shared_ngrams", "relative_growth",
                       "linear_extrapolation", "present_age")
        for _ in range(250):
            vectors = random_vectors(rng, rng.randint(4, 20))
            subset = tuple(rng.sample(scalar_pool, rng.randint(1, 3)))
            if rng.random() < 0.5:
                subset += ("unique_ngrams",)
            model = fit(vectors, features=subset)

            # parameters against direct per-class statistics
            class0 = [v for v in vectors if v.target_class == 0]
            class1 = [v for v in vectors if v.target_class == 1]
            for name, statistics in model.scalar_statistics.items():
                for members, stored, fitted in zip(
                        (class0, class1), statistics, model.scalar_params[name]):
                    values = [float(getattr(v, name)) for v in members]
                    mean = sum(values) / len(values)
                    var = sum((x - mean) ** 2 for x in values) / max(
                        len(values) - 1, 1
                    )
                    assert stored.mean == fitted.mean == pytest.approx(mean, abs=1e-9)
                    assert stored.variance == pytest.approx(var, abs=1e-9)
                    assert fitted.variance == max(stored.variance, 1e-9)

            # probabilities against the independent scorer, 4 queries each
            for _ in range(4):
                query = random_vectors(rng, 1)[0]
                expected = brute_force_probability(vectors, subset, query)
                assert win_probability(model, query) == pytest.approx(
                    expected, abs=1e-9
                )
        assert time.perf_counter() - started < 10.0


def test_07_synthetic_end_to_end(synthetic_inputs):
    with criterion(7, "synthetic end-to-end run"):
        started = time.perf_counter()
        train_window, test_window = schedule_windows(50)[1]
        reports = []
        for _ in range(4):
            run = run_nbcp(train_window, test_window, synthetic_inputs)
            reports.append(json.dumps(run["report"], sort_keys=True))
        assert json.loads(reports[0])["metrics"]["f_score"] >= 0.95
        assert len(set(reports)) == 1
        assert time.perf_counter() - started < 30.0


def test_08_random_baseline_expectation():
    with criterion(8, "random baseline recall"):
        snapshots = []
        for i in range(10_000):
            code = (chr(ord("a") + i % 26) + chr(ord("a") + (i // 26) % 26)
                    + chr(ord("a") + (i // 676) % 26))
            first = SenseId(code + "aaa", "n", 1)
            second = SenseId(code + "bbb", "n", 1)
            synset = Synset(f"s{i:05d}", "n", [first, second])
            changed = i % 2 == 0
            counts = {
                first: MemberCounts(5, 9, 2 if changed else 9),
                second: MemberCounts(4, 5, 9 if changed else 2),
            }
            snapshots.append(snapshot_of(synset, counts))
        # the time bound rules out a DP over the whole count range, which
        # is quadratic in the synsets
        started = time.perf_counter()
        scores = random_baseline(snapshots)
        assert time.perf_counter() - started < 5.0
        assert scores.recall == 0.5


def test_09_interpretation_oracle(synthetic_inputs):
    with criterion(9, "interpretation oracle"):
        train_window, test_window = schedule_windows(50)[1]
        run = run_nbcp(train_window, test_window, synthetic_inputs)
        vectors = run["train_vectors"]
        model = run["model"]
        tables = interpretation_tables(model)
        scalar_rows, trigram_rows = tables["scalar_features"], tables["top_trigrams"]

        losers = [v for v in vectors if v.target_class == 0]
        winners = [v for v in vectors if v.target_class == 1]
        for row in scalar_rows:
            name = row["dimension"]
            loser_mean = sum(float(getattr(v, name)) for v in losers) / len(losers)
            winner_mean = sum(float(getattr(v, name)) for v in winners) / len(winners)
            assert row["difference"] == pytest.approx(
                winner_mean - loser_mean, abs=1e-12
            )
        for row in trigram_rows:
            loser_mean = sum(
                1 for v in losers if row["dimension"] in v.unique_ngrams
            ) / len(losers)
            winner_mean = sum(
                1 for v in winners if row["dimension"] in v.unique_ngrams
            ) / len(winners)
            assert row["difference"] == pytest.approx(
                winner_mean - loser_mean, abs=1e-12
            )

        # the marker planted in every winner lemma ranks first; quz, uzz
        # and zzz all come from the marker block and tie on separation
        assert trigram_rows[0]["dimension"] in ("quz", "uzz", "zzz")
        zzz_row = next(r for r in trigram_rows if r["dimension"] == "zzz")
        assert trigram_rows[0]["difference"] == zzz_row["difference"]
        assert zzz_row["difference"] > 0
        assert zzz_row["significant_95"]
        assert zzz_row["suggests"] == "winner"


def test_10_annual_share_normalization(rapture_inputs):
    with criterion(10, "annual share normalization"):
        synset = rapture_inputs.synsets[0]
        member_series = [
            rapture_inputs.corpus.series(m.corpus_key()) for m in synset.members
        ]
        rows = synset_annual_shares(member_series, range(1800, 2001))
        assert [year for year, _ in rows] == list(range(1800, 2001))
        for _, shares in rows:
            assert math.fsum(shares) == pytest.approx(1.0, abs=1e-12)

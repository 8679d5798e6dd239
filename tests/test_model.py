import itertools
import json
import math
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lexevo.errors import DataError, UnfittableModelError
from lexevo.features import FEATURE_NAMES, SCALAR_FEATURES, FeatureVector
from lexevo.lexicon import SenseId
from lexevo.model import (
    VARIANCE_FLOOR,
    GaussianParams,
    NaiveBayesModel,
    _binary_statistics,
    _exact_parts,
    _gaussian,
    feature_terms,
    fit,
    gaussian_log_pdf,
    load_model,
    save_model,
    subset_log_odds,
    win_log_odds,
    win_probability,
)

TRIGRAM_POOL = ("|ab", "abc", "bcd", "cd|", "|xy", "xyz")


def make_vector(i, scalars, trigrams, target):
    return FeatureVector(
        sense=SenseId(f"w{i:03d}", "n", 1),
        synset_id=f"s{i:03d}",
        normalized_length=scalars[0],
        syllable_count=int(scalars[1]),
        unique_ngrams=tuple(trigrams),
        shared_ngrams=scalars[2],
        categorial_variations=int(scalars[3]),
        relative_growth=scalars[4],
        linear_extrapolation=scalars[5],
        present_age=int(scalars[6]),
        target_class=target,
    )


def random_vectors(rng, n):
    vectors = []
    for i in range(n):
        scalars = [
            rng.uniform(0, 1),
            rng.randint(1, 5),
            rng.uniform(0, 1),
            rng.randint(0, 6),
            rng.uniform(-1, 1),
            rng.uniform(-1, 2),
            rng.randint(10, 400),
        ]
        k = rng.randint(0, 3)
        trigrams = rng.sample(TRIGRAM_POOL, k)
        vectors.append(make_vector(i, scalars, trigrams, rng.randint(0, 1)))
    # make sure both classes occur in training-sized samples
    if n >= 2:
        vectors[0] = make_vector(0, [0.5, 2, 0.5, 1, 0.0, 0.5, 100], ["|ab"], 0)
        vectors[1] = make_vector(1, [0.6, 3, 0.4, 2, 0.1, 0.6, 120], ["xyz"], 1)
    return vectors


def brute_force_probability(train, features, query, variance_floor=VARIANCE_FLOOR):
    """Independent reimplementation: explicit loops, no shared helpers."""
    class0 = [v for v in train if v.target_class == 0]
    class1 = [v for v in train if v.target_class == 1]
    priors = [
        (len(class0) + 1) / (len(train) + 2),
        (len(class1) + 1) / (len(train) + 2),
    ]
    dims = []
    for name in SCALAR_FEATURES:
        if name in features:
            dims.append(("scalar", name))
    if "unique_ngrams" in features:
        seen = set()
        for v in train:
            seen.update(v.unique_ngrams)
        for tri in sorted(seen):
            dims.append(("trigram", tri))

    def value_of(vector, dim):
        kind, name = dim
        if kind == "scalar":
            return float(getattr(vector, name))
        return 1.0 if name in vector.unique_ngrams else 0.0

    class_terms = []
    for c, members in ((0, class0), (1, class1)):
        terms = [math.log(priors[c])]
        for dim in dims:
            values = [value_of(v, dim) for v in members]
            mean = sum(values) / len(values)
            if len(values) < 2:
                var = variance_floor
            else:
                var = sum((x - mean) ** 2 for x in values) / (len(values) - 1)
                var = max(var, variance_floor)
            x = value_of(query, dim)
            terms.append(-0.5 * math.log(2 * math.pi * var) - (x - mean) ** 2 / (2 * var))
        class_terms.append(terms)
    # exact summation of the class-1 terms and the negated class-0 terms:
    # the reference must not share the scorer's rounding order
    odds = math.fsum(class_terms[1] + [-t for t in class_terms[0]])
    if odds >= 0:
        return 1.0 / (1.0 + math.exp(-odds))
    return math.exp(odds) / (1.0 + math.exp(odds))


class TestGaussianLogPdf:
    def test_standard_normal_peak(self):
        params = GaussianParams(0.0, 1.0)
        assert gaussian_log_pdf(params, 0.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_matches_exp_form(self):
        params = GaussianParams(2.0, 0.25)
        density = math.exp(gaussian_log_pdf(params, 1.5))
        expected = (1 / math.sqrt(2 * math.pi * 0.25)) * math.exp(
            -((1.5 - 2.0) ** 2) / (2 * 0.25)
        )
        assert density == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_log_pdf(GaussianParams(0.0, 0.0), 0.0)


class TestFit:
    def test_priors_are_smoothed(self):
        rng = random.Random(1)
        vectors = random_vectors(rng, 10)
        n1 = sum(v.target_class for v in vectors)
        model = fit(vectors)
        assert model.priors[1] == pytest.approx((n1 + 1) / 12)
        assert sum(model.priors) == pytest.approx(1.0)

    def test_single_class_unfittable(self):
        vectors = [
            make_vector(i, [0.5, 2, 0.5, 1, 0.0, 0.5, 100], [], 1) for i in range(4)
        ]
        with pytest.raises(UnfittableModelError):
            fit(vectors)

    def test_unknown_feature_rejected(self):
        rng = random.Random(2)
        with pytest.raises(DataError):
            fit(random_vectors(rng, 6), features=("normalized_length", "bogus"))
        with pytest.raises(DataError):
            fit(random_vectors(rng, 6), features=())

    def test_unlabeled_vector_rejected(self):
        rng = random.Random(3)
        vectors = random_vectors(rng, 6)
        vectors[2] = vectors[2].without_class()
        with pytest.raises(DataError):
            fit(vectors)

    def test_variance_floor_applied(self):
        # constant columns: the model stores the data's variance, 0.0, and
        # scores with the floored one
        vectors = [
            make_vector(i, [0.5, 2, 0.5, 1, 0.0, 0.5, 100], [], i % 2)
            for i in range(6)
        ]
        model = fit(vectors)
        assert model.scalar_params.keys() == model.scalar_statistics.keys()
        for name, statistics in model.scalar_statistics.items():
            assert [s.variance for s in statistics] == [0.0, 0.0]
            assert [p.variance for p in model.scalar_params[name]] == [VARIANCE_FLOOR] * 2
            assert ([p.mean for p in model.scalar_params[name]]
                    == [s.mean for s in statistics])

    def test_one_vector_class_stores_zero_variance(self):
        vectors = random_vectors(random.Random(16), 6)
        vectors = [v for v in vectors if v.target_class == 0] + vectors[1:2]
        model = fit(vectors)
        assert model.class_sizes[1] == 1
        for name, (_, statistics) in model.scalar_statistics.items():
            assert statistics == (float(getattr(vectors[-1], name)), 0.0)
            assert model.scalar_params[name][1].variance == VARIANCE_FLOOR
        for tri, (_, p1) in model.trigram_params.items():
            assert p1 == (float(tri in vectors[-1].unique_ngrams), VARIANCE_FLOOR)

    def test_trigram_dims_are_training_union(self):
        rng = random.Random(4)
        vectors = random_vectors(rng, 12)
        model = fit(vectors)
        union = set()
        for v in vectors:
            union.update(v.unique_ngrams)
        assert set(model.trigram_dims) == union
        assert list(model.trigram_dims) == sorted(model.trigram_dims)

    def test_feature_subset_drops_dimensions(self):
        rng = random.Random(5)
        vectors = random_vectors(rng, 12)
        model = fit(vectors, features=("normalized_length", "present_age"))
        assert set(model.scalar_params) == {"normalized_length", "present_age"}
        assert model.trigram_dims == ()

    def test_permutation_gives_identical_parameters(self):
        rng = random.Random(6)
        vectors = random_vectors(rng, 20)
        reference = fit(vectors)
        for seed in range(5):
            shuffled = vectors[:]
            random.Random(seed).shuffle(shuffled)
            model = fit(shuffled)
            assert model.priors == reference.priors
            assert model.scalar_statistics == reference.scalar_statistics
            assert model.scalar_params == reference.scalar_params
            assert model.trigram_params == reference.trigram_params


class TestScoring:
    def test_probability_in_unit_interval(self):
        rng = random.Random(7)
        vectors = random_vectors(rng, 15)
        model = fit(vectors)
        for v in vectors:
            assert 0.0 <= win_probability(model, v) <= 1.0

    def test_log_odds_sign_matches_probability(self):
        rng = random.Random(8)
        vectors = random_vectors(rng, 15)
        model = fit(vectors)
        for v in vectors:
            p = win_probability(model, v)
            odds = win_log_odds(model, v)
            if p not in (0.0, 1.0):
                assert (odds > 0) == (p > 0.5) or p == 0.5

    def test_log_odds_orders_like_probability(self):
        rng = random.Random(9)
        vectors = random_vectors(rng, 15)
        model = fit(vectors)
        by_odds = sorted(vectors, key=lambda v: win_log_odds(model, v))
        probs = [win_probability(model, v) for v in by_odds]
        assert probs == sorted(probs)

    def test_unseen_test_trigram_is_ignored(self):
        rng = random.Random(10)
        vectors = random_vectors(rng, 12)
        model = fit(vectors)
        base = vectors[0]
        spiked = FeatureVector(
            sense=base.sense, synset_id=base.synset_id,
            normalized_length=base.normalized_length,
            syllable_count=base.syllable_count,
            unique_ngrams=base.unique_ngrams + ("zzz",),
            shared_ngrams=base.shared_ngrams,
            categorial_variations=base.categorial_variations,
            relative_growth=base.relative_growth,
            linear_extrapolation=base.linear_extrapolation,
            present_age=base.present_age,
            target_class=base.target_class,
        )
        assert win_probability(model, spiked) == win_probability(model, base)


class TestAgainstBruteForce:
    def test_thousand_random_cases(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(4, 20)
            vectors = random_vectors(rng, n)
            subset = rng.sample(
                SCALAR_FEATURES, rng.randint(1, 4)
            ) + (["unique_ngrams"] if rng.random() < 0.7 else [])
            model = fit(vectors, features=tuple(subset))
            for _ in range(10):
                query = random_vectors(rng, 1)[0]
                expected = brute_force_probability(vectors, subset, query)
                assert win_probability(model, query) == pytest.approx(
                    expected, abs=1e-9
                )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_random_seeds(self, seed):
        rng = random.Random(seed)
        vectors = random_vectors(rng, rng.randint(4, 12))
        model = fit(vectors)
        query = random_vectors(rng, 1)[0]
        expected = brute_force_probability(vectors, list(model.features), query)
        assert win_probability(model, query) == pytest.approx(expected, abs=1e-9)


class TestSerialization:
    def test_roundtrip_preserves_scores(self, tmp_path):
        rng = random.Random(11)
        vectors = random_vectors(rng, 16)
        model = fit(vectors)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        assert loaded.priors == model.priors
        assert loaded.trigram_dims == model.trigram_dims
        assert loaded.trigram_params == model.trigram_params
        for v in vectors:
            assert win_probability(loaded, v) == win_probability(model, v)

    def test_file_stores_counts(self, tmp_path):
        model = fit(random_vectors(random.Random(15), 10))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        obj = json.loads(path.read_text())
        assert set(obj) == {"features", "class_sizes", "scalar_features",
                            "trigram_ones"}
        assert "sample_count" not in path.read_text()
        assert obj["class_sizes"] == list(model.class_sizes)
        n0, n1 = model.class_sizes
        for tri, ones in obj["trigram_ones"].items():
            assert model.trigram_params[tri][0].mean == ones[0] / n0
            assert model.trigram_params[tri][1].mean == ones[1] / n1

    def test_double_save_is_byte_identical(self, tmp_path):
        rng = random.Random(12)
        model = fit(random_vectors(rng, 10))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(model, str(a))
        save_model(model, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestModelFeatureAgreement:
    """load_model rejects a file whose feature keys disagree."""

    @staticmethod
    def edited_model(tmp_path, edit, features=None):
        model = fit(random_vectors(random.Random(14), 12),
                    **({"features": features} if features else {}))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return str(path)

    def test_unknown_feature_named(self, tmp_path):
        def edit(obj):
            obj["features"].append("bogus")
        path = self.edited_model(tmp_path, edit)
        with pytest.raises(DataError, match=r"key 'features' names unknown "
                                            r"features \['bogus'\]"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["scalar_features"].pop("present_age"),
        lambda obj: obj["features"].remove("present_age"),
    ], ids=["scalar_params_missing", "scalar_params_unlisted"])
    def test_scalar_features_match_features(self, tmp_path, edit):
        path = self.edited_model(tmp_path, edit)
        with pytest.raises(DataError, match="keys 'features' and "
                                            "'scalar_features' name different"):
            load_model(path)

    def test_trigrams_need_unique_ngrams(self, tmp_path):
        def edit(obj):
            obj["features"].remove("unique_ngrams")
        path = self.edited_model(tmp_path, edit)
        with pytest.raises(DataError, match="key 'trigram_ones' must be empty"):
            load_model(path)

    def test_feature_subsets_round_trip(self, tmp_path):
        for features in (("present_age",), ("unique_ngrams",),
                         ("unique_ngrams", "relative_growth")):
            path = self.edited_model(tmp_path, lambda obj: None, features)
            assert load_model(path).features == features


class TestModelFileFuzz:
    """load_model on a model file with one line or value replaced."""

    @staticmethod
    def model_lines():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_model(fit(random_vectors(random.Random(13), 8)), path)
            with open(path, encoding="utf-8") as handle:
                return handle.read().splitlines()

    @settings(max_examples=300, deadline=None)
    @example(2, False, "true,")  # a class size
    @example(3, False, "0")  # a class size
    @example(18, True, "1e999")  # a mean
    @example(6, False, "[1],")  # a feature name
    @example(102, False, "4")  # a count of ones, above its class size
    @example(7, False, '"normalized_length",')
    @given(st.integers(0, 10_000), st.booleans(),
           st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                   max_size=12))
    def test_fuzzed_value_loads_or_names_its_key(self, index, value_only, text):
        # the model file either loads or raises DataError naming the file
        # and the key (or, for text that is not JSON, the line)
        lines = self.model_lines()
        index %= len(lines)
        head, colon, value = lines[index].partition(": ")
        if value_only and colon:
            comma = "," if value.endswith(",") else ""
            lines[index] = f"{head}: {text}{comma}"
        else:
            lines[index] = text
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            try:
                load_model(path)
            except DataError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: ")
                assert "key '" in message or "keys '" in message or " line " in message


def exact_sum(floats):
    """The exact sum of floats, as a Fraction."""
    return sum(map(Fraction, floats), Fraction(0))


def floored_variance_case():
    """(training vectors, query) where the query's trigram terms are about
    -5e8.

    "|aa" occurs in every winner and no loser, "|bb" the reverse, so all
    four of their variances sit on the floor and a word with both gets a
    term of about -5e8 in each class; the classes then differ by well
    under one, where left-to-right summation is off by 1e-8.
    """
    train = [
        make_vector(i, [0.3 + 0.1 * i, 1 + i % 3, 0.2 + 0.05 * i, i % 4,
                        0.1 * i - 0.2, 0.5 + 0.1 * i, 100 + 10 * i],
                    ["|aa" if i % 2 else "|bb"] + (["abc"] if i % 3 == 0 else []),
                    i % 2)
        for i in range(6)
    ]
    query = make_vector(99, [0.555, 2, 0.35, 1, 0.05, 0.75, 125],
                        ["|aa", "|bb", "abc"], None)
    return train, query


class TestFeatureSubsets:
    """A subset's log odds from the full model's feature terms is the log
    odds of the model fitted on that subset alone, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000),
           st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, unique=True))
    def test_subset_of_full_fit_is_subset_fit(self, seed, subset):
        rng = random.Random(seed)
        vectors = random_vectors(rng, rng.randint(4, 12))
        full, alone = fit(vectors), fit(vectors, features=tuple(subset))
        for query in vectors[:3] + random_vectors(rng, 3):
            assert (subset_log_odds(full, feature_terms(full, query), subset)
                    == win_log_odds(alone, query))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_terms_are_the_dense_terms(self, seed):
        # the precomputed constants give gaussian_log_pdf's floats, and the
        # trigram terms sum exactly (not merely after rounding) to the dense
        # per-dimension terms
        rng = random.Random(seed)
        vectors = random_vectors(rng, rng.randint(4, 12))
        model = fit(vectors)
        for query in vectors[:3] + random_vectors(rng, 3):
            terms = feature_terms(model, query)
            for name, (p0, p1) in model.scalar_params.items():
                x = float(getattr(query, name))
                assert terms[name] == (gaussian_log_pdf(p1, x),
                                       -gaussian_log_pdf(p0, x))
            dense = []
            for tri, (p0, p1) in model.trigram_params.items():
                x = 1.0 if tri in query.unique_ngrams else 0.0
                dense += [gaussian_log_pdf(p1, x), -gaussian_log_pdf(p0, x)]
            assert exact_sum(terms["unique_ngrams"]) == exact_sum(dense)

    def test_every_subset_of_floored_variance_case(self):
        train, query = floored_variance_case()
        full = fit(train)
        terms = feature_terms(full, query)
        assert min(terms["unique_ngrams"]) < -4e8
        for size in range(1, len(FEATURE_NAMES) + 1):
            for subset in itertools.combinations(FEATURE_NAMES, size):
                assert (subset_log_odds(full, terms, subset)
                        == win_log_odds(fit(train, features=subset), query))


class TestSparseScoring:
    def test_pinned_floored_variance_case(self):
        train, query = floored_variance_case()
        model = fit(train)
        for tri, c in (("|aa", 0), ("|bb", 1)):
            assert model.trigram_params[tri][c].variance == VARIANCE_FLOOR
            assert gaussian_log_pdf(model.trigram_params[tri][c], 1.0) < -4e8
        p = win_probability(model, query)
        assert 0.4 < p < 0.6
        expected = brute_force_probability(train, list(model.features), query)
        assert p == pytest.approx(expected, abs=1e-9)
        # the log odds is the correctly rounded exact difference of the
        # model's dense terms, not a difference of two rounded class scores
        dense = [math.log(model.priors[1]), -math.log(model.priors[0])]
        for name in SCALAR_FEATURES:
            params, x = model.scalar_params[name], float(getattr(query, name))
            dense += [gaussian_log_pdf(params[1], x), -gaussian_log_pdf(params[0], x)]
        for tri in model.trigram_dims:
            params = model.trigram_params[tri]
            x = 1.0 if tri in query.unique_ngrams else 0.0
            dense += [gaussian_log_pdf(params[1], x), -gaussian_log_pdf(params[0], x)]
        assert win_log_odds(model, query) == math.fsum(dense) == 0.012499999999999512

    @pytest.mark.parametrize("dims", [5, 5000])
    def test_score_cost_ignores_absent_trigrams(self, dims, monkeypatch):
        import lexevo.model as model_mod

        pool = [f"{i:04d}" for i in range(dims)]
        vectors = [
            v._replace(unique_ngrams=tuple(pool[i::10]))
            for i, v in enumerate(random_vectors(random.Random(dims), 10))
        ]
        model = fit(vectors)
        assert len(model.trigram_dims) == dims
        query = make_vector(99, [0.5, 2, 0.5, 1, 0.0, 0.5, 100],
                            ["0001", "0003", "unseen"], None)

        calls, summed = [], []
        original, original_fsum = model_mod.gaussian_log_pdf, math.fsum

        def counted(params, x):
            calls.append(x)
            return original(params, x)

        def recorded_fsum(terms):
            terms = list(terms)
            summed.append(len(terms))
            return original_fsum(terms)

        # the model derived every constant scoring reads when it was built:
        # no density is evaluated and no part folded at score time
        monkeypatch.setattr(model_mod, "gaussian_log_pdf", counted)
        monkeypatch.setattr(math, "fsum", recorded_fsum)
        win_log_odds(model, query)
        terms = feature_terms(model, query)
        assert calls == []
        # one fsum of the base parts, two terms per scalar dimension and
        # the folded parts of each trained trigram of the word, whatever
        # the dims; feature_terms keeps the priors apart
        word = model._trigram_parts["0001"] + model._trigram_parts["0003"]
        assert len(model._base_parts) <= 2 and len(model._absent_parts) <= 2
        assert all(len(parts) <= 4 for parts in model._trigram_parts.values())
        assert summed == [len(model._base_parts) + 2 * len(model.scalar_params)
                          + len(word)]
        absent = len(model._absent_parts)
        assert terms["unique_ngrams"][:absent] == model._absent_parts
        assert sorted(terms["unique_ngrams"][absent:]) == sorted(word)
        assert (sum(map(len, terms.values()))
                == 2 * len(model.scalar_params) + absent + len(word))

    @given(st.integers(1, 6), st.integers(1, 6), st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40))
    def test_shared_count_pairs_match_per_dim_constants(self, n0, n1, pairs):
        # few distinct count pairs, so that many trigrams share one
        trigram_ones = {f"t{i:02d}": (min(k0, n0), min(k1, n1))
                        for i, (k0, k1) in enumerate(pairs)}
        model = NaiveBayesModel(("unique_ngrams",), (n0, n1), {}, trigram_ones)
        params, parts, absent = {}, {}, []
        for tri in sorted(trigram_ones):
            p0, p1 = params[tri] = tuple(
                _gaussian(_binary_statistics(ones, n))
                for ones, n in zip(trigram_ones[tri], (n0, n1)))
            zero0, zero1 = gaussian_log_pdf(p0, 0.0), gaussian_log_pdf(p1, 0.0)
            parts[tri] = _exact_parts((gaussian_log_pdf(p1, 1.0), -zero1,
                                       -gaussian_log_pdf(p0, 1.0), zero0))
            absent += [zero1, -zero0]
        assert model.trigram_params == params
        assert list(model.trigram_params) == list(params)
        assert model._trigram_parts == parts
        assert model._absent_parts == _exact_parts(absent)
        assert model._base_parts == _exact_parts(
            [math.log(model.priors[1]), -math.log(model.priors[0])] + absent)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 8), st.integers(1, 8),
           st.lists(st.sampled_from(SCALAR_FEATURES), max_size=1),
           st.booleans())
    def test_folded_parts_sum_exactly_to_their_terms(self, data, n0, n1, scalars,
                                                     trigrams):
        # each trigram's folded parts, the absent parts and the base parts
        # are a few floats whose exact sum is that of the terms they
        # replace; counts of 0 or of the class size put a variance on the
        # floor, where terms reach about 5e8; models of no or one scalar
        features = tuple(scalars) + (("unique_ngrams",) if trigrams or not scalars else ())
        counts = st.tuples(st.sampled_from((0, n0, n0 // 2)) | st.integers(0, n0),
                           st.sampled_from((0, n1, n1 // 2)) | st.integers(0, n1))
        trigram_ones = {f"t{i:02d}": ones for i, ones in enumerate(
            data.draw(st.lists(counts, max_size=12)))} if "unique_ngrams" in features else {}
        # stored variances from 0.0 up, as fit stores the data's, on both
        # sides of the floor
        statistics = st.builds(GaussianParams, st.floats(-1e3, 1e3),
                               st.sampled_from((0.0, 1e-300, VARIANCE_FLOOR))
                               | st.floats(0.0, 1e6))
        scalar_statistics = {name: data.draw(st.tuples(statistics, statistics))
                             for name in scalars}
        model = NaiveBayesModel(features, (n0, n1), scalar_statistics, trigram_ones)
        for name, pair in scalar_statistics.items():
            assert model.scalar_params[name] == tuple(
                GaussianParams(s.mean, max(s.variance, VARIANCE_FLOOR)) for s in pair)

        priors = [math.log(model.priors[1]), -math.log(model.priors[0])]
        absent = []
        for tri, (p0, p1) in model.trigram_params.items():
            zero0, zero1 = gaussian_log_pdf(p0, 0.0), gaussian_log_pdf(p1, 0.0)
            assert exact_sum(model._trigram_parts[tri]) == exact_sum(
                [gaussian_log_pdf(p1, 1.0), -zero1, -gaussian_log_pdf(p0, 1.0), zero0])
            absent += [zero1, -zero0]
        assert exact_sum(model._absent_parts) == exact_sum(absent)
        assert exact_sum(model._base_parts) == exact_sum(priors + absent)
        for parts in (model._base_parts, model._absent_parts,
                      *model._trigram_parts.values()):
            # nonzero, finite, and led by the correctly rounded sum
            assert all(part != 0.0 and math.isfinite(part) for part in parts)
            assert not parts or math.fsum(parts) == parts[0]

        # so scoring gives the correctly rounded sum of the dense terms; a
        # trigram the word repeats counts once, as in fit
        own = data.draw(st.lists(st.sampled_from(sorted(trigram_ones) or ["t00"]),
                                 unique=True))
        query = make_vector(99, [data.draw(st.floats(-1e3, 1e3))] * 7,
                            own + own[:1] + ["unseen"], None)
        dense = list(priors)
        for name, (p0, p1) in model.scalar_params.items():
            x = float(getattr(query, name))
            dense += [gaussian_log_pdf(p1, x), -gaussian_log_pdf(p0, x)]
        for tri, (p0, p1) in model.trigram_params.items():
            x = 1.0 if tri in own else 0.0
            dense += [gaussian_log_pdf(p1, x), -gaussian_log_pdf(p0, x)]
        terms = feature_terms(model, query)
        assert set(terms) == set(features)
        assert exact_sum(priors) + sum(map(exact_sum, terms.values())) == exact_sum(dense)
        assert (win_log_odds(model, query) == subset_log_odds(model, terms, features)
                == math.fsum(dense))

    def test_absent_sum_cache_is_private(self, tmp_path):
        rng = random.Random(13)
        vectors = random_vectors(rng, 12)
        scored = fit(vectors)
        fresh = fit(vectors)
        win_probability(scored, vectors[0])
        assert scored == fresh
        assert repr(scored) == repr(fresh)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(scored, str(a))
        save_model(fresh, str(b))
        assert a.read_bytes() == b.read_bytes()

import io
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lexevo.dataset import (Dataset, MemberCounts, TimeWindow, build_dataset,
                            schedule_windows)
from lexevo.errors import DataError
from lexevo.experiments import (AblationSpec, load_pipeline_inputs, prepare_window,
                                run_ablations, run_cycle_sweep)
from lexevo.features import (
    FEATURE_NAMES,
    SCALAR_FEATURES,
    FeatureVector,
    boundary_trigrams,
    extract_features,
    load_syllable_exceptions,
    read_feature_vectors,
    syllable_count,
    word_shapes,
    write_feature_vectors,
)
from lexevo.lexicon import CatVarClusters, SenseId, Synset, load_lexicon
from lexevo.model import GaussianParams
from tests.conftest import bundle_paths, count_period_calls, snapshot_of

LEMMA = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=12)


def snapshot_for(counts_by_lemma, pos="a"):
    lemmas = list(counts_by_lemma)
    text = f"x1\t{pos}\t" + ",".join(lemmas) + "\n"
    synset = load_lexicon(io.StringIO(text)).synsets[0]
    counts = {
        m: MemberCounts(*counts_by_lemma[m.lemma]) for m in synset.members
    }
    return snapshot_of(synset, counts)


class TestBoundaryTrigrams:
    def test_ecstatic(self):
        assert boundary_trigrams("ecstatic") == (
            "|ec", "ecs", "cst", "sta", "tat", "ati", "tic", "ic|",
        )

    def test_three_letter_word(self):
        assert boundary_trigrams("cat") == ("|ca", "cat", "at|")

    def test_repeats_deduplicated(self):
        tris = boundary_trigrams("banana")
        assert len(tris) == len(set(tris))
        assert "ana" in tris

    @given(LEMMA)
    def test_count_bound(self, lemma):
        tris = boundary_trigrams(lemma)
        assert 1 <= len(tris) <= len(lemma)
        assert all(len(t) == 3 for t in tris)


def trigram_split(lemma, synset_lemmas):
    """(unique trigrams, shared fraction) of lemma in a synset of
    synset_lemmas, as word_shapes splits them."""
    synset = Synset("x1", "a", tuple(SenseId(m, "a", 1) for m in synset_lemmas))
    return word_shapes([synset])[SenseId(lemma, "a", 1)][2:]


class TestPartitionTrigrams:
    def test_disjoint_words_share_nothing(self):
        unique, shared = trigram_split("abc", ["abc", "xyz"])
        assert unique == boundary_trigrams("abc")
        assert shared == 0.0

    def test_identical_twin_shares_everything(self):
        unique, shared = trigram_split("abcd", ["abcd", "abcde"])
        assert shared > 0.0
        assert "|ab" not in unique

    def test_shared_fraction_accounting(self):
        # ecstatic shares only ic| (with rhapsodic): 1 of 8 trigrams
        unique, shared = trigram_split(
            "ecstatic", ["rapturous", "ecstatic", "rapt", "enraptured", "rhapsodic"]
        )
        assert shared == pytest.approx(0.125, abs=1e-9)
        assert "ic|" not in unique
        assert unique == ("|ec", "ecs", "cst", "sta", "tat", "ati", "tic")

    @given(LEMMA, st.lists(LEMMA, min_size=1, max_size=4))
    def test_fraction_consistent_with_partition(self, lemma, others):
        unique, shared = trigram_split(lemma, [lemma] + others)
        own = boundary_trigrams(lemma)
        assert shared == pytest.approx((len(own) - len(unique)) / len(own))
        assert set(unique) <= set(own)


def oracle_syllable_count(lemma):
    """syllable_count without exceptions, one character at a time: the
    groups of consecutive vowels, where y is a vowel between two
    non-vowels or after one at the end, less a silent final e."""
    vowels = "aeiou"

    def is_vowel_at(i):
        ch = lemma[i]
        if ch in vowels:
            return True
        if ch != "y" or i == 0:
            return False
        if lemma[i - 1] in vowels:
            return False
        if i + 1 < len(lemma) and lemma[i + 1] in vowels:
            return False
        return True

    groups = 0
    in_group = False
    for i in range(len(lemma)):
        if is_vowel_at(i):
            if not in_group:
                groups += 1
            in_group = True
        else:
            in_group = False
    if (
        lemma.endswith("e")
        and (len(lemma) < 2 or not is_vowel_at(len(lemma) - 2))
        and not (
            lemma.endswith("le")
            and len(lemma) >= 3
            and not is_vowel_at(len(lemma) - 3)
        )
    ):
        groups -= 1
    return max(groups, 1)


def oracle_word_shapes(synsets, exceptions):
    """word_shapes by its definition, with the oracle syllable count."""
    shapes = {}
    for synset in synsets:
        trigrams = {lemma: boundary_trigrams(lemma) for lemma in synset.lemmas()}
        max_len = max(len(lemma) for lemma in trigrams)
        for member in synset.members:
            own = trigrams[member.lemma]
            unique = tuple(tri for tri in own
                           if not any(tri in trigrams[other] for other in trigrams
                                      if other != member.lemma))
            syllables = exceptions.get(member.lemma) or oracle_syllable_count(member.lemma)
            shapes[member] = (len(member.lemma) / max_len, syllables, unique,
                              (len(own) - len(unique)) / len(own))
    return shapes


class TestSyllableCount:
    @pytest.mark.parametrize("lemma,expected", [
        ("cat", 1),
        ("rapturous", 3),
        ("ecstatic", 3),
        ("rhapsodic", 3),
        ("enraptured", 4),  # heuristic counts the 'ed' vowel group
        ("rapt", 1),
        ("table", 2),      # consonant + le keeps the final syllable
        ("rate", 1),       # terminal silent e
        ("idea", 2),       # 'ea' is one vowel group; the override table exists for these
        ("rhythm", 1),     # floor, no plain vowels
        ("happy", 2),      # terminal y is vocalic
        ("yellow", 2),     # initial y is not
    ])
    def test_cases(self, lemma, expected):
        assert syllable_count(lemma) == expected

    def test_exception_table_wins(self):
        assert syllable_count("rapt", {"rapt": 2}) == 2

    # runs of y among vowels, consonants and the trigram boundary bar, and
    # any text at all, non-ASCII letters and capitals included
    @settings(max_examples=500)
    @given(st.text(alphabet="yyyaeiouélbt|", max_size=12)
           | st.text(max_size=12)
           | st.text(alphabet="yeYÿ|", max_size=8))
    def test_matches_the_per_character_oracle(self, lemma):
        assert syllable_count(lemma) == oracle_syllable_count(lemma)

    @pytest.mark.parametrize("lemma", [
        "", "y", "yy", "yyy", "ye", "ey", "aye", "yay", "syzygy", "ryye", "tyle",
        "ble", "le", "e", "|y|", "by|", "|ye", "naïve", "café", "ÿy", "yé",
        "rhythm\ny",
    ])
    def test_matches_the_oracle_at_the_edges(self, lemma):
        assert syllable_count(lemma) == oracle_syllable_count(lemma)

    @given(LEMMA)
    def test_always_at_least_one(self, lemma):
        assert syllable_count(lemma) >= 1

    def test_load_exceptions(self):
        table = load_syllable_exceptions(io.StringIO("# note\nevery\t2\n"))
        assert table == {"every": 2}

    def test_bad_exception_row(self):
        with pytest.raises(DataError):
            load_syllable_exceptions(io.StringIO("only_one_column\n"))

    def test_non_integer_count_names_line(self):
        with pytest.raises(DataError, match="line 2: expected lemma<TAB>integer count"):
            load_syllable_exceptions(io.StringIO("every\t2\nrapt\tx\n"))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_names_line(self, count):
        # syllable_count never returns less than 1, so neither may an override
        with pytest.raises(DataError, match=f"line 2: syllable count of 'rapt' must be "
                                            f"at least 1, got {count}"):
            load_syllable_exceptions(io.StringIO(f"every\t2\nrapt\t{count}\n"))

    def test_repeated_lemma_names_line(self):
        # the last count would otherwise win silently
        with pytest.raises(DataError, match="line 3: repeated lemma 'rapt'"):
            load_syllable_exceptions(io.StringIO("rapt\t2\nevery\t2\nrapt\t5\n"))


class TestRelativeFrequencies:
    """f1 and f2, a member's past and present count over its synset's
    totals, as extract_features writes them: relative_growth is f2 - f1
    and linear_extrapolation 2 f2 - f1."""

    def growths(self, snap):
        vectors = extract_features(Dataset(WINDOW, [snap]), word_shapes([snap.synset]),
                                   NO_CLUSTERS, {m.corpus_key(): 1800 for m in snap.counts})
        return {v.sense: (v.relative_growth, v.linear_extrapolation) for v in vectors}

    def test_sums_to_one(self):
        snap = snapshot_for({"one": (3, 6, 2), "two": (1, 2, 8)})
        got = self.growths(snap)
        for sense, c in snap.counts.items():
            f1, f2 = c.past / 4, c.present / 8
            assert got[sense] == (f2 - f1, 2.0 * f2 - f1)
        # f1 and f2 each sum to one over the synset
        assert sum(growth for growth, _ in got.values()) == pytest.approx(0.0)
        assert sum(line for _, line in got.values()) == pytest.approx(1.0)

    def test_zero_past_total(self):
        snap = snapshot_for({"one": (0, 6, 2), "two": (0, 2, 8)})
        got = self.growths(snap)
        # f1 is 0 for every member
        assert got == {sense: (c.present / 8, 2.0 * (c.present / 8))
                       for sense, c in snap.counts.items()}

    def test_zero_present_total_rejected(self):
        synset = load_lexicon(io.StringIO("x1\ta\tone,two\n")).synsets[0]
        counts = {m: MemberCounts(1, 0, 1) for m in synset.members}
        with pytest.raises(DataError, match="zero present total"):
            self.growths(snapshot_of(synset, counts))


WINDOW = TimeWindow(1850, 1900, 1950)
NO_CLUSTERS = CatVarClusters([])


class TestMakeFeatureVector:
    """Vectors made by extract_features from a dataset of one snapshot."""

    def births_for(self, snap, year=1800):
        return {member.corpus_key(): year for member in snap.counts}

    def vectors(self, snap, births):
        """The snapshot's vectors by member."""
        vectors = extract_features(Dataset(WINDOW, [snap]), word_shapes([snap.synset]),
                                   NO_CLUSTERS, births)
        return {v.sense: v for v in vectors}

    def test_basic_values(self):
        snap = snapshot_for({"longword": (2, 6, 2), "tiny": (2, 2, 8)})
        births = self.births_for(snap)
        v = self.vectors(snap, births)[snap.synset.members[1]]
        assert v.normalized_length == pytest.approx(4 / 8)
        assert v.present_age == 100
        # f1 = 0.5, f2 = 0.25
        assert v.relative_growth == pytest.approx(-0.25)
        assert v.linear_extrapolation == pytest.approx(0.0)
        assert v.target_class == 1  # tiny leads in the future

    def test_extrapolation_unclamped(self):
        snap = snapshot_for({"one": (9, 1, 1), "two": (1, 9, 9)})
        births = self.births_for(snap)
        v = self.vectors(snap, births)[snap.synset.members[0]]
        # f1 = 0.9, f2 = 0.1 so 2 f2 - f1 goes negative
        assert v.linear_extrapolation == pytest.approx(-0.7)

    def test_missing_birth_fatal(self):
        snap = snapshot_for({"one": (1, 2, 3), "two": (3, 2, 1)})
        with pytest.raises(DataError):
            self.vectors(snap, {})

    def test_exactly_one_positive_class_per_snapshot(self):
        snap = snapshot_for({"one": (1, 2, 9), "two": (3, 3, 1), "six": (2, 2, 2)})
        vectors = self.vectors(snap, self.births_for(snap))
        assert len(vectors) == 3
        assert sum(v.target_class for v in vectors.values()) == 1


class TestWordShapes:
    def test_values(self):
        synset = snapshot_for({"longword": (2, 6, 2), "tiny": (2, 2, 8)}).synset
        shapes = word_shapes([synset], {"tiny": 5})
        longword, tiny = synset.members
        # the two lemmas share no trigram
        assert shapes[tiny] == (4 / 8, 5, boundary_trigrams("tiny"), 0.0)
        assert shapes[longword] == (1.0, syllable_count("longword"),
                                    boundary_trigrams("longword"), 0.0)

    @pytest.mark.parametrize("name", ["rapture", "synthetic"])
    def test_fixture_tables_match_the_oracle(self, name):
        paths = bundle_paths(name)
        with open(paths["lexicon"], encoding="utf-8") as handle:
            synsets = load_lexicon(handle).synsets
        with open(paths["syllables"], encoding="utf-8") as handle:
            exceptions = load_syllable_exceptions(handle)
        assert word_shapes(synsets, exceptions) == oracle_word_shapes(synsets, exceptions)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text("abn", min_size=1, max_size=9), min_size=2, max_size=4,
                    unique=True))
    def test_unique_trigrams_are_distinct(self, lemmas):
        # lemmas of few letters repeat trigrams ("banana"); extract_features
        # copies these tuples, and the model counts each listed trigram
        lexicon = load_lexicon(io.StringIO(f"x1\tn\t{','.join(lemmas)}\n"))
        for _, _, unique, _ in word_shapes(lexicon.synsets).values():
            assert len(set(unique)) == len(unique)

    def test_keyed_by_sense(self):
        # the two senses of 'rapt' get their own synset's shapes
        lexicon = load_lexicon(io.StringIO("x1\ta\trapt,enrapt\nx2\ta\trapt,ok\n"))
        shapes = word_shapes(lexicon.synsets)
        first, second = (synset.members[0] for synset in lexicon.synsets)
        assert (first, second) == (SenseId("rapt", "a", 1), SenseId("rapt", "a", 2))
        assert shapes[first] == (4 / 6, 1, ("|ra",), 3 / 4)
        assert shapes[second] == (1.0, 1, boundary_trigrams("rapt"), 0.0)


def load_synthetic_inputs():
    paths = bundle_paths("synthetic")
    inputs, _, _ = load_pipeline_inputs([paths["corpus"]], paths["lexicon"],
                                        paths["catvar"], paths["syllables"])
    return inputs


def count_trigram_calls(monkeypatch):
    """Patch features.boundary_trigrams to record every lemma it splits."""
    import lexevo.features as features_mod

    calls = []
    original = features_mod.boundary_trigrams

    def counted(lemma):
        calls.append(lemma)
        return original(lemma)

    monkeypatch.setattr(features_mod, "boundary_trigrams", counted)
    return calls


class TestExtractFeatures:
    def test_trigrams_once_per_member(self, monkeypatch):
        # 14 windows in the sweep and 2 in the ablations share one table
        calls = count_trigram_calls(monkeypatch)
        inputs = load_synthetic_inputs()
        train_window, test_window = schedule_windows(50)[1]
        run_cycle_sweep([30, 40, 50, 60], inputs)
        run_ablations([AblationSpec("drop_one", f) for f in FEATURE_NAMES],
                      train_window, test_window, inputs)
        assert sorted(calls) == sorted(m.lemma for s in inputs.synsets
                                       for m in s.members)

    def test_each_load_starts_cold(self, monkeypatch):
        calls = count_trigram_calls(monkeypatch)
        period_calls = count_period_calls(monkeypatch)
        window = schedule_windows(50)[1][0]
        first = load_synthetic_inputs()
        kept = prepare_window(window, first)
        members = len(calls)
        assert members == sum(len(s.members) for s in first.synsets)
        # the window keeps a synset, so its three years are summed per key
        # that its synsets read
        summed = len(period_calls)
        assert summed == 3 * len({key for s in first.synsets for key in s.corpus_keys})
        # first's table keeps its years: a rebuild sums nothing
        assert build_dataset(first.synsets, first.corpus, window) == kept[0]
        assert len(period_calls) == summed
        second = load_synthetic_inputs()
        assert "word_shapes" not in vars(second)
        assert not second._prepared
        assert not second.corpus._periods
        fresh = prepare_window(window, second)
        assert len(period_calls) == 2 * summed
        # first keeps its window: the same dataset and the same read-only
        # vectors, while second prepared its own
        again = prepare_window(window, first)
        assert again is kept
        assert isinstance(kept[1], tuple)
        assert fresh[0] is not kept[0] and fresh[1] == kept[1]
        assert len(calls) == 2 * members
        assert second.word_shapes == first.word_shapes

    def test_word_shapes_computed_once_out_of_eq_and_repr(self, monkeypatch):
        calls = count_trigram_calls(monkeypatch)
        inputs = load_synthetic_inputs()
        fresh = replace(inputs)
        assert "word_shapes" not in vars(inputs)
        shapes = inputs.word_shapes
        assert inputs.word_shapes is shapes
        assert len(calls) == sum(len(s.members) for s in inputs.synsets)
        # kept in the instance __dict__, and no field
        assert vars(inputs)["word_shapes"] is shapes
        assert inputs == fresh and repr(inputs) == repr(fresh)
        assert "word_shapes" not in vars(fresh)


RAPT = SenseId("rapt", "a", 1)

# one fixed example of each record, with its field values and the repr
# that the frozen dataclasses it replaced gave (error messages show it)
RECORDS = [
    (RAPT, ("rapt", "a", 1), "SenseId(lemma='rapt', pos='a', sense_number=1)"),
    (MemberCounts(5, 9, 2), (5, 9, 2), "MemberCounts(past=5, present=9, future=2)"),
    (FeatureVector(RAPT, "a00001", 0.8, 1, ("|ra", "rap"), 0.25, 2, -0.125, 0.375,
                   300, 1),
     (RAPT, "a00001", 0.8, 1, ("|ra", "rap"), 0.25, 2, -0.125, 0.375, 300, 1),
     "FeatureVector(sense=SenseId(lemma='rapt', pos='a', sense_number=1), "
     "synset_id='a00001', normalized_length=0.8, syllable_count=1, "
     "unique_ngrams=('|ra', 'rap'), shared_ngrams=0.25, categorial_variations=2, "
     "relative_growth=-0.125, linear_extrapolation=0.375, present_age=300, "
     "target_class=1)"),
    (GaussianParams(0.5, 1e-9), (0.5, 1e-9), "GaussianParams(mean=0.5, variance=1e-09)"),
]


class TestRecords:
    """The named-tuple records keep the contract of the frozen dataclasses
    they replaced: fields in order, immutable, and ==, hash, sort order and
    repr over the fields."""

    @pytest.mark.parametrize("record, values, text", RECORDS,
                             ids=lambda x: type(x).__name__)
    def test_contract(self, record, values, text):
        cls = type(record)
        assert tuple(getattr(record, name) for name in cls._fields) == values
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(*values)
        # a frozen dataclass hashed the tuple of its fields, too
        assert hash(record) == hash(cls(*values)) == hash(values)
        assert record != cls(*values[:-1], "other")
        assert repr(record) == text

    def test_sense_sort_order(self):
        senses = [SenseId("rapt", "a", 2), SenseId("rapt", "a", 10),
                  SenseId("rap", "n", 3), SenseId("rapt", "n", 1),
                  SenseId("apt", "v", 1)]
        assert [str(s) for s in sorted(senses)] == [
            "apt#v#1", "rap#n#3", "rapt#a#2", "rapt#a#10", "rapt#n#1"]

    def test_without_class_replaces_only_the_class(self):
        vector = RECORDS[2][0]
        assert vector.without_class() == vector[:-1] + (None,)
        assert vector.target_class == 1

    def test_scalars_read_as_their_annotated_types(self, tmp_path):
        assert {name: FeatureVector.__annotations__[name] for name in SCALAR_FEATURES} == {
            "normalized_length": float, "syllable_count": int, "shared_ngrams": float,
            "categorial_variations": int, "relative_growth": float,
            "linear_extrapolation": float, "present_age": int}
        path = str(tmp_path / "features.tsv")
        vector = RECORDS[2][0]
        write_feature_vectors([vector], path)
        [again] = read_feature_vectors(path)
        assert again == vector
        for name in SCALAR_FEATURES:
            assert type(getattr(again, name)) is FeatureVector.__annotations__[name]


class TestSerialization:
    def make_vectors(self):
        return [
            FeatureVector(
                sense=SenseId("rapt", "a", 1),
                synset_id="a00001",
                normalized_length=0.4,
                syllable_count=1,
                unique_ngrams=("pt|",),
                shared_ngrams=2 / 3,
                categorial_variations=2,
                relative_growth=0.1234567890123,
                linear_extrapolation=-0.25,
                present_age=199,
                target_class=0,
            ),
            FeatureVector(
                sense=SenseId("ecstatic", "a", 1),
                synset_id="a00001",
                normalized_length=0.8,
                syllable_count=3,
                unique_ngrams=("|ec", "ecs", "cst"),
                shared_ngrams=0.0,
                categorial_variations=3,
                relative_growth=0.5,
                linear_extrapolation=1.5,
                present_age=213,
                target_class=None,
            ),
        ]

    def test_roundtrip_exact(self, tmp_path):
        path = str(tmp_path / "features.tsv")
        vectors = self.make_vectors()
        write_feature_vectors(vectors, path)
        assert read_feature_vectors(path) == vectors

    # a distinct value per scalar, as the file writes it
    SCALARS = {"normalized_length": "0.5", "syllable_count": "2",
               "shared_ngrams": "0.25", "categorial_variations": "3",
               "relative_growth": "0.125", "linear_extrapolation": "-0.75",
               "present_age": "4"}

    @pytest.mark.parametrize("order", ["declared", "reversed"])
    def test_each_scalar_under_its_own_column(self, tmp_path, monkeypatch, order):
        # the rows follow SCALAR_FEATURES, whatever its order, and so does
        # the header derived from it
        from lexevo import features

        if order == "reversed":
            scalars = features.SCALAR_FEATURES[::-1]
            monkeypatch.setattr(features, "SCALAR_FEATURES", scalars)
            monkeypatch.setattr(features, "FEATURE_COLUMNS", (
                "synset_id", "sense_id", *scalars, "target_class", "unique_ngrams"))
        assert set(self.SCALARS) == set(features.SCALAR_FEATURES)
        vector = FeatureVector(
            sense=SenseId("rapt", "a", 1), synset_id="a00001", unique_ngrams=("pt|",),
            target_class=1, **{name: (int if text.isdigit() else float)(text)
                               for name, text in self.SCALARS.items()})
        path = tmp_path / "features.tsv"
        write_feature_vectors([vector], str(path))
        header, row = (line.split("\t") for line in path.read_text().splitlines())
        assert header == list(features.FEATURE_COLUMNS)
        assert {name: row[header.index(name)] for name in self.SCALARS} == self.SCALARS
        assert read_feature_vectors(str(path)) == [vector]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("wrong\theader\n")
        with pytest.raises(DataError):
            read_feature_vectors(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda f: f[:2] + ["abc"] + f[3:], "could not convert string to float: 'abc'"),
        (lambda f: f[:-1], "expected 11 tab-separated columns, got 10"),
        (lambda f: f[:2] + ["nan"] + f[3:], "non-finite value 'nan'"),
        (lambda f: f[:9] + ["2"] + f[10:], "target_class must be empty, 0 or 1"),
        (lambda f: f[:1] + ["rapt#q#1"] + f[2:], "bad sense id"),
        (lambda f: f[:2] + ["1e200"] + f[3:], "exceeds the feature magnitude bound"),
        (lambda f: f[:8] + [str(10 ** 200)] + f[9:],
         "exceeds the feature magnitude bound"),
        (lambda f: f[:1] + ["rapt#a#1"] + f[2:], "repeated sense rapt#a#1"),
        # the model counts a word's trigram once, so a file may not list
        # one twice
        (lambda f: f[:-1] + ["tic|,ec,tic|"], "repeated trigram in 'tic|,ec,tic|'"),
    ], ids=["bad_float", "short_row", "nan", "bad_target", "bad_sense",
            "huge_float", "huge_int", "repeated_sense", "repeated_trigram"])
    def test_bad_row_names_file_and_line(self, tmp_path, edit, message):
        path = str(tmp_path / "features.tsv")
        write_feature_vectors(self.make_vectors(), path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[2] = "\t".join(edit(lines[2].split("\t")))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(DataError) as info:
            read_feature_vectors(path)
        assert str(info.value).startswith(f"{path} line 3: ")
        assert message in str(info.value)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 10),
           st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                   max_size=12))
    def test_fuzzed_field_parses_or_names_its_line(self, row, column, text):
        # one field of one row replaced by arbitrary text: the row either
        # parses or is a DataError naming its own line
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "features.tsv")
            write_feature_vectors(self.make_vectors(), path)
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            fields = lines[row + 1].split("\t")
            fields[column] = text
            lines[row + 1] = "\t".join(fields)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            try:
                vectors = read_feature_vectors(path)
            except DataError as exc:
                assert str(exc).startswith(f"{path} line {row + 2}: ")
            else:
                assert len(vectors) == 2

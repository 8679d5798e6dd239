import io
import itertools

import pytest
from hypothesis import example, given, strategies as st

from lexevo.errors import DataError
from lexevo.lexicon import (
    SenseId,
    categorial_variation_count,
    eligible_synsets,
    is_eligible_lemma,
    load_catvar,
    load_lexicon,
)


def lexicon_from(text):
    return load_lexicon(io.StringIO(text))


class TestLoadLexicon:
    def test_five_member_synset(self):
        lex = lexicon_from("a00001\ta\trapturous,ecstatic,rapt,enraptured,rhapsodic\n")
        assert len(lex.synsets) == 1
        assert len(lex.synsets[0].members) == 5
        assert lex.synsets[0].pos == "a"

    def test_sense_count_index(self):
        lex = lexicon_from("a1\ta\tlight,bright\na2\ta\tlight,pale\n")
        assert lex.sense_count[("light", "a")] == 2
        assert lex.sense_count[("bright", "a")] == 1

    def test_empty_file(self):
        lex = lexicon_from("")
        assert lex.synsets == []

    def test_duplicate_synset_id_fatal(self):
        with pytest.raises(DataError):
            lexicon_from("a1\ta\tone,two\na1\ta\tthree,four\n")

    def test_empty_member_list_fatal(self):
        with pytest.raises(DataError):
            lexicon_from("a1\ta\t\n")

    def test_comments_ignored(self):
        lex = lexicon_from("# header\na1\tn\tcat,dog\n")
        assert len(lex.synsets) == 1

    def test_satellite_pos_folds_to_a(self):
        lex = lexicon_from("a1\ts\tnice,fine\n")
        assert lex.synsets[0].pos == "a"


class TestEligibleLemma:
    @pytest.mark.parametrize("lemma,expected", [
        ("rapt", True),
        ("ox", False),
        ("re-enter", False),
        ("Rapt", False),
        ("abc", True),
        ("", False),
    ])
    def test_cases(self, lemma, expected):
        assert is_eligible_lemma(lemma) is expected


class TestEligibleSynsets:
    def test_monosemous_synset_retained(self):
        lex = lexicon_from("a1\ta\trapturous,ecstatic,rapt,enraptured,rhapsodic\n")
        assert len(eligible_synsets(lex)) == 1

    def test_polysemous_member_drops_whole_synset(self):
        lex = lexicon_from("a1\ta\thappy,glad\na2\ta\tglad,pleased\n")
        assert eligible_synsets(lex) == []

    def test_singleton_dropped(self):
        lex = lexicon_from("n1\tn\tpalfrey,horse\nn2\tn\tunicorn\n")
        kept = eligible_synsets(lex)
        assert [s.id for s in kept] == ["n1"]

    def test_all_kept_members_are_monosemous(self):
        lex = lexicon_from("a1\ta\tone,two\na2\ta\tthree,four\na3\ta\tfour,five\n")
        for synset in eligible_synsets(lex):
            for m in synset.members:
                assert lex.sense_count[(m.lemma, m.pos)] == 1

    def test_row_permutation_invariant_as_set(self):
        rows = ["a1\ta\tone,two", "a2\ta\tthree,four", "a3\ta\tfour,five"]
        baseline = None
        for perm in itertools.permutations(rows):
            ids = {s.id for s in eligible_synsets(lexicon_from("\n".join(perm) + "\n"))}
            if baseline is None:
                baseline = ids
            assert ids == baseline


class TestCatVar:
    def test_cluster_parse(self):
        clusters = load_catvar(io.StringIO("hunger_NOUN,hunger_VERB,hungry_ADJ\n"))
        assert clusters.cluster_of(("hunger", "NOUN")) == {
            ("hunger", "NOUN"), ("hunger", "VERB"), ("hungry", "ADJ"),
        }

    def test_empty_file(self):
        assert load_catvar(io.StringIO("")).clusters == []

    def test_token_without_pos_fatal(self):
        with pytest.raises(DataError, match="line 1: token 'hunger' has no _POS suffix"):
            load_catvar(io.StringIO("hunger\n"))

    def test_duplicate_membership_fatal(self):
        with pytest.raises(DataError, match="line 2: a_NOUN appears in more than one cluster"):
            load_catvar(io.StringIO("a_NOUN,b_NOUN\na_NOUN,c_NOUN\n"))


class TestCategorialVariationCount:
    CLUSTERS = None

    def clusters(self):
        return load_catvar(io.StringIO("w_NOUN,x_VERB,y_ADJ,z_ADV\n"))

    def test_self_excluded_and_unborn_skipped(self):
        births = {("w", "NOUN"): 1700, ("x", "VERB"): 1800,
                  ("y", "ADJ"): 1950, ("z", "ADV"): 1990}
        count = categorial_variation_count(("w", "NOUN"), 1900, self.clusters(), births)
        assert count == 1  # only x; y and z born after 1900

    def test_unclustered_word_scores_zero(self):
        assert categorial_variation_count(("q", "NOUN"), 1900, self.clusters(), {}) == 0

    def test_missing_birth_contributes_zero(self):
        births = {("x", "VERB"): 1800}
        assert categorial_variation_count(("w", "NOUN"), 1900, self.clusters(), births) == 1

    def test_monotone_in_present_year(self):
        births = {("x", "VERB"): 1800, ("y", "ADJ"): 1850, ("z", "ADV"): 1950}
        clusters = self.clusters()
        previous = -1
        for present in (1700, 1800, 1850, 1950, 2000):
            count = categorial_variation_count(("w", "NOUN"), present, clusters, births)
            assert count >= previous
            previous = count


@pytest.mark.parametrize("text", ["aa,quzzz#n#1", ",#a#1", "rapt,#a#2"])
def test_sense_id_parse_refuses_a_comma_in_the_lemma(text):
    # the feature file would write the lemma's trigrams aa, and a,q into its
    # comma-joined unique_ngrams column, to read them back as aa, a and q
    with pytest.raises(ValueError) as info:
        SenseId.parse(text)
    assert str(info.value) == f"bad sense id {text!r}: a lemma holds no comma"


def test_corpus_keys_computed_once_out_of_eq_and_repr(monkeypatch):
    text = "x1\tn\talpha,beta\n"
    synset, fresh = lexicon_from(text).synsets[0], lexicon_from(text).synsets[0]
    calls = []
    corpus_key = SenseId.corpus_key
    monkeypatch.setattr(SenseId, "corpus_key",
                        lambda sense: calls.append(sense) or corpus_key(sense))
    assert "corpus_keys" not in vars(synset)
    assert synset.corpus_keys == (("alpha", "NOUN"), ("beta", "NOUN"))
    assert synset.corpus_keys is synset.corpus_keys
    assert calls == list(synset.members)
    # kept in the instance __dict__, which a frozen dataclass allows
    assert vars(synset)["corpus_keys"] is synset.corpus_keys
    assert synset == fresh and repr(synset) == repr(fresh)
    assert "corpus_keys" not in vars(fresh)


def test_sense_id_rendering_roundtrip():
    sense = SenseId("rapt", "a", 1)
    assert str(sense) == "rapt#a#1"
    assert SenseId.parse("rapt#a#1") == sense
    assert sense.corpus_key() == ("rapt", "ADJ")


# padded, signed, non-ASCII or underscored digits once read as another
# spelling of a sense; k of 0 or below and an empty lemma name none
@example("rapt#a#01")
@example("rapt#a# 1")
@example("rapt#a#\u0661")
@example("rapt#a#1_0")
@example("rapt#a#0")
@example("rapt#a#-1")
@example("#a#1")
@given(st.tuples(st.text(st.sampled_from("ab#"), max_size=2),
                 st.sampled_from(["a", "n", "x"]),
                 st.text(st.sampled_from("01 _-+#\u0661"), max_size=3))
       .map("#".join))
def test_sense_id_parse_reads_only_what_str_writes(text):
    try:
        sense = SenseId.parse(text)
    except ValueError as exc:
        assert str(exc) == f"bad sense id {text!r}"
        return
    assert str(sense) == text and sense.lemma and sense.sense_number >= 1

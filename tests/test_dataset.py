import io
import json
import os
import tempfile
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from lexevo.corpus import HALF_WIDTH, CorpusTable
from lexevo.dataset import (
    MAX_CYCLE,
    MIN_CYCLE,
    MemberCounts,
    TimeWindow,
    build_dataset,
    read_dataset,
    schedule_windows,
    write_dataset,
)
from lexevo import experiments
from lexevo.errors import DataError
from lexevo.experiments import load_pipeline_inputs
from lexevo.lexicon import CatVarClusters, SenseId, load_lexicon
from tests.conftest import count_period_calls, snapshot_of


class ReadCountingDict(dict):
    """A dict that counts the reads of each key, however it is read."""

    def __init__(self):
        super().__init__()
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads[key] += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


def sweep_windows():
    """The distinct windows of cycles 30-60, in order."""
    return sorted({w for cycle in (30, 40, 50, 60)
                   for pair in schedule_windows(cycle) for w in pair})


def synset(*lemmas, pos="n"):
    text = f"x1\t{pos}\t" + ",".join(lemmas) + "\n"
    return load_lexicon(io.StringIO(text)).synsets[0]


def build_one(members, table, window):
    """(snapshot, None) or (None, removal reason): build_dataset over the
    one synset members."""
    ds = build_dataset([members], table, window)
    if ds.snapshots:
        return ds.snapshots[0], None
    [reason] = ds.removal_log
    return None, reason


def table_for(series_by_lemma, pos="NOUN"):
    return CorpusTable({
        (lemma, pos): series for lemma, series in series_by_lemma.items()
    })


class TestTimeWindow:
    def test_valid(self):
        w = TimeWindow(1850, 1900, 1950)
        assert (w.past, w.present, w.future) == (1850, 1900, 1950)
        assert w.label() == "1850_1900_1950"

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            TimeWindow(1900, 1850, 1950)

    def test_rejects_uneven_spacing(self):
        with pytest.raises(ValueError):
            TimeWindow(1850, 1900, 1960)


class TestScheduleWindows:
    def test_fifty_year_cycle_schedule(self):
        pairs = schedule_windows(50)
        assert pairs == [
            (TimeWindow(1800, 1850, 1900), TimeWindow(1850, 1900, 1950)),
            (TimeWindow(1850, 1900, 1950), TimeWindow(1900, 1950, 2000)),
        ]

    def test_sixty_year_cycle_single_pair(self):
        pairs = schedule_windows(60)
        assert pairs == [(TimeWindow(1820, 1880, 1940), TimeWindow(1880, 1940, 2000))]

    def test_thirty_year_cycle_futures(self):
        futures = [test.future for _, test in schedule_windows(30)]
        assert futures == [1910, 1940, 1970, 2000]

    def test_train_future_is_test_present(self):
        for cycle in (30, 40, 50, 60):
            for train, test in schedule_windows(cycle):
                assert train.future == test.present
                assert test.past - train.past == cycle

    def test_cycle_bounds_enforced(self):
        with pytest.raises(DataError):
            schedule_windows(20)
        with pytest.raises(DataError):
            schedule_windows(70)

    def test_every_cycle_yields_a_pair(self):
        for cycle in range(MIN_CYCLE, MAX_CYCLE + 1):
            assert len(schedule_windows(cycle)) >= 1

    def test_windows_match_stepping_loop(self):
        for cycle in range(MIN_CYCLE, MAX_CYCLE + 1):
            periods, year = [], 2000
            while year >= 1800:
                periods.append(year)
                year -= cycle
            periods.reverse()
            windows = [TimeWindow(*periods[i:i + 3]) for i in range(len(periods) - 2)]
            assert schedule_windows(cycle) == list(zip(windows, windows[1:]))


WINDOW = TimeWindow(1850, 1900, 1950)


class TestBuildSnapshot:
    def test_normal_snapshot(self):
        table = table_for({
            "alpha": {1850: 5, 1900: 20, 1950: 30},
            "beta": {1850: 10, 1900: 10, 1950: 5},
        })
        snapshot, reason = build_one(synset("alpha", "beta"), table, WINDOW)
        assert reason is None
        assert snapshot.present_leader.lemma == "alpha"
        assert snapshot.future_leader.lemma == "alpha"
        assert snapshot.present_leader == snapshot.future_leader

    def test_dead_word_removal(self):
        table = table_for({"alpha": {1900: 5, 1950: 5}, "beta": {1950: 9}})
        snapshot, reason = build_one(synset("alpha", "beta"), table, WINDOW)
        assert snapshot is None
        assert reason == "dead_word"

    def test_present_tie_removal(self):
        table = table_for({
            "alpha": {1900: 10, 1950: 1},
            "beta": {1900: 10, 1950: 2},
            "gamma": {1900: 4, 1950: 3},
        })
        snapshot, reason = build_one(synset("alpha", "beta", "gamma"), table, WINDOW)
        assert reason == "tie"

    def test_member_absent_from_the_table_is_dead(self):
        table = table_for({"alpha": {1900: 5, 1950: 5}, "beta": {1900: 3, 1950: 4}})
        _, reason = build_one(synset("alpha", "beta", "gamma"), table, WINDOW)
        assert reason == "dead_word"

    def test_future_tie_removal(self):
        table = table_for({
            "alpha": {1900: 10, 1950: 5},
            "beta": {1900: 4, 1950: 5},
        })
        _, reason = build_one(synset("alpha", "beta"), table, WINDOW)
        assert reason == "tie"

    @pytest.mark.parametrize("series", [
        # the present maximum is shared
        {"alpha": {1900: 10, 1950: 1}, "beta": {1900: 10, 1950: 2}, "gamma": {1950: 3}},
        # the future maximum is shared
        {"alpha": {1900: 10, 1950: 5}, "beta": {1900: 4, 1950: 5}, "gamma": {1950: 3}},
    ])
    def test_dead_word_takes_precedence_over_tie(self, series):
        snapshot, reason = build_one(
            synset("alpha", "beta", "gamma"), table_for(series), WINDOW)
        assert (snapshot, reason) == (None, "dead_word")

    @pytest.mark.parametrize("series, reason, calls_per_member", [
        ({"alpha": {1900: 5, 1950: 5}, "beta": {1900: 2}, "gamma": {1950: 9}},
         "dead_word", 1),
        ({"alpha": {1900: 5, 1950: 5}, "beta": {1900: 2, 1950: 5}, "gamma": {1900: 1}},
         "tie", 2),
        ({"alpha": {1900: 5, 1950: 6}, "beta": {1900: 2, 1950: 5}, "gamma": {1900: 1}},
         None, 3),
    ])
    def test_sums_only_the_periods_the_outcome_needs(self, monkeypatch, series, reason,
                                                     calls_per_member):
        # the table sums the present of every synset, the future of one with
        # no dead member and the past of a kept one, each for all of its
        # keys through period_count, once: a second build reads them stored
        calls = count_period_calls(monkeypatch)
        members, table = synset("alpha", "beta", "gamma"), table_for(series)
        snapshot, got = build_one(members, table, WINDOW)
        assert got == reason and (snapshot is None) == (reason is not None)
        years = (WINDOW.present, WINDOW.future, WINDOW.past)[:calls_per_member]
        assert sorted(center for _, center in calls) == sorted(years * len(table))
        del calls[:]
        assert build_one(members, table, WINDOW) == (snapshot, got)
        assert calls == []

    def test_one_member_synset_leads_itself(self):
        # the removal rule cannot remove a lone living member: it holds both
        # maxima alone, and its counts are read from the table
        member = synset("alpha")
        table = table_for({"alpha": {1850: 2, 1900: 5, 1950: 7}})
        snapshot, reason = build_one(member, table, WINDOW)
        [sense] = member.members
        assert reason is None
        assert snapshot.counts == {sense: MemberCounts(2, 5, 7)}
        assert snapshot.present_leader == snapshot.future_leader == sense
        dead = table_for({"alpha": {1850: 2, 1950: 7}})
        assert build_one(member, dead, WINDOW) == (None, "dead_word")

    def test_corpus_keys_resolved_once_per_synset(self, monkeypatch):
        members = synset("alpha", "beta")
        table = table_for({"alpha": {1900: 5, 1950: 6}, "beta": {1900: 2, 1950: 5}})
        calls = []
        corpus_key = SenseId.corpus_key
        monkeypatch.setattr(SenseId, "corpus_key",
                            lambda sense: calls.append(sense) or corpus_key(sense))
        for window in (WINDOW, TimeWindow(1800, 1850, 1900)):
            build_one(members, table, window)
        assert calls == list(members.members)
        assert members.corpus_keys == (("alpha", "NOUN"), ("beta", "NOUN"))

    # a year in or just outside one of the window's 11-year periods
    NEAR_PERIOD = st.builds(lambda center, offset: center + offset,
                            st.sampled_from((WINDOW.past, WINDOW.present, WINDOW.future)),
                            st.integers(-HALF_WIDTH - 1, HALF_WIDTH + 1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.dictionaries(NEAR_PERIOD, st.integers(0, 5), min_size=5,
                                    max_size=10), min_size=2, max_size=4))
    def test_matches_brute_force(self, member_series):
        # small counts near the periods, so that dead, tied and kept synsets
        # are each common
        lemmas = ["alpha", "beta", "gamma", "delta"][:len(member_series)]
        members = synset(*lemmas)
        table = table_for(dict(zip(lemmas, member_series)))

        def period(series, center):
            return sum(c for year, c in series.items()
                       if abs(year - center) <= HALF_WIDTH)

        counts = {sense: MemberCounts(*(period(series, year) for year in (
                      WINDOW.past, WINDOW.present, WINDOW.future)))
                  for sense, series in zip(members.members, member_series)}
        presents = [c.present for c in counts.values()]
        futures = [c.future for c in counts.values()]
        if 0 in presents:
            expected = (None, "dead_word")
        elif (presents.count(max(presents)) > 1
              or futures.count(max(futures)) > 1):
            expected = (None, "tie")
        else:
            # the leaders by brute force: max of the members by count
            expected = (snapshot_of(members, counts), None)
        got = build_one(members, table, WINDOW)
        assert got == expected
        if got[0] is not None:
            assert list(got[0].counts) == list(members.members)

    def test_leaders_match_bruteforce(self):
        table = table_for({
            "alpha": {1850: 1, 1900: 7, 1950: 2},
            "beta": {1850: 9, 1900: 6, 1950: 8},
        })
        snapshot, _ = build_one(synset("alpha", "beta"), table, WINDOW)
        best_present = max(snapshot.counts.items(), key=lambda kv: kv[1].present)[0]
        best_future = max(snapshot.counts.items(), key=lambda kv: kv[1].future)[0]
        assert snapshot.present_leader == best_present
        assert snapshot.future_leader == best_future


class TestBuildDataset:
    def three_synsets(self):
        rows = "a\tn\tone,two\nb\tn\tthree,four\nc\tn\tfive,six\n"
        return load_lexicon(io.StringIO(rows)).synsets

    def test_counts_partition(self):
        table = table_for({
            "one": {1900: 5, 1950: 9}, "two": {1900: 3, 1950: 1},
            "three": {1950: 2}, "four": {1900: 2, 1950: 4},  # three dead
            "five": {1900: 7, 1950: 7}, "six": {1900: 7, 1950: 2},  # present tie
        })
        ds = build_dataset(self.three_synsets(), table, WINDOW)
        assert len(ds.snapshots) == 1
        assert ds.removal_log == {"dead_word": 1, "tie": 1}
        assert len(ds.snapshots) + sum(ds.removal_log.values()) == 3

    def test_change_statistic(self):
        table = table_for({
            "one": {1900: 5, 1950: 9}, "two": {1900: 3, 1950: 10},  # changed
            "three": {1900: 4, 1950: 5}, "four": {1900: 2, 1950: 4},
            "five": {1900: 7, 1950: 8}, "six": {1900: 6, 1950: 2},
        })
        ds = build_dataset(self.three_synsets(), table, WINDOW)
        assert len(ds.snapshots) == 3
        assert ds.summary()["change_percent"] == 33.3333

    def test_empty_input(self):
        ds = build_dataset([], table_for({}), WINDOW)
        summary = ds.summary()
        assert (summary["synsets"], summary["words"]) == (0, 0)
        assert summary["words_per_synset"] == summary["change_percent"] == 0.0

    def test_all_dead_window_sums_its_present_year_alone(self, monkeypatch):
        calls = count_period_calls(monkeypatch)
        table = table_for({
            "one": {1950: 9}, "two": {1900: 3, 1950: 1},
            "three": {1850: 2}, "four": {1900: 2, 1950: 4},
            "five": {1900: 7}, "six": {1950: 2},
        })
        ds = build_dataset(self.three_synsets(), table, WINDOW)
        assert ds.removal_log == {"dead_word": 3}
        assert [center for _, center in calls] == [WINDOW.present] * 6

    def test_sweep_windows_sum_each_key_once_per_year_read(self, monkeypatch,
                                                           fresh_synthetic_inputs):
        # 14 windows of cycles 30-60 over 13 distinct years, on one table
        calls = count_period_calls(monkeypatch)
        inputs = fresh_synthetic_inputs
        windows = sweep_windows()
        datasets = [build_dataset(inputs.synsets, inputs.corpus, w) for w in windows]
        assert len(windows) == 14 and len({y for w in windows for y in astuple(w)}) == 13
        # every window reads its present year; the future year when a
        # synset has no dead member; the past year when one is kept
        read = set()
        for ds in datasets:
            read.add(ds.window.present)
            if ds.removal_log["dead_word"] < len(inputs.synsets):
                read.add(ds.window.future)
            if ds.snapshots:
                read.add(ds.window.past)
        pairs = Counter((id(sums), center) for sums, center in calls)
        assert set(pairs.values()) == {1}
        assert {center for _, center in pairs} == read
        member_sums = {id(inputs.corpus.sums(key))
                       for s in inputs.synsets for key in s.corpus_keys}
        assert len(pairs) == len(member_sums) * len(read)
        assert {key for key, _ in pairs} == member_sums

    def test_keys_no_synset_reads_are_never_summed(self, monkeypatch):
        # the table sums a year for the keys that synsets have read, not
        # for every key it holds
        calls = count_period_calls(monkeypatch)
        table = table_for({
            "one": {1850: 2, 1900: 5, 1950: 9}, "two": {1850: 1, 1900: 3, 1950: 1},
            "stray": {1850: 4, 1900: 4, 1950: 4},
            "three": {1850: 3, 1900: 4, 1950: 5}, "four": {1850: 1, 1900: 2, 1950: 4},
            "five": {1850: 2, 1900: 7, 1950: 8}, "six": {1850: 5, 1900: 6, 1950: 2},
        })
        ds = build_dataset(self.three_synsets(), table, WINDOW)
        assert len(ds.snapshots) == 3
        stray = table.sums(("stray", "NOUN"))
        assert all(sums is not stray for sums, _ in calls)
        assert Counter(center for _, center in calls) == {
            WINDOW.past: 6, WINDOW.present: 6, WINDOW.future: 6}

    def test_cluster_only_words_are_never_summed(self, monkeypatch, rapture_paths):
        # the corpus filter loads every cluster member, so that births can
        # be read, but no synset reads a cluster-only word's periods
        calls = count_period_calls(monkeypatch)
        inputs, _, _ = load_pipeline_inputs(
            [rapture_paths["corpus"]], rapture_paths["lexicon"],
            rapture_paths["catvar"], rapture_paths["syllables"])
        member_keys = {key for s in inputs.synsets for key in s.corpus_keys}
        cluster_only = set(inputs.corpus.keys()) - member_keys
        assert cluster_only
        # the load gives every member a slot, and no other key
        assert set(inputs.corpus._slots) == member_keys
        for window in sweep_windows():
            build_dataset(inputs.synsets, inputs.corpus, window)
        summed = {id(sums) for sums, _ in calls}
        assert summed == {id(inputs.corpus.sums(key)) for key in member_keys}

    def test_sweep_windows_look_up_each_key_once(self, monkeypatch, rapture_paths):
        # the load resolves each synset's keys to their slots, and the 14
        # windows read its counts through the getters the table kept
        tables = []
        load_corpus = experiments.load_corpus

        def load(*args):
            table, report = load_corpus(*args)
            table._slots = ReadCountingDict()
            tables.append(table)
            return table, report

        monkeypatch.setattr(experiments, "load_corpus", load)
        inputs, _, _ = load_pipeline_inputs(
            [rapture_paths["corpus"]], rapture_paths["lexicon"],
            rapture_paths["catvar"], rapture_paths["syllables"])
        for window in sweep_windows():
            build_dataset(inputs.synsets, inputs.corpus, window)
        [table] = tables
        assert table._slots.reads == Counter(
            key for s in inputs.synsets for key in s.corpus_keys)

    def test_shared_table_builds_any_synset_list_as_a_cold_one(self):
        # a table's getters belong to the synsets' keys, not to their
        # positions: one table serves subsets and reorderings of its synsets
        series = {
            "one": {1850: 1, 1900: 5, 1950: 9}, "two": {1850: 2, 1900: 3, 1950: 10},
            "three": {1850: 3, 1900: 4, 1950: 5}, "four": {1850: 4, 1900: 2, 1950: 4},
            "five": {1850: 5, 1900: 7, 1950: 8}, "six": {1850: 6, 1900: 6, 1950: 2},
        }
        synsets = self.three_synsets()
        shared = table_for(series)
        for chosen in (synsets, synsets[::-1], synsets[1:], synsets[2:] + synsets[:1]):
            got = build_dataset(chosen, shared, WINDOW)
            assert got == build_dataset(chosen, table_for(series), WINDOW)
            assert len(got.snapshots) == len(chosen)

    # member series near the sampling years of cycles 30-60, so that dead,
    # tied and kept synsets are each common in every window
    NEAR_SAMPLING_YEAR = st.builds(
        lambda center, offset: center + offset,
        st.sampled_from(sorted({y for w in sweep_windows() for y in astuple(w)})),
        st.integers(-HALF_WIDTH - 1, HALF_WIDTH + 1))

    # no explain phase: it traces every line of an example's 28 builds, and
    # on a failure it took minutes and hundreds of MiB
    @settings(max_examples=100, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(st.lists(st.lists(st.dictionaries(NEAR_SAMPLING_YEAR, st.integers(0, 3),
                                             min_size=5, max_size=15),
                             min_size=2, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.dictionaries(NEAR_SAMPLING_YEAR, st.integers(0, 3), max_size=15),
                    max_size=2),
           st.permutations(sweep_windows()))
    def test_warm_table_builds_what_a_cold_one_does(self, synsets_series, strays,
                                                    order):
        # strays are words of the table that no synset reads
        series = {f"stray{i}": s for i, s in enumerate(strays)}
        rows = ""
        for i, members in enumerate(synsets_series):
            lemmas = [f"w{'abc'[i]}{'abc'[j]}" for j in range(len(members))]
            rows += f"s{i}\tn\t{','.join(lemmas)}\n"
            series.update(zip(lemmas, members))
        synsets = load_lexicon(io.StringIO(rows)).synsets
        shared = table_for(series)
        for window in order:
            got = build_dataset(synsets, shared, window)
            cold = build_dataset(synsets, table_for(series), window)
            assert got == cold
            assert ([list(s.counts) for s in got.snapshots]
                    == [list(s.counts) for s in cold.snapshots])


class TestDatasetSerialization:
    def test_roundtrip(self, tmp_path):
        # neither leader is the first member, and they differ
        table = table_for({
            "one": {1850: 2, 1900: 1, 1950: 2},
            "two": {1850: 4, 1900: 5, 1950: 1},
            "three": {1850: 1, 1900: 3, 1950: 9},
        })
        ds = build_dataset([synset("one", "two", "three")], table, WINDOW)
        births = {(lemma, "NOUN"): 1850 for lemma in ("one", "two", "three")}
        tsv = tmp_path / "dataset.tsv"
        write_dataset(ds, str(tsv), CatVarClusters(), births)
        assert (tmp_path / "dataset.json").exists()
        loaded, clusters, loaded_births = read_dataset(str(tsv))
        assert loaded.window == ds.window
        assert loaded.summary() == ds.summary()
        original = {str(s): c for s, c in ds.snapshots[0].counts.items()}
        restored = {str(s): c for s, c in loaded.snapshots[0].counts.items()}
        assert restored == original
        [snapshot] = loaded.snapshots
        assert (snapshot.present_leader.lemma, snapshot.future_leader.lemma) == (
            "two", "three")
        assert loaded.snapshots == ds.snapshots
        assert (clusters.clusters, loaded_births) == ([], births)

    def test_births_roundtrip(self, tmp_path):
        # the sidecar keeps only the clusters that hold a member, and the
        # births of the members and their cluster-mates, null when unborn
        table = table_for({
            "one": {1850: 2, 1900: 5, 1950: 9},
            "two": {1850: 4, 1900: 3, 1950: 1},
        })
        ds = build_dataset([synset("one", "two")], table, WINDOW)
        births = {("one", "NOUN"): 1850, ("two", "NOUN"): 1700,
                  ("other", "NOUN"): 1600, ("other", "VERB"): 1650}
        held = frozenset({("un_der", "VERB"), ("one", "NOUN")})
        clusters = CatVarClusters([frozenset({("other", "NOUN"), ("other", "VERB")}),
                                   held])
        tsv = tmp_path / "dataset.tsv"
        write_dataset(ds, str(tsv), clusters, births)
        sidecar = json.loads((tmp_path / "dataset.json").read_text())
        assert sidecar.pop("births") == {"one_NOUN": 1850, "two_NOUN": 1700,
                                         "un_der_VERB": None}
        assert sidecar.pop("clusters") == [["one_NOUN", "un_der_VERB"]]
        assert sidecar == ds.summary()
        _, loaded_clusters, loaded_births = read_dataset(str(tsv))
        assert loaded_births == {("one", "NOUN"): 1850, ("two", "NOUN"): 1700,
                                 ("un_der", "VERB"): None}
        assert loaded_clusters.clusters == [held]

    def test_null_member_birth(self, tmp_path):
        # a member has a nonzero present count, so a birth year; a
        # cluster-mate may have none
        tsv = self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                         "x1\ttwo#n#1\t4\t3\t1"])
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text(json.dumps({
            "window": [1850, 1900, 1950], "clusters": [["two_NOUN", "twin_VERB"]],
            "births": {"one_NOUN": 1850, "two_NOUN": None, "twin_VERB": None}}))
        with pytest.raises(DataError) as info:
            read_dataset(tsv)
        assert str(info.value) == (f"{sidecar}: key 'births' maps dataset member "
                                   "two_NOUN to null; a member needs a year")
        sidecar.write_text(json.dumps({
            "window": [1850, 1900, 1950], "clusters": [["two_NOUN", "twin_VERB"]],
            "births": {"one_NOUN": 1850, "two_NOUN": 1850, "twin_VERB": None}}))
        _, _, births = read_dataset(tsv)
        assert births[("twin", "VERB")] is None

    @pytest.mark.parametrize("births, message", [
        ([], "key 'births' must map lemma_POS tokens to years, got list"),
        ({"one": 1850}, "bad key 'births' entry 'one': token 'one' has no _POS suffix"),
        ({"one_NOUN": "1850"}, "bad key 'births' entry 'one_NOUN': year '1850' "
                               "is not an integer or null"),
        ({"one_NOUN": True}, "bad key 'births' entry 'one_NOUN': year True"),
    ], ids=["not_a_map", "no_pos", "year_text", "year_bool"])
    def test_bad_births(self, tmp_path, births, message):
        tsv = self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                         "x1\ttwo#n#1\t4\t3\t1"])
        (tmp_path / "dataset.json").write_text(
            json.dumps({"window": [1850, 1900, 1950], "births": births}))
        with pytest.raises(DataError) as info:
            read_dataset(tsv)
        assert str(info.value).startswith(f"{tmp_path / 'dataset.json'}: {message}")

    @pytest.mark.parametrize("clusters, message", [
        ({}, "dataset summary has no key 'clusters' listing clusters of lemma_POS"),
        ([["one"]], "bad key 'clusters' entry ['one']: token 'one' has no _POS"),
        ([[1850]], "bad key 'clusters' entry [1850]: need a list of lemma_POS"),
        ([["one_NOUN", "un_VERB"], ["un_VERB"]],
         "bad key 'clusters' entry ['un_VERB']: un_VERB appears in more than one"),
        ([["one_NOUN", "un_VERB"]], "key 'births' has no un_VERB"),
    ], ids=["not_a_list", "no_pos", "not_tokens", "overlap", "births_lack_mate"])
    def test_bad_clusters(self, tmp_path, clusters, message):
        tsv = self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                         "x1\ttwo#n#1\t4\t3\t1"])
        (tmp_path / "dataset.json").write_text(json.dumps(
            {**json.loads(self.SIDECAR), "clusters": clusters}))
        with pytest.raises(DataError) as info:
            read_dataset(tsv)
        assert str(info.value).startswith(f"{tmp_path / 'dataset.json'}: {message}")

    # births for the members one and two of the rows below
    SIDECAR = ('{"window": [1850, 1900, 1950], "clusters": [], '
               '"births": {"one_NOUN": 1850, "two_NOUN": 1850}}\n')

    @classmethod
    def write_rows(cls, tmp_path, rows):
        tsv = tmp_path / "dataset.tsv"
        sidecar = tmp_path / "dataset.json"
        tsv.write_text("synset_id\tsense_id\tpast\tpresent\tfuture\n"
                       + "\n".join(rows) + "\n")
        sidecar.write_text(cls.SIDECAR)
        return str(tsv)

    @pytest.mark.parametrize("rows, reason", [
        (["x1\tone#n#1\t2\t5\t9", "x1\ttwo#n#1\t4\t3\t9"], "tie"),
        (["x1\tone#n#1\t2\t5\t9", "x1\ttwo#n#1\t4\t0\t1"], "dead_word"),
    ])
    def test_read_rejects_rule_breaking_synset(self, tmp_path, rows, reason):
        with pytest.raises(DataError, match=f"synset x1 breaks the {reason} rule"):
            read_dataset(self.write_rows(tmp_path, rows))

    def test_read_rejects_mixed_pos(self, tmp_path):
        # a synset's members share one part of speech
        with pytest.raises(DataError) as info:
            read_dataset(self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                                    "x1\ttwo#v#1\t4\t3\t1"]))
        assert str(info.value) == (f"{tmp_path / 'dataset.tsv'}: synset x1 mixes "
                                   "parts of speech n, v")

    def test_read_rejects_repeated_lemma(self, tmp_path):
        # two senses of one lemma in a synset, which load_lexicon refuses:
        # they would share every trigram and the one corpus key
        with pytest.raises(DataError) as info:
            read_dataset(self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                                    "x1\ttwo#n#1\t1\t1\t1",
                                                    "x1\tone#n#2\t4\t3\t1"]))
        assert str(info.value) == (f"{tmp_path / 'dataset.tsv'}: synset x1 repeats "
                                   "lemma one")

    def test_read_rejects_corpus_key_in_two_synsets(self, tmp_path):
        # two senses of one lemma in two synsets, a polysemous word that
        # eligible_synsets drops: both would read the one key one_NOUN
        with pytest.raises(DataError) as info:
            read_dataset(self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                                    "x1\ttwo#n#1\t4\t3\t1",
                                                    "x2\tone#n#2\t2\t7\t9",
                                                    "x2\ttwo#n#2\t4\t3\t1"]))
        assert str(info.value) == (f"{tmp_path / 'dataset.tsv'}: corpus key one_NOUN "
                                   "is in synsets x1 and x2")

    def test_read_reports_bad_row_line(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            read_dataset(self.write_rows(tmp_path, ["x1\tone#n#1\t2"]))

    @pytest.mark.parametrize("second_row, message", [
        ("x1\ttwo#n#1\t4\t-3\t1", "line 3: negative count"),
        ("x2\tone#n#1\t4\t3\t1", "line 3: repeated sense one#n#1"),
    ], ids=["negative_count", "repeated_sense"])
    def test_read_rejects_bad_second_row(self, tmp_path, second_row, message):
        with pytest.raises(DataError, match=message):
            read_dataset(self.write_rows(tmp_path, ["x1\tone#n#1\t2\t5\t9",
                                                    second_row]))

    @settings(max_examples=300, deadline=None)
    @example(1, 3, "-3")
    @given(st.integers(0, 1), st.integers(0, 4),
           st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                   max_size=12))
    def test_fuzzed_field_parses_or_names_its_line(self, row, column, text):
        # one field of one row replaced by arbitrary text: the row either
        # parses or is a DataError naming its own line; a row that parses
        # may still leave its synset breaking a removal rule
        rows = ["x1\tone#n#1\t2\t5\t9", "x1\ttwo#n#1\t4\t3\t1"]
        fields = rows[row].split("\t")
        fields[column] = text
        rows[row] = "\t".join(fields)
        with tempfile.TemporaryDirectory() as tmp:
            tsv = os.path.join(tmp, "dataset.tsv")
            sidecar = os.path.join(tmp, "dataset.json")
            with open(tsv, "w", encoding="utf-8") as handle:
                handle.write("synset_id\tsense_id\tpast\tpresent\tfuture\n"
                             + "\n".join(rows) + "\n")
            with open(sidecar, "w", encoding="utf-8") as handle:
                handle.write(self.SIDECAR)
            try:
                dataset, _, _ = read_dataset(tsv)
            except DataError as exc:
                # a sense fuzzed into another valid one has no birth year
                message = str(exc)
                assert (message.startswith(f"{tsv} line {row + 2}: ")
                        or message.startswith(f"{tsv}: synset ")
                        or message.startswith(f"{sidecar}: key 'births' has no ")
                        ), message
            else:
                assert dataset.summary()["words"] == 2
                assert all(min(c.past, c.present, c.future) >= 0
                           for s in dataset.snapshots for c in s.counts.values())

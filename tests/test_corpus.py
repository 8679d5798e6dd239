import gzip

import pytest
from hypothesis import given, strategies as st

from lexevo.corpus import (
    LoadReport,
    birth_year,
    load_corpus,
    parse_ngram_row,
    period_count,
    shares_to_csv,
    synset_annual_shares,
)
from lexevo.errors import DataError, NoBirthError, RowParseError

RAPT = ("rapt", "ADJ")


def load_text(tmp_path, text, filter_keys):
    """load_corpus over one file holding text."""
    path = tmp_path / "part.tsv"
    path.write_text(text)
    return load_corpus([str(path)], filter_keys)


class TestParseNgramRow:
    def test_basic_row(self):
        key, year, match_count, volume_count = parse_ngram_row("rapt_ADJ\t1900\t1759\t1201")
        assert key == RAPT
        assert (year, match_count, volume_count) == (1900, 1759, 1201)

    def test_another_row(self):
        key, _, match_count, _ = parse_ngram_row("ecstatic_ADJ\t1850\t507\t400")
        assert key == ("ecstatic", "ADJ")
        assert match_count == 507

    def test_no_tabs_is_parse_error(self):
        with pytest.raises(RowParseError):
            parse_ngram_row("no_tabs_here", line_number=7)

    def test_missing_pos_suffix(self):
        with pytest.raises(RowParseError):
            parse_ngram_row("rapt\t1900\t5\t1")

    def test_non_integer_field(self):
        with pytest.raises(RowParseError):
            parse_ngram_row("rapt_ADJ\t1900\tx\t1")

    def test_error_carries_line_number(self):
        with pytest.raises(RowParseError) as info:
            parse_ngram_row("bad row", line_number=42)
        assert info.value.line_number == 42

    def test_roundtrip_identity(self):
        # a row written back from the parsed tuple, as evocli ingest writes
        # corpus.tsv, parses to the same tuple
        rec = parse_ngram_row("rapt_ADJ\t1900\t1759\t1201")
        key, *numbers = rec
        line = "\t".join(["_".join(key)] + [str(n) for n in numbers])
        assert parse_ngram_row(line) == rec


class TestLoadUnigramSeries:
    """load_corpus over unigram files."""

    def test_filter_keeps_only_requested_keys(self, tmp_path):
        text = (
            "rapt_ADJ\t1899\t10\t1\n"
            "rapt_ADJ\t1900\t20\t1\n"
            "rapt_ADJ\t1901\t30\t1\n"
            "zebra_NOUN\t1900\t5\t1\n"
        )
        table, report = load_text(tmp_path, text, {RAPT})
        assert len(table) == 1
        assert table.series(RAPT) == {1899: 10, 1900: 20, 1901: 30}
        assert report.rows_filtered == 1

    def test_duplicate_rows_are_summed(self, tmp_path):
        text = "rapt_ADJ\t1900\t100\t5\nrapt_ADJ\t1900\t50\t5\n"
        table, _ = load_text(tmp_path, text, {RAPT})
        assert table.series(RAPT)[1900] == 150

    def test_empty_stream(self, tmp_path):
        table, report = load_text(tmp_path, "", {RAPT})
        assert len(table) == 0
        assert report.rows_skipped == 0

    def test_malformed_rows_counted_not_fatal(self, tmp_path):
        table, report = load_text(tmp_path, "garbage\nrapt_ADJ\t1900\t1\t1\n", {RAPT})
        assert report.rows_skipped == 1
        assert table.series(RAPT) == {1900: 1}

    def test_malformed_row_is_skipped_whatever_its_token(self, tmp_path):
        # every row is validated before the filter, so a bad row of a word
        # outside the vocabulary counts as skipped, not filtered
        text = "zebra_NOUN\t1900\tx\t1\nzebra_NOUN\t2100\t1\t1\nzebra_NOUN\t1900\t1\t1\n"
        _, report = load_text(tmp_path, text, {RAPT})
        assert report == LoadReport(rows_filtered=1, rows_skipped=2)

    def test_empty_filter_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_text(tmp_path, "", set())

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "part.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("rapt_ADJ\t1900\t7\t1\n")
        table, _ = load_corpus([str(path)], {RAPT})
        assert table.series(RAPT) == {1900: 7}

    def test_sharded_load_is_order_independent(self, tmp_path):
        paths = []
        for i in range(4):
            path = tmp_path / f"part{i}.tsv"
            path.write_text(f"rapt_ADJ\t19{i:02d}\t{i + 1}\t1\nrapt_ADJ\t1900\t1\t1\n")
            paths.append(str(path))
        forward, forward_report = load_corpus(paths, {RAPT})
        backward, backward_report = load_corpus(paths[::-1], {RAPT})
        # every shard has a 1900 row, so the shards' counts are summed
        assert forward.series(RAPT) == {1900: 5, 1901: 2, 1902: 3, 1903: 4}
        assert backward.series(RAPT) == forward.series(RAPT)
        assert forward_report == backward_report == LoadReport(rows_kept=8)

    def test_sharded_load_is_worker_independent(self, tmp_path):
        # the same rows split into four shards or kept in one file give
        # the same table and report, however the loading work is divided
        rows = []
        paths = []
        for i in range(4):
            shard = f"rapt_ADJ\t19{i:02d}\t{i + 1}\t1\nrapt_ADJ\t1900\t1\t1\n"
            rows.append(shard)
            path = tmp_path / f"part{i}.tsv"
            path.write_text(shard)
            paths.append(str(path))
        whole = tmp_path / "whole.tsv"
        whole.write_text("".join(rows))
        sharded, sharded_report = load_corpus(paths, {RAPT})
        single, single_report = load_corpus([str(whole)], {RAPT})
        assert sharded.series(RAPT) == single.series(RAPT)
        assert sharded_report == single_report


class TestPeriodCount:
    def test_window_boundaries(self):
        series = {1795: 1, 1805: 2, 1806: 100}
        assert period_count(series, 1800) == 3

    def test_empty_series(self):
        assert period_count({}, 1900) == 0

    def test_absent_years_contribute_zero(self):
        assert period_count({1850: 4}, 1850, half_width=0) == 4

    @given(
        st.dictionaries(st.integers(1500, 2008), st.integers(0, 10_000), max_size=40),
        st.integers(1505, 2000),
        st.integers(0, 10),
    )
    def test_matches_bruteforce_loop(self, series, center, half_width):
        expected = 0
        for year in range(center - half_width, center + half_width + 1):
            expected += series.get(year, 0)
        assert period_count(series, center, half_width) == expected

    @given(
        st.dictionaries(st.integers(1500, 2008), st.integers(0, 10_000), max_size=40),
        st.integers(1505, 2000),
        st.integers(0, 9),
    )
    def test_monotone_in_half_width(self, series, center, half_width):
        assert period_count(series, center, half_width) <= period_count(
            series, center, half_width + 1
        )


class TestBirthYear:
    def test_skips_zero_entries(self):
        assert birth_year({1800: 0, 1801: 7}) == 1801

    def test_empty_series_raises(self):
        with pytest.raises(NoBirthError):
            birth_year({})

    def test_all_zero_raises(self):
        with pytest.raises(NoBirthError):
            birth_year({1900: 0})


class TestAnnualShares:
    def test_normalization(self):
        rows = synset_annual_shares([{1900: 3}, {1900: 1}], [1900])
        assert rows[0].shares == (0.75, 0.25)
        assert not rows[0].flagged

    def test_zero_total_year_is_flagged(self):
        rows = synset_annual_shares([{1900: 1}, {1900: 1}], [1901])
        assert rows[0].flagged
        assert rows[0].shares == (0.0, 0.0)

    def test_requires_two_members(self):
        with pytest.raises(DataError):
            synset_annual_shares([{1900: 1}], [1900])

    def test_csv_has_six_decimals(self):
        rows = synset_annual_shares([{1900: 1}, {1900: 2}], [1900])
        csv = shares_to_csv(rows, ["one", "two"])
        assert csv.splitlines()[0] == "year,one,two"
        assert csv.splitlines()[1] == "1900,0.333333,0.666667"


def test_corpus_table_merge_sums_duplicates(tmp_path):
    a = tmp_path / "a.tsv"
    a.write_text("rapt_ADJ\t1900\t1\t1\n")
    b = tmp_path / "b.tsv"
    b.write_text("rapt_ADJ\t1900\t2\t1\nrapt_ADJ\t1901\t3\t1\n")
    table, _ = load_corpus([str(a), str(b)], {RAPT})
    assert table.series(RAPT) == {1900: 3, 1901: 3}

import gzip
import random
import sys
import tracemalloc
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from lexevo import corpus
from lexevo.corpus import (
    BLOCK_SIZE,
    HALF_WIDTH,
    MAX_PLAIN_LINE,
    MAX_TOTAL,
    MAX_YEAR,
    MIN_YEAR,
    CorpusTable,
    LoadReport,
    birth_years,
    join_token,
    load_corpus,
    period_count,
    split_token,
    synset_annual_shares,
)
from lexevo.errors import DataError

RAPT = ("rapt", "ADJ")


def load_text(tmp_path, text, filter_keys):
    """load_corpus over one file holding text."""
    path = tmp_path / "part.tsv"
    path.write_text(text)
    return load_corpus([str(path)], filter_keys)


class TestTokens:
    def test_join_token(self):
        assert join_token(("un_der", "VERB")) == "un_der_VERB"

    @given(st.text(min_size=1), st.text(min_size=1).filter(lambda pos: "_" not in pos))
    def test_split_inverts_join(self, lemma, pos):
        # the lemma may hold underscores: the split is on the last one
        assert split_token(join_token((lemma, pos))) == (lemma, pos)


class TestParseNgramRow:
    """The row contract, one row at a time through load_corpus."""

    def test_basic_row(self, tmp_path):
        table, report = load_text(tmp_path, "rapt_ADJ\t1900\t1759\t1201\n", {RAPT})
        assert table.series(RAPT) == {1900: 1759}
        assert report == LoadReport(rows_kept=1)

    def test_another_row(self, tmp_path):
        key = ("ecstatic", "ADJ")
        table, _ = load_text(tmp_path, "ecstatic_ADJ\t1850\t507\t400\n", {key})
        assert table.series(key) == {1850: 507}

    def test_no_tabs_is_parse_error(self, tmp_path):
        _, report = load_text(tmp_path, "no_tabs_here\n", {RAPT})
        assert report == LoadReport(rows_skipped=1)

    def test_missing_pos_suffix(self, tmp_path):
        _, report = load_text(tmp_path, "rapt\t1900\t5\t1\n", {RAPT})
        assert report == LoadReport(rows_skipped=1)

    def test_non_integer_field(self, tmp_path):
        _, report = load_text(tmp_path, "rapt_ADJ\t1900\tx\t1\n", {RAPT})
        assert report == LoadReport(rows_skipped=1)

    @pytest.mark.parametrize("row", [
        "rapt_ADJ\t1900\t5",
        "rapt_ADJ\t1900\t5\t1\t1",
        "_ADJ\t1900\t5\t1",
        "rapt_\t1900\t5\t1",
        "rapt_ADJ\tx\t5\t1",
        "rapt_ADJ\t1900\t5\tx",
        "rapt_ADJ\t1900\t1.5\t1",
        "rapt_ADJ\t1900\t\t1",
        "rapt_ADJ\t1499\t5\t1",
        "rapt_ADJ\t2009\t5\t1",
        "rapt_ADJ\t1900\t-5\t1",
        "rapt_ADJ\t1900\t5\t-1",
        "rapt_ADJ\t1900\t\u00b2\t1",
        "rapt_ADJ\t1900\t5\t\u00b2",
        "zebra_NOUN\t1900\t5\t\u00b2",
    ])
    def test_bad_row_is_skipped(self, tmp_path, row):
        # wrong column count, no lemma or POS, a non-integer field (a
        # superscript two is a digit that int() refuses), a year outside
        # [1500, 2008], a negative count (the volume count too)
        _, report = load_text(tmp_path, row + "\n", {RAPT})
        assert report == LoadReport(rows_skipped=1)

    @pytest.mark.parametrize("row", [
        "rapt_ADJ\t01900\t007\t0",
        "rapt_ADJ\t+1900\t+7\t+0",
        "rapt_ADJ\t1_900\t7\t1_0",
        "rapt_ADJ\t 1900\t7 \t\u00a00",
        "rapt_ADJ\t\uff11\uff19\uff10\uff10\t\uff17\t\uff10",
        "rapt_ADJ\t\u0661\u0669\u0660\u0660\t\u0667\t\u0660",
    ], ids=["leading_zeros", "plus", "underscores", "spaces", "fullwidth",
            "arabic_indic"])
    def test_fields_that_int_takes_are_kept(self, tmp_path, row):
        # fields that are not plain ASCII digits load as int() reads them
        table, report = load_text(tmp_path, row + "\n", {RAPT})
        assert table.series(RAPT) == {1900: 7}
        assert report == LoadReport(rows_kept=1)

    def test_plain_rows_convert_only_kept_match_counts(self, tmp_path, monkeypatch):
        # a valid filtered row converts no field, a kept row its match
        # count alone; a row that is not plain is checked by int()
        calls = []

        def counting_int(text):
            calls.append(text)
            return int(text)

        monkeypatch.setattr(corpus, "int", counting_int, raising=False)
        text = ("zebra_NOUN\t1900\t5\t1\n" * 3 + "rapt_ADJ\t1900\t7\t2\n"
                "rapt_ADJ\t1901\t8\t3\n")
        table, report = load_text(tmp_path, text, {RAPT})
        assert calls == ["7", "8"]
        assert report == LoadReport(rows_kept=2, rows_filtered=3)
        calls.clear()
        _, report = load_text(tmp_path, "zebra_NOUN\t01900\t5\t1\n", {RAPT})
        assert sorted(calls) == ["01900", "1", "5"]
        assert report == LoadReport(rows_filtered=1)

    def test_roundtrip_identity(self, tmp_path):
        # rows written back from the table, as evocli ingest writes
        # corpus.tsv, load to the same table
        table, _ = load_text(tmp_path, "rapt_ADJ\t1900\t1759\t1201\n"
                             "rapt_ADJ\t1901\t0\t3\n", {RAPT})
        lines = "".join(f"rapt_ADJ\t{year}\t{count}\t0\n"
                        for year, count in table.series(RAPT).items())
        again, _ = load_text(tmp_path, lines, {RAPT})
        assert again.series(RAPT) == table.series(RAPT) == {1900: 1759, 1901: 0}


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

    @pytest.mark.parametrize("form", ["plain", "gzip", "gzip_without_trailer"])
    def test_undecodable_line_is_named(self, tmp_path, form):
        # the fourth line is not UTF-8; without its gzip trailer the file
        # also ends inside that line, which is still the one named
        data = b"rapt_ADJ\t1900\t1\t1\n" * 3 + b"rapt_ADJ\t19\xff0\t1\t1"
        path = tmp_path / ("part.tsv" if form == "plain" else "part.tsv.gz")
        if form != "plain":
            data = gzip.compress(data)
        if form == "gzip_without_trailer":
            data = data[:-8]
        path.write_bytes(data)
        with pytest.raises(DataError) as raised:
            load_corpus([str(path)], {RAPT})
        assert str(raised.value) == (f"cannot read corpus file {path}: "
                                     "line 4 is not UTF-8 (invalid start byte)")

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


def sums_of(series):
    """period_count's argument for one year -> count dict, via CorpusTable."""
    return CorpusTable({RAPT: dict(series)}).sums(RAPT)


SERIES = st.dictionaries(st.integers(1500, 2008), st.integers(0, 10_000), max_size=40)


class TestPeriodCount:
    def test_window_boundaries(self):
        series = {1795: 1, 1805: 2, 1806: 100}
        assert period_count(sums_of(series), 1800) == 3

    def test_empty_series(self):
        assert period_count(sums_of({}), 1900) == 0
        assert period_count(CorpusTable({}).sums(RAPT), 1900) == 0

    def test_absent_years_contribute_zero(self):
        # 1846 to 1854 hold 1848 and 1853 only; the other years are gaps
        series = {1844: 100, 1848: 4, 1853: 6, 1856: 100}
        assert period_count(sums_of(series), 1850) == 10

    @given(SERIES, st.integers(1505, 2000))
    def test_matches_bruteforce_loop(self, series, center):
        expected = 0
        for year in range(center - HALF_WIDTH, center + HALF_WIDTH + 1):
            expected += series.get(year, 0)
        assert period_count(sums_of(series), center) == expected

    @given(SERIES)
    def test_series_round_trips(self, series):
        # the sums are the only stored form; the series derived from them
        # keeps every attested year, zero counts included, in year order
        table = CorpusTable({RAPT: dict(series)})
        assert list(table.series(RAPT).items()) == sorted(series.items())

    def test_table_keeps_no_input_dict(self):
        series = {RAPT: {1900: 1}, ("zebra", "NOUN"): {1901: 2}}
        table = CorpusTable(series)
        series[RAPT][1900] = 5
        series[("zebra", "NOUN")].clear()
        assert table.series(RAPT) == {1900: 1}
        assert table.series(("zebra", "NOUN")) == {1901: 2}
        assert list(table.keys()) == [RAPT, ("zebra", "NOUN")]


def births_of(series):
    """birth_years of a one-key table holding one year -> count dict."""
    return birth_years(CorpusTable({RAPT: dict(series)}))


class TestBirthYear:
    def test_skips_zero_entries(self):
        assert births_of({1800: 0, 1801: 7}) == {RAPT: 1801}

    def test_empty_series_is_absent(self):
        assert births_of({}) == {}

    def test_all_zero_is_absent(self):
        assert births_of({1900: 0}) == {}

    @given(SERIES)
    def test_matches_bruteforce_loop(self, series):
        born = [year for year in sorted(series) if series[year] > 0]
        assert births_of(series) == ({RAPT: born[0]} if born else {})

    def test_birth_years_skips_unborn_keys(self):
        table = CorpusTable({RAPT: {1900: 0, 1950: 3}, ("zebra", "NOUN"): {1900: 0}})
        assert birth_years(table) == {RAPT: 1950}


# The row contract, written out as a brute-force classifier of one line
# (without its line break): a blank line is not a row; a row is kept only
# with four tab-separated columns, a token split at its last underscore
# into a non-empty lemma and POS, three fields that int() accepts, a year
# in [1500, 2008] and no negative count; a valid row is filtered when its
# key is outside the vocabulary.
def classify_row(line, filter_keys):
    if not line.strip():
        return "blank", None
    fields = line.split("\t")
    if len(fields) != 4:
        return "skipped", None
    lemma, _, pos = fields[0].rpartition("_")
    if not lemma or not pos:
        return "skipped", None
    try:
        year, match_count, volume_count = (int(f) for f in fields[1:])
    except ValueError:
        return "skipped", None
    if not 1500 <= year <= 2008 or match_count < 0 or volume_count < 0:
        return "skipped", None
    if (lemma, pos) not in filter_keys:
        return "filtered", None
    return "kept", ((lemma, pos), year, match_count)


VOCAB = {RAPT, ("a_b", "NOUN")}
TOKENS = st.sampled_from(["rapt_ADJ", "a_b_NOUN", "zebra_NOUN", "rapt", "_ADJ",
                          "rapt_", "", " rapt_ADJ"])
SPACE = st.sampled_from(["", " ", "\x0c", "\u00a0"])


@st.composite
def integer_fields(draw):
    """An integer written as int() may or may not accept it, or not one:
    with a sign, underscores, spaces, leading zeros or non-ASCII digits,
    or a junk string (a superscript two is a digit that int() refuses)."""
    value = draw(st.sampled_from([1499, 1500, 1900, 2008, 2009, 0, 7, 1234, -1, -30]))
    text = str(value)
    form = draw(st.sampled_from(["plain", "plus", "underscore", "spaced", "zeros",
                                 "digits", "junk"]))
    if form == "plus" and value >= 0:
        text = "+" + text
    elif form == "zeros":
        zeros = draw(st.sampled_from(["0", "00"]))
        text = ("-" if value < 0 else "") + zeros + str(abs(value))
    elif form == "digits":
        # fullwidth or Arabic-Indic digits, which int() reads as ASCII ones
        zero = draw(st.sampled_from(["\uff10", "\u0660"]))
        text = "".join(chr(ord(zero) + int(c)) if c.isdigit() else c for c in text)
    elif form == "underscore":
        text = draw(st.sampled_from([text[:1] + "_" + text[1:], "_" + text,
                                     text + "_", text[:1] + "__" + text[1:]]))
    elif form == "spaced":
        text = draw(SPACE) + text + draw(SPACE)
    elif form == "junk":
        text = draw(st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--1", "+-1",
                                     "\u00b2", "1\u00b2"]))
    return text


@st.composite
def corpus_lines(draw, token):
    """One line of token: a row of plain in-range integers, a row of any
    fields, a row with the wrong column count, or a blank line."""
    kind = draw(st.sampled_from(["clean", "clean", "row", "row", "columns", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t \t", "\x0c", "\t\t\t"]))
    if kind == "clean":
        return "\t".join([token, str(draw(st.integers(MIN_YEAR, MAX_YEAR))),
                          str(draw(st.integers(0, 99))), str(draw(st.integers(0, 9)))])
    fields = [token] + [draw(integer_fields()) for _ in range(3)]
    if kind == "columns":
        fields = fields[:draw(st.integers(1, 3))] if draw(st.booleans()) else fields + ["1"]
    return "\t".join(fields)


@st.composite
def token_runs(draw):
    """Lines in runs of one token, 1 to 5 lines a run, as the unigram files
    group them; inside a run kept or filtered rows, malformed rows and
    blank lines mix, and a bad token repeats on every row of its run."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        token = draw(TOKENS)
        lines.extend(draw(corpus_lines(token)) for _ in range(draw(st.integers(1, 5))))
    return lines


def assert_loads_as(table, report, lines, filter_keys):
    """The table and report of load_corpus are those classify_row gives
    for lines."""
    expected = LoadReport()
    series = {}
    for line in lines:
        verdict, row = classify_row(line, filter_keys)
        if verdict == "kept":
            key, year, match_count = row
            points = series.setdefault(key, {})
            points[year] = points.get(year, 0) + match_count
        if verdict != "blank":
            setattr(expected, f"rows_{verdict}",
                    getattr(expected, f"rows_{verdict}") + 1)
    assert report == expected
    assert set(table.keys()) == set(series)
    for key in filter_keys:
        assert table.series(key) == dict(sorted(series.get(key, {}).items()))


class TestRowContract:
    @given(token_runs(), st.data())
    def test_load_matches_bruteforce_classifier(self, tmp_path_factory, lines, data):
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                                  min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and not data.draw(st.booleans(), label="last_break"):
            text = text[:-len(ends[-1])]
        path = tmp_path_factory.mktemp("rows") / "part.tsv"
        path.write_bytes(text.encode("utf-8"))
        table, report = load_corpus([str(path)], VOCAB)
        assert_loads_as(table, report, lines, VOCAB)


class TestBlockReads:
    """Files longer than one read block, so that rows straddle blocks."""

    def test_large_file_loads_as_the_classifier_says(self, tmp_path):
        rng = random.Random(7)
        vocab = {RAPT, ("café", "NOUN"), ("a_b", "NOUN")}
        tokens = ["rapt_ADJ", "café_NOUN", "a_b_NOUN", "zebra_NOUN", "naïve_ADJ",
                  "rapt", "_ADJ"]
        lines = []
        for token in tokens:
            for _ in range(2_000):
                year = rng.randint(1490, 2015)
                counts = [str(rng.randint(-2, 5_000)) for _ in range(2)]
                line = "\t".join([token, str(year)] + counts)
                roll = rng.random()
                if roll < 0.02:
                    line = ""
                elif roll < 0.04:
                    line = line.rsplit("\t", 1)[0]
                lines.append(line)
        shuffled = rng.sample(lines, len(lines))
        ends = [rng.choice(["\n", "\r\n"]) for _ in lines]
        for order, rows in (("grouped", lines), ("shuffled", shuffled)):
            text = "".join(line + end for line, end in zip(rows, ends))
            # the file spans several blocks, and a block ends inside a row
            read = text.replace("\r\n", "\n")
            assert len(read) > 3 * BLOCK_SIZE
            assert read[BLOCK_SIZE - 1] != "\n"
            plain = tmp_path / f"{order}.tsv"
            plain.write_bytes(text.encode("utf-8"))
            packed = tmp_path / f"{order}.tsv.gz"
            packed.write_bytes(gzip.compress(text.encode("utf-8")))
            for path in (plain, packed):
                table, report = load_corpus([str(path)], vocab)
                assert_loads_as(table, report, rows, vocab)


@pytest.fixture
def int_digit_limit():
    """Set int()'s limit on the digits of a string for one test, and put
    the interpreter's own limit back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() has no digit limit on this interpreter")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


class TestLongFields:
    """int() refuses a decimal string longer than its digit limit (4,300
    by default, at least 640), so such a field fails the row; a line of
    at most MAX_PLAIN_LINE characters holds no field that long."""

    LONG = "1" * 5_000

    @pytest.mark.parametrize("row", [
        "rapt_ADJ\t1900\t5\t" + LONG,
        "zebra_NOUN\t1900\t" + LONG + "\t1",
        "rapt_ADJ\t1900\t" + LONG + "\t1",
    ], ids=["volume", "filtered_match", "kept_match"])
    def test_field_past_the_default_limit_is_skipped(self, tmp_path, int_digit_limit,
                                                      row):
        int_digit_limit(sys.int_info.default_max_str_digits)
        table, report = load_text(tmp_path, row + "\n", {RAPT})
        assert report == LoadReport(rows_skipped=1)
        assert_loads_as(table, report, [row], {RAPT})

    @pytest.mark.parametrize("token", ["rapt_ADJ", "zebra_NOUN"])
    @pytest.mark.parametrize("length", [MAX_PLAIN_LINE, MAX_PLAIN_LINE + 1])
    @pytest.mark.parametrize("limit", [640, 0])
    def test_lines_either_side_of_the_plain_length(self, tmp_path, int_digit_limit,
                                                   token, length, limit):
        # the volume field takes up the rest of the line; with the lowest
        # digit limit, 640, int() still takes it, and with none too
        int_digit_limit(limit)
        head = f"{token}\t1900\t5\t"
        row = head + "9" * (length - len(head))
        assert len(row) == length
        table, report = load_text(tmp_path, row + "\n", {RAPT})
        assert report.rows_skipped == 0
        assert_loads_as(table, report, [row], {RAPT})

    @pytest.mark.parametrize("digits, verdict", [(640, "kept"), (641, "skipped")])
    def test_lowest_limit_refuses_a_longer_field(self, tmp_path, int_digit_limit,
                                                 digits, verdict):
        int_digit_limit(640)
        row = "rapt_ADJ\t1900\t5\t" + "9" * digits
        table, report = load_text(tmp_path, row + "\n", {RAPT})
        assert classify_row(row, {RAPT})[0] == verdict
        assert_loads_as(table, report, [row], {RAPT})


class TestAnnualShares:
    def test_normalization(self):
        rows = synset_annual_shares([{1900: 3}, {1900: 1}], [1900])
        assert rows == [(1900, (0.75, 0.25))]

    def test_zero_total_year_has_zero_shares(self):
        rows = synset_annual_shares([{1900: 1}, {1900: 1}], [1900, 1901])
        assert rows == [(1900, (0.5, 0.5)), (1901, (0.0, 0.0))]

    def test_requires_two_members(self):
        with pytest.raises(DataError):
            synset_annual_shares([{1900: 1}], [1900])


def test_corpus_table_merge_sums_duplicates(tmp_path):
    a = tmp_path / "a.tsv"
    a.write_text("rapt_ADJ\t1900\t1\t1\n")
    b = tmp_path / "b.tsv"
    b.write_text("rapt_ADJ\t1900\t2\t1\nrapt_ADJ\t1901\t3\t1\n")
    table, _ = load_corpus([str(a), str(b)], {RAPT})
    assert table.series(RAPT) == {1900: 3, 1901: 3}


ZEBRA = ("zebra", "NOUN")


class TestCompactTable:
    """The table's layout: (years, cum) per key, years shared ints and cum
    an array('q'), however the rows arrived."""

    def test_sums_are_shared_years_and_a_q_array(self, tmp_path):
        # rapt's rows arrive in year order, zebra's do not
        text = ("rapt_ADJ\t1900\t1\t1\nrapt_ADJ\t1901\t2\t1\n"
                "zebra_NOUN\t1901\t3\t1\nzebra_NOUN\t1900\t4\t1\n")
        table, _ = load_text(tmp_path, text, {RAPT, ZEBRA})
        built = CorpusTable({RAPT: {int("1900"): 5, int("1901"): 6}})
        sums = [table.sums(RAPT), table.sums(ZEBRA), built.sums(RAPT)]
        for years, cum in sums:
            assert type(years) is tuple and years == (1900, 1901)
            assert type(cum) is array and cum.typecode == "q"
        assert [cum.tolist() for _, cum in sums] == [[0, 1, 3], [0, 4, 7], [0, 5, 11]]
        for i in range(2):
            first = sums[0][0][i]
            assert all(years[i] is first for years, _ in sums)

    @pytest.mark.parametrize("year", [-5, MIN_YEAR - 1, MAX_YEAR + 1])
    def test_series_year_out_of_range_rejected(self, year):
        with pytest.raises(ValueError, match="rapt_ADJ has a year outside"):
            CorpusTable({RAPT: {1900: 1, year: 1}})

    @pytest.mark.parametrize("series", [{1900: -5, 1901: 7}, {1900: 3, 1901: -1}])
    def test_series_negative_count_rejected(self, series):
        # a negative count would move the birth year and hide a dead word
        with pytest.raises(ValueError, match="rapt_ADJ has a negative count"):
            CorpusTable({RAPT: series})

    @given(st.lists(st.tuples(st.sampled_from([RAPT, ZEBRA, ("a_b", "NOUN")]),
                              st.integers(1898, 1906), st.integers(0, 10 ** 12)),
                    max_size=40),
           st.data())
    def test_any_order_sharding_and_repetition_sum_alike(self, tmp_path_factory,
                                                         rows, data):
        # runs of years in order, years that go back and years that repeat,
        # dealt to one to three files in any order, against a dict sum
        shards = data.draw(st.integers(1, 3), label="shards")
        dealt = data.draw(st.lists(st.integers(0, shards - 1), min_size=len(rows),
                                   max_size=len(rows)), label="dealt")
        expected = {}
        texts = [""] * shards
        for (key, year, count), shard in zip(rows, dealt):
            points = expected.setdefault(key, {})
            points[year] = points.get(year, 0) + count
            texts[shard] += f"{join_token(key)}\t{year}\t{count}\t1\n"
        folder = tmp_path_factory.mktemp("shards")
        paths = []
        for i, text in enumerate(texts):
            path = folder / f"part{i}.tsv"
            path.write_text(text)
            paths.append(str(path))
        table, report = load_corpus(paths, {RAPT, ZEBRA, ("a_b", "NOUN")})
        assert report == LoadReport(rows_kept=len(rows))
        assert set(table.keys()) == set(expected)
        built = CorpusTable(expected)
        for key, points in expected.items():
            years = sorted(points)
            cum = list(accumulate((points[y] for y in years), initial=0))
            for got in (table.sums(key), built.sums(key)):
                assert got[0] == tuple(years) and got[1].tolist() == cum


class TestCountLimits:
    """Counts are summed in signed 64 bits."""

    @pytest.mark.parametrize("shards", [
        ["rapt_ADJ\t1900\t9223372036854775808\t1\n"],
        ["rapt_ADJ\t1901\t1\t1\nrapt_ADJ\t1900\t9223372036854775808\t1\n"],
        ["rapt_ADJ\t1900\t4611686018427387904\t1\n"
         "rapt_ADJ\t1901\t4611686018427387904\t1\n"],
        ["rapt_ADJ\t1900\t4611686018427387904\t1\n",
         "rapt_ADJ\t1901\t4611686018427387904\t1\n"],
        ["rapt_ADJ\t1901\t4611686018427387904\t1\n",
         "rapt_ADJ\t1900\t1\t1\nrapt_ADJ\t1900\t4611686018427387903\t1\n"],
    ], ids=["count", "count_out_of_order", "total", "total_across_files",
            "total_out_of_order_across_files"])
    def test_oversize_is_named(self, tmp_path, shards):
        # the error names the file whose rows take the total past 2**63 - 1
        paths = []
        for i, text in enumerate(shards):
            path = tmp_path / f"part{i}.tsv"
            path.write_text("zebra_NOUN\t1900\t1\t1\n" + text)
            paths.append(str(path))
        with pytest.raises(DataError) as raised:
            load_corpus(paths, {RAPT, ZEBRA})
        assert str(raised.value) == (f"corpus file {paths[-1]}: the counts of "
                                     f"rapt_ADJ total more than {MAX_TOTAL}")

    def test_largest_total_loads(self, tmp_path):
        text = ("rapt_ADJ\t1901\t4611686018427387904\t1\n"
                "rapt_ADJ\t1900\t4611686018427387903\t1\n")
        table, _ = load_text(tmp_path, text, {RAPT})
        assert table.sums(RAPT)[1][-1] == MAX_TOTAL == 2 ** 63 - 1

    def test_oversize_series_is_named(self):
        with pytest.raises(DataError, match=f"the counts of rapt_ADJ total more "
                                            f"than {MAX_TOTAL}"):
            CorpusTable({RAPT: {1900: 2 ** 62, 1901: 2 ** 62}})


def test_in_order_rows_load_in_few_bytes(tmp_path):
    # 20,000 rows of 100 keys in year order: the table keeps 16 B a row
    # (years as pointers to shared ints, sums as array('q')), and the load
    # holds 10 B a row of typed arrays beside the block being read; one
    # year -> count dict per key would take about 150 B a row
    rng = random.Random(3)
    keys = {(f"w{i}", "NOUN") for i in range(100)}
    path = tmp_path / "part.tsv"
    path.write_text("".join(f"w{i}_NOUN\t{year}\t{rng.randint(0, 10 ** 6)}\t1\n"
                            for i in range(100) for year in range(1800, 2000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table, report = load_corpus([str(path)], keys)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows_kept == 20_000 and len(table) == 100
    assert (retained - before) / 20_000 <= 24
    assert (peak - before) / 20_000 <= 64

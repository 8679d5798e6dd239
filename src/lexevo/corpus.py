"""Unigram frequency corpus: parsing, period sums, birth years, annual shares.

Input rows follow the published unigram TSV shape:

    word_POS<TAB>year<TAB>match_count<TAB>volume_count

Years run from 1500 to 2008.  A word absent from the corpus behaves as an
all-zero series.  Each word's series is stored as cumulative sums over its
attested years, so a period sum is two bisections and a subtraction
(prefix sums; Blelloch 1990).  A table sums a sampling year's period
once for each key that a synset reads, and keeps the counts: the 14
windows of a cycle 30-60 sweep read 13 distinct years.

Rows grouped by token, as the published files and evocli ingest's
corpus.tsv list each word's years one after another, are the fast path:
a token is split and looked up once per run of rows.  Rows in any other
order load to the same table and counts, at one lookup per row.  Fields
in plain ASCII digits, as those files write them, are checked by a year
table and str.isdecimal(), so a filtered row converts no field and a kept
row only its match count; any other field is checked by int(), with the
same verdict.

Memory per kept row.  Each kept row, in any order, is appended to two
sequences of its key: its year, 8 B of pointer to a shared year int, and
the running sum of the key's counts, 8 B of array('q').  A key with a row
whose year is not above its last one has its counts summed per year,
through one dict, when the table is built.  The table keeps 16 B a row: a
tuple of the shared year ints (8 B of pointer), built as the key's list
of years is emptied, and the array('q') of sums; and 8 B a read key for
each year read.  Counts are signed 64-bit: a count or a key's total above
2**63 - 1 is a DataError naming the file and the token.
"""

import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter, sub

from ._util import open_maybe_gzip, tuple_getter, undecodable_line
from .errors import DataError

MIN_YEAR = 1500
MAX_YEAR = 2008

# a period count is the 11-year sum centered on the period year
HALF_WIDTH = 5

# characters read from a corpus stream at a time; a 1 MiB block raised the
# peak memory by about 3 MiB
BLOCK_SIZE = 1 << 16

# the largest count, and key total, that the table's array('q') sums hold
MAX_TOTAL = (1 << 63) - 1

# one int object per year, indexed by year: every table's year tuples share
# them, so a year costs a key 8 B of pointer, not a 28 B int of its own.
# array('H') years would cost 2 B, but bisect boxes every probe of an array.
_YEARS = tuple(range(MAX_YEAR + 1))

# the year of each plain year field: the ASCII digits of a year in
# [MIN_YEAR, MAX_YEAR], with no sign, space, underscore or leading zero
_YEAR_OF = {str(year): year for year in _YEARS[MIN_YEAR:]}

# the longest line whose fields are checked without int(): a field of such
# a line has at most 640 digits, and 640 is the lowest limit that
# sys.set_int_max_str_digits takes, so int() accepts each decimal field of
# it whatever the limit
MAX_PLAIN_LINE = 640


def split_token(token):
    """The (lemma, corpus POS tag) key of a lemma_POS token.

    The token is split on its final underscore; ValueError when either
    side is empty.
    """
    lemma, _, pos = token.rpartition("_")
    if not lemma or not pos:
        raise ValueError(f"token {token!r} has no _POS suffix")
    return lemma, pos


def join_token(key):
    """The lemma_POS token of a (lemma, corpus POS tag) key: split_token's inverse."""
    return "_".join(key)


@dataclass
class LoadReport:
    rows_kept: int = 0
    rows_filtered: int = 0
    rows_skipped: int = 0


# the sums of a key absent from the corpus: no years, one zero prefix sum
_NO_SUMS = ((), (0,))


class _Rows:
    """One key's rows while they load.

    Each kept row, in any order, appends its year to years, a list of the
    shared _YEARS ints, and the running sum of the key's counts to cum
    (array('q'), cum[0] = 0).  unsorted is set by a row whose year is not
    above the key's last one.
    """

    __slots__ = ("years", "cum", "unsorted")

    def __init__(self):
        self.years = []
        self.cum = array("q", (0,))
        self.unsorted = False

    def sums(self):
        """(years, cum) as CorpusTable stores them: years the sorted tuple
        of the shared _YEARS ints, cum the cumulative sums of their counts
        as an array('q').

        An unsorted key's counts are summed per year first.  The years list
        is then emptied, so that no key's years are held twice while the
        table is built; so this is called once.
        """
        years, cum = self.years, self.cum
        if self.unsorted:
            merged = {}
            for year, count in zip(years, map(sub, cum[1:], cum)):
                merged[year] = merged.get(year, 0) + count
            years = sorted(merged)
            # array('q') takes a list faster than an iterator
            cum = array("q", list(accumulate(map(merged.__getitem__, years), initial=0)))
        sums = tuple(years), cum
        self.years.clear()
        return sums


class CorpusTable:
    """Map from (lemma, POS) keys to period-sum lookups, with a store of
    the period counts at the years read so far.

    Each key is stored once, as (years, cum): the sorted tuple of its
    attested years and the array('q') of cumulative sums of their counts,
    cum[i] being the sum of the first i counts.  Any period sum is then two
    bisections and a subtraction (period_count).  A year is one of the
    module's shared int objects, so a row costs the table 16 B: 8 B of
    pointer in years and 8 B of sum.

    A key gets a slot the first time period_getter() reads it, so only
    the keys that synsets read have one: not the cluster-only words that
    the corpus filter loads for their births.  period_getter resolves a
    synset's keys to their slots once, and keeps one itemgetter over them
    per keys tuple, about 110 B a synset; load_pipeline_inputs makes every
    synset's getter, so its members take the first slots, before any
    window reads them.  A period_array call for a year sums the period
    centered on it for each slot given since the year was last read, and
    the table keeps these counts, an array('q') by slot, for its life: 8 B
    a read key per year read, so each (key, year) is summed at most once.
    The sums never change, so neither do the stored counts; each load
    builds a new table, which starts with none.

    The constructor takes the key -> _Rows map that load_corpus streamed
    the rows into, which _read_rows has checked: years in [MIN_YEAR,
    MAX_YEAR], non-negative counts and totals of at most MAX_TOTAL.  A key
    whose rows came out of year order has them summed per year and sorted,
    so the table is identical however the input rows were sharded or
    ordered.
    """

    def __init__(self, series):
        # key -> (years, cum)
        self._sums = {key: rows.sums() for key, rows in series.items()}
        self._slots = {}  # key -> slot, given on the key's first read
        self._getters = {}  # keys tuple -> period_getter result
        self._read = []  # (years, cum) by slot
        self._periods = {}  # year -> period counts by slot

    def sums(self, key):
        """(years, cumulative sums) of key, as period_count takes them;
        the caller must not modify them."""
        return self._sums.get(key, _NO_SUMS)

    def period_getter(self, keys):
        """The function that takes a period_array to the counts of keys,
        a tuple of keys, as a tuple in the same order.

        The getter is made on the first call for keys and kept: each key
        is looked up in the slot map once per table, not once per window.
        A key gets the next free slot the first time it is read; an absent
        key too, and its counts read as 0.
        """
        getter = self._getters.get(keys)
        if getter is None:
            getter = self._getters[keys] = tuple_getter(
                itemgetter, [self._slot(key) for key in keys])
        return getter

    def _slot(self, key):
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._read)
            self._read.append(self.sums(key))
        return slot

    def period_array(self, year):
        """The period counts at year of every key given a slot so far, as
        an array('q') indexed by slot (see period_getter); the caller must
        not modify it.

        A call sums the period of every key given a slot since the year
        was last read, into the year's array, which the table keeps for its
        life.
        """
        counts = self._periods.get(year)
        if counts is None:
            counts = self._periods[year] = array("q")
        if len(counts) < len(self._read):
            # array('q') takes a list faster than an iterator
            counts.extend([*map(period_count, self._read[len(counts):], repeat(year))])
        return counts

    def counts(self, key):
        """(year, count) pairs of key in year order, attested zero counts
        included; none when absent."""
        years, cum = self.sums(key)
        return zip(years, map(sub, cum[1:], cum))

    def series(self, key):
        """Year -> count mapping for key, attested zero counts included;
        empty dict when absent."""
        return dict(self.counts(key))

    def keys(self):
        return self._sums.keys()

    def __len__(self):
        return len(self._sums)


def _read_rows(source, filter_keys, series, report):
    """Add one stream's kept rows to series and count them in report.

    series maps each key to its _Rows.  A row is kept only if it has four
    tab-separated columns, a lemma_POS token, fields that int() accepts, a
    year in [MIN_YEAR, MAX_YEAR] and non-negative counts; any other
    non-blank row is skipped and counted, whatever its token, and a valid
    row outside filter_keys is counted as filtered.  Rows of one
    (key, year) are summed, by the time the table is built.  OverflowError
    naming the token at the row that takes a key's total above MAX_TOTAL.

    The stream is read in blocks of BLOCK_SIZE characters.  A valid row's
    token is split and looked up only when it differs from the last valid
    row's, so a run of rows of one token costs one lookup.

    A row of plain fields, as every published unigram file and corpus.tsv
    has, is checked without int(): its year is looked up in _YEAR_OF and
    each count is valid when str.isdecimal() holds, which is when int()
    takes it, on a line of at most MAX_PLAIN_LINE characters.  Only a kept
    row's match count is converted.  Any other row (a leading zero, a sign,
    an underscore, spaces, a year out of range, a longer line) is checked
    by int(), field by field, to the same verdict.
    """
    if not filter_keys:
        raise DataError("empty vocabulary filter")
    kept = filtered = skipped = 0
    # the last valid row's token and its key's _Rows, None while that key
    # is filtered; for that key, the appenders of its years and sums, its
    # last year and its total
    last = rows = None
    add_year = add_sum = None
    plain_year = _YEAR_OF.get
    top = total = 0
    tail = ""
    while True:
        block = source.read(BLOCK_SIZE)
        # a block's last piece may be part of a line: it is carried into
        # the next block, and is a line of its own at the end of the stream
        lines = (tail + block).split("\n")
        tail = lines.pop() if block else ""
        for line in lines:
            try:
                token, year_s, match_s, volume_s = line.split("\t")
                year = plain_year(year_s)
                if (year is None or len(line) > MAX_PLAIN_LINE
                        or not match_s.isdecimal() or not volume_s.isdecimal()):
                    year = int(year_s)
                    if (int(volume_s) < 0 or int(match_s) < 0
                            or not MIN_YEAR <= year <= MAX_YEAR):
                        raise ValueError
                    year = _YEARS[year]
                if token != last:
                    key = split_token(token)
                    last, rows = token, None
                    if key in filter_keys:
                        rows = series.get(key)
                        if rows is None:
                            rows = series[key] = _Rows()
                        add_year, add_sum = rows.years.append, rows.cum.append
                        top = rows.years[-1] if rows.years else 0
                        total = rows.cum[-1]
            except ValueError:
                # a blank line fails the column or token check and is not a row
                if line.strip():
                    skipped += 1
                continue
            if rows is None:
                filtered += 1
                continue
            if year <= top:
                rows.unsorted = True
            top = year
            total += int(match_s)
            try:
                add_sum(total)
            except OverflowError:
                raise OverflowError(token) from None
            add_year(year)
            kept += 1
        if not block:
            break
    report.rows_kept += kept
    report.rows_filtered += filtered
    report.rows_skipped += skipped


def load_corpus(paths, filter_keys):
    """Load and merge one or more unigram files (.tsv or .tsv.gz).

    Every file's rows are added to one set of per-key rows and a single
    table is built from them, so the result is independent of file order.
    A file that cannot be opened, decompressed or decoded as UTF-8 is a
    DataError naming it, and so is a file whose rows take a key's total
    above 2**63 - 1, naming the token too.
    """
    series = {}
    report = LoadReport()
    for path in paths:
        try:
            with open_maybe_gzip(path) as handle:
                _read_rows(handle, filter_keys, series, report)
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read corpus file {path}: line "
                            f"{undecodable_line(path)} is not UTF-8 "
                            f"({exc.reason})") from exc
        except (OSError, EOFError, zlib.error) as exc:
            raise DataError(f"cannot read corpus file {path}: {exc}") from exc
        except OverflowError as exc:
            raise DataError(f"corpus file {path}: the counts of {exc} total "
                            f"more than {MAX_TOTAL}") from None
    return CorpusTable(series), report


def period_count(sums, center):
    """Sum of counts over [center - HALF_WIDTH, center + HALF_WIDTH].

    sums is a CorpusTable.sums result; missing years contribute 0 and an
    absent key yields 0.
    """
    years, cum = sums
    return (cum[bisect_right(years, center + HALF_WIDTH)]
            - cum[bisect_left(years, center - HALF_WIDTH)])


def synset_annual_shares(member_series, years):
    """Per-year relative frequencies of synset members (unsmoothed).

    member_series is an ordered list of year->count series (>= 2 members).
    Returns a (year, shares) pair per year, share_i = count_i / total; a
    zero-total year has all-zero shares.
    """
    if len(member_series) < 2:
        raise DataError("need at least two members for annual shares")
    rows = []
    for year in years:
        counts = [series.get(year, 0) for series in member_series]
        total = sum(counts)
        rows.append((year, tuple(c / total if total else 0.0 for c in counts)))
    return rows


def birth_years(table):
    """Key -> first attested year with a nonzero count, for every key in
    the table that has one."""
    births = {}
    for key in table.keys():
        years, cum = table.sums(key)
        # cum[i] > 0 first at i = index of the first nonzero count + 1
        first = bisect_right(cum, 0)
        if first < len(cum):
            births[key] = years[first - 1]
    return births

"""Unigram frequency corpus: parsing, period sums, birth years, annual shares.

Input rows follow the published unigram TSV shape:

    word_POS<TAB>year<TAB>match_count<TAB>volume_count

Years run from 1500 to 2008.  A word absent from the corpus behaves as an
all-zero series.  Each word's series is stored as cumulative sums over its
attested years, so a period sum is two bisections and a subtraction
(prefix sums; Blelloch 1990).

Rows grouped by token, as the published files and evocli ingest's
corpus.tsv list each word's years one after another, are the fast path:
a token is split and looked up once per run of rows.  Rows in any other
order load to the same table and counts, at one lookup per row.
"""

import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from ._util import open_maybe_gzip, undecodable_line
from .errors import DataError

MIN_YEAR = 1500
MAX_YEAR = 2008

# a period count is the 11-year sum centered on the period year
HALF_WIDTH = 5

# characters read from a corpus stream at a time; a 1 MiB block raised the
# peak memory by about 3 MiB
BLOCK_SIZE = 1 << 16


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


class CorpusTable:
    """Immutable map from (lemma, POS) keys to period-sum lookups.

    Each key is stored once, as (years, cum): the sorted tuple of its
    attested years and the cumulative sums of their counts, cum[i] being
    the sum of the first i counts.  Any period sum is then two bisections
    and a subtraction (period_count).  The constructor takes key ->
    {year: non-negative count} dicts whose duplicate rows are already
    summed, so the table is identical however the input rows were sharded
    or ordered.  It keeps no reference to those dicts.
    """

    def __init__(self, series):
        self._sums = {}
        for key, points in series.items():
            years = tuple(sorted(points))
            self._sums[key] = (years, tuple(accumulate(
                (points[year] for year in years), initial=0)))

    def sums(self, key):
        """(years, cumulative sums) of key, as period_count takes them."""
        return self._sums.get(key, _NO_SUMS)

    def series(self, key):
        """Year -> count mapping for key, attested zero counts included;
        empty dict when absent."""
        years, cum = self.sums(key)
        return {year: cum[i + 1] - cum[i] for i, year in enumerate(years)}

    def keys(self):
        return self._sums.keys()

    def __len__(self):
        return len(self._sums)


def _read_rows(source, filter_keys, series, report):
    """Sum one stream's kept rows into series and count them in report.

    series maps each key to a year -> count dict.  A row is kept only if
    it has four tab-separated columns, a lemma_POS token, integer fields,
    a year in [MIN_YEAR, MAX_YEAR] and non-negative counts; any other
    non-blank row is skipped and counted, whatever its token, and a valid
    row outside filter_keys is counted as filtered.  Duplicate (key, year)
    rows are summed.

    The stream is read in blocks of BLOCK_SIZE characters.  A valid row's
    token is split and looked up only when it differs from the last valid
    row's, so a run of rows of one token costs one lookup.
    """
    if not filter_keys:
        raise DataError("empty vocabulary filter")
    kept = filtered = skipped = 0
    # the last valid row's token and its key's year -> count dict, None
    # while that key is filtered
    last = acc = None
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
                year = int(year_s)
                match_count = int(match_s)
                if (int(volume_s) < 0 or match_count < 0
                        or not MIN_YEAR <= year <= MAX_YEAR):
                    raise ValueError
                if token != last:
                    key = split_token(token)
                    last, acc = token, None
                    if key in filter_keys:
                        acc = series.get(key)
                        if acc is None:
                            acc = series[key] = {}
            except ValueError:
                # a blank line fails the column or token check and is not a row
                if line.strip():
                    skipped += 1
                continue
            if acc is None:
                filtered += 1
                continue
            acc[year] = acc.get(year, 0) + match_count
            kept += 1
        if not block:
            break
    report.rows_kept += kept
    report.rows_filtered += filtered
    report.rows_skipped += skipped


def load_corpus(paths, filter_keys):
    """Load and merge one or more unigram files (.tsv or .tsv.gz).

    Every file's rows are summed into one series map and a single table
    is built from it, so the result is independent of file order.  A file
    that cannot be opened, decompressed or decoded as UTF-8 is a
    DataError naming it.
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

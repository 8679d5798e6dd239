"""Unigram frequency corpus: parsing, period sums, birth years, annual shares.

Input rows follow the published unigram TSV shape:

    word_POS<TAB>year<TAB>match_count<TAB>volume_count

Years run from 1500 to 2008.  A word absent from the corpus behaves as an
all-zero series.
"""

import io
from dataclasses import dataclass

from ._util import open_maybe_gzip
from .errors import DataError, NoBirthError, RowParseError

MIN_YEAR = 1500
MAX_YEAR = 2008

DEFAULT_HALF_WIDTH = 5


def split_token(token):
    """The (lemma, corpus POS tag) key of a lemma_POS token.

    The token is split on its final underscore; ValueError when either
    side is empty.
    """
    lemma, _, pos = token.rpartition("_")
    if not lemma or not pos:
        raise ValueError(f"token {token!r} has no _POS suffix")
    return lemma, pos


def parse_ngram_row(line, line_number=0):
    """Parse one TSV row into a (key, year, match_count, volume_count) tuple.

    key is the (lemma, POS) pair of the word token.  Raises RowParseError
    (recoverable; carries the line number) on a malformed row.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 4:
        raise RowParseError(f"expected 4 columns, got {len(fields)}", line_number)
    token, year_s, match_s, volume_s = fields
    try:
        key = split_token(token)
    except ValueError as exc:
        raise RowParseError(str(exc), line_number) from exc
    try:
        year = int(year_s)
        match_count = int(match_s)
        volume_count = int(volume_s)
    except ValueError as exc:
        raise RowParseError(f"non-integer field in {fields!r}", line_number) from exc
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise RowParseError(f"year {year} outside [{MIN_YEAR}, {MAX_YEAR}]", line_number)
    if match_count < 0 or volume_count < 0:
        raise RowParseError("negative count", line_number)
    return key, year, match_count, volume_count


@dataclass
class LoadReport:
    rows_kept: int = 0
    rows_filtered: int = 0
    rows_skipped: int = 0


class CorpusTable:
    """Immutable map from (lemma, POS) keys to sorted (year, count) series.

    Built from key -> {year: count} dicts whose duplicate rows are already
    summed, so the table is identical however the input rows were sharded
    or ordered.
    """

    def __init__(self, series):
        self._series = {key: dict(sorted(points.items()))
                        for key, points in series.items()}

    def series(self, key):
        """Year -> count mapping for key; empty dict when absent."""
        return self._series.get(key, {})

    def keys(self):
        return self._series.keys()

    def __len__(self):
        return len(self._series)


def _read_rows(source, filter_keys, series, report):
    """Sum one stream's kept rows into series and count them in report.

    series maps each key to a year -> count dict; malformed rows are
    skipped and counted, and duplicate (key, year) rows are summed.
    """
    if not filter_keys:
        raise DataError("empty vocabulary filter")
    for line_number, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            key, year, match_count, _ = parse_ngram_row(line, line_number)
        except RowParseError:
            report.rows_skipped += 1
            continue
        if key not in filter_keys:
            report.rows_filtered += 1
            continue
        acc = series.setdefault(key, {})
        acc[year] = acc.get(year, 0) + match_count
        report.rows_kept += 1


def load_corpus(paths, filter_keys):
    """Load and merge one or more unigram files (.tsv or .tsv.gz).

    Every file's rows are summed into one series map and a single table
    is built from it, so the result is independent of file order.
    """
    series = {}
    report = LoadReport()
    for path in paths:
        try:
            with open_maybe_gzip(path) as handle:
                _read_rows(handle, filter_keys, series, report)
        except OSError as exc:
            raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    return CorpusTable(series), report


def period_count(series, center, half_width=DEFAULT_HALF_WIDTH):
    """Sum of counts over [center - half_width, center + half_width].

    Missing years contribute 0; an empty series yields 0.
    """
    lo = center - half_width
    hi = center + half_width
    return sum(count for year, count in series.items() if lo <= year <= hi)


def birth_year(series):
    """Smallest year with a nonzero count; NoBirthError if none exists."""
    years = [year for year, count in series.items() if count > 0]
    if not years:
        raise NoBirthError("series has no nonzero count")
    return min(years)


@dataclass(frozen=True)
class ShareRow:
    year: int
    shares: tuple
    flagged: bool = False  # true when the synset total for the year is zero


def synset_annual_shares(member_series, years):
    """Per-year relative frequencies of synset members (unsmoothed).

    member_series is an ordered list of year->count series (>= 2 members).
    For each year, share_i = count_i / total; a zero-total year emits all
    zeros and is flagged.
    """
    if len(member_series) < 2:
        raise DataError("need at least two members for annual shares")
    rows = []
    for year in years:
        counts = [series.get(year, 0) for series in member_series]
        total = sum(counts)
        if total == 0:
            rows.append(ShareRow(year, tuple(0.0 for _ in counts), flagged=True))
        else:
            rows.append(ShareRow(year, tuple(c / total for c in counts)))
    return rows


def shares_to_csv(rows, member_names):
    """Render share rows as CSV with a header and 6-decimal shares."""
    out = io.StringIO()
    out.write("year," + ",".join(member_names) + "\n")
    for row in rows:
        out.write(f"{row.year}," + ",".join(f"{s:.6f}" for s in row.shares) + "\n")
    return out.getvalue()


def birth_years(table):
    """Birth year for every key in the table that has a nonzero count."""
    births = {}
    for key in table.keys():
        try:
            births[key] = birth_year(table.series(key))
        except NoBirthError:
            continue
    return births

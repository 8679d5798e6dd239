"""Small shared helpers: gzip-aware opening, line parsing, TSV tables and
atomic writes."""

import gzip
import json
import os
import tempfile

from .errors import DataError


def open_maybe_gzip(path, binary=False):
    """Open a UTF-8 text file, or its bytes when binary is set,
    decompressing it when its name ends in .gz."""
    opener = gzip.open if str(path).endswith(".gz") else open
    return opener(path, "rb") if binary else opener(path, "rt", encoding="utf-8")


def parse_lines(lines, parse, start=1, comments=False):
    """[parse(line) for each line that is not blank], newlines stripped.

    Lines are numbered from start; with comments set, lines starting with
    '#' are skipped too.  A ValueError from parse becomes the DataError
    "<file> line N: <reason>", the file named by the handle's name.
    """
    name = getattr(lines, "name", "<input>")
    rows = []
    for line_number, line in enumerate(lines, start=start):
        line = line.rstrip("\n")
        if not line.strip() or (comments and line.startswith("#")):
            continue
        try:
            rows.append(parse(line))
        except ValueError as exc:
            raise DataError(f"{name} line {line_number}: {exc}") from None
    return rows


def read_tsv(path, columns, parse):
    """[parse(fields) for each row] of a TSV table whose header is columns.

    A first line other than the tab-joined columns is a DataError naming
    the file; a row with another number of fields is
    "<file> line N: expected K tab-separated columns, got M".
    """
    header, width = "\t".join(columns), len(columns)

    def row(line):
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"expected {width} tab-separated columns, "
                             f"got {len(fields)}")
        return parse(fields)

    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        if first != header:
            raise DataError(f"{path}: header {first!r} is not {header!r}")
        return parse_lines(handle, row, start=2)


def write_tsv(path, columns, rows):
    """Atomically write a TSV table: the columns, then each row of strings."""
    lines = ["\t".join(columns)]
    lines.extend(map("\t".join, rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename in the same directory."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")

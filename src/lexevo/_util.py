"""Small shared helpers: gzip-aware opening, line parsing, TSV tables
and atomic writes."""

import gzip
import itertools
import json
import os
import zlib

from .errors import DataError


def open_maybe_gzip(path, binary=False):
    """Open a UTF-8 text file, or its bytes when binary is set,
    decompressing it when its name ends in .gz."""
    opener = gzip.open if str(path).endswith(".gz") else open
    return opener(path, "rb") if binary else opener(path, "rt", encoding="utf-8")


def undecodable_line(path):
    """The number of the first line of a (gzipped) file that is not UTF-8.

    The file is read again as bytes.  No UTF-8 character holds the byte
    of a line break, so each line decodes alone as it does in the file.
    """
    number = 0
    try:
        with open_maybe_gzip(path, binary=True) as handle:
            for number, line in enumerate(handle, start=1):
                line.decode("utf-8")
    except UnicodeDecodeError:
        return number
    except (OSError, EOFError, zlib.error):
        pass  # a truncated file: the bad bytes are in its unfinished last line
    return number + 1


def _not_utf8(path, exc):
    """The DataError of a UnicodeDecodeError met reading path."""
    return DataError(f"{path} line {undecodable_line(path)} is not UTF-8 "
                     f"({exc.reason})")


def parse_lines(lines, parse, start=1, comments=False):
    """[parse(line) for each line that is not blank], newlines stripped.

    Lines are numbered from start; with comments set, lines starting with
    '#' are skipped too.  A ValueError from parse becomes the DataError
    "<file> line N: <reason>", the file named by the handle's name, and
    a line that is not UTF-8 the DataError "<file> line N is not UTF-8
    (<reason>)".
    """
    name = getattr(lines, "name", "<input>")
    rows = []
    try:
        for line_number, line in enumerate(lines, start=start):
            line = line.rstrip("\n")
            if not line.strip() or (comments and line.startswith("#")):
                continue
            try:
                rows.append(parse(line))
            except ValueError as exc:
                raise DataError(f"{name} line {line_number}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(name, exc) from None
    return rows


def read_tsv(path, columns, parse):
    """[parse(fields) for each row] of a TSV table whose header is columns.

    A first line other than the tab-joined columns is a DataError naming
    the file; a row with another number of fields is
    "<file> line N: expected K tab-separated columns, got M", and a line
    that is not UTF-8 "<file> line N is not UTF-8 (<reason>)".
    """
    header, width = "\t".join(columns), len(columns)

    def row(line):
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"expected {width} tab-separated columns, "
                             f"got {len(fields)}")
        return parse(fields)

    with open(path, encoding="utf-8") as handle:
        try:
            first = handle.readline().rstrip("\n")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        if first != header:
            raise DataError(f"{path}: header {first!r} is not {header!r}")
        return parse_lines(handle, row, start=2)


def write_tsv(path, columns, rows):
    """Atomically write a TSV table: the columns, then each row of strings,
    each line written as rows yields it."""
    atomic_write_lines(path, ("\t".join(fields) + "\n"
                              for fields in itertools.chain([columns], rows)))


def atomic_write_lines(path, lines):
    """Write each string of lines to path via a temp file + rename in the
    same directory; the strings carry their own newlines.

    lines is consumed while the temp file is open, so a table is never
    held whole.  Whatever is raised, by lines too, unlinks the temp file
    and leaves path as it was.  The temp file is created as open() creates
    a file, its mode 0666 less the umask, which the rename keeps
    (tempfile.mkstemp would make it 0600).
    """
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    handle = open(tmp, "x", encoding="utf-8")  # "x": never an existing file
    try:
        with handle:
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj):
    atomic_write_lines(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])

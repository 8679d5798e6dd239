"""Small shared helpers: gzip-aware opening, line parsing and atomic writes."""

import gzip
import json
import os
import tempfile

from .errors import DataError


def open_maybe_gzip(path):
    """Open a UTF-8 text file, decompressing it when its name ends in .gz."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


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

"""The on-disk formats shared by every stage: artifacts and key=value files.

An artifact is a text file whose first line is a header of
space-separated ``key=value`` fields, always including ``config_hash``,
optionally followed by one line of column names; every further non-blank
line is a data row. Writes go to a temporary file in the same directory
that replaces the target only once complete, so a reader never sees half
an artifact.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Callable, Iterable, Mapping

from .errors import ConfigError, DataError, InvariantError


@contextmanager
def _replacing(path):
    """A text file handle whose contents replace ``path`` on success."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write(path, header: Mapping[str, object], lines: Iterable[str], columns=None):
    """Write ``# k=v ...``, then ``columns`` (if any), then each data line."""
    with _replacing(path) as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
        if columns is not None:
            fh.write(columns + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_json(path, obj):
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read(path, parse: Callable, config_hash=None, sep="\t", columns=None, numbered=None):
    """Returns (header dict, iterator of ``parse(fields)`` per data row).

    The header must carry ``config_hash``; when ``config_hash`` is given it
    must also match it. With ``numbered`` (the noun for a row's id), each
    row's first field must be its position, counting from 0. A row that
    fails that or that ``parse`` rejects (ValueError, or IndexError for a
    missing field) raises DataError naming the file and line.
    """
    rows = _read(path, parse, config_hash, sep, columns, numbered)
    return next(rows), rows


def _read(path, parse, config_hash, sep, columns, numbered):
    """Yields the header, then the parsed data rows."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise DataError(f"{path}, line 1: no '# key=value' header line")
        header = dict(part.split("=", 1) for part in first[1:].split() if "=" in part)
        found = header.get("config_hash")
        if not found:
            raise DataError(f"{path}, line 1: header has no config_hash")
        if config_hash is not None and found != config_hash:
            raise InvariantError(
                f"{path} was produced under config hash {found}, current is {config_hash}"
            )
        if columns is not None and fh.readline().rstrip("\n") != columns:
            raise DataError(f"{path}, line 2: expected the column line {columns!r}")
        yield header
        position = 0
        for line_no, line in enumerate(fh, 2 if columns is None else 3):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                fields = line.split(sep)
                if numbered and int(fields[0]) != position:
                    raise ValueError(
                        f"{numbered} id {fields[0]} is not its position {position}")
                row = parse(fields)
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}, line {line_no}: {exc}: {line[:80]!r}") from None
            position += 1
            yield row


def ints(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list; the empty string is ()."""
    return tuple(map(int, text.split(","))) if text else ()


def read_keyvalues(path) -> dict[str, str]:
    """A flat ``key=value`` file; ``#`` starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}, line {line_no}: no '=' in {raw.strip()!r}")
                key, val = line.split("=", 1)
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return values

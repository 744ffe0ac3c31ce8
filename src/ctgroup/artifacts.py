"""The on-disk formats shared by every stage: artifacts and key=value files.

An artifact is a text file whose first line is a header of
space-separated ``key=value`` fields, always including ``config_hash``,
optionally followed by one line of column names; every further non-blank
line is a data row (grammar: README). Writes go to a temporary file in the
same directory that replaces the target only once complete, so a reader
never sees half an artifact. read_rows parses the rows with numpy, a block
of whole lines at a time, with the byte helpers load_trace uses too.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, DataError, InvariantError

# Files are read this many bytes at a time and each block's whole lines
# are parsed together, so a reader holds one block's temporaries on top
# of the columns it builds.
READ_BLOCK = 1 << 18


def _blocks(fh, size: int) -> Iterator[bytes]:
    """The bytes of a binary file in blocks of whole lines, each about
    ``size`` bytes or one line that is longer. Only the last block may end
    without a line end, and no block ends inside a \\r\\n."""
    carry = b""
    while data := fh.read(size):
        buf = carry + data
        # a final \r may be the first half of a \r\n
        search_end = len(buf) - buf.endswith(b"\r")
        cut = 1 + max(buf.rfind(b"\n", 0, search_end), buf.rfind(b"\r", 0, search_end))
        if cut:
            yield buf[:cut]
        carry = buf[cut:]
    if carry:
        yield carry


class _Columns:
    """Columns of one length, filled a file block at a time. When a block
    does not fit, room is made for as many rows as the file read so far
    predicts for the whole file, and at least a quarter more; the columns
    are trimmed once at the end. So the rows are copied once, into place,
    and the columns are never joined from pieces."""

    def __init__(self, fh, dtypes, most: int | None = None):
        self.size = os.fstat(fh.fileno()).st_size  # the file's bytes
        self.most = most  # a cap on the rows, if any
        self.columns = [np.empty(0, dtype) for dtype in dtypes]
        self.length = 0

    def extend(self, read: int, count: int) -> list[np.ndarray]:
        """Views of ``count`` more rows of each column, to be filled, once
        ``read`` bytes of the file are read."""
        end = self.length + count
        if end > len(self.columns[0]):
            room = max(end * self.size // max(read, 1) + 1, len(self.columns[0]) * 5 // 4)
            room = max(end, room if self.most is None else min(room, self.most))
            grown = [np.empty(room, column.dtype) for column in self.columns]
            for new, column in zip(grown, self.columns):
                new[:self.length] = column[:self.length]
            self.columns = grown
        views = [column[self.length:end] for column in self.columns]
        self.length = end
        return views

    def trimmed(self) -> list[np.ndarray]:
        """The columns, cut to the rows filled."""
        for column in self.columns:
            column.resize(self.length, refcheck=False)  # shrinks in place
        return self.columns


def _line_bounds(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the lines of a block, line ends excluded.

    As in text mode with universal newlines, \\n, \\r and \\r\\n each end
    a line.
    """
    ends_line = b == ord("\n")
    cr = b == ord("\r")
    crlf = None
    if cr.any():
        crlf = np.append(cr[:-1] & ends_line[1:], False)  # the \r of each \r\n
        ends_line[1:] &= ~crlf[:-1]  # whose \n ends no line of its own
        ends_line |= cr
    ends = np.flatnonzero(ends_line)
    starts = np.concatenate(([0], ends + 1))
    if crlf is not None:
        starts[1:] += crlf[ends]
    if starts[-1] == len(b):
        return starts[:-1], ends
    return starts, np.append(ends, len(b))  # the file's last line has no line end


def _per_line(positions: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many of the sorted positions, none of them a line end, fall in
    each line."""
    return np.diff(np.searchsorted(positions, ends), prepend=0)


def _uint_fields(b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(values, which are valid) of the fields b[lo:hi] as int64, valid
    when made of 1 to 19 ASCII digits with a value of at most 2**63 - 1."""
    width = hi - lo
    bad = (width < 1) | (width > 19)
    value = np.zeros(len(lo), np.uint64)  # 19 digits never overflow it
    at = hi - 1
    for k in range(int(width[~bad].max(initial=0))):  # digit k from the right
        digit = b.take(at, mode="clip")
        digit -= np.uint8(ord("0"))  # wraps below "0"
        digit *= k < width  # nothing from before the field's start
        bad |= digit > 9
        value += digit * np.uint64(10**k)
        at -= 1
    return value.view(np.int64), ~bad & (value <= np.iinfo(np.int64).max)


def _fields_equal(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, text: bytes):
    """Which fields b[lo:hi] are exactly the bytes of text."""
    equal = (hi - lo) == len(text)
    for k, byte in enumerate(text):
        equal &= b.take(lo + k, mode="clip") == byte
    return equal


def temporary(path) -> str:
    """The file a write to ``path`` fills before it replaces ``path``."""
    return f"{path}.tmp"


@contextmanager
def replacing(path):
    """A text file handle whose contents replace ``path`` on success."""
    tmp = temporary(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write(path, header: Mapping[str, object], lines: Iterable[str], columns=None):
    """Write ``# k=v ...``, then ``columns`` (if any), then each data line."""
    with replacing(path) as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
        if columns is not None:
            fh.write(columns + "\n")
        for line in lines:
            fh.write(line + "\n")


def list_lines(rows: Iterable[tuple[int, Iterable[int]]]) -> Iterator[str]:
    """``id<TAB>v1,v2,...`` for each (id, values) row."""
    return (f"{row_id}\t{','.join(map(str, values))}" for row_id, values in rows)


def write_json(path, obj):
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def first(mask: np.ndarray) -> int | None:
    """The position of the first True in ``mask``, or None."""
    at = int(np.argmax(mask)) if len(mask) else 0
    return at if len(mask) and mask[at] else None


def find(keys: np.ndarray, values) -> np.ndarray:
    """The position of each of ``values`` in the sorted array ``keys``, or
    -1 where it is not there."""
    if not len(keys):
        return np.full(np.shape(values), -1, dtype=np.intp)
    at = np.searchsorted(keys, values)
    at[keys.take(at, mode="clip") != values] = -1
    return at


@dataclass(frozen=True, eq=False)
class Rows:
    """An artifact's header and data rows: row i, on line ``lines[i]``, is
    the id ``ids[i]`` and the values ``values[offsets[i]:offsets[i + 1]]``,
    then the flag if ``flagged[i]``. ``check`` takes problems: the first
    row that breaks a rule (or None) and its message, a function of it."""

    path: str
    header: dict
    ids: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    flagged: np.ndarray
    lines: np.ndarray

    def numbered(self, noun: str):
        """The problem of the first row whose id is not its position."""
        return (first(self.ids != np.arange(len(self.ids))),
                lambda r: f"{noun} id {self.ids[r]} is not its position {r}")

    def at_value(self, mask: np.ndarray, message: Callable[[int], str]):
        """The problem of the first value in ``mask``, named by position."""
        p = first(mask)
        row = None if p is None else int(np.searchsorted(self.offsets, p, "right")) - 1
        return row, lambda r: message(p)

    def repeated(self, within_rows=False) -> np.ndarray:
        """Which values equal an earlier one (of their row: within_rows).
        Within rows, whole rows of about READ_BLOCK values are sorted at a
        time, so the temporaries are one such slice's."""
        offsets = self.offsets if within_rows else np.array([0, len(self.values)])
        mask = np.zeros(len(self.values), bool)
        lo = 0
        while lo < len(offsets) - 1:
            hi = max(int(np.searchsorted(offsets, offsets[lo] + READ_BLOCK, "right")) - 1, lo + 1)
            values = self.values[offsets[lo]:offsets[hi]]
            # a stable sort keeps a value's repeats in order, a row's side by side
            order = np.argsort(values, kind="stable")
            same = np.diff(values[order]) == 0
            rows = np.repeat(np.arange(hi - lo, dtype=np.int32), np.diff(offsets[lo:hi + 1]))[order]
            same &= rows[1:] == rows[:-1]
            mask[offsets[lo]:offsets[hi]][order[1:][same]] = True
            lo = hi
        return mask

    def check(self, *problems: tuple[int | None, Callable[[int], str]]):
        """Raise a DataError naming the file and line of the earliest
        problem; of two on one row, the one listed first."""
        found = [(row, k) for k, (row, _) in enumerate(problems) if row is not None]
        if found:
            row, k = min(found)
            _fail(self.path, int(self.lines[row]), problems[k][1](row))


def _fail(path, line_no: int, message: str):
    """Raise a DataError naming the file and the line, with its text."""
    with open(path, encoding="utf-8", errors="replace") as fh:  # universal newlines
        text = next(islice(fh, line_no - 1, None)).rstrip("\n")
    raise DataError(f"{path}, line {line_no}: {message}: {text[:80]!r}")


def read_rows(path, config_hash=None, sep="\t", columns=None, flag=None) -> Rows:
    """The header and data rows of an artifact, whose header must carry
    ``config_hash`` (equal to ``config_hash``, when given). With ``columns``,
    line 2 must be exactly that; with ``flag``, a row may end in a tab and
    that word. A file that cannot be read, or a line that breaks the
    grammar, is a DataError naming the file and line."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            first_line, column_line = fh.readline().rstrip("\n"), fh.readline().rstrip("\n")
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        if not first_line.startswith("#"):
            raise DataError(f"{path}, line 1: no '# key=value' header line")
        header = dict(part.split("=", 1) for part in first_line[1:].split() if "=" in part)
        found = header.get("config_hash")
        if not found:
            raise DataError(f"{path}, line 1: header has no config_hash")
        if config_hash is not None and found != config_hash:
            raise InvariantError(
                f"{path} was produced under config hash {found}, current is {config_hash}")
        if columns is not None and column_line != columns:
            raise DataError(f"{path}, line 2: expected the column line {columns!r}")
        lead = 1 if columns is None else 2  # lines before the data
        rows = _Columns(fh, (np.int64, np.int64, bool, np.int64))
        values = _Columns(fh, (np.int64,))
        line_count = read = 0
        for block in _blocks(fh, READ_BLOCK):
            b = np.frombuffer(block, np.uint8)
            starts, ends = _line_bounds(b)
            skip = min(max(lead - line_count, 0), len(starts))
            ids, block_values, counts, flagged, lines = _parse_rows(
                path, b, starts[skip:], ends[skip:], sep, flag, line_count + skip)
            read += len(block)
            pieces = (ids, counts, flagged, lines)
            for out, piece in zip(rows.extend(read, len(ids)), pieces):
                out[:] = piece
            values.extend(read, len(block_values))[0][:] = block_values
            line_count += len(starts)
    ids, counts, flagged, lines = rows.trimmed()
    return Rows(str(path), header, ids, values.trimmed()[0],
                np.append(0, np.cumsum(counts)), flagged, lines)


def _parse_rows(path, b, starts, ends, sep, flag, before):
    """(ids, values, value counts, flagged, line numbers) of the non-blank
    lines among starts/ends of a block, which ``before`` lines precede."""
    rows = np.flatnonzero(ends > starts)
    starts, ends = starts[rows], ends[rows]
    # a field ends at the separator, a comma or its line's end
    cuts = np.flatnonzero((b == ord(sep)) | (b == ord(",")))
    cuts = cuts[np.searchsorted(cuts, starts[0] if len(starts) else len(b)):]
    per = _per_line(cuts, ends)
    lo = np.insert(cuts + 1, np.cumsum(per) - per, starts)
    hi = np.insert(cuts, np.cumsum(per), ends)
    id_at = np.cumsum(per + 1) - per - 1  # each line's first field
    last = id_at + per
    seps = _per_line(cuts[b[cuts] == ord(sep)], ends)
    flagged = (seps == 2) & (b[lo[last] - 1] == ord(sep)) & (
        _fields_equal(b, lo[last], hi[last], flag.encode()) if flag else False)
    well = (b.take(hi[id_at], mode="clip") == ord(sep)) & ((seps == 1) | flagged)
    counts = per - flagged
    # a tab-separated row whose list is empty
    counts -= (sep == "\t") & (counts == 1) & ((hi - lo).take(id_at + 1, mode="clip") == 0)
    value_at = np.arange(counts.sum()) + np.repeat(id_at + 1 - np.cumsum(counts) + counts,
                                                   counts)
    # ids and values apart, so short values take fewer digit passes
    ids, ok = _uint_fields(b, lo[id_at], hi[id_at])
    values, ok_values = _uint_fields(b, lo[value_at], hi[value_at])
    bad = ~(well & ok)
    bad[np.repeat(np.arange(len(rows)), counts)[~ok_values]] = True
    r = first(bad)
    if r is not None:
        form = "id,value" if sep == "," else "id\tv1,v2,..." + f"[\t{flag}]" * bool(flag)
        _fail(path, before + rows[r] + 1, f"not a row of the form {form!r}")
    return ids, values, counts, flagged, rows + before + 1


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

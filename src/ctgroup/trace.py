"""Block I/O trace ingestion, serialization and train/test splitting.

Traces follow the 7-column MSR Cambridge CSV convention:

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

Timestamps are integer ticks (100 ns units), Offset/Size are bytes. A datum
is identified by its starting block address alone; accesses to the same
offset with different sizes are accesses to the same datum.

load_trace parses a file in blocks of whole lines with numpy. A line in
canonical form, which real MSR traces are made of, goes straight into the
int64 columns: 7 ASCII fields, timestamp, offset and size of 1 to 19
digits within int64, a size above 0 and an op of exactly Read or Write.
Every other line (a header, a blank line, padded or signed numbers,
lowercase ops, non-ASCII text, bytes that are not UTF-8, a malformed
record) takes the per-line parser that parse_record uses, in file order,
so the rules for errors, skips and filters are those of that parser.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .artifacts import (
    READ_BLOCK,
    _blocks,
    _Columns,
    _fields_equal,
    _line_bounds,
    _per_line,
    _uint_fields,
    find,
)
from .errors import (
    ConfigError,
    EmptyTraceError,
    RejectedRecordError,
    TraceParseError,
)


# Passes over a trace turn its columns into Python values this many
# accesses at a time (column_rows), so they hold one block of Python ints
# on top of the pipeline's data, not whole-trace lists.
ROW_BLOCK = 1 << 15


def column_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """zip(*(column.tolist() for column in columns)) for equal-length
    numpy columns, converted ROW_BLOCK rows at a time."""
    block = ROW_BLOCK
    return chain.from_iterable(
        zip(*(column[lo:lo + block].tolist() for column in columns))
        for lo in range(0, len(columns[0]), block)
    )


def first_access_positions(addresses: np.ndarray) -> np.ndarray:
    """The positions of the first access to each distinct address, ascending.

    The addresses are taken ROW_BLOCK at a time, with a sorted array of
    those seen in earlier blocks. A block's distinct addresses and the
    first position of each come from one sort of the block; a binary
    search keeps those not seen before. So the temporaries are one block's
    plus the distinct addresses, not a sort of the whole column.
    """
    seen = addresses[:0]
    found = [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(addresses), ROW_BLOCK):
        block = addresses[lo:lo + ROW_BLOCK]
        order = np.argsort(block)
        ordered = block[order]
        starts = np.flatnonzero(np.insert(ordered[1:] != ordered[:-1], 0, True))
        values = ordered[starts]
        new = find(seen, values) < 0
        if new.any():
            seen = np.insert(seen, np.searchsorted(seen, values[new]), values[new])
            first = np.minimum.reduceat(order, starts)[new]
            first.sort()
            found.append(first + lo)
    return np.concatenate(found)


class Op(enum.IntEnum):
    READ = 0
    WRITE = 1


class AccessRecord(NamedTuple):
    """One block-layer access."""

    timestamp: int
    block_address: int
    size: int
    op: Op


_OP_CODES = {"read": int(Op.READ), "write": int(Op.WRITE)}
_INT64 = 1 << 63


def _parse_fields(line: str, line_no=None):
    """(timestamp, offset, size, op code, host, disk) of one CSV line."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 7:
        raise TraceParseError(
            f"expected 7 comma-separated fields, got {len(fields)}", line_no
        )
    try:
        timestamp = int(fields[0])
    except ValueError:
        raise TraceParseError(f"non-numeric timestamp {fields[0]!r}", line_no) from None
    op = _OP_CODES.get(fields[3].strip().lower())
    if op is None:
        raise TraceParseError(f"unknown operation type {fields[3]!r}", line_no)
    try:
        offset = int(fields[4])
        size = int(fields[5])
    except ValueError:
        raise TraceParseError(
            f"non-numeric offset/size {fields[4]!r}/{fields[5]!r}", line_no
        ) from None
    if offset < 0:
        raise TraceParseError(f"negative offset {offset}", line_no)
    if size <= 0:
        raise RejectedRecordError(f"non-positive size {size}", line_no)
    if not -_INT64 <= timestamp < _INT64 or offset >= _INT64 or size >= _INT64:
        raise TraceParseError("timestamp, offset or size out of int64 range", line_no)
    return timestamp, offset, size, op, fields[1].strip(), fields[2].strip()


def parse_record(line: str, line_no: int | None = None) -> AccessRecord:
    """Parse one MSR-convention CSV line into an AccessRecord.

    Raises TraceParseError for malformed lines, a value outside int64
    among them, and RejectedRecordError for records with non-positive size.
    """
    timestamp, offset, size, op, _host, _disk = _parse_fields(line, line_no)
    return AccessRecord(timestamp, offset, size, Op(op))


@dataclass
class Trace:
    """An ordered access sequence, stored column-wise.

    The position of a record is its access sequence number, used by the
    locality statistics.
    """

    timestamps: np.ndarray
    addresses: np.ndarray
    sizes: np.ndarray
    ops: np.ndarray
    source_label: str = ""
    skipped: int = 0
    # total_unique_bytes, once computed; the arrays are never modified
    _unique_bytes: int | None = field(default=None, init=False, repr=False,
                                      compare=False)
    # (simulator.build_lru_profile of the columns,) once computed; it may be None
    _lru_profile: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)
    # (table, simulator.group_column of the addresses under it), for the
    # last GroupTable a group policy replayed this trace with
    _group_column: tuple | None = field(default=None, init=False, repr=False,
                                        compare=False)

    @classmethod
    def from_records(cls, records: Iterable[AccessRecord], source_label="", skipped=0):
        records = list(records)
        return cls(
            timestamps=np.array([r.timestamp for r in records], dtype=np.int64),
            addresses=np.array([r.block_address for r in records], dtype=np.int64),
            sizes=np.array([r.size for r in records], dtype=np.int64),
            ops=np.array([int(r.op) for r in records], dtype=np.uint8),
            source_label=source_label,
            skipped=skipped,
        )

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, i: int) -> AccessRecord:
        return AccessRecord(
            int(self.timestamps[i]),
            int(self.addresses[i]),
            int(self.sizes[i]),
            Op(int(self.ops[i])),
        )

    def __iter__(self) -> Iterator[AccessRecord]:
        for t, a, s, o in column_rows(self.timestamps, self.addresses, self.sizes,
                                      self.ops):
            yield AccessRecord(t, a, s, Op(o))

    def split(self, train_count: int) -> tuple["Trace", "Trace"]:
        """Split into (first train_count records, remainder).

        Both halves must be non-empty; concatenating them reproduces the
        input.
        """
        if not 0 < train_count < len(self):
            raise ConfigError(
                f"train_count must be in (0, {len(self)}), got {train_count}"
            )
        return self._take(slice(train_count)), self._take(slice(train_count, None))

    def filter_ops(self, ops: str) -> "Trace":
        """Keep only reads, only writes, or both ('read' | 'write' | 'both')."""
        if ops == "both":
            return self
        if ops == "read":
            return self._take(self.ops == int(Op.READ))
        if ops == "write":
            return self._take(self.ops == int(Op.WRITE))
        raise ConfigError(f"ops filter must be read|write|both, got {ops!r}")

    def _take(self, index) -> "Trace":
        """The records a slice or boolean mask selects, under the same label."""
        return Trace(self.timestamps[index], self.addresses[index], self.sizes[index],
                     self.ops[index], source_label=self.source_label)

    def total_unique_bytes(self) -> int:
        """Sum of first-seen sizes over distinct block addresses.

        Computed once per trace: every capacity fraction of a sweep is
        taken of it.
        """
        if self._unique_bytes is None:
            first = first_access_positions(self.addresses)
            self._unique_bytes = int(self.sizes[first].sum())
        return self._unique_bytes

    def first_seen_sizes(self) -> dict[int, int]:
        """{address: size at its first access}, in first-access order."""
        first = first_access_positions(self.addresses)
        return dict(zip(self.addresses[first].tolist(), self.sizes[first].tolist()))

    def to_csv_lines(self) -> Iterator[str]:
        host = self.source_label or "trace"
        host = host.replace(",", "_")
        for t, a, s, o in column_rows(self.timestamps, self.addresses, self.sizes,
                                      self.ops):
            op_text = "Read" if o == int(Op.READ) else "Write"
            yield f"{t},{host},0,{op_text},{a},{s},0"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_csv_lines():
                fh.write(line + "\n")


def _parse_block(b, starts, ends, filters):
    """The columns of a block's lines in canonical MSR form.

    Returns (columns, keep, canonical): timestamps, offsets, sizes and op
    codes with a row per line, set on the canonical lines; which of those
    pass the (field index, bytes) filters; and which lines are canonical.
    Every other line is left to _parse_fields.
    """
    n = len(starts)
    columns = (np.zeros(n, np.int64), np.zeros(n, np.int64), np.zeros(n, np.int64),
               np.zeros(n, np.uint8))
    comma = np.flatnonzero(b == ord(","))
    counts = _per_line(comma, ends)
    ascii_line = _per_line(np.flatnonzero(b >= 0x80), ends) == 0
    rows = np.flatnonzero((counts == 6) & ascii_line)
    c = comma[(np.cumsum(counts) - counts)[rows, None] + np.arange(6)].T
    # field k of a row is b[lo[k]:hi[k]]
    lo = [starts[rows]] + [c_k + 1 for c_k in c]
    hi = list(c) + [ends[rows]]
    timestamp, ok = _uint_fields(b, lo[0], hi[0])
    offset, ok_offset = _uint_fields(b, lo[4], hi[4])
    size, ok_size = _uint_fields(b, lo[5], hi[5])
    write = _fields_equal(b, lo[3], hi[3], b"Write")
    ok &= ok_offset & ok_size & (size > 0)
    ok &= write | _fields_equal(b, lo[3], hi[3], b"Read")
    keep = np.ones(len(rows), bool)
    for k, text in filters:
        # _parse_fields strips the field; one with space or control bytes
        # at either end takes that path
        padded = (hi[k] > lo[k]) & ((b.take(lo[k], mode="clip") <= 0x20)
                                    | (b.take(hi[k] - 1, mode="clip") <= 0x20))
        ok &= ~padded
        keep &= _fields_equal(b, lo[k], hi[k], text)
    rows, keep = rows[ok], keep[ok]
    for column, values in zip(columns, (timestamp, offset, size, write)):
        column[rows] = values[ok]
    canonical = np.zeros(n, bool)
    canonical[rows] = True
    kept = np.zeros(n, bool)
    kept[rows] = keep
    return columns, kept, canonical


def _utf8(line: str, line_no) -> str:
    """A line decoded with surrogateescape, if its bytes were all UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise TraceParseError(f"byte 0x{byte:02x} is not valid UTF-8",
                                  line_no) from None
    return line


def load_trace(
    path,
    skip_malformed: bool = False,
    ops: str = "both",
    host: str | None = None,
    disk: str | None = None,
    max_records: int | None = None,
    source_label: str | None = None,
) -> Trace:
    """Load an MSR-convention CSV trace.

    Malformed lines abort with the offending line number unless
    skip_malformed is set, in which case they are skipped and counted. A
    line holding a byte that is not UTF-8 is malformed. A first line whose
    first column is not numeric is treated as a header. host/disk restrict
    the trace to records from one server/disk. Lines end at \\n, \\r or
    \\r\\n.

    The file is read READ_BLOCK bytes at a time. numpy parses each block's
    lines in canonical form (see the module docstring), and a host or disk
    filter compares the field's bytes, if it has no space or control byte
    at either end. Every other line goes, in file order, through the
    per-line parser, which decides the blank lines, the header, the errors
    and the skips. No line after the max_records-th record is parsed.
    Each block's records go straight into the columns, which are trimmed
    once at the end.
    """
    filters = [(k, value.encode("utf-8")) for k, value in ((1, host), (2, disk))
               if value is not None]
    # records are kept up to and including the max_records-th, and the
    # first one always
    limit = None if max_records is None else max(max_records, 1)
    skipped = line_count = read = 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise TraceParseError(f"cannot read trace file {path}: {exc}") from None
    with fh:
        kept = _Columns(fh, (np.int64, np.int64, np.int64, np.uint8), limit)
        for block in _blocks(fh, READ_BLOCK):
            b = np.frombuffer(block, np.uint8)
            starts, ends = _line_bounds(b)
            columns, keep, canonical = _parse_block(b, starts, ends, filters)
            odd = np.flatnonzero(~canonical)
            # canonical records kept in this block before each odd line
            kept_before = np.cumsum(keep)[odd].tolist()
            odd_kept = 0
            for i, before in zip(odd.tolist(), kept_before):
                if limit is not None and kept.length + before + odd_kept >= limit:
                    break
                line_no = line_count + i + 1
                line = block[starts[i]:ends[i]].decode("utf-8", "surrogateescape")
                if not line.strip():
                    continue
                try:
                    timestamp, offset, size, op, rec_host, rec_disk = _parse_fields(
                        _utf8(line, line_no), line_no
                    )
                except TraceParseError:
                    if line_no == 1 and not line.split(",")[0].strip().isdigit():
                        continue  # header row
                    if skip_malformed:
                        skipped += 1
                        continue
                    raise
                except RejectedRecordError:
                    if skip_malformed:
                        skipped += 1
                        continue
                    raise
                if host is not None and rec_host != host:
                    continue
                if disk is not None and rec_disk != disk:
                    continue
                for column, value in zip(columns, (timestamp, offset, size, op)):
                    column[i] = value
                keep[i] = True
                odd_kept += 1
            rows = np.flatnonzero(keep)
            if limit is not None:
                rows = rows[:limit - kept.length]
            read += len(block)
            for out, column in zip(kept.extend(read, len(rows)), columns):
                np.take(column, rows, out=out, mode="clip")  # unbuffered
            line_count += len(starts)
            if kept.length == limit:
                break
    if not kept.length:
        raise EmptyTraceError(f"no valid records in {path}")
    label = source_label if source_label is not None else str(path)
    trace = Trace(*kept.trimmed(), source_label=label, skipped=skipped)
    if ops != "both":
        trace = trace.filter_ops(ops)
        if len(trace) == 0:
            raise EmptyTraceError(f"no records left in {path} after ops={ops} filter")
    return trace

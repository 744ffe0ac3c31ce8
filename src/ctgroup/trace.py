"""Block I/O trace ingestion, serialization and train/test splitting.

Traces follow the 7-column MSR Cambridge CSV convention:

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

Timestamps are integer ticks (100 ns units), Offset/Size are bytes. A datum
is identified by its starting block address alone; accesses to the same
offset with different sizes are accesses to the same datum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

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
    return timestamp, offset, size, op, fields[1].strip(), fields[2].strip()


def parse_record(line: str, line_no: int | None = None) -> AccessRecord:
    """Parse one MSR-convention CSV line into an AccessRecord.

    Raises TraceParseError for malformed lines and RejectedRecordError for
    records with non-positive size.
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
            _, first = np.unique(self.addresses, return_index=True)
            self._unique_bytes = int(self.sizes[first].sum())
        return self._unique_bytes

    def first_seen_sizes(self) -> dict[int, int]:
        """{address: size at its first access}, in first-access order."""
        _, first = np.unique(self.addresses, return_index=True)
        first.sort()
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
    first line whose first column is not numeric is treated as a header.
    host/disk restrict the trace to records from one server/disk.
    """
    timestamps: list[int] = []
    offsets: list[int] = []
    sizes: list[int] = []
    op_codes: list[int] = []
    skipped = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise TraceParseError(f"cannot read trace file {path}: {exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                timestamp, offset, size, op, rec_host, rec_disk = _parse_fields(
                    line, line_no
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
            timestamps.append(timestamp)
            offsets.append(offset)
            sizes.append(size)
            op_codes.append(op)
            if max_records is not None and len(offsets) >= max_records:
                break
    if not offsets:
        raise EmptyTraceError(f"no valid records in {path}")
    label = source_label if source_label is not None else str(path)
    trace = Trace(
        timestamps=np.array(timestamps, dtype=np.int64),
        addresses=np.array(offsets, dtype=np.int64),
        sizes=np.array(sizes, dtype=np.int64),
        ops=np.array(op_codes, dtype=np.uint8),
        source_label=label,
        skipped=skipped,
    )
    if ops != "both":
        trace = trace.filter_ops(ops)
        if len(trace) == 0:
            raise EmptyTraceError(f"no records left in {path} after ops={ops} filter")
    return trace

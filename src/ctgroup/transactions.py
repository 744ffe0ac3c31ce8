"""Cache transaction extraction over a size-bounded FIFO window.

Extraction replays the access stream through a FIFO queue holding at
most M bytes. Every time a further M bytes have been evicted it emits a
transaction: a duplicate-free, insertion-ordered set of block addresses.

Two emission semantics are supported:

* ``snapshot``   - the transaction is the current window contents and the
                   window is cleared after emission.
* ``cumulative`` - the transaction is every address admitted to the window
                   since the previous emission (including addresses already
                   evicted again); the window is left intact. This is the
                   default: it preserves window continuity across
                   transaction boundaries and guarantees every accessed
                   address lands in at least one transaction.

Accesses to an address currently resident in the window are no-ops: they
neither grow the byte counter nor re-enter the pending transaction.

The log is a ``TransactionLog``: every transaction's members back to back
in one int64 array, an offsets array, and a flag for a trailing partial
transaction, which only ``TransactionLog.used`` leaves out. Every stage
takes a log. A ``CacheTransaction`` is only a view of one transaction of
a log, made by iterating it; ``TransactionLog.of`` packs a sequence of
them into a log.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from . import artifacts
from .errors import ConfigError, DimensionMismatchError, EmptyTraceError
from .trace import Trace, column_rows

SNAPSHOT = "snapshot"
CUMULATIVE = "cumulative"
MODES = (SNAPSHOT, CUMULATIVE)


@dataclass
class ExtractorConfig:
    window_bytes: int  # M: eviction threshold / emission quantum, bytes
    mode: str = CUMULATIVE

    def validate(self):
        if self.window_bytes <= 0:
            raise ConfigError(f"window_bytes must be positive, got {self.window_bytes}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class CacheTransaction:
    index: int
    members: tuple[int, ...]  # block addresses, insertion order, no duplicates
    partial: bool = False


def ragged_rows(values: np.ndarray, offsets: np.ndarray) -> Iterator[list]:
    """values[offsets[i]:offsets[i + 1]].tolist() for each i."""
    bounds = offsets.tolist()
    return (values[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class TransactionLog:
    """Transaction i holds ``members[offsets[i]:offsets[i + 1]]``, in
    insertion order; an empty (snapshot) transaction keeps its index. With
    ``partial`` set, the last transaction is the end-of-trace residue."""

    members: np.ndarray  # int64
    offsets: np.ndarray  # int64, ascending from 0
    partial: bool = False

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def full_count(self) -> int:
        return len(self) - self.partial

    def used(self, include_partial: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(members, offsets) of the transactions a stage reads: the full
        ones, and the partial one too under include_partial, where it takes
        the next consecutive index."""
        n = len(self) - (self.partial and not include_partial)
        return self.members[:self.offsets[n]], self.offsets[:n + 1]

    def __iter__(self) -> Iterator[CacheTransaction]:
        last = len(self) - 1
        for i, members in enumerate(ragged_rows(self.members, self.offsets)):
            yield CacheTransaction(i, tuple(members), self.partial and i == last)

    @classmethod
    def of(cls, transactions: Iterable[CacheTransaction]) -> "TransactionLog":
        """``transactions`` packed into a log.

        Indices must be consecutive from 0, and only the last transaction
        may be partial; DimensionMismatchError otherwise.
        """
        members, offsets = array("q"), array("q", [0])
        partial = False
        for j, txn in enumerate(transactions):
            if partial or txn.index != j:
                problem = "the partial one must be last" if partial else "indices count from 0"
                raise DimensionMismatchError(f"transaction {txn.index} at position {j}: {problem}")
            members.extend(txn.members)
            offsets.append(len(members))
            partial = txn.partial
        return cls(np.frombuffer(members, dtype=np.int64),
                   np.frombuffer(offsets, dtype=np.int64), partial)


def extract_transactions(trace: Trace, cfg: ExtractorConfig) -> TransactionLog:
    """Replay a trace and return its transaction log, the end-of-trace
    partial transaction (if any) last."""
    if len(trace) == 0:
        raise EmptyTraceError("cannot extract transactions from an empty trace")
    cfg.validate()
    m = cfg.window_bytes
    snapshot = cfg.mode == SNAPSHOT
    window: OrderedDict[int, int] = OrderedDict()  # address -> admitted size
    pop_oldest = window.popitem
    pending: dict[int, None] = {}  # cumulative: admitted since the last emission
    emitted = window if snapshot else pending  # what a transaction holds
    members, offsets = array("q"), array("q", [0])
    occupied = out = 0  # out: bytes evicted since the last emission
    for address, size in column_rows(trace.addresses, trace.sizes):
        if address in window:  # a no-op: occupied <= m and out < m still hold
            continue
        window[address] = size
        occupied += size
        if not snapshot:
            pending[address] = None
        while occupied > m:
            evicted = pop_oldest(False)[1]
            occupied -= evicted
            out += evicted
        if out >= m:
            members.extend(emitted)
            offsets.append(len(members))
            emitted.clear()
            out = 0
            if snapshot:
                occupied = 0
    if emitted:
        members.extend(emitted)
        offsets.append(len(members))
    return TransactionLog(np.frombuffer(members, dtype=np.int64),
                          np.frombuffer(offsets, dtype=np.int64), bool(emitted))


def save_transactions(path, log: TransactionLog, cfg: ExtractorConfig, trace_label="",
                      config_hash=""):
    """Serialize as `txn_id<TAB>addr1,addr2,...`; the partial row is flagged."""
    header = {"window_bytes": cfg.window_bytes, "mode": cfg.mode, "trace": trace_label,
              "config_hash": config_hash}
    lines = artifacts.list_lines(enumerate(ragged_rows(log.members, log.offsets)))
    if log.partial:  # the last line is flagged
        lines = chain(islice(lines, len(log) - 1), (f"{line}\tpartial" for line in lines))
    artifacts.write(path, header, lines)


def load_transactions(path, config_hash=None):
    """Inverse of save_transactions; returns (log, header dict).

    A row whose id is not its position, that lists an address twice, or
    that follows the partial row is a DataError naming the file and line.
    """
    rows = artifacts.read_rows(path, config_hash, flag="partial")
    rows.check(rows.numbered("transaction"),
               (artifacts.first(np.append(False, rows.flagged[:-1])),
                lambda r: f"partial transaction {r - 1} is not the last"),
               rows.at_value(rows.repeated(within_rows=True),
                             lambda p: "an address is listed twice"))
    partial = bool(rows.flagged[-1:].any())
    return TransactionLog(rows.values, rows.offsets, partial), rows.header

"""Cache transaction extraction over a size-bounded FIFO window.

The extractor replays the access stream through a FIFO queue holding at
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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from . import artifacts
from .errors import ConfigError, EmptyTraceError
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


@dataclass(frozen=True)
class FifoWindow:
    """Read-only view of the extractor state, for step-wise inspection."""

    entries: tuple[tuple[int, int], ...]  # (block_address, admitted_size)
    occupied: int
    evicted_since_emit: int


class TransactionExtractor:
    """Incremental form of the transaction division algorithm."""

    def __init__(self, cfg: ExtractorConfig):
        cfg.validate()
        self.cfg = cfg
        self._window: OrderedDict[int, int] = OrderedDict()
        self._occupied = 0
        self._out = 0  # bytes evicted since the last emission
        self._pending: list[int] = []  # cumulative mode only
        self._pending_set: set[int] = set()
        self._next_index = 0

    def feed(self, address: int, size: int) -> CacheTransaction | None:
        """Process one access; return the transaction emitted by it, if any."""
        if address not in self._window:
            self._window[address] = size
            self._occupied += size
            if self.cfg.mode == CUMULATIVE and address not in self._pending_set:
                self._pending.append(address)
                self._pending_set.add(address)
        m = self.cfg.window_bytes
        while self._occupied > m:
            _, evicted_size = self._window.popitem(last=False)
            self._occupied -= evicted_size
            self._out += evicted_size
        if self._out >= m:
            self._out = 0
            if self.cfg.mode == SNAPSHOT:
                members = tuple(self._window.keys())
                self._window.clear()
                self._occupied = 0
            else:
                members = tuple(self._pending)
                self._pending = []
                self._pending_set = set()
            txn = CacheTransaction(self._next_index, members)
            self._next_index += 1
            return txn
        return None

    def finish(self) -> CacheTransaction | None:
        """Emit the end-of-trace residue as a partial transaction, if any."""
        if self.cfg.mode == SNAPSHOT:
            members = tuple(self._window.keys())
        else:
            members = tuple(self._pending)
        if not members:
            return None
        return CacheTransaction(self._next_index, members, partial=True)

    def window_state(self) -> FifoWindow:
        return FifoWindow(
            entries=tuple(self._window.items()),
            occupied=self._occupied,
            evicted_since_emit=self._out,
        )


def extract_transactions(trace: Trace, cfg: ExtractorConfig) -> list[CacheTransaction]:
    """Replay a trace and return its transactions.

    The final partial transaction (if any) is appended last with
    ``partial=True``; downstream feature construction excludes it by
    default.
    """
    if len(trace) == 0:
        raise EmptyTraceError("cannot extract transactions from an empty trace")
    extractor = TransactionExtractor(cfg)
    out: list[CacheTransaction] = []
    feed = extractor.feed
    for address, size in column_rows(trace.addresses, trace.sizes):
        txn = feed(address, size)
        if txn is not None:
            out.append(txn)
    tail = extractor.finish()
    if tail is not None:
        out.append(tail)
    return out


def save_transactions(path, transactions, cfg: ExtractorConfig, trace_label="",
                      config_hash=""):
    """Serialize as `txn_id<TAB>addr1,addr2,...`; partial rows are flagged."""
    header = {"window_bytes": cfg.window_bytes, "mode": cfg.mode, "trace": trace_label,
              "config_hash": config_hash}
    artifacts.write(path, header, (
        f"{t.index}\t{','.join(map(str, t.members))}" + ("\tpartial" if t.partial else "")
        for t in transactions))


def _transaction(fields):
    index, members, *flag = fields
    if flag not in ([], ["partial"]):
        raise ValueError(f"unexpected field {flag[0]!r}")
    return CacheTransaction(int(index), artifacts.ints(members), bool(flag))


def load_transactions(path, config_hash=None):
    """Inverse of save_transactions; returns (transactions, header dict).

    With config_hash given, the artifact must have been written under it.
    """
    header, rows = artifacts.read(path, _transaction, config_hash)
    return list(rows), header

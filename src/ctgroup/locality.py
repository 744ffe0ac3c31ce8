"""Spatio-temporal locality statistics over an access trace.

Provides the pairwise relation strength W (average over x's accesses of the
minimum sequence-number gap to any access of y), the block-address-distance
distribution of always-sequential pairs, and the access-count-difference
report under W limits. These reproduce the motivating workload statistics
qualitatively; exact curves depend on the particular trace.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import UnknownDatumError
from .features import run_incidence, shared_run_counts
from .trace import Trace
from .transactions import TransactionLog


@dataclass
class AccessIndex:
    """Per-datum ascending access sequence numbers."""

    seqs: dict[int, list[int]]

    @classmethod
    def from_trace(cls, trace: Trace) -> "AccessIndex":
        seqs: dict[int, list[int]] = {}
        for i, addr in enumerate(trace.addresses.tolist()):
            seqs.setdefault(addr, []).append(i)
        return cls(seqs)

    def accesses(self, address: int) -> list[int]:
        """The address's access sequence numbers, ascending."""
        try:
            return self.seqs[address]
        except KeyError:
            raise UnknownDatumError(
                address, f"block address {address} is never accessed in the trace") from None


def _min_gap(seq: int, other: Sequence[int]) -> int:
    pos = bisect_left(other, seq)
    best = None
    if pos < len(other):
        best = other[pos] - seq
    if pos > 0:
        gap = seq - other[pos - 1]
        best = gap if best is None else min(best, gap)
    return best


def relation_strength(index: AccessIndex, x: int, y: int) -> float:
    """W_{x,y}: mean over x's accesses of the nearest gap to an access of y.

    Asymmetric (normalized by x's access count); relation_strength(x, x)
    is 0.
    """
    xs, ys = index.accesses(x), index.accesses(y)
    return sum(_min_gap(s, ys) for s in xs) / len(xs)


def always_followed_pairs(trace: Trace, min_occurrences: int = 2):
    """Pairs (x, y) where every access to x is immediately followed by y.

    x must occur at least min_occurrences times; an access to x at the very
    end of the trace (no successor) disqualifies the pair.
    """
    addrs = trace.addresses.tolist()
    successors: dict[int, set[int]] = {}
    counts: Counter = Counter()
    for i, addr in enumerate(addrs):
        counts[addr] += 1
        nxt = addrs[i + 1] if i + 1 < len(addrs) else None
        successors.setdefault(addr, set()).add(nxt)
    pairs = []
    for x, succ in successors.items():
        if counts[x] < min_occurrences:
            continue
        if len(succ) == 1:
            (y,) = succ
            if y is not None and y != x:
                pairs.append((x, y))
    pairs.sort()
    return pairs


@dataclass
class Histogram:
    """Bucketed counts with CDF; buckets are [lo, hi) intervals."""

    buckets: list[tuple[int, int, int, float]]  # (lo, hi, count, cdf)
    total: int

    def to_csv_lines(self):
        yield "bucket_lo,bucket_hi,count,cdf"
        for lo, hi, count, cdf in self.buckets:
            yield f"{lo},{hi},{count},{cdf:.6f}"


def _geometric_edges(max_value: int) -> list[int]:
    edges = [0, 1]
    while edges[-1] <= max_value:
        edges.append(edges[-1] * 2)
    return edges


def make_histogram(values: Iterable[int]) -> Histogram:
    """Counts of ``values`` in the buckets [0, 1), [1, 2), [2, 4), ...,
    from the first non-empty bucket to the last."""
    values = sorted(values)
    if not values:
        return Histogram(buckets=[], total=0)
    bucket_edges = _geometric_edges(values[-1])
    buckets = []
    total = len(values)
    running = 0
    for lo, hi in zip(bucket_edges[:-1], bucket_edges[1:]):
        count = sum(1 for v in values if lo <= v < hi)
        running += count
        if count or buckets:
            buckets.append((lo, hi, count, running / total))
    while buckets and buckets[-1][2] == 0:
        buckets.pop()
    return Histogram(buckets=buckets, total=total)


def related_pair_distance_histogram(trace: Trace, min_occurrences: int = 2) -> Histogram:
    """Distribution of |addr_x - addr_y| over always-sequential pairs."""
    distances = [abs(x - y) for x, y in always_followed_pairs(trace, min_occurrences)]
    return make_histogram(distances)


@dataclass
class GapReport:
    """Access-count differences for pairs under one W limit."""

    limit: float
    num_pairs: int
    equal_count: int
    gap_counts: Counter = field(default_factory=Counter)

    @property
    def equal_fraction(self) -> float | None:
        # None flags an empty pair set (avoids a 0/0 reading).
        if self.num_pairs == 0:
            return None
        return self.equal_count / self.num_pairs


def cooccurring_pairs(log: TransactionLog) -> set[tuple[int, int]]:
    """Unordered address pairs sharing at least one full cache transaction.

    This is the scope filter used instead of all-pairs enumeration. The
    end-of-trace partial transaction is left out, as in every stage. The
    addresses are numbered densely in ascending order, so the pairs come
    from the same pair counter as chunk co-occurrence.
    """
    members, offsets = log.used()
    addresses, ids = np.unique(members, return_inverse=True)
    txn = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    pairs: set[tuple[int, int]] = set()
    incidence = run_incidence(txn, ids, max(len(addresses), 1))
    for left, right, _count in shared_run_counts(*incidence):
        pairs.update(zip(addresses[left].tolist(), addresses[right].tolist()))
    return pairs


def access_count_gap_report(
    index: AccessIndex,
    pairs: Iterable[tuple[int, int]],
    w_limits: Sequence[float],
) -> dict[float, GapReport]:
    """Per W limit, the |A_x - A_y| distribution over pairs with W < limit.

    ``pairs`` is typically cooccurring_pairs(transactions); W is evaluated
    in the (x, y) order given.
    """
    if not w_limits:
        raise ValueError("w_limits must be non-empty")
    evaluated = []
    for x, y in pairs:
        w = relation_strength(index, x, y)
        gap = abs(len(index.accesses(x)) - len(index.accesses(y)))
        evaluated.append((w, gap))
    reports = {}
    for limit in w_limits:
        report = GapReport(limit=limit, num_pairs=0, equal_count=0)
        for w, gap in evaluated:
            if w < limit:
                report.num_pairs += 1
                report.gap_counts[gap] += 1
                if gap == 0:
                    report.equal_count += 1
        reports[limit] = report
    return reports


def gap_report_csv_lines(reports: dict[float, GapReport]):
    yield "W_limit,num_pairs,equal_fraction"
    for limit in sorted(reports):
        rep = reports[limit]
        frac = "" if rep.equal_fraction is None else f"{rep.equal_fraction:.6f}"
        yield f"{limit},{rep.num_pairs},{frac}"

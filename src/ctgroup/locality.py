"""Spatio-temporal locality statistics over an access trace.

Provides the pairwise relation strength W (average over x's accesses of the
minimum sequence-number gap to any access of y), the block-address-distance
distribution of always-sequential pairs, and the access-count-difference
report under W limits. These reproduce the motivating workload statistics
qualitatively; exact curves depend on the particular trace.

All of it runs on numpy columns. The access index is the CTF of the log
that holds one transaction per access (``access_index``), and address pairs
are two aligned arrays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import artifacts
from .errors import UnknownDatumError
from .features import CtfMatrix, build_ctf, run_incidence, run_starts, shared_run_counts
from .trace import Trace
from .transactions import TransactionLog

# x-accesses per batch of relation_strengths, each with about 40 bytes of
# temporaries: a workload's co-occurring pairs can hold 100M x-accesses.
ACCESS_BATCH = 1 << 16


def access_index(trace: Trace) -> CtfMatrix:
    """Each accessed address's access positions, ascending: the CTF of the
    log that holds one transaction per access."""
    return build_ctf(TransactionLog(trace.addresses, np.arange(len(trace) + 1)))


def _rows(index: CtfMatrix, addresses) -> np.ndarray:
    """The index row of each address; an unknown one is an UnknownDatumError."""
    addresses = np.asarray(addresses, dtype=np.int64)
    rows = artifacts.find(index.addresses, addresses)
    if (unknown := addresses[rows < 0]).size:
        raise UnknownDatumError(
            int(unknown[0]), f"block address {unknown[0]} is never accessed in the trace")
    return rows


def relation_strengths(index: CtfMatrix, x, y) -> np.ndarray:
    """W_{x,y} for each pair of the aligned address arrays ``x`` and ``y``:
    the mean over x's accesses of the gap to the nearest access of y.
    Asymmetric (normalized by x's access count); W_{x,x} is 0.

    The keys row * 2n + position of the n accesses (and phantom rows -1
    and len(index)) lie more than n - 1 apart across rows, so the nearer
    neighbour key of (y's row, x's position) is in y's row."""
    kx, ky = _rows(index, x), _rows(index, y)
    offsets, stride = index.offsets, 2 * len(index.indices)
    keys = np.concatenate(([-stride], np.repeat(np.arange(len(index)) * stride, np.diff(offsets))
                           + index.indices, [len(index) * stride]))
    ends = np.cumsum(offsets[kx + 1] - offsets[kx])  # past each pair's x-accesses
    total = int(ends[-1]) if len(ends) else 0
    sums = np.zeros(len(kx))
    for lo in range(0, total, ACCESS_BATCH):
        flat = np.arange(lo, min(lo + ACCESS_BATCH, total))
        pair = np.searchsorted(ends, flat, side="right")
        query = index.indices[offsets[kx[pair] + 1] - ends[pair] + flat] + ky[pair] * stride
        at = np.searchsorted(keys, query)
        gap = np.minimum(keys[at] - query, query - keys[at - 1])
        # integer gaps: each pair's sum is exact below 2**53
        sums[pair[0]:pair[-1] + 1] += np.bincount(pair - pair[0], weights=gap)
    return sums / (offsets[kx + 1] - offsets[kx])


def relation_strength(index: CtfMatrix, x: int, y: int) -> float:
    """W_{x,y} of one pair (see relation_strengths)."""
    return float(relation_strengths(index, [x], [y])[0])


def always_followed_pairs(trace: Trace, min_occurrences: int = 2):
    """Pairs (x, y), sorted, where every access to x is immediately
    followed by y. x must occur at least min_occurrences times; an access
    to x at the very end of the trace disqualifies it (as followed by x)."""
    addrs = trace.addresses
    following = np.append(addrs[1:], addrs[-1:])
    order = np.lexsort((following, addrs))
    addrs, following = addrs[order], following[order]
    starts = run_starts(addrs)
    counts = np.diff(starts, append=len(addrs))
    x, y = addrs[starts], following[starts]
    keep = (counts >= min_occurrences) & (following[starts + counts - 1] == y) & (y != x)
    return list(zip(x[keep].tolist(), y[keep].tolist()))


@dataclass
class Histogram:
    """Bucketed counts with CDF; buckets are [lo, hi) intervals."""

    buckets: list[tuple[int, int, int, float]]  # (lo, hi, count, cdf)
    total: int

    def to_csv_lines(self):
        yield "bucket_lo,bucket_hi,count,cdf"
        for lo, hi, count, cdf in self.buckets:
            yield f"{lo},{hi},{count},{cdf:.6f}"


# the upper bounds of the buckets [0, 1), [1, 2), ..., [2**61, 2**62); the
# values from 2**62 up fall in the last bucket, [2**62, 2**63)
_BUCKET_HIS = 1 << np.arange(63, dtype=np.int64)


def make_histogram(values) -> Histogram:
    """Counts of the non-negative int64 ``values`` in the buckets [0, 1),
    [1, 2), [2, 4), ..., from the first non-empty bucket to the last.
    Bucket k holds the values of bit length k."""
    values = np.asarray(values, dtype=np.int64)
    if not len(values):
        return Histogram(buckets=[], total=0)
    counts = np.bincount(np.searchsorted(_BUCKET_HIS, values, side="right"))
    cdf = (np.cumsum(counts) / len(values)).tolist()
    first = int(np.flatnonzero(counts)[0])
    buckets = [((1 << k) >> 1, 1 << k, count, cdf[k])
               for k, count in enumerate(counts.tolist()) if k >= first]
    return Histogram(buckets=buckets, total=len(values))


def related_pair_distance_histogram(trace: Trace, min_occurrences: int = 2) -> Histogram:
    """Distribution of |addr_x - addr_y| over always-sequential pairs."""
    pairs = np.array(always_followed_pairs(trace, min_occurrences), dtype=np.int64)
    return make_histogram(np.abs(np.subtract(*pairs.reshape(-1, 2).T)))


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


def cooccurring_pairs(log: TransactionLog) -> tuple[np.ndarray, np.ndarray]:
    """Unordered address pairs sharing at least one full cache transaction,
    as two aligned int64 arrays (x, y) with x < y, sorted by (x, y).

    This is the scope filter used instead of all-pairs enumeration. The
    end-of-trace partial transaction is left out, as in every stage. The
    addresses are numbered densely in ascending order, so the pairs come
    from the same pair counter as chunk co-occurrence.
    """
    members, offsets = log.used()
    addresses, ids = np.unique(members, return_inverse=True)
    txn = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    incidence = run_incidence(txn, ids, max(len(addresses), 1))
    x, y = np.concatenate([np.empty((2, 0), np.int64)] + [
        addresses[np.stack(batch[:2])] for batch in shared_run_counts(*incidence)], axis=1)
    return x, y


def access_count_gap_report(index: CtfMatrix, pairs: tuple[np.ndarray, np.ndarray],
                            w_limits: Sequence[float]) -> dict[float, GapReport]:
    """Per W limit, the |A_x - A_y| distribution over pairs with W < limit.

    ``pairs`` is two aligned address arrays (x, y), typically
    cooccurring_pairs(log); W is evaluated in the (x, y) order given.
    """
    if not w_limits:
        raise ValueError("w_limits must be non-empty")
    x, y = pairs
    w = relation_strengths(index, x, y)
    counts = np.diff(index.offsets)
    gaps = np.abs(counts[_rows(index, x)] - counts[_rows(index, y)])
    reports = {}
    for limit in w_limits:
        values, tally = np.unique(gaps[w < limit], return_counts=True)
        counter = Counter(dict(zip(values.tolist(), tally.tolist())))
        reports[limit] = GapReport(limit, int(tally.sum()), counter[0], counter)
    return reports


def gap_report_csv_lines(reports: dict[float, GapReport]):
    yield "W_limit,num_pairs,equal_fraction"
    for limit in sorted(reports):
        rep = reports[limit]
        frac = "" if rep.equal_fraction is None else f"{rep.equal_fraction:.6f}"
        yield f"{limit},{rep.num_pairs},{frac}"

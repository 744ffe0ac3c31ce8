"""Per-datum transaction-membership features (the CTF).

Inverting the transaction log yields, for every block address, a sparse
binary vector over transaction indices: bit j is set iff the datum was a
member of transaction j. The popcount of a vector is the datum's access
frequency at transaction granularity.

A ``CtfMatrix`` holds that inverse as three columns: ascending addresses,
per-address offsets and int32 transaction indices, filled by one stable
argsort of the log (``build_ctf``). The chunking stage reads the columns
and counts intersections with numpy (``shared_run_counts``). A
``CtfVector``, the ascending tuple of one datum's indices, is a view made
on demand by ``matrix[address]``; two vectors are equal iff their tuples
are.

The relationship distance between two vectors is the symmetric-difference
count of their index sets. The alternative form (Euclidean distance on
the binary vectors) is the square root of that count; it is
available as metric="euclidean" for sensitivity checks, but the count form
is the default so the strong-relation threshold compares like with like
(both sides are transaction counts).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from . import artifacts
from .errors import ConfigError, DataError, DimensionMismatchError
from .transactions import TransactionLog, ragged_rows

SYMMETRIC_DIFF = "symmetric_diff"
EUCLIDEAN = "euclidean"
METRICS = (SYMMETRIC_DIFF, EUCLIDEAN)


class CtfVector:
    """Sparse feature vector: the transaction indices where a datum appears.

    ``bits`` must be strictly ascending (build_ctf and load_ctf guarantee
    it); equality and the hash are those of the tuple, which makes them
    the index sets' equality.
    """

    __slots__ = ("bits", "dim")

    def __init__(self, bits: Iterable[int], dim: int | None = None):
        self.bits = tuple(bits)
        self.dim = dim

    @property
    def index_set(self) -> frozenset:
        return frozenset(self.bits)

    def popcount(self) -> int:
        return len(self.bits)

    def __eq__(self, other):
        return isinstance(other, CtfVector) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"CtfVector({list(self.bits)!r})"


def relation(total, shared, sigma: float, metric: str = SYMMETRIC_DIFF):
    """The strong-relation rule for vector pairs whose popcounts total
    ``total`` and which share ``shared`` transaction indices, as numbers or
    numpy arrays: the distance |x ^ y| = |x| + |y| - 2|x & y| (its square
    root under metric="euclidean") and the threshold, the mean popcount
    times ``sigma``. A pair is strongly related iff distance <= threshold.
    """
    d = total - 2 * shared
    if metric == EUCLIDEAN:
        d = np.sqrt(d)
    return d, total / 2.0 * sigma


def _pair_counts(x: CtfVector, y: CtfVector, metric: str) -> tuple[int, int]:
    """The two vectors' popcount total and shared index count; an unknown
    ``metric`` is a ConfigError."""
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    if x.dim is not None and y.dim is not None and x.dim != y.dim:
        raise DimensionMismatchError(f"vectors over {x.dim} vs {y.dim} transactions")
    return x.popcount() + y.popcount(), len(x.index_set.intersection(y.bits))


def distance(x: CtfVector, y: CtfVector, metric: str = SYMMETRIC_DIFF) -> float:
    """Number of transaction indices where the two vectors differ.

    metric="euclidean" returns the square root of that count.
    """
    return relation(*_pair_counts(x, y, metric), 0.0, metric)[0]


def strong_relation(
    x: CtfVector, y: CtfVector, sigma: float, metric: str = SYMMETRIC_DIFF
) -> bool:
    """True iff distance(x, y) <= mean(popcounts) * sigma.

    Non-strict comparison: sigma=0 admits exactly the identical-vector
    pairs.
    """
    d, threshold = relation(*_pair_counts(x, y, metric), sigma, metric)
    return bool(d <= threshold)


@dataclass(frozen=True, eq=False)
class CtfMatrix(Mapping):
    """The vector of ``addresses[k]`` holds ``indices[offsets[k]:offsets[k + 1]]``.
    As a read-only Mapping, the matrix takes an address to its CtfVector."""

    num_transactions: int
    addresses: np.ndarray  # int64, strictly ascending
    offsets: np.ndarray    # int64, len(addresses) + 1 entries
    indices: np.ndarray    # int32, ascending within each address

    @property
    def rows(self) -> Mapping[int, CtfVector]:
        """address -> CtfVector: the matrix itself."""
        return self

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self):
        return iter(self.addresses.tolist())

    def __getitem__(self, address: int) -> CtfVector:
        k = int(artifacts.find(self.addresses, [address])[0])
        if k < 0:
            raise KeyError(address)
        bits = self.indices[self.offsets[k]:self.offsets[k + 1]].tolist()
        return CtfVector(bits, dim=self.num_transactions)

    def gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The indices of the rows at ``positions``, back to back, and their
        offsets."""
        starts = self.offsets[positions]
        lengths = self.offsets[positions + 1] - starts
        return self.indices[ranges(starts, lengths)], np.append(0, np.cumsum(lengths))


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint parts of a set of addresses: part i is
    ``members[offsets[i]:offsets[i + 1]]``, ascending. The chunk stage's
    chunks are one, over chunk ids, and the group stage's groups another."""

    members: np.ndarray  # int64
    offsets: np.ndarray  # int64, len(self) + 1 entries

    @classmethod
    def of(cls, parts: Iterable[Iterable[int]]) -> "Partition":
        """The partition into ``parts``, in order; an address listed twice,
        in one part or in two, is a DataError naming it."""
        parts = [sorted(part) for part in parts]
        partition = cls(np.fromiter(chain.from_iterable(parts), dtype=np.int64),
                        np.cumsum([0, *map(len, parts)], dtype=np.int64))
        keys = partition._index[0]
        if (twice := keys[1:][keys[1:] == keys[:-1]]).size:
            raise DataError(f"address {twice[0]} is listed twice")
        return partition

    @classmethod
    def by_label(cls, labels: np.ndarray, members: np.ndarray, count: int) -> "Partition":
        """The partition whose part i, for i below ``count``, holds the
        ``members`` labelled i."""
        order = np.lexsort((members, labels))
        return cls(members[order], np.searchsorted(labels[order], np.arange(count + 1)))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def parts(self) -> list[tuple[int, ...]]:
        return list(map(tuple, ragged_rows(self.members, self.offsets)))

    def labels(self, addresses: np.ndarray) -> np.ndarray:
        """The part id of each address, or -1 for one in no part."""
        keys, owners = self._index
        return owners[artifacts.find(keys, addresses)]

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted members and their part ids, then the -1 that find's -1 selects."""
        order = np.argsort(self.members, kind="stable")
        dtype = index_dtype(len(self))
        owners = np.repeat(np.arange(len(self), dtype=dtype), np.diff(self.offsets))
        return self.members[order], np.append(owners[order], dtype(-1))


def build_ctf(log: TransactionLog, include_partial: bool = False) -> CtfMatrix:
    """Invert a transaction log into per-datum vectors; the partial
    transaction is included (as the last index) only on request."""
    members, offsets = log.used(include_partial)
    n = len(offsets) - 1
    # A stable sort by address keeps each address's transactions ascending.
    order = np.argsort(members, kind="stable")
    owners = np.repeat(np.arange(n, dtype=index_dtype(n)), np.diff(offsets))[order]
    members = members[order]
    starts = run_starts(members)
    return CtfMatrix(n, members[starts], np.append(starts, len(members)), owners)


# Pair occurrences enumerated per batch in shared_run_counts. A batch
# holds one int64 key per occurrence (512 KiB at this size), sorts them in
# place, and yields at most as many counted pairs; larger batches set the
# group stage's peak memory without making it faster.
PAIR_BATCH = 1 << 16


def shared_run_counts(tails: np.ndarray, values: np.ndarray):
    """Count, for every pair of values that occur in a common run, the
    runs holding both.

    The input is a sequence of runs, as run_incidence returns it: within
    a run, ``values`` are ascending, distinct and non-negative, and
    ``tails[p]`` is the number of positions after p in p's run. Yields
    (left, right, count) int64 arrays with left < right, in batches of
    left values: all pairs of one left value come in one batch, so each
    count is complete, and a batch enumerates about PAIR_BATCH pair
    occurrences, which bounds its memory.

    The runs are transactions (values: the chunks in each) for group
    co-occurrence and address co-occurrence, and transaction indices
    (values: the clusters holding each) for feature intersections.
    """
    stride = int(values.max()) + 1 if len(values) else 1
    starts = np.flatnonzero(tails).astype(index_dtype(len(tails)))
    starts = starts[np.argsort(values[starts], kind="stable")]
    lefts = values[starts]
    load = np.cumsum(tails[starts], dtype=np.int64)
    lo = 0
    while lo < len(starts):
        done = int(load[lo - 1]) if lo else 0
        hi = int(np.searchsorted(load, done + PAIR_BATCH, side="right"))
        hi = int(np.searchsorted(lefts, lefts[max(hi, lo + 1) - 1], side="right"))
        keys = _pair_keys(values, tails, starts[lo:hi], stride, int(load[hi - 1]) - done)
        keys.sort()
        first = run_starts(keys)
        counts = np.diff(first, append=len(keys))
        left, right = np.divmod(keys[first], stride)
        yield left, right, counts
        lo = hi


def run_incidence(runs: np.ndarray, values: np.ndarray, stride: int):
    """The distinct (run, value) pairs of two aligned int arrays, sorted,
    as shared_run_counts takes them: (tails, values). Every value lies in
    [0, stride)."""
    keys = sorted_distinct(runs * stride + values)
    runs = keys // stride
    keys -= runs * stride
    return run_tails(runs), keys.astype(index_dtype(stride))


def index_dtype(bound: int):
    """The int dtype for values below ``bound``: int32 where they fit."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique by sorting (numpy's hash-based unique is slower here)."""
    values = np.sort(values)
    return values[run_starts(values)]


def run_starts(runs: np.ndarray) -> np.ndarray:
    """Positions where a new value starts in a sorted array."""
    new = np.ones(len(runs), dtype=bool)
    new[1:] = runs[1:] != runs[:-1]
    return np.flatnonzero(new)


def run_tails(runs: np.ndarray) -> np.ndarray:
    """For a sorted array, how many later positions hold the same value."""
    n = len(runs)
    starts = run_starts(runs)
    lengths = np.diff(starts, append=n)
    dtype = index_dtype(n)
    tails = np.repeat((starts + lengths).astype(dtype), lengths)
    tails -= np.arange(1, n + 1, dtype=dtype)
    return tails


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, start + 1, ..., start + length - 1 of each
    (start, length) pair, back to back."""
    ends = np.cumsum(lengths)
    positions = np.repeat(starts - ends + lengths, lengths)
    positions += np.arange(len(positions))
    return positions


def _pair_keys(values, tails, positions, stride, count):
    """left * stride + right for each p in ``positions`` and every later q
    in p's run, with left = values[p] and right = values[q]; ``count`` is
    the number of such pairs."""
    keys = np.empty(count, dtype=np.int64)
    at = 0
    step = 1
    while positions.size:
        part = keys[at:at + positions.size]
        part[:] = values[positions]
        part *= stride
        part += values[positions + step]
        at += positions.size
        step += 1
        positions = positions[tails[positions] >= step]
    return keys


def save_ctf(path, matrix: CtfMatrix, config_hash=""):
    """Serialize as `addr<TAB>idx1,idx2,...` with a metadata header."""
    header = {"num_transactions": matrix.num_transactions, "config_hash": config_hash}
    artifacts.write(path, header, artifacts.list_lines(
        zip(matrix.addresses.tolist(), ragged_rows(matrix.indices, matrix.offsets))))


def load_ctf(path, config_hash=None):
    """Inverse of save_ctf; returns (matrix, header dict).

    A row's indices must be strictly ascending and below num_transactions,
    and the rows' addresses must ascend strictly; otherwise DataError names
    the file and line.
    """
    rows = artifacts.read_rows(path, config_hash)
    try:
        dim = int(rows.header["num_transactions"])
    except (KeyError, ValueError):
        raise DataError(f"{path}: header has no num_transactions count") from None
    addresses, indices, offsets = rows.ids, rows.values, rows.offsets
    # each index but a row's first must exceed the one before it
    unordered = np.append(False, indices[1:] <= indices[:-1])
    unordered[offsets[:-1][offsets[:-1] < len(indices)]] = False
    beyond = indices >= dim
    rows.check(rows.at_value(unordered | beyond, lambda p: (
                   f"transaction index {indices[p]} is not below num_transactions={dim}"
                   if beyond[p] else "transaction indices are not strictly ascending")),
               (artifacts.first(np.append(False, addresses[1:] <= addresses[:-1])),
                lambda r: "addresses are not strictly ascending"))
    return CtfMatrix(dim, addresses, offsets, indices.astype(index_dtype(dim))), rows.header

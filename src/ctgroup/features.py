"""Per-datum transaction-membership features.

Inverting the transaction log yields, for every block address, a sparse
binary vector over transaction indices: bit j is set iff the datum was a
member of transaction j. The popcount of a vector is the datum's access
frequency at transaction granularity.

A vector is stored once, as its ascending tuple of distinct indices
(``CtfVector.bits``) plus the log's transaction count; two vectors are
equal iff their tuples are. Nothing keeps a set of the indices: the
chunking and grouping stages count intersections with numpy
(``shared_run_counts``), and ``index_set`` builds a frozenset on demand.

The relationship distance between two vectors is the symmetric-difference
count of their index sets. The alternative form (Euclidean distance on
the binary vectors) is the square root of that count; it is
available as metric="euclidean" for sensitivity checks, but the count form
is the default so the strong-relation threshold compares like with like
(both sides are transaction counts).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import artifacts
from .errors import DataError, DimensionMismatchError
from .transactions import CacheTransaction

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


def _check_dims(x: CtfVector, y: CtfVector):
    if x.dim is not None and y.dim is not None and x.dim != y.dim:
        raise DimensionMismatchError(
            f"vectors over {x.dim} vs {y.dim} transactions"
        )


def distance(x: CtfVector, y: CtfVector, metric: str = SYMMETRIC_DIFF) -> float:
    """Number of transaction indices where the two vectors differ.

    metric="euclidean" returns the square root of that count.
    """
    _check_dims(x, y)
    count = len(x.index_set.symmetric_difference(y.bits))
    if metric == EUCLIDEAN:
        return math.sqrt(count)
    return count


def access_frequency(x: CtfVector) -> int:
    return x.popcount()


def strong_relation(
    x: CtfVector, y: CtfVector, sigma: float, metric: str = SYMMETRIC_DIFF
) -> bool:
    """True iff distance(x, y) <= mean(popcounts) * sigma.

    Non-strict comparison: sigma=0 admits exactly the identical-vector
    pairs.
    """
    return distance(x, y, metric) <= ((x.popcount() + y.popcount()) / 2.0) * sigma


@dataclass
class CtfMatrix:
    """All feature vectors of a transaction log."""

    num_transactions: int
    rows: dict[int, CtfVector] = field(default_factory=dict)

    def __contains__(self, address: int) -> bool:
        return address in self.rows

    def __getitem__(self, address: int) -> CtfVector:
        return self.rows[address]

    def addresses(self):
        return self.rows.keys()

    def reconstruct_transactions(self) -> list[set[int]]:
        """Member sets per transaction index (order within a set is lost)."""
        members: list[set[int]] = [set() for _ in range(self.num_transactions)]
        for address, vec in self.rows.items():
            for j in vec.bits:
                members[j].add(address)
        return members


def build_ctf(
    transactions: Sequence[CacheTransaction], include_partial: bool = False
) -> CtfMatrix:
    """Invert a transaction log into per-datum vectors.

    Partial (end-of-trace) transactions are excluded unless requested;
    when included they get the next consecutive index. Full transaction
    indices must be consecutive from 0.
    """
    used = [t for t in transactions if include_partial or not t.partial]
    bits: dict[int, list[int]] = {}
    for j, txn in enumerate(used):
        if not txn.partial and txn.index != j:
            raise DimensionMismatchError(
                f"transaction indices not consecutive: expected {j}, got {txn.index}"
            )
        for address in txn.members:
            bits.setdefault(address, []).append(j)
    dim = len(used)
    return CtfMatrix(
        num_transactions=dim,
        rows={a: CtfVector(idxs, dim=dim) for a, idxs in bits.items()},
    )


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


def save_ctf(path, matrix: CtfMatrix, metadata: Mapping[str, object] = (),
             config_hash=""):
    """Serialize as `addr<TAB>idx1,idx2,...` with a metadata header."""
    header = {"num_transactions": matrix.num_transactions, "config_hash": config_hash,
              **dict(metadata)}
    artifacts.write(path, header, (
        f"{address}\t{','.join(map(str, matrix.rows[address].bits))}"
        for address in sorted(matrix.rows)))


def _ctf_row(fields):
    address, bits = fields
    bits = artifacts.ints(bits)
    if not all(map(operator.lt, bits, bits[1:])):
        raise ValueError("transaction indices are not strictly ascending")
    return int(address), bits


def load_ctf(path, config_hash=None):
    """Inverse of save_ctf; returns (matrix, header dict)."""
    header, rows = artifacts.read(path, _ctf_row, config_hash)
    try:
        dim = int(header["num_transactions"])
    except (KeyError, ValueError):
        raise DataError(f"{path}: header has no num_transactions count") from None
    return CtfMatrix(dim, {a: CtfVector(bits, dim=dim) for a, bits in rows}), header

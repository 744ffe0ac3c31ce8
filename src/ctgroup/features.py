"""Per-datum transaction-membership features.

Inverting the transaction log yields, for every block address, a sparse
binary vector over transaction indices: bit j is set iff the datum was a
member of transaction j. The popcount of a vector is the datum's access
frequency at transaction granularity.

The relationship distance between two vectors is the symmetric-difference
count of their index sets. The alternative form (Euclidean distance on
the binary vectors) is the square root of that count; it is
available as metric="euclidean" for sensitivity checks, but the count form
is the default so the strong-relation threshold compares like with like
(both sides are transaction counts).
"""

from __future__ import annotations

import math
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
    """Sparse ascending list of transaction indices where a datum appears."""

    __slots__ = ("bits", "dim", "_set")

    def __init__(self, bits: Iterable[int], dim: int | None = None):
        self.bits = tuple(bits)
        self.dim = dim
        self._set = frozenset(self.bits)

    @property
    def index_set(self) -> frozenset:
        return self._set

    def popcount(self) -> int:
        return len(self.bits)

    def __eq__(self, other):
        return isinstance(other, CtfVector) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

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
    count = len(x.index_set ^ y.index_set)
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


# Pair occurrences enumerated per batch in shared_run_counts.
PAIR_BATCH = 1 << 18


def shared_run_counts(runs: np.ndarray, values: np.ndarray):
    """Count, for every pair of values that occur in a common run, the
    runs holding both.

    ``runs`` is sorted; within a run, ``values`` are ascending and
    distinct. Yields (left, right, count) int arrays with left < right,
    in batches of left values: all pairs of one left value come in one
    batch, so each count is complete, and a batch enumerates about
    PAIR_BATCH pair occurrences, which bounds its memory.

    The runs are transactions (values: the chunks in each) for group
    co-occurrence, and transaction indices (values: the data holding
    each) for feature intersections.
    """
    stride = int(values.max()) + 1 if len(values) else 1
    tails = _run_tails(runs)
    starts = np.flatnonzero(tails)
    starts = starts[np.argsort(values[starts], kind="stable")]
    lefts = values[starts]
    load = np.cumsum(tails[starts])
    lo = 0
    while lo < len(starts):
        done = load[lo - 1] if lo else 0
        hi = int(np.searchsorted(load, done + PAIR_BATCH, side="right"))
        hi = int(np.searchsorted(lefts, lefts[max(hi, lo + 1) - 1], side="right"))
        left, right = _run_pairs(values, tails, starts[lo:hi])
        keys, counts = np.unique(left * stride + right, return_counts=True)
        left, right = np.divmod(keys, stride)
        yield left, right, counts
        lo = hi


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique by sorting (numpy's hash-based unique is slower here)."""
    values = np.sort(values)
    return values[run_starts(values)]


def run_starts(runs: np.ndarray) -> np.ndarray:
    """Positions where a new value starts in a sorted array."""
    new = np.ones(len(runs), dtype=bool)
    new[1:] = runs[1:] != runs[:-1]
    return np.flatnonzero(new)


def _run_tails(runs: np.ndarray) -> np.ndarray:
    """For a sorted array, how many later positions hold the same value."""
    n = len(runs)
    starts = run_starts(runs)
    ends = np.append(starts, n)[1:]
    return np.repeat(ends, ends - starts) - np.arange(n) - 1


def _run_pairs(values: np.ndarray, tails: np.ndarray, positions: np.ndarray):
    """(values[p], values[q]) for each p in ``positions`` and every later
    q in p's run, as two arrays."""
    left, right = [], []
    step = 1
    while positions.size:
        left.append(values[positions])
        right.append(values[positions + step])
        step += 1
        positions = positions[tails[positions] >= step]
    if not left:
        empty = np.empty(0, dtype=values.dtype)
        return empty, empty
    return np.concatenate(left), np.concatenate(right)


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
    return int(address), artifacts.ints(bits)


def load_ctf(path, config_hash=None):
    """Inverse of save_ctf; returns (matrix, header dict)."""
    header, rows = artifacts.read(path, _ctf_row, config_hash)
    try:
        dim = int(header["num_transactions"])
    except (KeyError, ValueError):
        raise DataError(f"{path}: header has no num_transactions count") from None
    return CtfMatrix(dim, {a: CtfVector(bits, dim=dim) for a, bits in rows}), header

"""Locality-aware pre-blocking and agglomerative chunking.

Data are first assigned to areas on the (block address x access frequency)
plane: the address axis is cut into q equal bins over [0, Q] and the
frequency axis into logarithmic bins with base p, so low-frequency data are
binned strictly and high-frequency data loosely. Access frequency here is
the transaction count (feature popcount), not the raw access count.

Within each area, data are clustered greedily: starting from singletons,
the pair of clusters with the smallest feature distance among the pairs
passing the strong-relation predicate is merged (cluster feature = bitwise
OR of member vectors) until no pair qualifies. Cross-area pairs are never
considered here; the grouping stage handles them.

The chunks are one ``Partition`` of the transacted addresses (chunk id =
part id), which the grouping stage reads and ``chunks.tsv`` holds; the OR
features live only while an area is clustered.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import artifacts
from .errors import ConfigError, UnknownDatumError
from .features import (
    SYMMETRIC_DIFF,
    CtfMatrix,
    Partition,
    build_ctf,
    run_tails,
    shared_run_counts,
    sorted_distinct,
)
from .transactions import TransactionLog


@dataclass(frozen=True, order=True)
class AreaKey:
    addr_bin: int
    freq_bin: int


@dataclass
class ChunkerConfig:
    q: int = 16        # address regions
    p: float = 2.0     # frequency division coefficient
    sigma: float = 0.1  # strong-relation threshold

    def validate(self):
        if self.q < 1:
            raise ConfigError(f"q must be >= 1, got {self.q}")
        if self.p <= 1.0:
            raise ConfigError(f"p must be > 1, got {self.p}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError(f"sigma must be in [0,1], got {self.sigma}")


def _log_bin(freq: int, p: float) -> int:
    # floor(log_p(freq)) made robust against float rounding at exact powers.
    if freq < 1:
        raise ValueError("frequency must be >= 1")
    b = int(math.floor(math.log(freq) / math.log(p) + 1e-9))
    while p ** (b + 1) <= freq:
        b += 1
    while b > 0 and p ** b > freq:
        b -= 1
    return b


def area_key(address: int, freq: int, cfg: ChunkerConfig, max_address: int) -> AreaKey:
    addr_bin = int(address * cfg.q // max(max_address, 1))
    if addr_bin >= cfg.q:  # address == Q lands in the last bin
        addr_bin = cfg.q - 1
    return AreaKey(addr_bin=addr_bin, freq_bin=_log_bin(freq, cfg.p))


def pre_block(
    data: Iterable[tuple[int, int]],
    cfg: ChunkerConfig,
    max_address: int,
) -> tuple[dict[AreaKey, list[int]], list[int]]:
    """Partition (address, frequency) pairs into areas.

    Returns (area -> sorted addresses, excluded addresses). Data with
    frequency 0 (never in any transaction) are excluded, not assigned.
    """
    cfg.validate()
    areas: dict[AreaKey, list[int]] = {}
    excluded: list[int] = []
    for address, freq in data:
        if address > max_address:
            raise ConfigError(
                f"address {address} exceeds max_address {max_address}"
            )
        if freq < 1:
            excluded.append(address)
            continue
        areas.setdefault(area_key(address, freq, cfg, max_address), []).append(address)
    for members in areas.values():
        members.sort()
    excluded.sort()
    return areas, excluded


@dataclass(frozen=True)
class Chunk:
    id: int
    members: tuple[int, ...]       # block addresses, ascending
    area: AreaKey


@dataclass
class MergeRecord:
    """One executed merge, for audit replay."""

    members_a: tuple[int, ...]
    members_b: tuple[int, ...]
    distance: float
    threshold: float


def cluster_area(
    area_addrs: Iterable[int],
    ctf: CtfMatrix,
    sigma: float,
    metric: str = SYMMETRIC_DIFF,
    audit: list[MergeRecord] | None = None,
) -> list[tuple[int, ...]]:
    """Greedy agglomerative clustering of one area's data.

    Returns each cluster's members, clusters ordered by smallest member
    address. Merge order: smallest distance first among qualifying pairs,
    ties broken by the lexicographically smallest (min-address, min-address)
    pair, which makes the result deterministic. ``sigma`` must lie in
    [0, 1], as ChunkerConfig requires.
    """
    ChunkerConfig(sigma=sigma).validate()
    addrs = np.array(sorted(set(area_addrs)), dtype=np.int64)
    at = artifacts.find(ctf.addresses, addrs)
    if (at < 0).any():
        raise UnknownDatumError(int(addrs[np.argmin(at)]))

    # Identical feature vectors always qualify (distance 0), so they can be
    # collapsed up front: any greedy order over the zero-distance pairs
    # yields the same clusters and leaves every feature unchanged. The
    # groups come in order of their smallest address, as addrs ascend. A
    # vector's key is the bytes of its index row.
    flat, offsets = ctf.gather(at)
    bounds = offsets.tolist()
    by_feature: dict[bytes, list[int]] = {}
    for a, lo, hi in zip(addrs.tolist(), bounds, bounds[1:]):
        by_feature.setdefault(flat[lo:hi].tobytes(), []).append(a)
    groups = list(by_feature.values())

    # Cluster ids: the initial clusters are 0..k-1 in address order, and
    # each merge makes the next id. Unmerged clusters keep their data's own
    # vector, a row of ``rows``; merged ones hold their OR feature as a
    # sorted index array.
    k = len(groups)
    members: dict[int, list[int]] = dict(enumerate(groups))
    merged_bits: dict[int, np.ndarray] = {}
    heads = [group[0] for group in groups]
    rows = TransactionLog(*ctf.gather(np.searchsorted(ctf.addresses, heads)))
    sizes = np.zeros(2 * k, dtype=np.int64)  # popcount per cluster id
    sizes[:k] = np.diff(rows.offsets)
    if audit is not None:
        for group, size in zip(groups, sizes[:k].tolist()):
            for extra in group[1:]:
                audit.append(MergeRecord((group[0],), (extra,), 0.0, size * sigma))
    # Inverting the initial clusters' rows, as build_ctf inverts a log,
    # gives for each transaction index the clusters holding it, ascending.
    holding = build_ctf(rows)
    euclidean = metric != SYMMETRIC_DIFF
    # Candidates are the pairs that share a transaction index, plus the
    # disjoint pairs (an empty feature among them) whose popcounts total at
    # least min_disjoint. A disjoint pair's count distance is that total
    # T, which exceeds T/2 * sigma at every sigma <= 1, so the count metric
    # has none. Its Euclidean distance sqrt(T) is within the threshold once
    # T >= 4 / sigma**2 (one less covers float rounding; the exact test
    # follows).
    if euclidean and sigma > 0.0:
        min_disjoint = 4.0 / sigma**2 - 1.0
    else:
        min_disjoint = math.inf
    heap = _first_heap(holding, sizes[:k], heads, sigma, euclidean, min_disjoint)
    alive = set(members)
    cluster_of = np.arange(k)  # initial cluster -> the live cluster holding it
    parts: dict[int, list[int]] = {i: [i] for i in range(k)}
    next_id = k

    def take_bits(i):
        if i >= k:
            return merged_bits.pop(i)
        return rows.members[rows.offsets[i]:rows.offsets[i + 1]]

    while heap:
        dval, _lo, _hi, i, j = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue
        if audit is not None:
            threshold = ((int(sizes[i]) + int(sizes[j])) / 2.0) * sigma
            audit.append(
                MergeRecord(tuple(members[i]), tuple(members[j]), dval, threshold)
            )
        merged = next_id
        next_id += 1
        members[merged] = sorted(members.pop(i) + members.pop(j))
        bits = merged_bits[merged] = sorted_distinct(
            np.concatenate((take_bits(i), take_bits(j)))
        )
        size = sizes[merged] = len(bits)
        parts[merged] = parts.pop(i) + parts.pop(j)
        cluster_of[parts[merged]] = merged
        alive.discard(i)
        alive.discard(j)

        # |x ^ y| = |x| + |y| - 2|x & y|
        others, shared = _overlaps(holding, bits, cluster_of)
        keep = others != merged
        others, shared = others[keep], shared[keep]
        if min_disjoint < math.inf:
            live = np.array(sorted(alive), dtype=np.int64)
            far = live[sizes[live] + size >= min_disjoint]
            candidates = np.union1d(far, others)
            overlap = np.zeros(len(candidates), dtype=np.int64)
            overlap[np.searchsorted(candidates, others)] = shared
            others, shared = candidates, overlap
        total = size + sizes[others]
        d = total - 2 * shared
        dvals = np.sqrt(d) if euclidean else d
        keep = dvals <= total / 2.0 * sigma
        lo = members[merged][0]
        for other, dval in zip(others[keep].tolist(), dvals[keep].tolist()):
            hi = members[other][0]
            if lo < hi:
                heapq.heappush(heap, (dval, lo, hi, merged, other))
            else:
                heapq.heappush(heap, (dval, hi, lo, other, merged))
        alive.add(merged)

    return sorted(tuple(members[i]) for i in alive)


def _first_heap(holding, sizes, min_addrs, sigma, euclidean, min_disjoint):
    """Heap entries (distance, lo, hi, i, j) for every qualifying pair of
    initial clusters i < j, given ``holding``, the clusters holding each
    transaction index, and each cluster's popcount in ``sizes``;
    ``min_addrs[i]`` is cluster i's smallest member address (ascending in
    i). A pair's intersection size is the number of transaction indices it
    shares; disjoint pairs are scored only where their popcounts total at
    least ``min_disjoint``."""
    runs = np.repeat(holding.addresses, np.diff(holding.offsets))
    batches = shared_run_counts(run_tails(runs), holding.indices)
    if min_disjoint < math.inf:
        batches = [_with_disjoint_pairs(sizes, min_disjoint, batches)]
    addrs = np.asarray(min_addrs, dtype=np.int64)
    entries = []
    for i, j, shared in batches:
        total = sizes[i] + sizes[j]
        d = total - 2 * shared
        dval = np.sqrt(d) if euclidean else d
        keep = dval <= total / 2.0 * sigma
        i, j = i[keep], j[keep]
        entries.extend(zip(dval[keep].tolist(), addrs[i].tolist(),
                           addrs[j].tolist(), i.tolist(), j.tolist()))
    heapq.heapify(entries)
    return entries


def _overlaps(holding, bits, cluster_of):
    """The live clusters holding any of the sorted indices ``bits`` and how
    many of them each holds; ``cluster_of`` maps each initial cluster to
    the live cluster it is part of."""
    held, offsets = holding.gather(np.searchsorted(holding.addresses, bits))
    holders = cluster_of[held]
    # one count per (index, live cluster): merged clusters may hold an
    # index through several initial ones
    stride = 2 * holding.num_transactions
    rows = np.repeat(np.arange(len(bits)), np.diff(offsets))
    held = sorted_distinct(rows * stride + holders)
    return np.unique(held % stride, return_counts=True)


def _with_disjoint_pairs(sizes, min_total, batches):
    """The pairs i < j in ``batches`` with their shared counts, plus every
    other pair whose ``sizes`` total at least ``min_total``, with 0."""
    k = len(sizes)
    none = (np.empty(0, dtype=np.int64),) * 3
    left, right, shared = (np.concatenate(column) for column in zip(none, *batches))
    eligible = np.flatnonzero(sizes + sizes.max(initial=0) >= min_total)
    i, j = (eligible[side] for side in np.triu_indices(len(eligible), 1))
    far = sizes[i] + sizes[j] >= min_total
    disjoint = np.setdiff1d(i[far] * k + j[far], left * k + right, assume_unique=True)
    return (np.concatenate((left, disjoint // k)), np.concatenate((right, disjoint % k)),
            np.concatenate((shared, np.zeros(len(disjoint), dtype=np.int64))))


@dataclass
class ChunkSet:
    partition: Partition    # chunk id -> block addresses
    areas: list[AreaKey]    # chunk id -> its area
    config: ChunkerConfig
    max_address: int
    excluded: tuple[int, ...] = ()
    audit: list[MergeRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.partition)

    @property
    def chunks(self) -> list[Chunk]:
        """Each chunk as a Chunk, built from the partition."""
        return [Chunk(cid, members, area)
                for cid, (members, area) in enumerate(zip(self.partition.parts(), self.areas))]


def chunk_all(
    ctf: CtfMatrix,
    cfg: ChunkerConfig,
    max_address: int | None = None,
    metric: str = SYMMETRIC_DIFF,
) -> ChunkSet:
    """Pre-block all transacted data and cluster each area into chunks.

    Chunk ids are assigned area by area in AreaKey order, then by smallest
    member address, so identical inputs give identical ids.
    """
    cfg.validate()
    if max_address is None:
        max_address = int(ctf.addresses[-1]) if len(ctf) else 0
    data = zip(ctf.addresses.tolist(), np.diff(ctf.offsets).tolist())
    areas, excluded = pre_block(data, cfg, max_address)
    audit: list[MergeRecord] = []
    chunks = [(members, key) for key in sorted(areas)
              for members in cluster_area(areas[key], ctf, cfg.sigma, metric, audit)]
    return ChunkSet(Partition.of(members for members, _ in chunks),
                    [key for _, key in chunks], cfg, max_address,
                    excluded=tuple(excluded), audit=audit)


def save_chunks(path, chunkset: ChunkSet, metadata: Mapping[str, object] = (),
                config_hash=""):
    """Serialize as `chunk_id<TAB>addr1,addr2,...` with a metadata header."""
    cfg = chunkset.config
    header = {"q": cfg.q, "p": cfg.p, "sigma": cfg.sigma,
              "max_address": chunkset.max_address, "config_hash": config_hash,
              **dict(metadata)}
    artifacts.write(path, header, artifacts.list_lines(enumerate(chunkset.partition.parts())))


def load_chunk_members(path, config_hash=None, transacted=None):
    """Read back chunk membership, as a Partition, and the header.

    A row whose id is not its position, that lists no address, or that
    lists an address an earlier row or itself already listed is a
    DataError naming the file and line. With ``transacted`` (a sorted
    array of addresses) given, so is a row listing an address outside it.
    """
    rows = artifacts.read_rows(path, config_hash)
    members, offsets = rows.values, rows.offsets
    repeated = rows.repeated()
    outside = False
    if transacted is not None:
        outside = artifacts.find(transacted, members) < 0
    rows.check(rows.numbered("chunk"),
               (artifacts.first(offsets[1:] == offsets[:-1]),
                lambda r: f"chunk {rows.ids[r]} lists no address"),
               rows.at_value(repeated | outside, lambda p: f"address {members[p]} is " + (
                   "listed twice" if repeated[p] else "in no used transaction")))
    return Partition.by_label(np.repeat(rows.ids, np.diff(offsets)), members,
                              len(rows.ids)), rows.header

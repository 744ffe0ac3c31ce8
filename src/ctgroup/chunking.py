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
considered here; the grouping stage handles them. So the areas are
clustered independently, on forks.fork_map: this process and at most one
forked child per further CPU it may use, with no config key.

The chunk stage keeps flat state. An area's merge loop works on cluster
ids and logs each merge as (id, id, distance, popcount total) in an
array('q'); the area sends back only numpy columns and that log: each
datum's final cluster and its identical-vector cluster, and each of the
latter's popcount. chunk_all labels the chunks area by area in AreaKey
order into one ``Partition`` of the transacted addresses (chunk id = part
id), which the grouping stage reads and ``chunks.tsv`` holds. The OR
features live only while an area is clustered, and no member tuple or
MergeRecord is made until ``ChunkSet.audit`` is first read, which replays
the logs.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import artifacts, forks
from .errors import ConfigError
from .features import (
    CtfMatrix,
    Partition,
    index_dtype,
    ranges,
    relation,
    run_starts,
    run_tails,
    shared_run_counts,
)


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
        if not 1 <= self.q < 1 << 63:
            raise ConfigError(f"q must be in [1, 2**63), got {self.q}")
        if self.p <= 1.0:
            raise ConfigError(f"p must be > 1, got {self.p}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError(f"sigma must be in [0,1], got {self.sigma}")


def _log_bin(freq: int, p: float) -> int:
    # floor(log_p(freq)) made robust against float rounding at exact powers.
    b = int(math.floor(math.log(freq) / math.log(p) + 1e-9))
    while p ** (b + 1) <= freq:
        b += 1
    while b > 0 and p ** b > freq:
        b -= 1
    return b


def _address_bins(addresses: np.ndarray, q: int, m: int) -> np.ndarray:
    """floor(address * q / m) for int64 addresses in [0, m], exactly: a long
    division over the bits of q, highest first, keeps address * (q's bits so
    far) = quotient * m + remainder with 0 <= remainder < m, so no value
    exceeds m or q (address * q itself may overflow int64)."""
    at_m = addresses == m
    quotient = at_m.astype(np.int64)
    remainder = addresses - m * at_m
    room = m - addresses
    for bit in bin(q)[3:]:
        carry = remainder >= m - remainder  # doubling
        quotient += quotient + carry
        remainder += remainder - m * carry
        if bit == "1":  # adding the address
            carry = remainder >= room
            quotient += carry
            remainder += addresses - m * carry
    return quotient


def _areas(addresses: np.ndarray, freqs: np.ndarray, cfg: ChunkerConfig,
           max_address: int) -> tuple[list[tuple[AreaKey, np.ndarray]], np.ndarray]:
    """Pre-block data given as int64 (address, frequency) columns: each area
    in AreaKey order with the positions of its data, ascending by address,
    and the positions of the data of frequency 0, which are in no area."""
    cfg.validate()
    if len(addresses) and not 0 <= addresses.min() <= addresses.max() <= max_address < 1 << 63:
        raise ConfigError(f"addresses must lie in [0, max_address], below 2**63: "
                          f"[{addresses.min()}, {addresses.max()}] vs {max_address}")
    used = np.flatnonzero(freqs >= 1)
    addr_bins = np.minimum(_address_bins(addresses[used], cfg.q, max(max_address, 1)),
                           cfg.q - 1)  # address == Q lands in the last bin
    distinct, inverse = np.unique(freqs[used], return_inverse=True)
    freq_bins = np.array([_log_bin(f, cfg.p) for f in distinct.tolist()],
                         dtype=np.int64)[inverse]
    order = np.lexsort((addresses[used], freq_bins, addr_bins))
    addr_bins, freq_bins, used = addr_bins[order], freq_bins[order], used[order]
    starts = np.flatnonzero(np.diff(addr_bins, prepend=-1) | np.diff(freq_bins, prepend=-1))
    keys = map(AreaKey, addr_bins[starts].tolist(), freq_bins[starts].tolist())
    return list(zip(keys, np.split(used, starts[1:]))), np.flatnonzero(freqs < 1)


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
    distance: int
    threshold: float


def _cluster(ctf, at, sigma):
    """Greedy agglomerative clustering of one area's data: those at the
    ascending positions ``at`` of ``ctf``, none with an empty feature.

    Merge order: smallest distance first among qualifying pairs, ties
    broken by the lexicographically smallest (min-address, min-address)
    pair, which makes the result deterministic. Returns four flat
    columns: each datum's final cluster, clusters ranked by smallest
    member address; each datum's initial cluster, the groups of identical
    vectors ranked likewise; each initial cluster's popcount; and the
    merge log, an array('q') of (id, id, distance, popcount total) for
    each merge in the order made. Initial clusters are ids 0..k-1, and
    each merge makes the next id.
    """
    addrs = ctf.addresses[at]
    flat, offsets = ctf.gather(at)
    lengths = np.diff(offsets)
    # Identical feature vectors always qualify (distance 0), so they can be
    # collapsed up front: any greedy order over the zero-distance pairs
    # yields the same clusters and leaves every feature unchanged. A
    # vector's key is its row of a matrix of the indices, padded with -1,
    # compared as one void value.
    n, width = len(at), int(lengths.max()) + 1
    padded = np.full((n, width), -1, dtype=flat.dtype)
    padded.reshape(-1)[ranges(np.arange(n) * width, lengths)] = flat
    _, first, label = np.unique(padded.view(np.dtype((np.void, padded.itemsize * width))),
                                return_index=True, return_inverse=True)
    del padded
    heads = np.sort(first)
    k = len(heads)
    group = np.searchsorted(heads, first).astype(index_dtype(k))[label.reshape(-1)]
    popcounts = lengths[heads]
    sizes = np.append(popcounts, np.zeros(k, dtype=np.int64))  # popcount per id
    # Inverting the initial clusters' rows, as build_ctf inverts a log,
    # gives for each transaction index a holding row: one slot per cluster
    # holding it, ascending. Slot s lies in row rows[s]; bit b of the
    # initial clusters' rows fills slot slot_of[b]. A merge hands the two
    # clusters' slots to the merged one and, in a row holding both, retires
    # one of them to the dead id 2k - 1, so a live cluster holds one slot
    # in each row of its feature.
    bits = flat[ranges(offsets[heads], popcounts)]
    bit_offsets = np.append(0, np.cumsum(popcounts))
    order = np.argsort(bits, kind="stable")
    starts = run_starts(bits[order])
    widths = np.diff(starts, append=len(bits))
    rows = np.repeat(np.arange(len(starts)), widths)
    holder = np.repeat(np.arange(k), popcounts)[order]
    slot_of = np.empty_like(order)
    slot_of[order] = np.arange(len(order))
    min_addrs = np.append(addrs[heads], np.zeros(k, dtype=np.int64))
    heap = _first_heap(rows, holder, popcounts, min_addrs[:k], sigma)
    live = np.arange(2 * k) < k
    in_first = np.zeros(len(starts), dtype=bool)  # per merge: rows of its first cluster
    slots: dict[int, np.ndarray] = {}  # merged cluster -> its slots
    merges = array("q")
    next_id = k

    def take_slots(i):
        if i >= k:
            return slots.pop(i)
        return slot_of[bit_offsets[i]:bit_offsets[i + 1]]

    while heap:
        dval, lo, _hi, i, j = heapq.heappop(heap)
        if not (live[i] and live[j]):
            continue
        merges.extend((i, j, dval, int(sizes[i]) + int(sizes[j])))
        merged = next_id
        next_id += 1
        live[i] = live[j] = False
        min_addrs[merged] = lo

        first, second = take_slots(i), take_slots(j)
        in_first[rows[first]] = True
        twice = in_first[rows[second]]
        in_first[rows[first]] = False
        holder[second[twice]] = 2 * k - 1
        ours = slots[merged] = np.concatenate((first, second[~twice]))
        holder[ours] = merged
        size = sizes[merged] = len(ours)
        # In the merged cluster's rows, each live cluster holds one slot
        # per shared index.
        at = rows[ours]
        shared = np.bincount(holder[ranges(starts[at], widths[at])], minlength=2 * k)[:next_id]
        shared[merged] = 0
        others = np.flatnonzero(shared)
        dvals, thresholds = relation(size + sizes[others], shared[others], sigma)
        keep = dvals <= thresholds
        others = others[keep]
        for other, hi, dval in zip(others.tolist(), min_addrs[others].tolist(),
                                   dvals[keep].tolist()):
            if lo < hi:
                heapq.heappush(heap, (dval, lo, hi, merged, other))
            else:
                heapq.heappush(heap, (dval, hi, lo, other, merged))
        live[merged] = True

    # Each id's root: a merge makes the merged id the parent of its two,
    # and replacing each parent by its own until none changes reaches the
    # roots.
    log = np.frombuffer(merges, dtype=np.int64).reshape(-1, 4)
    root = np.arange(next_id)
    root[log[:, 0]] = root[log[:, 1]] = np.arange(k, next_id)
    while not np.array_equal(up := root[root], root):
        root = up
    root = root[:k]
    # A final cluster's rank is that of its first initial cluster.
    firsts = np.sort(np.unique(root, return_index=True)[1])
    rank = np.empty(next_id, dtype=index_dtype(k))
    rank[root[firsts]] = np.arange(len(firsts))
    return rank[root][group], group, popcounts, merges


def _first_heap(rows, holder, sizes, min_addrs, sigma):
    """Heap entries (distance, lo, hi, i, j) for every qualifying pair of
    initial clusters i < j, given the holding rows (slot s of row rows[s]
    holds cluster holder[s], ascending within a row) and each cluster's
    popcount in ``sizes``; ``min_addrs[i]`` is cluster i's smallest member
    address (ascending in i). Only pairs that share a transaction index
    can qualify: a disjoint pair's distance, its popcount total T, exceeds
    T/2 * sigma at every sigma <= 1."""
    entries = []
    for i, j, shared in shared_run_counts(run_tails(rows), holder):
        dval, threshold = relation(sizes[i] + sizes[j], shared, sigma)
        keep = dval <= threshold
        i, j = i[keep], j[keep]
        entries.extend(zip(dval[keep].tolist(), min_addrs[i].tolist(),
                           min_addrs[j].tolist(), i.tolist(), j.tolist()))
    heapq.heapify(entries)
    return entries


@dataclass(eq=False)
class ChunkSet:
    partition: Partition    # chunk id -> block addresses
    areas: list[AreaKey]    # chunk id -> its area
    config: ChunkerConfig
    max_address: int
    excluded: tuple[int, ...] = ()
    # per area, in AreaKey order: each datum's initial cluster (data
    # ascending by address), each initial cluster's popcount, and the
    # merge log, as _cluster returns them
    logs: list[tuple[np.ndarray, np.ndarray, array]] = field(default_factory=list)

    def __len__(self):
        return len(self.partition)

    @property
    def chunks(self) -> list[Chunk]:
        """Each chunk as a Chunk, built from the partition."""
        return [Chunk(cid, members, area)
                for cid, (members, area) in enumerate(zip(self.partition.parts(), self.areas))]

    @cached_property
    def audit(self) -> list[MergeRecord]:
        """The executed merges in order, built on first read by replaying
        ``logs``: area by area, each identical vector's merge into the
        first of its initial cluster at distance 0, then the merge log."""
        sigma = self.config.sigma
        audit = []
        end = 0  # an area's chunks, and so its data, are consecutive
        for group, popcounts, merges in self.logs:
            begin, end = end, end + len(group)
            addrs = np.sort(self.partition.members[begin:end])
            clusters = Partition.by_label(group, addrs, len(popcounts)).parts()
            for (head, *extras), popcount in zip(clusters, popcounts.tolist()):
                threshold = relation(2 * popcount, 0, sigma)[1]
                audit.extend(MergeRecord((head,), (extra,), 0, threshold) for extra in extras)
            merges = iter(merges)
            for i, j, dist, total in zip(merges, merges, merges, merges):
                a, b = clusters[i], clusters[j]
                audit.append(MergeRecord(a, b, dist, relation(total, 0, sigma)[1]))
                clusters.append(tuple(sorted(a + b)))
        return audit


def chunk_all(
    ctf: CtfMatrix,
    cfg: ChunkerConfig,
    max_address: int | None = None,
) -> ChunkSet:
    """Pre-block all transacted data and cluster each area into chunks.

    Chunk ids are assigned area by area in AreaKey order, then by smallest
    member address, so identical inputs give identical ids. The areas go
    to forks.fork_map largest first; each sends back only _cluster's flat
    columns, and the chunks are labelled in AreaKey order, as one process
    would make them.
    """
    if max_address is None:
        max_address = int(ctf.addresses[-1]) if len(ctf) else 0
    lengths = np.diff(ctf.offsets)
    areas, excluded = _areas(ctf.addresses, lengths, cfg, max_address)
    # largest first by incidences, so no process starts a large area late
    order = sorted(range(len(areas)), key=lambda a: -int(lengths[areas[a][1]].sum()))
    clustered = [None] * len(areas)
    for a, result in zip(order, forks.fork_map(
            lambda at: _cluster(ctf, at, cfg.sigma), [areas[a][1] for a in order])):
        clustered[a] = result
    chunk_of = np.zeros(len(ctf), dtype=np.int64)
    keys = []
    for (key, at), (labels, *_) in zip(areas, clustered):
        chunk_of[at] = len(keys) + labels.astype(np.int64)
        keys += [key] * (int(labels.max()) + 1)
    used = lengths >= 1
    return ChunkSet(Partition.by_label(chunk_of[used], ctf.addresses[used], len(keys)),
                    keys, cfg, max_address,
                    excluded=tuple(ctf.addresses[excluded].tolist()),
                    logs=[result[1:] for result in clustered])


def save_chunks(path, chunkset: ChunkSet, config_hash=""):
    """Serialize as `chunk_id<TAB>addr1,addr2,...` with a metadata header."""
    cfg = chunkset.config
    header = {"q": cfg.q, "p": cfg.p, "sigma": cfg.sigma,
              "max_address": chunkset.max_address, "config_hash": config_hash}
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

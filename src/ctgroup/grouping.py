"""High-correlation-first merging of chunks into disjoint groups.

Chunk co-occurrence is counted per transaction (each transaction increments
an unordered chunk pair at most once). Pairs whose count reaches
max(|V_x|, |V_y|) * alpha are legal relations; |V_C| is the number of
transactions containing the chunk, i.e. the popcount of its OR feature,
counted here from the transactions themselves.

Legal relations are processed in descending strength order. Each processed
cross-group relation increments the counter between the two groups by one;
when the counter reaches |G_x| * |G_y| * mu the groups merge, and the
merged group's counters toward third parties are the sums of the
constituents' counters. Processing order plus immediate merging guarantees
every chunk (hence every transacted datum) ends up in exactly one group.

The chunks come in as a ``Partition`` (chunk id = part id), and the groups
go out as another, numbered by smallest chunk id, which ``grouping.csv``
holds and the simulator replays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import artifacts
from .errors import ConfigError, UnknownDatumError
from .features import Partition, run_incidence, shared_run_counts
from .trace import column_rows
from .transactions import TransactionLog

DESCENDING = "descending"
ASCENDING = "ascending"


@dataclass
class GrouperConfig:
    alpha: float = 0.5
    mu: float = 0.5
    sort: str = DESCENDING  # ascending preserves the alternative reading

    def validate(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"mu must be in [0,1], got {self.mu}")
        if self.sort not in (DESCENDING, ASCENDING):
            raise ConfigError(f"sort must be descending|ascending, got {self.sort!r}")


@dataclass(frozen=True)
class Relation:
    x: int  # chunk id, x < y
    y: int
    count: int


# Transactions resolved to chunks per numpy batch in compute_legal_relations.
TXN_BATCH = 8192


def compute_legal_relations(
    log: TransactionLog,
    chunks: Partition,
    alpha: float,
    sort: str = DESCENDING,
    include_partial: bool = False,
) -> list[Relation]:
    """The legal relations of a transaction log, strongest first.

    ``chunks`` holds each chunk's addresses (chunk id = part id). A chunk
    pair's count is the number of transactions holding both (each
    transaction counts a pair at most once), and |V_C| the number holding
    chunk C; the pair is a legal relation when its count reaches
    max(|V_x|, |V_y|) * alpha. Relations are ordered by count, descending
    unless ``sort`` is ascending, ties by (x, y) ascending. Every
    transacted address must resolve to a chunk: the first one in log order
    that does not raises UnknownDatumError (it indicates the chunking was
    built from a different transaction log).

    Transactions are resolved to their distinct chunks in batches, kept as
    int32 chunk ids with their run tails; |V_C| counts those ids. The chunk
    pairs within each transaction are then counted in batches of smaller
    chunk ids, and each batch is filtered by alpha at once, so no table of
    every counted pair (most of them noise that the filter drops) is ever
    held. An ``alpha`` or ``sort`` that GrouperConfig rejects is a
    ConfigError.
    """
    GrouperConfig(alpha=alpha, sort=sort).validate()
    stride = max(len(chunks), 1)
    members, offsets = log.used(include_partial)
    tails, held = [], []  # per batch of transactions
    for lo in range(0, len(offsets) - 1, TXN_BATCH):
        bounds = offsets[lo:lo + TXN_BATCH + 1]
        flat = members[bounds[0]:bounds[-1]]
        lengths = np.diff(bounds)
        labels = chunks.labels(flat)
        if (labels < 0).any():
            address = int(flat[np.argmin(labels)])
            raise UnknownDatumError(address, f"no chunk assignment for block address {address}")
        txn = np.repeat(np.arange(len(lengths)), lengths)
        batch_tails, batch_chunks = run_incidence(txn, labels, stride)
        tails.append(batch_tails)
        held.append(batch_chunks)
    # A batch ends with a whole transaction, so the tails stay valid.
    empty = [np.empty(0, dtype=np.int32)]
    tails = np.concatenate(tails or empty)
    held = np.concatenate(held or empty)

    pops = np.bincount(held, minlength=stride)
    kept = [(np.empty(0, dtype=np.int64),) * 3]
    for x, y, counts in shared_run_counts(tails, held):
        keep = counts >= np.maximum(pops[x], pops[y]) * alpha
        kept.append((x[keep], y[keep], counts[keep]))
    x, y, counts = (np.concatenate(column) for column in zip(*kept))
    strength = -counts if sort == DESCENDING else counts
    order = np.lexsort((y, x, strength))
    x, y, counts = x[order].tolist(), y[order].tolist(), counts[order].tolist()
    return [Relation(*relation) for relation in zip(x, y, counts)]


@dataclass
class GroupMergeRecord:
    """One executed group merge, for audit replay."""

    chunks_a: tuple[int, ...]
    chunks_b: tuple[int, ...]
    counter: int
    threshold: float


@dataclass
class Grouping:
    partition: Partition       # group id -> block addresses
    chunk_ids: Partition       # group id -> chunk ids
    internal_edges: list[int]  # group id -> processed cross relations merged into it
    audit: list[GroupMergeRecord] = field(default_factory=list)
    processed_cross: int = 0
    skipped_same_group: int = 0
    config: GrouperConfig = field(default_factory=GrouperConfig)

    def __len__(self):
        return len(self.partition)


class _DisjointGroups:
    """Union-find over chunks with inter-group counters and edge totals."""

    def __init__(self, chunk_ids):
        self.parent = {c: c for c in chunk_ids}
        self.chunks = {c: [c] for c in chunk_ids}
        self.neighbors: dict[int, dict[int, int]] = {c: {} for c in chunk_ids}
        self.internal = {c: 0 for c in chunk_ids}

    def find(self, c):
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def counter(self, ra, rb) -> int:
        return self.neighbors[ra].get(rb, 0)

    def bump(self, ra, rb):
        self.neighbors[ra][rb] = self.neighbors[ra].get(rb, 0) + 1
        self.neighbors[rb][ra] = self.neighbors[ra][rb]

    def merge(self, ra, rb) -> int:
        # Fold the smaller neighbor table into the larger one.
        if len(self.neighbors[ra]) < len(self.neighbors[rb]):
            ra, rb = rb, ra
        cross = self.neighbors[ra].pop(rb, 0)
        self.neighbors[rb].pop(ra, None)
        for other, count in self.neighbors[rb].items():
            del self.neighbors[other][rb]
            new = self.neighbors[ra].get(other, 0) + count
            self.neighbors[ra][other] = new
            self.neighbors[other][ra] = new
        del self.neighbors[rb]
        self.parent[rb] = ra
        self.chunks[ra].extend(self.chunks.pop(rb))
        self.internal[ra] += self.internal.pop(rb) + cross
        return ra


def merge_groups(
    relations: Sequence[Relation],
    chunks: Partition,
    config: GrouperConfig,
) -> Grouping:
    """Run the ordered merge procedure over all chunks at ``config.mu``.

    Every chunk ends in a group, numbered by smallest chunk id (never-merged
    chunks come out as singleton groups). Relations must already be
    sorted; they are processed in the order given.
    """
    mu = config.mu
    state = _DisjointGroups(range(len(chunks)))
    audit: list[GroupMergeRecord] = []
    processed_cross = 0
    skipped_same = 0
    for rel in relations:
        ra, rb = state.find(rel.x), state.find(rel.y)
        if ra == rb:
            skipped_same += 1
            continue
        processed_cross += 1
        state.bump(ra, rb)
        counter = state.counter(ra, rb)
        threshold = len(state.chunks[ra]) * len(state.chunks[rb]) * mu
        if counter >= threshold:
            audit.append(
                GroupMergeRecord(
                    tuple(sorted(state.chunks[ra])),
                    tuple(sorted(state.chunks[rb])),
                    counter,
                    threshold,
                )
            )
            state.merge(ra, rb)

    gids: dict[int, int] = {}  # root -> group id, in order of smallest chunk id
    group_of = np.array([gids.setdefault(state.find(c), len(gids)) for c in range(len(chunks))],
                        dtype=np.int64)
    return Grouping(
        partition=Partition.by_label(np.repeat(group_of, np.diff(chunks.offsets)),
                                     chunks.members, len(gids)),
        chunk_ids=Partition.by_label(group_of, np.arange(len(chunks)), len(gids)),
        internal_edges=[state.internal[root] for root in gids],
        audit=audit,
        processed_cross=processed_cross,
        skipped_same_group=skipped_same,
        config=config,
    )


def build_grouping(
    log: TransactionLog,
    chunks: Partition,
    config: GrouperConfig,
    include_partial: bool = False,
) -> Grouping:
    """Convenience wrapper: count, filter, sort, merge. ``chunks`` is the
    chunk stage's partition, ChunkSet.partition."""
    config.validate()
    relations = compute_legal_relations(
        log, chunks, config.alpha, config.sort, include_partial,
    )
    return merge_groups(relations, chunks, config)


@dataclass
class GroupingReport:
    group_count: int
    size_histogram: dict[int, int]          # data per group -> number of groups
    chunk_size_histogram: dict[int, int]    # chunks per group -> number of groups
    densities: dict[int, float | None]      # group id -> edge density (None: singleton)

    def groups_of_size_at_least(self, size: int) -> int:
        return sum(n for s, n in self.size_histogram.items() if s >= size)


def grouping_report(grouping: Grouping) -> GroupingReport:
    sizes = np.diff(grouping.partition.offsets).tolist()
    chunk_counts = np.diff(grouping.chunk_ids.offsets).tolist()
    densities: dict[int, float | None] = {
        gid: None if n < 2 else edges / (n * (n - 1) / 2)
        for gid, (n, edges) in enumerate(zip(chunk_counts, grouping.internal_edges))}
    return GroupingReport(
        group_count=len(grouping),
        size_histogram=dict(sorted(Counter(sizes).items())),
        chunk_size_histogram=dict(sorted(Counter(chunk_counts).items())),
        densities=densities,
    )


COLUMNS = "group_id,block_address"


def save_grouping(path, grouping: Grouping, config_hash=""):
    """CSV contract consumed by the simulator: group_id,block_address rows."""
    cfg = grouping.config
    header = {"alpha": cfg.alpha, "mu": cfg.mu, "sort": cfg.sort,
              "config_hash": config_hash}
    part = grouping.partition
    gids = np.repeat(np.arange(len(part)), np.diff(part.offsets))
    artifacts.write(path, header, (f"{gid},{address}" for gid, address
                                   in column_rows(gids, part.members)), columns=COLUMNS)


def load_grouping_members(path, config_hash=None):
    """Read back group membership, as a Partition, and the header.

    Groups are ordered by the file's group ids and numbered from 0. A row
    listing an address that an earlier row listed, in its group or
    another, is a DataError naming the file and line.
    """
    rows = artifacts.read_rows(path, config_hash, sep=",", columns=COLUMNS)
    rows.check(rows.at_value(rows.repeated(),
                             lambda p: f"address {rows.values[p]} is listed twice"))
    gids, labels = np.unique(rows.ids, return_inverse=True)
    return Partition.by_label(labels, rows.values, len(gids)), rows.header

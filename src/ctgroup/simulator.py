"""Trace replay through byte-capacity caches with optional group prefetch.

Policies:

* ``lru`` / ``fifo``        - demand-fetch baselines; one disk I/O per miss.
* ``group_prefetch``        - on a miss, fetch the datum, then each
                              non-resident member of its group with its own
                              I/O (one-step prefetch).
* ``group_merged``          - groups are stored contiguously; a miss on a
                              grouped datum costs a single I/O that fetches
                              the whole group. Misses on ungrouped data cost
                              one I/O each.

Eviction is per-datum in every policy (LRU recency order for the group
policies); a datum's resident size is its size at admission. Prefetched
members are admitted after the demand-missed datum, in ascending block
address order. A datum or group larger than the cache capacity bypasses
admission/prefetch and is counted.

One-pass LRU. Byte-capacity LRU that evicts the oldest until the new datum
fits is a stack algorithm (Mattson et al., 1970): after every access the
cache holds the longest prefix of the recency stack that fits. So an access
hits at capacity C iff its reuse distance is at most C: its size plus the
bytes of the distinct data touched since the previous access to its
address. ``build_lru_profile`` computes those distances once per sweep with
numpy and keeps only their sorted distinct values with cumulative counts,
plus the cumulative bytes of the final recency stack. An ``lru`` cell then
costs two binary searches: hits are the reuses at distance <= C, and
evictions are the misses less the final stack's longest prefix that fits
in C. The profile serves a cell only when all three of these hold, and
the cell is replayed otherwise:

* every access allocates: ``write_allocate`` is on, or the trace has no
  writes;
* each address keeps one size throughout the trace, so its resident size
  does not depend on C;
* no datum is larger than C, so nothing bypasses the cache.

The replay rows. ``ReplayRows`` holds what the cells of one sweep share:
``sweep`` builds it once and hands it to each cell's ``simulate`` call,
and a call without it is a sweep of its one cell; the trace keeps none of
it. It holds each datum's first-access position by dense id (id k is the
k-th smallest address), the distinct addresses and ``unique_bytes`` (the
sum of first-seen sizes, which capacity fractions are taken of); the LRU
profile, at the first ``lru`` cell; and at the first replayed cell, the
rows every replayed cell iterates: each access's datum as an id and its
size, objects shared from a pool, so no cell converts numpy columns. The
cache keys on ids.

The plan column. A group member's fetch size is its extra size until its
first access in the replay, and the size of that access afterwards;
members with neither are skipped and counted. ``plan_column`` states that
rule once, as data, for a (``GroupTable``, extra-size mapping): per
access, None for a datum in no group of two or more members, else the
``Plan`` of its datum's group as it stands at that access. A plan holds
the (member id, size) pairs of the members of known size in ascending
address order (a member the trace never accesses takes an id after the
trace's), their total and the count of the others. A group gets a new plan
at each first access that changes a member's size, and the accesses take
their plan by one binary search of (group, position) keys, so the replay
loop keeps no size or plan state. Data in one-member groups take the
demand path: such a group's plan is the datum alone, so the group path
would admit it alone and prefetch nothing.

The cells and the workers. ``sweep`` calls ``simulate`` once per cell,
in order, so a caller that wraps ``simulate`` still sees one call and one
row per cell. The first call for a cell that the LRU profile does not
serve replays every such cell of its ``ReplayRows`` on ``forks.fork_map``:
this process and at most one forked child per further CPU it may use
(``os.sched_getaffinity``), with no config key. A sweep of one cell is a
map of one unit, which forks nothing. This process builds the id and
size rows and the sweep's one plan column first, reading the extra-size
mapping as it is then, so the children inherit them and build nothing;
each process runs the one replay loop, ``_replay``, on the cells it
takes, and a child sends back only their metrics. Later calls return
their cell's row. A child copies the pages it writes: its cache, and
those of the pooled ints and the plans whose reference counts its
iteration writes, about 8 MiB per child at the 3M-record gate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import forks
from .artifacts import find
from .errors import ConfigError
from . import trace as _trace
from .features import Partition, index_dtype, sorted_distinct
from .trace import Op, SizeColumns, Trace, first_access_positions

LRU = "lru"
FIFO = "fifo"
GROUP_PREFETCH = "group_prefetch"
GROUP_MERGED = "group_merged"
POLICIES = (LRU, FIFO, GROUP_PREFETCH, GROUP_MERGED)
GROUP_POLICIES = (GROUP_PREFETCH, GROUP_MERGED)
# SimMetrics.as_dict's keys, the columns of metrics.csv
METRIC_COLUMNS = ("policy", "capacity_fraction", "capacity_bytes", "accesses", "hits",
                  "misses", "hit_rate", "disk_ios", "prefetched_bytes", "evictions")

class GroupTable:
    """The grouping for the prefetch policies: ``partition``, whose part
    gid holds the group's addresses, ascending."""

    def __init__(self, partition: Partition):
        self.partition = partition

    @classmethod
    def from_grouping(cls, grouping) -> "GroupTable":
        return cls(grouping.partition)


@dataclass
class SimConfig:
    policy: str = LRU
    capacity_bytes: int | None = None
    capacity_fraction: float | None = None
    grouping: GroupTable | None = None
    extra_sizes: Mapping[int, int] | None = None  # member sizes until first accessed
    write_allocate: bool = True

    def validate(self):
        check_cell(self.policy, self.capacity_fraction)
        if (self.capacity_bytes is None) == (self.capacity_fraction is None):
            raise ConfigError("exactly one of capacity_bytes/capacity_fraction required")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ConfigError("capacity_bytes must be positive")
        if self.policy in GROUP_POLICIES and self.grouping is None:
            raise ConfigError(f"policy {self.policy} requires a grouping")


def check_cell(policy: str, capacity_fraction: float | None) -> None:
    """Refuse a policy name or a capacity fraction (None passes) that no cell takes."""
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {policy!r}")
    if capacity_fraction is not None and not 0 < capacity_fraction <= 1:
        raise ConfigError(f"capacity_fraction must be in (0,1], got {capacity_fraction!r}")


@dataclass
class SimMetrics:
    policy: str
    capacity_fraction: float | None
    capacity_bytes: int
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    disk_ios: int = 0
    prefetched_bytes: int = 0
    evictions: int = 0
    bypasses: int = 0
    unknown_size_skips: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_COLUMNS}


def simulate(trace: Trace, cfg: SimConfig, rows: ReplayRows | None = None) -> SimMetrics:
    """Replay one cell of a trace; returns its metrics.

    ``rows`` is the ReplayRows of the sweep that ``cfg`` is a cell of. A
    call without it is a sweep of this one cell (see the module docstring).
    """
    cfg.validate()
    rows = rows or ReplayRows(trace, [cfg])
    return rows.profiled_lru(cfg) or rows.replayed_cells[id(cfg)]


def _replay(rows: ReplayRows, cfg: SimConfig, capacity: int, plans: list | None) -> SimMetrics:
    """The replay of one cell at ``capacity`` bytes. ``plans`` is the
    cell's plan column, None for a cell without groups.

    One loop serves every policy: hits take the short path, and a miss
    admits its datum, then prefetches or re-admits its plan's others. The
    inlined eviction loop follows every admission, so the occupancy never
    exceeds the capacity. The counters are locals.
    """
    policy = cfg.policy
    lru_order = policy != FIFO
    prefetch = policy == GROUP_PREFETCH
    first_sizes = rows.first_sizes if plans is not None else None
    entries: OrderedDict[int, int] = OrderedDict()  # datum id -> resident size
    pop_oldest = entries.popitem
    pop_entry = entries.pop
    move_to_end = entries.move_to_end
    occupied = hits = disk_ios = prefetched = evictions = bypasses = unknown = 0

    n = len(rows.addresses)
    # bytes iterate as the cached ints 0 and 1, so the flags make no objects
    allocates = (repeat(True) if cfg.write_allocate
                 else (rows.ops != int(Op.WRITE)).tobytes())
    for datum, size, allocate, plan in zip(rows.ids, rows.sizes, allocates,
                                           repeat(None) if plans is None else plans):
        if datum in entries:
            hits += 1
            if lru_order:
                move_to_end(datum)
            continue

        disk_ios += 1
        if plan is None or (prefetch and not allocate):
            # demand fetch only
            if size > capacity:
                if allocate or prefetch:
                    bypasses += 1
            elif allocate:
                entries[datum] = size
                occupied += size
                while occupied > capacity:
                    occupied -= pop_oldest(False)[1]
                    evictions += 1
            continue

        # The plan lists the demanded datum too, at its first size.
        known, total, skips = plan
        total -= first_sizes[datum]
        unknown += skips
        if not allocate:  # group_merged: nothing is admitted
            continue
        if size <= capacity:
            entries[datum] = size
            occupied += size
            while occupied > capacity:
                occupied -= pop_oldest(False)[1]
                evictions += 1
        if total + size > capacity:
            if prefetch:
                bypasses += (size > capacity) + (len(known) > 1)
            else:
                bypasses += 1
        elif prefetch:  # one I/O per non-resident member
            for member, msize in known:
                if member in entries:  # so is the demanded datum
                    continue
                disk_ios += 1
                prefetched += msize
                entries[member] = msize
                occupied += msize
                while occupied > capacity:
                    occupied -= pop_oldest(False)[1]
                    evictions += 1
        else:  # the demand I/O fetched the whole group
            prefetched += total
            for member, msize in known:
                if member == datum:
                    continue
                occupied -= pop_entry(member, 0)  # a resident member moves to the end
                entries[member] = msize
                occupied += msize
                while occupied > capacity:
                    occupied -= pop_oldest(False)[1]
                    evictions += 1

    return SimMetrics(
        cfg.policy, cfg.capacity_fraction, capacity,
        accesses=n, hits=hits, misses=n - hits, disk_ios=disk_ios,
        prefetched_bytes=prefetched, evictions=evictions, bypasses=bypasses,
        unknown_size_skips=unknown,
    )


class Plan(NamedTuple):
    """A group's fetch plan at one access (see the module docstring)."""

    known: tuple  # (member id, size) of the members of known size, ascending address
    total: int    # the sum of those sizes
    unknown: int  # the count of the other members


def plan_column(rows: ReplayRows, table: GroupTable,
                extra_sizes: Mapping[int, int] | None) -> list:
    """The plan column of the trace of ``rows`` under ``table`` and the
    caller's extra-size mapping as it is now (see the module docstring):
    per access, None or the Plan of its datum's group at that access."""
    part = table.partition
    counts = np.diff(part.offsets)
    shared = counts > 1
    count = counts[shared]
    members = part.members[np.repeat(shared, counts)]  # of the shared groups, by group
    group = np.repeat(np.arange(len(count)), count)
    ids = find(rows.distinct, members)
    traced = ids >= 0
    ids[~traced] = len(rows.distinct) + np.arange(np.count_nonzero(~traced))
    known = SizeColumns.of(extra_sizes or {})
    at = find(known.addresses, members)
    extra = np.append(known.sizes, 0)[at]  # where at is -1, unknown
    first_size = np.zeros(len(members), np.int64)
    first_size[traced] = rows.size_column[rows.first[ids[traced]]]
    # The changes: first accesses whose size is not the member's extra size.
    # A plan's key is (group, 0) with the extra sizes, and (group, p + 1)
    # after the change at position p; an access at p takes the last plan
    # whose key is at most (its group, p + 1).
    changes = np.flatnonzero(traced & ((at < 0) | (first_size != extra)))
    n = len(rows.addresses)
    keys = group[changes] * (n + 1) + rows.first[ids[changes]] + 1
    changes = changes[np.argsort(keys)]
    plan_keys = np.sort(np.concatenate((np.arange(len(count)) * (n + 1), keys)))

    def plan(pairs):
        known = tuple(pair for pair in pairs if pair is not None)
        return Plan(known, sum(s for _, s in known), len(pairs) - len(known))

    plans = [None]  # for the accesses in no shared group
    ids, first_size = ids.tolist(), first_size.tolist()
    extra = np.where(at >= 0, extra.astype(object), None).tolist()
    bounds = np.append(0, np.cumsum(count)).tolist()
    runs = np.searchsorted(group[changes], np.arange(len(bounds))).tolist()
    changes = changes.tolist()
    for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        # a group's plans share their pairs, and a change makes one new pair
        pairs = [None if s is None else (m, s) for m, s in zip(ids[lo:hi], extra[lo:hi])]
        plans.append(plan(pairs))
        for j in changes[runs[g]:runs[g + 1]]:
            pairs[j - lo] = ids[j], first_size[j]
            plans.append(plan(pairs))
    pool = np.fromiter(plans, dtype=object, count=len(plans))
    # each gid's rank among the shared groups, then the -1 of no group
    rank = np.append(np.where(shared, np.cumsum(shared) - 1, -1), -1)
    column = [None] * n
    block = _trace.ROW_BLOCK
    for lo in range(0, n, block):
        access_keys = rank[part.labels(rows.addresses[lo:lo + block])]
        access_keys *= n + 1
        access_keys += np.arange(lo + 1, lo + 1 + len(access_keys))
        column[lo:lo + block] = pool[plan_keys.searchsorted(access_keys, "right")].tolist()
    return column


class ReplayRows:
    """What the cells of one sweep share, built once per sweep (see the
    module docstring): the trace's columns, its data by dense id, and the
    rows of the cells it replays."""

    def __init__(self, trace: Trace, cells: Sequence[SimConfig]):
        self.cells = cells
        self.addresses, self.size_column, self.ops = trace.addresses, trace.sizes, trace.ops
        first = first_access_positions(self.addresses)
        self.first = first[np.argsort(self.addresses[first])]  # by id
        self.distinct = self.addresses[self.first]  # id k: [k]
        self.unique_bytes = int(self.size_column[self.first].sum())

    def capacity(self, cfg: SimConfig) -> int:
        """Fractions are taken of the sum of first-seen sizes of distinct data."""
        if cfg.capacity_bytes is not None:
            return cfg.capacity_bytes
        return max(int(cfg.capacity_fraction * self.unique_bytes), 1)

    def profiled_lru(self, cfg: SimConfig) -> SimMetrics | None:
        """An lru cell from the LRU profile, or None where the profile does
        not serve the cell and it must be replayed."""
        if cfg.policy != LRU or (not cfg.write_allocate and (self.ops == int(Op.WRITE)).any()):
            return None
        capacity = self.capacity(cfg)
        profile = self.profile  # built once per sweep, for every capacity
        if profile is None or profile.max_size > capacity:
            return None
        n = len(self.addresses)
        hits = int(profile.reuses_upto[np.searchsorted(profile.distances, capacity, "right")])
        residents = int(np.searchsorted(profile.stack_bytes, capacity, "right"))
        return SimMetrics(LRU, cfg.capacity_fraction, capacity, accesses=n, hits=hits,
                          misses=n - hits, disk_ios=n - hits, evictions=n - hits - residents)

    @cached_property
    def replayed_cells(self) -> dict[int, SimMetrics]:
        """The rows of the cells the profile does not serve, by id(cell),
        replayed on forks.fork_map. What they share is built first, so the
        workers inherit it: the id and size rows, and a plan column per
        (grouping, extra-size mapping) of the group cells, one in a sweep."""
        cells, units, columns = [], [], {}
        for cfg in self.cells:
            if self.profiled_lru(cfg) is not None:
                continue
            plans = None
            if cfg.policy in GROUP_POLICIES:
                key = id(cfg.grouping), id(cfg.extra_sizes)
                if key not in columns:
                    columns[key] = plan_column(self, cfg.grouping, cfg.extra_sizes)
                    self.first_sizes  # built here, so the workers share it
                plans = columns[key]
            cells.append(cfg)
            units.append((cfg, self.capacity(cfg), plans))
        self.ids, self.sizes  # built here, so the workers share them
        metrics = forks.fork_map(lambda unit: _replay(self, *unit), units)
        return {id(cfg): m for cfg, m in zip(cells, metrics)}

    @cached_property
    def profile(self) -> LruProfile | None:
        return build_lru_profile(self.addresses, self.size_column)

    @cached_property
    def ids(self) -> list:
        return _pooled(self.addresses, self.distinct, np.arange(len(self.distinct)).astype(object))

    @cached_property
    def sizes(self) -> list:
        return _pooled(self.size_column)

    @cached_property
    def first_sizes(self) -> list:
        """Each datum's size at its first access, by id."""
        return _pooled(self.size_column[self.first])


def _pooled(column: np.ndarray, keys: np.ndarray | None = None, pool=None) -> list:
    """pool[keys.searchsorted(column)].tolist() for sorted ``keys`` and an
    object array ``pool`` (by default the column's distinct values), taken
    ROW_BLOCK values at a time: no whole-column temporary is made."""
    if keys is None:
        keys = sorted_distinct(column)
        pool = keys.astype(object)
    rows = [None] * len(column)
    block = _trace.ROW_BLOCK
    for lo in range(0, len(column), block):
        rows[lo:lo + block] = pool[keys.searchsorted(column[lo:lo + block])].tolist()
    return rows


class LruProfile(NamedTuple):
    """A trace's LRU replay at every capacity (see the module docstring)."""

    max_size: int
    distances: np.ndarray     # the distinct reuse distances, ascending
    reuses_upto: np.ndarray   # [k]: reuses at distance <= distances[k - 1]
    stack_bytes: np.ndarray   # [k]: bytes of the k + 1 most recent data at the end


def build_lru_profile(addresses: np.ndarray, sizes: np.ndarray) -> LruProfile | None:
    """The LRU profile of an access sequence; None when an address is
    accessed with two sizes.

    An access i whose address was last accessed at j has reuse distance
    seen(i) - sum(size[k] for k < j if next(k) > i), where seen(i) is the
    bytes of the distinct data accessed up to i and next(k) is the next
    access to k's address: the subtracted data were last touched before j
    and not again until after i. Since next(j) = i, the sum is over the
    earlier accesses with a larger next(), and it is taken for every j at
    once by a stable radix partition of next() from its highest bit down.
    Before the partition on bit b, accesses whose next() agrees above b sit
    together in position order, and those with bit b set are larger than
    the later ones without it.
    """
    n = len(addresses)
    # int32 positions and byte sums where they fit: the profile's working
    # set is what simulate adds to the process's peak
    index = index_dtype(n)
    byte = index_dtype(int(sizes.sum()))
    order = np.argsort(addresses, kind="stable").astype(index)
    ordered = addresses[order]
    repeat = ordered[1:] == ordered[:-1]
    del ordered
    earlier = order[:-1][repeat]
    later = order[1:][repeat]
    del order, repeat
    if not np.array_equal(sizes[earlier], sizes[later]):
        return None
    following = np.full(n, n, dtype=index)  # next(k), or n after a last access
    following[earlier] = later
    del earlier
    first = np.ones(n, dtype=bool)
    first[later] = False
    del later
    stack_bytes = np.cumsum(sizes[np.flatnonzero(following == n)[::-1]])

    # larger_before[k]: bytes of the accesses before k with a larger next()
    larger_before = np.zeros(n, dtype=byte)
    weight = sizes.astype(byte)  # a copy: it swaps with run, which is written
    high = np.empty(n, dtype=index)
    ones = np.empty(n, dtype=bool)
    zeros = np.empty(n, dtype=bool)
    run = np.empty(n, dtype=byte)
    block = np.empty(n, dtype=byte)
    perm = np.empty(n, dtype=index)
    for bit in reversed(range(n.bit_length())):
        np.bitwise_and(following, 1 << bit, out=high)
        np.not_equal(high, 0, out=ones)
        np.logical_not(ones, out=zeros)
        np.right_shift(following, bit + 1, out=high)
        starts = np.flatnonzero(high[1:] != high[:-1]) + 1
        # run: the bytes with the bit set before each access in its block.
        # Sizes are not negative, so the whole-array run never falls and its
        # running maximum over the block starts is the one at its own start.
        np.multiply(weight, ones, out=block)
        np.cumsum(block, out=run)
        run -= block
        block[:] = 0
        block[starts] = run[starts]
        del starts
        np.maximum.accumulate(block, out=block)
        run -= block
        run *= zeros
        larger_before += run
        split = np.count_nonzero(zeros)
        perm[:split] = np.flatnonzero(zeros)
        perm[split:] = np.flatnonzero(ones)
        # high, run and block are free until the next bit, so the columns
        # are permuted into them and swap places ("clip": no buffer)
        following, high = np.take(following, perm, out=high, mode="clip"), following
        weight, run = np.take(weight, perm, out=run, mode="clip"), weight
        larger_before, block = np.take(larger_before, perm, out=block, mode="clip"), larger_before
    del weight, high, ones, zeros, run, block, perm

    seen = np.multiply(sizes, first, dtype=byte)
    del first
    np.cumsum(seen, out=seen)
    reuse = following < n
    distances = seen[following[reuse]]
    distances -= larger_before[reuse]
    del seen, following, larger_before, reuse
    distances, counts = np.unique(distances, return_counts=True)
    reuses_upto = np.concatenate(([0], np.cumsum(counts)))
    return LruProfile(int(sizes.max(initial=0)), distances, reuses_upto, stack_bytes)


def sweep(
    trace: Trace,
    grouping: GroupTable | None,
    fractions: Sequence[float],
    policies: Sequence[str],
    extra_sizes: Mapping[int, int] | None = None,
    write_allocate: bool = True,
) -> list[SimMetrics]:
    """One SimMetrics row per (fraction, policy), in input order, from one
    simulate call per cell; the cells share one ReplayRows."""
    cells = [SimConfig(
        policy, capacity_fraction=fraction, extra_sizes=extra_sizes,
        grouping=grouping if policy in GROUP_POLICIES else None,
        write_allocate=write_allocate) for fraction in fractions for policy in policies]
    rows = ReplayRows(trace, cells)
    return [simulate(trace, cfg, rows) for cfg in cells]


_FORMATS = {"capacity_fraction": lambda v: "" if v is None else repr(v),
            "hit_rate": "{:.6f}".format}


def metrics_csv_lines(rows: Iterable[SimMetrics]):
    yield ",".join(METRIC_COLUMNS)
    for m in rows:
        yield ",".join(_FORMATS.get(name, str)(value) for name, value in m.as_dict().items())

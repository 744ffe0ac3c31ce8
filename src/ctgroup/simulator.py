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
address. ``build_lru_profile`` computes those distances once per trace with
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
* no datum is larger than C, so nothing bypasses the cache;

and also no invariant checking is asked for.

The replay rows. ``ReplayRows`` holds what a trace's cells share, built
once per trace: its first-access positions, distinct addresses and
``unique_bytes`` (the sum of first-seen sizes, which capacity fractions are
taken of); the LRU profile, at the first ``lru`` cell; and at the first
replayed cell, the rows every replayed cell iterates: each access's datum
as a dense id (id k is the k-th smallest address) and its size, objects
shared from a pool, so no cell converts numpy columns. The cache, plans and
sizes seen key on ids. For the last ``GroupTable``, it also keeps the
``group_column`` (the gid of the datum's group when that group has two or
more members, else -1, and -2 - gid at the first access to each member of
such a group) and those groups' members as ids, a member the trace never
accesses taking an id after the trace's. At that first access the loop
records the member's size and drops its group's cached plan when the size
is not its extra size, which each cell maps to ids afresh. Data in
one-member groups take the demand path: such a group's plan is the datum
alone, so the group path would admit it alone and prefetch nothing.

The batch and the workers. ``sweep`` makes its cells the trace's batch
and calls ``simulate`` once per cell, so a caller that wraps ``simulate``
still sees one call and one row per cell. The first call for a cell that
the LRU profile does not serve replays every such cell of the batch on
``forks.fork_map``: this process and at most one forked child per further
CPU it may use (``os.sched_getaffinity``), with no config key. This
process builds the id and size rows, the group rows and the extra-size
lookup first, so the children inherit them and build nothing; each
process runs the one replay loop, ``_replay``, on the cells it takes, and
a child sends back only their metrics. Later calls return their cell's
row, and the batch is cleared when ``sweep`` returns or raises. A
``simulate`` call outside a sweep, or one checking invariants, replays in
this process. A child copies the pages it writes: its cache, and those of
the pooled ints whose reference counts its iteration writes, about 8 MiB
per child at the 3M-record gate.
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
from .errors import ConfigError, InvariantError
from . import trace as _trace
from .features import Partition
from .trace import Op, Trace, first_access_positions

LRU = "lru"
FIFO = "fifo"
GROUP_PREFETCH = "group_prefetch"
GROUP_MERGED = "group_merged"
POLICIES = (LRU, FIFO, GROUP_PREFETCH, GROUP_MERGED)
# SimMetrics.as_dict's keys, the columns of metrics.csv
METRIC_COLUMNS = ("policy", "capacity_fraction", "capacity_bytes", "accesses", "hits",
                  "misses", "hit_rate", "disk_ios", "prefetched_bytes", "evictions")

class GroupTable:
    """The grouping for the prefetch policies: ``partition``, whose part
    gid holds the group's addresses, ascending.

    A table is not changed once built: the replay rows of a trace keep its
    group column under the table object itself.
    """

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
    extra_sizes: Mapping[int, int] | None = None  # sizes for never-traced members
    write_allocate: bool = True

    def validate(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if (self.capacity_bytes is None) == (self.capacity_fraction is None):
            raise ConfigError("exactly one of capacity_bytes/capacity_fraction required")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ConfigError("capacity_bytes must be positive")
        if self.capacity_fraction is not None and not 0 < self.capacity_fraction <= 1:
            raise ConfigError("capacity_fraction must be in (0,1]")
        if self.policy in (GROUP_PREFETCH, GROUP_MERGED) and self.grouping is None:
            raise ConfigError(f"policy {self.policy} requires a grouping")


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


def resolve_capacity(cfg: SimConfig, trace: Trace) -> int:
    """Fractions are taken of the sum of first-seen sizes of distinct data."""
    if cfg.capacity_bytes is not None:
        return cfg.capacity_bytes
    capacity = int(cfg.capacity_fraction * replay_rows(trace).unique_bytes)
    return max(capacity, 1)


def simulate(trace: Trace, cfg: SimConfig, check_invariants: bool = False) -> SimMetrics:
    """Replay a trace; returns its metrics.

    A cell of the trace's batch is replayed with the batch's other
    replayed cells at the first call for any of them (see the module
    docstring). Any other cell, and every cell checking invariants, is
    replayed in this process by this call.
    """
    cfg.validate()
    capacity = resolve_capacity(cfg, trace)
    if cfg.policy == LRU and not check_invariants:
        metrics = _profiled_lru(trace, cfg, capacity)
        if metrics is not None:
            return metrics
    rows = replay_rows(trace)
    if not check_invariants and any(cell is cfg for cell in rows.batch):
        if rows.replayed is None:
            rows.replayed = _replay_batch(trace, rows)
        return rows.replayed[id(cfg)]
    return _replay(trace, cfg, capacity, _extra_size(rows, cfg), check_invariants)


def _replay(trace: Trace, cfg: SimConfig, capacity: int, extra_size,
            check_invariants: bool = False) -> SimMetrics:
    """The replay of one cell at ``capacity`` bytes. ``extra_size`` is
    _extra_size's lookup for the cell, None for a cell without groups.

    One loop serves every policy: hits take the short path, and a miss
    admits the demanded datum, then (group policies) the group plan.
    Eviction is inlined and the counters are locals.
    """
    policy = cfg.policy
    lru_order = policy != FIFO
    prefetch = policy == GROUP_PREFETCH
    rows = replay_rows(trace)
    if extra_size is not None:
        group = rows.under(cfg.grouping)
        groups, group_members = group.column, group.members
    else:
        groups, group_members = repeat(-1), []
    # A member's fetch size is its first size seen so far in this replay,
    # else its extra size; members with neither are skipped and counted.
    # Each group's plan is cached until one of its members is first seen
    # with a size other than its extra size.
    sizes_seen: dict[int, int] = {}
    plans: list[tuple | None] = [None] * len(group_members)

    entries: OrderedDict[int, int] = OrderedDict()  # datum id -> resident size
    pop_oldest = entries.popitem
    pop_entry = entries.pop
    keys = entries.keys()
    move_to_end = entries.move_to_end
    occupied = hits = disk_ios = prefetched = evictions = bypasses = unknown = 0

    n = len(trace)
    # bytes iterate as the cached ints 0 and 1, so the flags make no objects
    allocates = (repeat(True) if cfg.write_allocate
                 else (trace.ops != int(Op.WRITE)).tobytes())
    for datum, size, allocate, gid in zip(rows.ids, rows.sizes, allocates, groups):
        if gid < -1:  # the first access to a member of a group
            gid = -2 - gid
            sizes_seen[datum] = size
            if extra_size(datum) != size:
                plans[gid] = None
        if datum in entries:
            hits += 1
            if lru_order:
                move_to_end(datum)
            continue

        disk_ios += 1
        if gid < 0 or (prefetch and not allocate):
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
            if check_invariants and occupied > capacity:
                raise InvariantError("cache occupancy exceeds capacity")
            continue

        cached = plans[gid]
        if cached is None:
            cached = plans[gid] = _fetch_plan(
                group_members[gid], sizes_seen, extra_size
            )
        # The plan lists the demanded datum too: it has been seen.
        plan, total, skips = cached
        total -= sizes_seen[datum]
        unknown += skips
        if not allocate:  # group_merged: nothing is admitted
            pass
        elif total + size <= capacity and keys.isdisjoint(group_members[gid]):
            # No member is resident (a member of unknown size never
            # is), so admitting the demanded datum and then the others
            # and evicting after all gives the same cache as evicting
            # after each. The plan rewrites the demanded datum's size
            # in place, so it is set again.
            entries[datum] = size
            for member, msize in plan:
                entries[member] = msize
            entries[datum] = size
            occupied += size + total
            prefetched += total
            if prefetch:
                disk_ios += len(plan) - 1
            while occupied > capacity:
                occupied -= pop_oldest(False)[1]
                evictions += 1
        else:
            if size <= capacity:
                entries[datum] = size
                occupied += size
                while occupied > capacity:
                    occupied -= pop_oldest(False)[1]
                    evictions += 1
            if total + size > capacity:
                if prefetch:
                    bypasses += (size > capacity) + (len(plan) > 1)
                else:
                    bypasses += 1
            elif prefetch:  # one I/O per non-resident member
                for member, msize in plan:
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
                for member, msize in plan:
                    if member == datum:
                        continue
                    old = pop_entry(member, None)
                    if old is not None:
                        occupied -= old
                    entries[member] = msize
                    occupied += msize
                    while occupied > capacity:
                        occupied -= pop_oldest(False)[1]
                        evictions += 1
        if check_invariants and occupied > capacity:
            raise InvariantError("cache occupancy exceeds capacity")

    return SimMetrics(
        cfg.policy, cfg.capacity_fraction, capacity,
        accesses=n, hits=hits, misses=n - hits, disk_ios=disk_ios,
        prefetched_bytes=prefetched, evictions=evictions, bypasses=bypasses,
        unknown_size_skips=unknown,
    )


def _extra_size(rows: ReplayRows, cfg: SimConfig):
    """A group cell's extra-size lookup on its members' ids, read from the
    caller's mapping as it is now; None for the other cells."""
    if cfg.policy not in (GROUP_PREFETCH, GROUP_MERGED):
        return None
    group = rows.under(cfg.grouping)
    return dict(zip(group.ids.tolist(), map((cfg.extra_sizes or {}).get,
                                            group.addresses.tolist()))).get


def _replay_batch(trace: Trace, rows: ReplayRows) -> dict:
    """Replay the cells of ``rows.batch`` that the LRU profile does not
    serve, on forks.fork_map; their rows by id(cell). What the cells share is
    built first, so the workers inherit it: the id and size rows, the
    group rows and one extra-size lookup per (grouping, mapping)."""
    cells, units, extras = [], [], {}
    for cfg in rows.batch:
        capacity = resolve_capacity(cfg, trace)
        if cfg.policy == LRU and _profiled_lru(trace, cfg, capacity) is not None:
            continue
        key = id(cfg.grouping), id(cfg.extra_sizes)
        if key not in extras:
            extras[key] = _extra_size(rows, cfg)
        cells.append(cfg)
        units.append((cfg, capacity, extras[key]))
    rows.ids, rows.sizes  # built here, so the workers share them
    metrics = forks.fork_map(lambda unit: _replay(trace, *unit), units)
    return {id(cfg): m for cfg, m in zip(cells, metrics)}


def group_column(addresses: np.ndarray, table: GroupTable, first: np.ndarray) -> np.ndarray:
    """The group column of an access sequence (see the module docstring):
    int32, per access the gid of its datum's group when that group has two
    or more members, else -1, and -2 - gid at the first access to each
    member of such a group, whose positions ``first`` lists
    (first_access_positions)."""
    # per gid, then for the -1 of an address in no group
    shared = np.append(np.diff(table.partition.offsets) > 1, False)
    column = np.full(len(addresses), -1, dtype=np.int32)
    if not shared.any():
        return column
    block = _trace.ROW_BLOCK
    for lo in range(0, len(addresses), block):
        gids = table.partition.labels(addresses[lo:lo + block])
        gids[~shared[gids]] = -1
        column[lo:lo + block] = gids
    first = first[column[first] >= 0]
    column[first] = -2 - column[first]
    return column


class GroupRows(NamedTuple):
    """A trace's replay rows under one GroupTable (see the module docstring)."""

    column: list          # the group column, pooled
    members: list         # member ids per gid, None for a one-member group
    addresses: np.ndarray  # the members of the other groups
    ids: np.ndarray       # and their ids


class ReplayRows:
    """What the cells of one trace share, built once per trace (see the
    module docstring). It keeps the trace's columns, not the trace, which
    holds it: run_pipeline pauses the cyclic collector."""

    def __init__(self, trace: Trace):
        self.addresses, self.size_column = trace.addresses, trace.sizes
        self.first = first_access_positions(self.addresses)
        self.distinct = np.sort(self.addresses[self.first])  # id k: [k]
        self.unique_bytes = int(self.size_column[self.first].sum())
        self.table = self.grouped = None
        self.batch: list[SimConfig] = []    # the cells of the running sweep
        self.replayed: dict | None = None  # their replayed rows, by id(cell)

    @cached_property
    def profile(self) -> LruProfile | None:
        return build_lru_profile(self.addresses, self.size_column)

    @cached_property
    def ids(self) -> list:
        return _pooled(self.addresses, self.distinct, np.arange(len(self.distinct)).astype(object))

    @cached_property
    def sizes(self) -> list:
        return _pooled(self.size_column)

    def under(self, table: GroupTable) -> GroupRows:
        """The rows under ``table``, kept for the last table: a sweep's
        group cells share them."""
        if self.table is not table:
            part = table.partition
            ids = find(self.distinct, part.members)
            absent = ids < 0
            ids[absent] = len(self.distinct) + np.arange(np.count_nonzero(absent))
            bounds, flat = part.offsets.tolist(), ids.tolist()
            members = [tuple(flat[lo:hi]) if hi - lo > 1 else None
                       for lo, hi in zip(bounds, bounds[1:])]
            shared = np.repeat(np.diff(part.offsets) > 1, np.diff(part.offsets))
            column = group_column(self.addresses, table, self.first)
            self.table, self.grouped = table, GroupRows(
                _pooled(column), members, part.members[shared], ids[shared])
        return self.grouped


def replay_rows(trace: Trace) -> ReplayRows:
    """The trace's ReplayRows, built when a cell first asks."""
    trace._replay = trace._replay or ReplayRows(trace)
    return trace._replay


def _pooled(column: np.ndarray, keys: np.ndarray | None = None, pool=None) -> list:
    """pool[keys.searchsorted(column)].tolist() for sorted ``keys`` and an
    object array ``pool`` (by default the column's distinct values), taken
    ROW_BLOCK values at a time: no whole-column temporary is made."""
    if keys is None:
        keys = np.unique(column)
        pool = keys.astype(object)
    rows = [None] * len(column)
    block = _trace.ROW_BLOCK
    for lo in range(0, len(column), block):
        rows[lo:lo + block] = pool[keys.searchsorted(column[lo:lo + block])].tolist()
    return rows


def _fetch_plan(members, sizes_seen, extra_size):
    """(member, size) for the group members of known size, in ascending
    address order; their total size; the count of the others."""
    plan = []
    total = unknown = 0
    for member in members:
        msize = sizes_seen.get(member)
        if msize is None:
            msize = extra_size(member)
            if msize is None:
                unknown += 1
                continue
        plan.append((member, msize))
        total += msize
    return plan, total, unknown


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
    index = np.int32 if n < 1 << 31 else np.int64
    byte = np.int32 if int(sizes.sum()) < 1 << 31 else np.int64
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


def _profiled_lru(trace: Trace, cfg: SimConfig, capacity: int) -> SimMetrics | None:
    """An lru cell from the trace's profile, or None where the profile does
    not apply and the cell must be replayed."""
    if not cfg.write_allocate and (trace.ops == int(Op.WRITE)).any():
        return None
    profile = replay_rows(trace).profile  # built once per trace, for every capacity
    if profile is None or profile.max_size > capacity:
        return None
    within = np.searchsorted(profile.distances, capacity, "right")
    hits = int(profile.reuses_upto[within])
    misses = len(trace) - hits
    residents = int(np.searchsorted(profile.stack_bytes, capacity, "right"))
    return SimMetrics(LRU, cfg.capacity_fraction, capacity, accesses=len(trace),
                      hits=hits, misses=misses, disk_ios=misses,
                      evictions=misses - residents)


def sweep(
    trace: Trace,
    grouping: GroupTable | None,
    fractions: Sequence[float],
    policies: Sequence[str],
    extra_sizes: Mapping[int, int] | None = None,
    write_allocate: bool = True,
) -> list[SimMetrics]:
    """One SimMetrics row per (fraction, policy), in input order, from one
    simulate call per cell; the cells are the trace's batch meanwhile."""
    rows = replay_rows(trace)
    rows.batch = [SimConfig(
        policy, capacity_fraction=fraction, extra_sizes=extra_sizes,
        grouping=grouping if policy in (GROUP_PREFETCH, GROUP_MERGED) else None,
        write_allocate=write_allocate) for fraction in fractions for policy in policies]
    try:
        return [simulate(trace, cfg) for cfg in rows.batch]
    finally:
        rows.batch, rows.replayed = [], None


_FORMATS = {"capacity_fraction": lambda v: "" if v is None else repr(v),
            "hit_rate": "{:.6f}".format}


def metrics_csv_lines(rows: Iterable[SimMetrics]):
    yield ",".join(METRIC_COLUMNS)
    for m in rows:
        yield ",".join(_FORMATS.get(name, str)(value) for name, value in m.as_dict().items())

"""Independent straight-line reference implementations used as oracles.

These deliberately avoid the package's data structures and incremental
bookkeeping: plain lists, linear scans, and recomputation from first
principles, so they can disagree with the production code if either is
wrong.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter, OrderedDict
from typing import NamedTuple

import numpy as np

from ctgroup.errors import (
    EmptyTraceError,
    InvariantError,
    RejectedRecordError,
    TraceParseError,
    UnknownDatumError,
)
from ctgroup.grouping import DESCENDING
from ctgroup.simulator import (
    FIFO,
    GROUP_PREFETCH,
    LRU,
    SimConfig,
    SimMetrics,
)
from ctgroup.synthetic import SyntheticSpec
from ctgroup.trace import AccessRecord, Op, Trace


def reconstruct_transactions(matrix):
    """Member sets per transaction index of a CtfMatrix (order within a
    set is lost)."""
    members = [set() for _ in range(matrix.num_transactions)]
    for address, vec in matrix.rows.items():
        for j in vec.bits:
            members[j].add(address)
    return members


def ref_extract(accesses, m, mode):
    """Transaction division over (addr, size) pairs.

    Returns (list of member tuples, tail members tuple). The tail is the
    end-of-trace residue (empty tuple if none).
    """
    window = []  # (addr, size), FIFO order
    occupied = 0
    out = 0
    pending = []
    result = []
    for addr, size in accesses:
        if not any(a == addr for a, _ in window):
            window.append((addr, size))
            occupied += size
            if mode == "cumulative" and addr not in pending:
                pending.append(addr)
        while occupied > m:
            a0, s0 = window.pop(0)
            occupied -= s0
            out += s0
        if out >= m:
            out = 0
            if mode == "snapshot":
                result.append(tuple(a for a, _ in window))
                window = []
                occupied = 0
            else:
                result.append(tuple(pending))
                pending = []
    if mode == "snapshot":
        tail = tuple(a for a, _ in window)
    else:
        tail = tuple(pending)
    return result, tail


def ref_merge_groups(relations, chunk_ids, mu):
    """Ordered group merging, recomputing every counter from scratch.

    relations: iterable of (x, y) chunk-id pairs, already sorted.
    Returns the partition as a set of sorted chunk-id tuples.

    The inter-group counter is re-derived on every step as the number of
    processed cross-group relations whose endpoints currently lie on the
    two sides (groups only ever grow, so a relation that is cross-group now
    was cross-group when processed).
    """
    group_of = {c: frozenset([c]) for c in chunk_ids}
    processed = []
    for x, y in relations:
        gx, gy = group_of[x], group_of[y]
        if gx == gy:
            continue
        processed.append((x, y))
        count = sum(
            1
            for a, b in processed
            if (a in gx and b in gy) or (a in gy and b in gx)
        )
        if count >= len(gx) * len(gy) * mu:
            merged = gx | gy
            for c in merged:
                group_of[c] = merged
    return {tuple(sorted(g)) for g in set(group_of.values())}


def ref_cluster(vectors, sigma):
    """Naive greedy agglomerative clustering of {addr: index-set} features.

    Repeatedly scans all cluster pairs, merging the qualifying pair with
    the smallest distance (ties: smallest min-address pair). The distance
    is the symmetric-difference count. Returns the set of sorted member
    tuples.
    """
    clusters = [([a], set(bits)) for a, bits in sorted(vectors.items())]
    while True:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                mi, fi = clusters[i]
                mj, fj = clusters[j]
                d = len(fi ^ fj)
                if d <= ((len(fi) + len(fj)) / 2.0) * sigma:
                    lo, hi = sorted((min(mi), min(mj)))
                    key = (d, lo, hi)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, i, j = best
        mi, fi = clusters[i]
        mj, fj = clusters[j]
        merged = (sorted(mi + mj), fi | fj)
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    return {tuple(m) for m, _ in clusters}


def ref_area_key(address, freq, q, p, max_address):
    """(address bin, frequency bin) of a datum on Python ints: address * q
    // max_address, with address == max_address in the last bin, and the
    largest b with p ** b <= freq."""
    addr_bin = min(address * q // max(max_address, 1), q - 1)
    freq_bin = 0
    while p ** (freq_bin + 1) <= freq:
        freq_bin += 1
    return addr_bin, freq_bin


def ref_chunk_all(vectors, q, p, sigma, max_address):
    """Chunking of {addr: index-set} features from its definition: each
    datum with a non-empty feature goes to the area ref_area_key gives it,
    each area is clustered by ref_cluster, and chunks come area by area in
    key order, then by smallest member. Returns ([(area key, members)],
    the addresses of the empty features, ascending)."""
    areas = {}
    for address, bits in sorted(vectors.items()):
        if bits:
            key = ref_area_key(address, len(bits), q, p, max_address)
            areas.setdefault(key, {})[address] = bits
    chunks = [(key, members) for key in sorted(areas)
              for members in sorted(ref_cluster(areas[key], sigma))]
    return chunks, sorted(a for a, bits in vectors.items() if not bits)


# The two-step co-occurrence count and alpha filter that grouping shipped
# with before both were fused on numpy arrays (compute_legal_relations),
# kept with their behaviour unchanged as its oracle.

def count_cooccurrence(transactions, chunk_lookup, include_partial=False):
    """Per unordered chunk pair, the number of transactions containing both.

    Every transacted address must resolve to a chunk; an unresolvable
    address raises UnknownDatumError naming it (it indicates the chunking
    was built from a different transaction log).
    """
    counts = {}
    for txn in transactions:
        if txn.partial and not include_partial:
            continue
        seen = set()
        for address in txn.members:
            try:
                seen.add(chunk_lookup[address])
            except KeyError:
                raise UnknownDatumError(
                    address, f"no chunk assignment for block address {address}") from None
        if len(seen) < 2:
            continue
        chunk_ids = sorted(seen)
        for i in range(len(chunk_ids)):
            for j in range(i + 1, len(chunk_ids)):
                key = (chunk_ids[i], chunk_ids[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


def ref_chunk_popcounts(transactions, chunk_lookup, include_partial=False):
    """|V_C| per chunk: the number of transactions holding any of its
    addresses, the partial one only under include_partial. Chunks that no
    such transaction holds are left out."""
    popcounts = {}
    for txn in transactions:
        if txn.partial and not include_partial:
            continue
        for chunk in {chunk_lookup[address] for address in txn.members}:
            popcounts[chunk] = popcounts.get(chunk, 0) + 1
    return popcounts


def legal_relations(counts, chunk_popcounts, alpha, sort=DESCENDING):
    """Filter pairs by the alpha threshold and order them by strength, as
    (x, y, count) tuples.

    Ties are broken by (smaller chunk id, larger chunk id) ascending.
    """
    kept = [
        (x, y, count)
        for (x, y), count in counts.items()
        if count >= max(chunk_popcounts[x], chunk_popcounts[y]) * alpha
    ]
    reverse = sort == DESCENDING
    kept.sort(key=lambda r: ((-r[2] if reverse else r[2]), r[0], r[1]))
    return kept


def relation_columns(relations):
    """(x, y, count) tuples as the three int64 columns that
    compute_legal_relations returns and merge_groups takes."""
    return tuple(np.array(relations, dtype=np.int64).reshape(-1, 3).T)


def ref_cooccurring_pairs(transactions):
    """Unordered address pairs sharing at least one cache transaction: the
    nested loop locality.cooccurring_pairs shipped with."""
    pairs = set()
    for txn in transactions:
        members = txn.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                pairs.add((a, b) if a < b else (b, a))
    return pairs


# The locality statistics as ctgroup.locality first computed them: a dict
# of per-address position lists, one bisect per access, one pass over the
# values per histogram bucket and per W limit.


def ref_access_index(addresses):
    """address -> its ascending access positions in the sequence."""
    seqs = {}
    for i, addr in enumerate(addresses):
        seqs.setdefault(addr, []).append(i)
    return seqs


def _ref_min_gap(seq, other):
    pos = bisect_left(other, seq)
    best = None
    if pos < len(other):
        best = other[pos] - seq
    if pos > 0:
        gap = seq - other[pos - 1]
        best = gap if best is None else min(best, gap)
    return best


def ref_relation_strength(seqs, x, y):
    """W_{x,y}: mean over x's accesses of the nearest gap to an access of y."""
    for address in (x, y):
        if address not in seqs:
            raise UnknownDatumError(
                address, f"block address {address} is never accessed in the trace")
    xs, ys = seqs[x], seqs[y]
    return sum(_ref_min_gap(s, ys) for s in xs) / len(xs)


def ref_always_followed_pairs(addresses, min_occurrences=2):
    """Sorted (x, y), y != x, where every access to x is immediately
    followed by y; an access to x at the very end disqualifies x."""
    successors, counts = {}, Counter()
    for i, addr in enumerate(addresses):
        counts[addr] += 1
        nxt = addresses[i + 1] if i + 1 < len(addresses) else None
        successors.setdefault(addr, set()).add(nxt)
    pairs = []
    for x, succ in successors.items():
        if counts[x] >= min_occurrences and len(succ) == 1:
            (y,) = succ
            if y is not None and y != x:
                pairs.append((x, y))
    return sorted(pairs)


def ref_make_histogram(values):
    """(lo, hi, count, cdf) over the buckets [0, 1), [1, 2), [2, 4), ...,
    from the first non-empty bucket to the last; and the value count."""
    values = sorted(values)
    if not values:
        return [], 0
    edges = [0, 1]
    while edges[-1] <= values[-1]:
        edges.append(edges[-1] * 2)
    buckets, running = [], 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        count = sum(1 for v in values if lo <= v < hi)
        running += count
        if count or buckets:
            buckets.append((lo, hi, count, running / len(values)))
    while buckets and buckets[-1][2] == 0:
        buckets.pop()
    return buckets, len(values)


def ref_gap_report(seqs, pairs, w_limits):
    """limit -> (pairs with W < limit, how many of them have equal access
    counts, Counter of |A_x - A_y| over them), W in the (x, y) order given."""
    evaluated = [(ref_relation_strength(seqs, x, y), abs(len(seqs[x]) - len(seqs[y])))
                 for x, y in pairs]
    reports = {}
    for limit in w_limits:
        gaps = Counter(gap for w, gap in evaluated if w < limit)
        reports[limit] = (sum(gaps.values()), gaps[0], gaps)
    return reports


def ref_lru_hit_rate(accesses, capacity):
    """Plain LRU over (addr, size) pairs; returns (hits, misses, evictions)."""
    order = []  # most recent last
    sizes = {}
    occupied = 0
    hits = misses = evictions = 0
    for addr, size in accesses:
        if addr in sizes:
            hits += 1
            order.remove(addr)
            order.append(addr)
        else:
            misses += 1
            if size <= capacity:
                sizes[addr] = size
                order.append(addr)
                occupied += size
                while occupied > capacity:
                    victim = order.pop(0)
                    occupied -= sizes.pop(victim)
                    evictions += 1
    return hits, misses, evictions


# The replay loop the simulator shipped with before its per-access path was
# inlined: one policy dispatch per access and a cache object per run. Kept
# verbatim as the oracle for ctgroup.simulator.simulate.

class _CacheState:
    __slots__ = ("entries", "occupied", "capacity", "metrics")

    def __init__(self, capacity: int, metrics: SimMetrics):
        self.entries: OrderedDict[int, int] = OrderedDict()
        self.occupied = 0
        self.capacity = capacity
        self.metrics = metrics

    def admit(self, address: int, size: int):
        old = self.entries.pop(address, None)
        if old is not None:
            self.occupied -= old
        self.entries[address] = size
        self.occupied += size
        while self.occupied > self.capacity:
            _, evicted = self.entries.popitem(last=False)
            self.occupied -= evicted
            self.metrics.evictions += 1


def ref_capacity(trace: Trace, cfg: SimConfig) -> int:
    """The cell's capacity in bytes: a fraction is taken of the sum of each
    address's size at its first access, with a floor of one byte."""
    if cfg.capacity_bytes is not None:
        return cfg.capacity_bytes
    first_sizes: dict[int, int] = {}
    for address, size in zip(trace.addresses.tolist(), trace.sizes.tolist()):
        if address not in first_sizes:
            first_sizes[address] = size
    return max(int(cfg.capacity_fraction * sum(first_sizes.values())), 1)


def ref_simulate(
    trace: Trace,
    cfg: SimConfig,
    check_invariants: bool = False,
) -> SimMetrics:
    """Replay a trace; returns its metrics."""
    cfg.validate()
    capacity = ref_capacity(trace, cfg)
    metrics = SimMetrics(cfg.policy, cfg.capacity_fraction, capacity)
    cache = _CacheState(capacity, metrics)
    lru_order = cfg.policy != FIFO
    groups = [] if cfg.grouping is None else cfg.grouping.partition.parts()
    group_of = {a: gid for gid, members in enumerate(groups) for a in members}
    extra_sizes = cfg.extra_sizes or {}
    sizes_seen: dict[int, int] = {}

    for address, size, op in zip(
        trace.addresses.tolist(), trace.sizes.tolist(), trace.ops.tolist()
    ):
        metrics.accesses += 1
        if address not in sizes_seen:
            sizes_seen[address] = size
        if address in cache.entries:
            metrics.hits += 1
            if lru_order:
                cache.entries.move_to_end(address)
        else:
            metrics.misses += 1
            is_write = op == int(Op.WRITE)
            allocate = cfg.write_allocate or not is_write
            if cfg.policy in (LRU, FIFO):
                metrics.disk_ios += 1
                if allocate:
                    if size <= capacity:
                        cache.admit(address, size)
                    else:
                        metrics.bypasses += 1
            elif cfg.policy == GROUP_PREFETCH:
                metrics.disk_ios += 1
                if size <= capacity and allocate:
                    cache.admit(address, size)
                elif size > capacity:
                    metrics.bypasses += 1
                gid = group_of.get(address)
                if gid is not None and allocate:
                    members, total = _group_fetch_plan(
                        groups[gid], address, sizes_seen, extra_sizes, metrics
                    )
                    if total + size <= capacity:
                        for member, msize in members:
                            if member not in cache.entries:
                                metrics.disk_ios += 1
                                metrics.prefetched_bytes += msize
                                cache.admit(member, msize)
                    elif members:
                        metrics.bypasses += 1
            else:  # GROUP_MERGED
                gid = group_of.get(address)
                if gid is None:
                    metrics.disk_ios += 1
                    if allocate:
                        if size <= capacity:
                            cache.admit(address, size)
                        else:
                            metrics.bypasses += 1
                else:
                    metrics.disk_ios += 1  # one fetch covers the whole group
                    members, total = _group_fetch_plan(
                        groups[gid], address, sizes_seen, extra_sizes, metrics
                    )
                    if allocate:
                        if total + size <= capacity:
                            cache.admit(address, size)
                            for member, msize in members:
                                metrics.prefetched_bytes += msize
                                cache.admit(member, msize)
                        else:
                            if size <= capacity:
                                cache.admit(address, size)
                            metrics.bypasses += 1
        if check_invariants and cache.occupied > capacity:
            raise InvariantError("cache occupancy exceeds capacity")
    return metrics


def _group_fetch_plan(members, demand, sizes_seen, extra_sizes, metrics):
    """Sizes for the other group members, ascending address order.

    Members whose size is unknown (never traced, not in extra_sizes) are
    skipped and counted.
    """
    plan = []
    total = 0
    for member in members:
        if member == demand:
            continue
        msize = sizes_seen.get(member)
        if msize is None:
            msize = extra_sizes.get(member)
        if msize is None:
            metrics.unknown_size_skips += 1
            continue
        plan.append((member, msize))
        total += msize
    return plan, total


def ref_plan_column(trace, table, extra_sizes):
    """Per access: None for a datum in no group of two or more members,
    else the plan of its group at that access, recomputed from the sizes
    seen so far as ref_simulate does: (the (id, size) pairs of the members
    of known size, their total, the count of the others).
    Id k is the k-th smallest traced address; the untraced members of such
    groups take the next ids, in group order."""
    addresses = trace.addresses.tolist()
    id_of = {a: k for k, a in enumerate(sorted(set(addresses)))}
    groups = [members for members in table.partition.parts() if len(members) > 1]
    for members in groups:
        for member in members:
            if member not in id_of:
                id_of[member] = len(id_of)
    group_of = {a: members for members in groups for a in members}
    extra_sizes = extra_sizes or {}
    sizes_seen: dict[int, int] = {}
    column = []
    for address, size in zip(addresses, trace.sizes.tolist()):
        if address not in sizes_seen:
            sizes_seen[address] = size
        members = group_of.get(address)
        if members is None:
            column.append(None)
            continue
        known = []
        for member in members:
            msize = sizes_seen.get(member)
            if msize is None:
                msize = extra_sizes.get(member)
            if msize is not None:
                known.append((id_of[member], msize))
        column.append((tuple(known), sum(s for _, s in known), len(members) - len(known)))
    return column


def timestamps_of(trace):
    """The trace's timestamps, or its positions 1..n where it keeps none
    (what Trace.save writes)."""
    if trace.timestamps is None:
        return np.arange(1, len(trace) + 1, dtype=np.int64)
    return trace.timestamps


def trace_rows(trace):
    """(timestamp, address, size, op) per access; equal to the trace's
    AccessRecords as tuples."""
    return list(zip(timestamps_of(trace).tolist(), trace.addresses.tolist(),
                    trace.sizes.tolist(), trace.ops.tolist()))


def ref_first_seen_sizes(trace):
    """{address: size at its first access}, one dict probe per access."""
    sizes: dict[int, int] = {}
    for a, s in zip(trace.addresses.tolist(), trace.sizes.tolist()):
        if a not in sizes:
            sizes[a] = s
    return sizes


def _ref_parse_fields(line: str, line_no=None):
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 7:
        raise TraceParseError(
            f"expected 7 comma-separated fields, got {len(fields)}", line_no
        )
    try:
        timestamp = int(fields[0])
    except ValueError:
        raise TraceParseError(f"non-numeric timestamp {fields[0]!r}", line_no) from None
    op_text = fields[3].strip().lower()
    if op_text == "read":
        op = Op.READ
    elif op_text == "write":
        op = Op.WRITE
    else:
        raise TraceParseError(f"unknown operation type {fields[3]!r}", line_no)
    try:
        offset = int(fields[4])
        size = int(fields[5])
    except ValueError:
        raise TraceParseError(
            f"non-numeric offset/size {fields[4]!r}/{fields[5]!r}", line_no
        ) from None
    if offset < 0:
        raise TraceParseError(f"negative offset {offset}", line_no)
    if size <= 0:
        raise RejectedRecordError(f"non-positive size {size}", line_no)
    int64 = range(-(1 << 63), 1 << 63)
    if timestamp not in int64 or offset not in int64 or size not in int64:
        raise TraceParseError("timestamp, offset or size out of int64 range", line_no)
    return (
        AccessRecord(timestamp, offset, size, op),
        fields[1].strip(),
        fields[2].strip(),
    )


def ref_load_trace(
    path,
    skip_malformed: bool = False,
    ops: str = "both",
    host: str | None = None,
    disk: str | None = None,
    max_records: int | None = None,
    source_label: str | None = None,
) -> Trace:
    """Load an MSR-convention CSV trace through one AccessRecord per line.

    Malformed lines abort with the offending line number unless
    skip_malformed is set, in which case they are skipped and counted. A
    line holding a byte that is not UTF-8 is malformed. A first line whose
    first column is not numeric is treated as a header. host/disk restrict
    the trace to records from one server/disk.
    """
    records = []
    skipped = 0
    try:
        # latin-1 maps each byte to one character, so text mode's
        # universal-newline split hands back each line's bytes, ended by \n
        fh = open(path, "r", encoding="latin-1")
    except OSError as exc:
        raise TraceParseError(f"cannot read trace file {path}: {exc}") from None
    with fh:
        for line_no, latin in enumerate(fh, start=1):
            raw = latin.encode("latin-1")
            try:
                line, bad_byte = raw.decode("utf-8"), None
            except UnicodeDecodeError as exc:
                line, bad_byte = raw.decode("utf-8", "replace"), raw[exc.start]
            if not line.strip():
                continue
            try:
                if bad_byte is not None:
                    raise TraceParseError(
                        f"byte 0x{bad_byte:02x} is not valid UTF-8", line_no)
                record, rec_host, rec_disk = _ref_parse_fields(line, line_no)
            except TraceParseError:
                if line_no == 1 and not line.split(",")[0].strip().isdigit():
                    continue  # header row
                if skip_malformed:
                    skipped += 1
                    continue
                raise
            except RejectedRecordError:
                if skip_malformed:
                    skipped += 1
                    continue
                raise
            if host is not None and rec_host != host:
                continue
            if disk is not None and rec_disk != disk:
                continue
            records.append(record)
            if max_records is not None and len(records) >= max_records:
                break
    if not records:
        raise EmptyTraceError(f"no valid records in {path}")
    label = source_label if source_label is not None else str(path)
    if ops != "both":
        records = [r for r in records if r.op == Op[ops.upper()]]
        if not records:
            raise EmptyTraceError(f"no records left in {label} after ops={ops} filter")
    return Trace.from_records(records, source_label=label, skipped=skipped)


class RefTruth(NamedTuple):
    """The planted partition: each group's member addresses, and the
    ungrouped data's."""

    groups: list
    ungrouped: tuple


def ref_synthesize_trace(spec: SyntheticSpec) -> tuple[Trace, RefTruth]:
    """Generate a trace and its planted partition through one AccessRecord
    per access. Deterministic per seed."""
    spec.validate()
    if spec.num_accesses == 0:
        raise EmptyTraceError("num_accesses is 0")
    rng = random.Random(spec.rng_seed)

    groups: list[list[int]] = []
    next_region = 0
    datum_count = 0
    sizes: dict[int, int] = {}

    def place(count: int) -> list[int]:
        nonlocal next_region
        base = next_region * spec.region_gap
        next_region += 1
        addrs = [base + j * spec.address_stride for j in range(count)]
        for a in addrs:
            sizes[a] = rng.randint(spec.size_min, spec.size_max)
        return addrs

    probs: list[float] = []
    for size, prob in spec.group_structure:
        groups.append(place(size))
        probs.append(prob)
        datum_count += size
    ungrouped = []
    for _ in range(spec.num_data - datum_count):
        ungrouped.extend(place(1))

    # Selection units: each planted group and each singleton, uniform.
    units: list[tuple[list[int], float]] = [(g, p) for g, p in zip(groups, probs)]
    units.extend(([a], 1.0) for a in ungrouped)

    records = []
    ts = 0
    while len(records) < spec.num_accesses:
        members, prob = units[rng.randrange(len(units))]
        if prob >= 1.0 or len(members) == 1:
            chosen = list(members)
        else:
            chosen = [a for a in members if rng.random() < prob]
            if not chosen:
                chosen = [members[rng.randrange(len(members))]]
        for addr in chosen:
            if len(records) >= spec.num_accesses:
                break
            ts += 1
            records.append(AccessRecord(ts, addr, sizes[addr], Op.READ))

    trace = Trace.from_records(records, source_label=f"synthetic(seed={spec.rng_seed})")
    return trace, RefTruth([tuple(g) for g in groups], tuple(ungrouped))


def replay_audit(addr_features, audit):
    """Re-derive cluster membership by applying a chunking audit log in
    order; returns the set of final member tuples."""
    clusters: dict[int, list[int]] = {a: [a] for a in addr_features}
    owner = {a: a for a in addr_features}
    for record in audit:
        ra = owner[record.members_a[0]]
        rb = owner[record.members_b[0]]
        if ra == rb:
            raise ValueError("audit merges an already-merged pair")
        merged = clusters.pop(ra) + clusters.pop(rb)
        merged.sort()
        root = merged[0]
        clusters[root] = merged
        for a in merged:
            owner[a] = root
    return {tuple(v) for v in clusters.values()}


def replay_group_audit(chunk_ids, audit):
    """Re-derive the chunk partition from a grouping audit log."""
    owner = {c: c for c in chunk_ids}
    groups: dict[int, list[int]] = {c: [c] for c in owner}

    def find(c):
        while owner[c] != c:
            c = owner[c]
        return c

    for record in audit:
        ra = find(record.chunks_a[0])
        rb = find(record.chunks_b[0])
        if ra == rb:
            raise ValueError("audit merges an already-merged pair")
        groups[ra].extend(groups.pop(rb))
        owner[rb] = ra
    return {tuple(sorted(v)) for v in groups.values()}

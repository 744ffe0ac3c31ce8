"""Correctness checks on a pipeline's artifacts, written apart from ctgroup.

The artifact readers and the LRU/FIFO replay below share no code with the
package; each check returns a list of failure messages (empty when the
outputs are right).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

GATE_HIT_FRACTIONS = (0.001, 0.002)      # merged >= LRU + 5 pp
GATE_IO_FRACTIONS = (0.001, 0.002, 0.004, 0.008)  # merged <= 0.8 x LRU
# The greedy mu merge can leave a planted group split in two when
# transaction boundaries cut its runs. At 300k reads, 23 to 46 of the 2,000
# groups (1.2% to 2.3%) split at the default sigma and mu over seeds 1-40
# (see README). 3% is that maximum plus 30%; a grouping change that doubles
# the typical count of about 32 fails the check.
MAX_SPLIT_SHARE = 0.03


def read_rows(path):
    """Data lines of an artifact as lists of fields (headers skipped)."""
    sep = "," if path.endswith(".csv") else "\t"
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line == "group_id,block_address":
                continue
            rows.append(line.split(sep))
    return rows


def read_csv_trace(path):
    """(address, size, is_write) per record of a 7-column MSR CSV."""
    accesses = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            f = line.split(",")
            accesses.append((int(f[4]), int(f[5]), f[3] == "Write"))
    return accesses


def held_out(accesses, train_fraction):
    """Records after the first max(1, int(n * train_fraction)), at most n - 1."""
    n = len(accesses)
    count = min(max(1, int(n * train_fraction)), n - 1)
    return accesses[count:]


def replay(accesses, capacity, fifo, write_allocate):
    """Demand-fetch cache over (address, size, is_write); returns
    (hits, misses, evictions). A write miss is not admitted without
    write-allocate; a datum larger than the cache is never admitted."""
    cache = OrderedDict()
    used = hits = misses = evictions = 0
    for address, size, is_write in accesses:
        if address in cache:
            hits += 1
            if not fifo:
                cache.move_to_end(address)
            continue
        misses += 1
        if (is_write and not write_allocate) or size > capacity:
            continue
        cache[address] = size
        used += size
        while used > capacity:
            used -= cache.popitem(last=False)[1]
            evictions += 1
    return hits, misses, evictions


def check_rows(rows, test, write_allocate):
    """Row arithmetic, and every lru/fifo row against replay()."""
    failures = []
    seen = {}
    for address, size, _ in test:
        seen.setdefault(address, size)
    unique_bytes = sum(seen.values())
    for row in rows:
        label = f"{row['policy']}@{row['capacity_fraction']}"
        if not row["hits"] + row["misses"] == row["accesses"] == len(test):
            failures.append(f"{label}: hits+misses={row['hits'] + row['misses']}, "
                            f"accesses={row['accesses']}, test split={len(test)}")
        if row["policy"] == "group_prefetch":
            if row["disk_ios"] < row["misses"]:
                failures.append(f"{label}: disk_ios {row['disk_ios']} < misses")
        elif row["disk_ios"] != row["misses"]:
            failures.append(f"{label}: disk_ios {row['disk_ios']} != misses")
        if row["policy"] in ("lru", "fifo"):
            capacity = max(int(row["capacity_fraction"] * unique_bytes), 1)
            expected = (capacity,) + replay(test, capacity, row["policy"] == "fifo",
                                            write_allocate)
            got = (row["capacity_bytes"], row["hits"], row["misses"], row["evictions"])
            if got != expected:
                failures.append(f"{label}: (capacity, hits, misses, evictions) "
                                f"{got} != replay {expected}")
    return failures


def check_partitions(out_dir):
    """chunks.tsv and grouping.csv partition the data of ctf.tsv, every group
    is a union of chunks, and the feature nnz equals the full transactions'
    summed membership."""
    failures = []
    ctf = read_rows(os.path.join(out_dir, "ctf.tsv"))
    data = {int(r[0]) for r in ctf}
    nnz = sum(len(r[1].split(",")) for r in ctf if r[1])
    membership = sum(len(r[1].split(",")) for r in
                     read_rows(os.path.join(out_dir, "transactions.tsv"))
                     if r[1] and r[2:] != ["partial"])
    if nnz != membership:
        failures.append(f"ctf nnz {nnz} != full-transaction membership {membership}")

    chunk_of = {}
    for cid, members in read_rows(os.path.join(out_dir, "chunks.tsv")):
        for a in members.split(","):
            if int(a) in chunk_of:
                failures.append(f"address {a} in two chunks")
            chunk_of[int(a)] = cid
    group_of = {}
    for gid, a in read_rows(os.path.join(out_dir, "grouping.csv")):
        if int(a) in group_of:
            failures.append(f"address {a} in two groups")
        group_of[int(a)] = gid
    for name, owner in (("chunks", chunk_of), ("groups", group_of)):
        if set(owner) != data:
            failures.append(f"{name} cover {len(owner)} data, ctf has {len(data)}")
    groups_of_chunk = {}
    for a, cid in chunk_of.items():
        groups_of_chunk.setdefault(cid, set()).add(group_of.get(a))
    split = [cid for cid, gids in groups_of_chunk.items() if len(gids) != 1]
    if split:
        failures.append(f"{len(split)} chunks split across groups, e.g. {split[0]}")
    return failures


def split_planted(out_dir, planted):
    """Planted groups that do not lie within one output group."""
    group_of = {int(a): gid for gid, a in
                read_rows(os.path.join(out_dir, "grouping.csv"))}
    return [g for g in planted if len({group_of.get(a) for a in g}) != 1
            or group_of.get(g[0]) is None]


def check_planted(rows, split, planted):
    """At most MAX_SPLIT_SHARE of the ``planted`` groups came out ``split``,
    and the acceptance gate's two cache-metric criteria hold."""
    failures = []
    if split > MAX_SPLIT_SHARE * planted:
        failures.append(f"{split} of {planted} planted groups not within one "
                        f"output group")
    by_cell = {(r["policy"], r["capacity_fraction"]): r for r in rows}
    for f in GATE_HIT_FRACTIONS:
        lru, merged = by_cell[("lru", f)], by_cell[("group_merged", f)]
        if merged["hit_rate"] < lru["hit_rate"] + 0.05:
            failures.append(f"gate: merged hit rate {merged['hit_rate']:.4f} < "
                            f"LRU {lru['hit_rate']:.4f} + 0.05 at {f}")
    for f in GATE_IO_FRACTIONS:
        lru, merged = by_cell[("lru", f)], by_cell[("group_merged", f)]
        if merged["disk_ios"] > 0.8 * lru["disk_ios"]:
            failures.append(f"gate: merged disk I/O {merged['disk_ios']} > "
                            f"0.8 x LRU {lru['disk_ios']} at {f}")
    return failures


def load_metric_rows(out_dir):
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)["rows"]

"""
Cache replay: demand fetch vs. group prefetch
=============================================

The simulator replays a trace through a byte-capacity cache under four
policies: plain LRU and FIFO, one-step group prefetch (each non-resident
group member costs its own disk I/O), and merged-group prefetch (groups
are stored contiguously, so one I/O fetches the whole group).

The groups come from the toolkit's own training stages: train on the
first 70% of the trace, evaluate on the remaining 30%.
"""

from ctgroup.chunking import ChunkerConfig, chunk_all
from ctgroup.features import build_ctf
from ctgroup.grouping import GrouperConfig, build_grouping
from ctgroup.simulator import GroupTable, metrics_csv_lines, sweep
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.transactions import ExtractorConfig, extract_transactions

spec = SyntheticSpec(
    num_data=2000,
    num_accesses=60000,
    group_structure=[(8, 1.0)] * 250,
    rng_seed=7,
)
trace, _ = synthesize_trace(spec)
train, test = trace.split(int(len(trace) * 0.7))

txns = extract_transactions(train, ExtractorConfig(window_bytes=65536))
matrix = build_ctf(txns)
chunkset = chunk_all(matrix, ChunkerConfig(sigma=0.2))
grouping = build_grouping(txns, chunkset.partition, GrouperConfig())
table = GroupTable.from_grouping(grouping)
print(f"learned {len(table.partition)} groups from the training split\n")

# Capacity fractions are relative to the workload's distinct-data bytes;
# at 0.4% of the working set a demand-fetch cache gets almost no hits,
# while group prefetch turns each group's first miss into seven hits.
rows = sweep(
    test,
    table,
    fractions=[0.004, 0.016, 0.064],
    policies=["lru", "fifo", "group_prefetch", "group_merged"],
    extra_sizes=trace.first_seen_sizes(),
)
for line in metrics_csv_lines(rows):
    print(line)

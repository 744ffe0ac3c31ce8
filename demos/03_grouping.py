"""
Merging chunks into prefetch groups
===================================

Chunks that frequently co-occur in the same transactions are merged into
disjoint groups, strongest correlations first. A relation is legal when
its co-occurrence count R reaches max(|Vx|, |Vy|) * alpha; two groups
merge once the number of processed cross-relations between them reaches
|Gx| * |Gy| * mu. The group is the unit of prefetching.
"""

from ctgroup.chunking import ChunkerConfig, chunk_all
from ctgroup.features import build_ctf
from ctgroup.grouping import GrouperConfig, build_grouping, grouping_report
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.transactions import ExtractorConfig, extract_transactions

# Groups with intra-access probability 0.8: members usually, but not
# always, appear together, so chunking fragments them and the grouping
# stage has real work to do.
spec = SyntheticSpec(
    num_data=40,
    num_accesses=8000,
    group_structure=[(6, 0.8)] * 6,
    rng_seed=5,
)
trace, truth = synthesize_trace(spec)

txns = extract_transactions(trace, ExtractorConfig(window_bytes=65536))
matrix = build_ctf(txns)
chunkset = chunk_all(matrix, ChunkerConfig(sigma=0.1))
print(f"{len(matrix.rows)} data -> {len(chunkset)} chunks")

# grouping reads the transactions and the chunks, a Partition of the
# addresses whose part ids are the chunk ids
grouping = build_grouping(txns, chunkset.partition, GrouperConfig(alpha=0.5, mu=0.5))
report = grouping_report(grouping)
print(f"-> {report.group_count} groups; sizes {report.size_histogram}")

# group gid's addresses and chunk ids are part gid of two partitions
print("\nrecovered groups of size > 1:")
for gid, (members, chunk_ids) in enumerate(zip(grouping.partition.parts(),
                                               grouping.chunk_ids.parts())):
    if len(members) > 1:
        density = report.densities[gid]
        shown = "n/a" if density is None else f"{density:.2f}"
        print(f"  group {gid}: {len(members)} data "
              f"({len(chunk_ids)} chunks, edge density {shown})")
print(f"\nplanted: {len(truth.groups)} groups of 6, "
      f"{len(truth.ungrouped)} singletons")

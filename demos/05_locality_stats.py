"""
Workload locality statistics
============================

Two questions about a workload motivate the whole approach:

1. Are related data *spatially* close? For every pair (x, y) where y
   always immediately follows x, how far apart are their block
   addresses?
2. Are related data accessed *equally often*? For co-transacting pairs
   whose relation strength W (mean minimum access-sequence gap) is below
   a limit, how different are their access counts?
"""

from ctgroup.locality import (
    access_count_gap_report,
    access_index,
    cooccurring_pairs,
    gap_report_csv_lines,
    related_pair_distance_histogram,
    relation_strength,
)
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.transactions import ExtractorConfig, extract_transactions

spec = SyntheticSpec(
    num_data=120,
    num_accesses=20000,
    group_structure=[(4, 1.0)] * 25,
    rng_seed=13,
)
trace, truth = synthesize_trace(spec)

# Address-distance distribution of always-sequential pairs. Group members
# are contiguous here, so the mass sits at one stride.
hist = related_pair_distance_histogram(trace)
print(f"{hist.total} always-sequential related pairs")
for lo, hi, count, cdf in hist.buckets:
    if count:
        print(f"  distance [{lo}, {hi}): {count} pairs (cdf {cdf:.2f})")

# Relation strength between two same-group members is small; between
# members of different groups it is large. The access index holds each
# address's access positions: it is the CTF of the log that holds one
# transaction per access.
index = access_index(trace)
same = relation_strength(index, truth.groups[0][0], truth.groups[0][1])
cross = relation_strength(index, truth.groups[0][0], truth.groups[1][0])
print(f"\nW(same group) = {same:.1f}   W(cross group) = {cross:.1f}")

# Access-count gaps for co-transacting pairs under increasing W limits.
txns = extract_transactions(trace, ExtractorConfig(window_bytes=65536))
pairs = cooccurring_pairs(txns)  # (x, y) address arrays, full transactions only
reports = access_count_gap_report(index, pairs, w_limits=[20, 50, 100])
print()
for line in gap_report_csv_lines(reports):
    print(line)

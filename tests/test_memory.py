"""Working-set bounds of the numpy kernels: chunking, grouping, replay, loading.

tracemalloc counts every block Python and numpy allocate, so the peak of
one call on a fixed input repeats exactly. The instance is a smaller
cluster-heavy workload: partial co-access in groups of 8, 16 and 32 at
sigma 0.6, about 49k (transaction, chunk) incidences and 5k
transactions. The bounds sit between the peaks of the numpy kernels with
and without their full-size int64 temporaries and unbounded pair batches:
chunk_all peaked at 5.0 MiB and compute_legal_relations at 16.2 MiB with
them, and at 2.8 and 6.7 MiB without (numpy 2.4, Python 3.11).

chunk_all's peak is that of clustering its largest area, 534 data
here. Its bound is taken with one CPU, so every area is clustered in this
process. On two CPUs this process takes the largest area first, so its
peak is that area's again, and the two differ only by fork_map's
bookkeeping: by up to 0.2 KiB either way over repeated runs. The twin
allows FORK_BOOKKEEPING, 16 KiB, above the one-CPU peak. The child's
results for the other 33 areas, 23 KB pickled and 0.2 MiB unpickled,
arrive after this process's share; either would cross it if it were held
at the peak.

chunk_all also runs at perfbench's planted-300k CTF shape: the 210k-access
training split of the synthesize_trace instance below, 19,999 data and
209,872 (datum, transaction) incidences. Its bound is the 6.37 MiB peak
of the per-datum keying and per-merge bit searches it replaced, plus 10%;
it peaks at 5.61 MiB, so a new temporary of 1.4 MiB or more crosses it.

build_lru_profile runs on the same instance's 80k-access trace. Its bound
sits between its peak with int64 positions and byte sums throughout, 5.1
MiB, and with the int32 ones it ships with, 3.0 MiB.

group_column runs on that trace under its 60 planted groups. Its bound
sits between its peak when the address lookup and the first-access search
ran over the whole trace at once, 2.4 MiB, and when they take ROW_BLOCK
accesses at a time, 1.3 MiB; the int32 column itself is 0.3 MiB.

sweep replays that trace under its 60 planted groups, with fifo and the
two group policies at two capacities and write_allocate off, so it builds
the trace's replay rows and group rows once. Its bound sits between its
peak when the rows were whole-column tolist() lists of fresh ints, 7.0
MiB, and when they hold shared objects built ROW_BLOCK accesses at a
time, 3.8 MiB. Converting four column blocks in every cell instead
peaked at 3.5 MiB. The bound is taken with one CPU, so the cells replay
in this process and their caches count; on a pool, tracemalloc sees only
this process, and its peak may be no higher than that one.

load_trace reads a 100k-line canonical CSV (4.8 MB). Its bound sits
between its peak when it built four Python int lists of the whole file,
13.6 MiB, and when it parses 256 KiB blocks with numpy, 4.9 MiB.

At 250k lines (12.2 MB, 6.0 MiB of columns) the columns dominate
load_trace's peak: 12.1 MiB when it joined per-block pieces at the end,
holding the columns twice, and 8.6 MiB when it fills them in place.

load_transactions reads the instance's transaction log back (0.8 MB, 79k
members). Its bound sits between its peak when artifacts.read_rows parsed
the whole file as one block, 6.5 MiB, and in 256 KiB blocks, 3.2 MiB; the
log's own arrays are 0.6 MiB. The row-by-row parser it replaced peaked at
1.0 MiB. Since read_rows fills its columns in place, the peak is 4.1 MiB:
the columns are reserved while the first block's temporaries peak, so
this bound stays as it was.

synthesize_trace runs at perfbench's planted-300k shape (20,000 data,
2,000 groups of 8 at probability 1.0, 300k accesses; 7.2 MiB of trace
columns). Its bound sits between its peak when it drew one access at a
time into a Python list, 15.7 MiB, and when it decodes blocks of
WORD_BLOCK words into columns filled in place, 11.5 MiB.

Rows.repeated(within_rows=True), load_transactions' repeat check, runs on
50,000 rows of 20 values built in memory. Its bound sits between its peak
when it sorted the whole values column with an int64 row id per value,
23.8 MiB, and when it takes slices of whole rows and about READ_BLOCK
values with int32 row ids, 8.2 MiB; the mask itself is 1.0 MiB.

access_count_gap_report evaluates W for the instance's 335,706
co-occurring address pairs, whose x-accesses number 16.9M, about 258
batches of ACCESS_BATCH. Its bound sits between its peak when it finds
the nearest y-access of every x-access at once, 916 MiB, and in batches
of ACCESS_BATCH, 18.0 MiB; batches four times as large peaked at 26.9 MiB.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from conftest import chunkset_fields
from ctgroup import artifacts, locality
from ctgroup.chunking import ChunkerConfig, chunk_all
from ctgroup.features import Partition, build_ctf
from ctgroup.grouping import compute_legal_relations
from ctgroup.simulator import (
    FIFO,
    GROUP_MERGED,
    GROUP_PREFETCH,
    GroupTable,
    build_lru_profile,
    group_column,
    sweep,
)
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.trace import first_access_positions, load_trace
from ctgroup.transactions import (
    ExtractorConfig,
    extract_transactions,
    load_transactions,
    save_transactions,
)

MIB = 1 << 20
FORK_BOOKKEEPING = 16 << 10


def traced_peak(fn, *args):
    """(fn(*args), the peak of memory allocated while it ran, in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def synthetic():
    groups = [(8, 0.8)] * 30 + [(16, 0.8)] * 20 + [(32, 0.8)] * 10
    spec = SyntheticSpec(num_data=1600, num_accesses=80000, group_structure=groups,
                         rng_seed=7)
    return synthesize_trace(spec)


@pytest.fixture(scope="module")
def trace(synthetic):
    return synthetic[0]


@pytest.fixture(scope="module")
def instance(trace):
    txns = extract_transactions(trace, ExtractorConfig(65536))
    return txns, build_ctf(txns)


def chunk_all_peak(ctf, cpus):
    """(chunk_all's result, its traced peak) at sigma 0.6 with ``cpus``
    CPUs for its areas."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return traced_peak(chunk_all, ctf, ChunkerConfig(sigma=0.6))


@pytest.fixture(scope="module")
def in_process_chunk_all(instance):
    return chunk_all_peak(instance[1], 1)


def test_chunk_all_peak(in_process_chunk_all):
    chunkset, peak = in_process_chunk_all
    assert len(chunkset) == 866
    assert peak <= 4 * MIB, f"chunk_all peaked at {peak / MIB:.2f} MiB"


def test_chunk_all_forked_peak(instance, in_process_chunk_all):
    chunkset, peak = chunk_all_peak(instance[1], 2)
    assert chunkset_fields(chunkset) == chunkset_fields(in_process_chunk_all[0])
    assert peak <= in_process_chunk_all[1] + FORK_BOOKKEEPING, (
        f"chunk_all peaked at {peak / MIB:.2f} MiB")


def test_chunk_all_planted_peak():
    spec = SyntheticSpec(num_data=20000, num_accesses=300000,
                         group_structure=[(8, 1.0)] * 2000, rng_seed=1)
    train = synthesize_trace(spec)[0].split(210000)[0]
    ctf = build_ctf(extract_transactions(train, ExtractorConfig(65536)))
    chunkset, peak = traced_peak(chunk_all, ctf, ChunkerConfig())
    assert len(chunkset) == 12678 and len(chunkset.audit) == 7321
    assert peak <= 7.0 * MIB, f"chunk_all peaked at {peak / MIB:.2f} MiB"


def test_compute_legal_relations_peak(instance):
    txns, ctf = instance
    chunks = chunk_all(ctf, ChunkerConfig(sigma=0.6)).partition
    relations, peak = traced_peak(compute_legal_relations, txns, chunks, 0.5)
    assert len(relations) == 78
    assert peak <= 10 * MIB, f"compute_legal_relations peaked at {peak / MIB:.2f} MiB"


def test_build_lru_profile_peak(trace):
    profile, peak = traced_peak(build_lru_profile, trace.addresses, trace.sizes)
    assert profile.reuses_upto[-1] == len(trace) - 1600  # every non-first access
    assert peak <= 4 * MIB, f"build_lru_profile peaked at {peak / MIB:.2f} MiB"


def test_group_column_peak(synthetic):
    trace, truth = synthetic
    table = GroupTable(Partition.of(truth.groups))
    # with the first-access search, as ReplayRows runs it for the column
    column, peak = traced_peak(
        lambda addresses: group_column(addresses, table, first_access_positions(addresses)),
        trace.addresses)
    assert column.dtype == np.int32 and len(column) == len(trace)
    assert (column < -1).sum() == sum(len(members) for members in truth.groups)
    assert peak <= 2 * MIB, f"group_column peaked at {peak / MIB:.2f} MiB"


def sweep_peak(synthetic, cpus):
    """(sweep's rows, its traced peak) with ``cpus`` CPUs for the cells'
    pool, on a copy of the trace that has no rows cached."""
    trace, truth = synthetic
    trace = dataclasses.replace(trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return traced_peak(sweep, trace, GroupTable(Partition.of(truth.groups)), [0.01, 0.05],
                           [FIFO, GROUP_MERGED, GROUP_PREFETCH],
                           trace.first_seen_sizes(), False)


@pytest.fixture(scope="module")
def in_process_sweep(synthetic):
    return sweep_peak(synthetic, 1)


def test_replay_rows_peak(in_process_sweep):
    rows, peak = in_process_sweep
    assert [row.hits for row in rows[:2]] == [718, 23005]
    assert peak <= 5 * MIB, f"sweep peaked at {peak / MIB:.2f} MiB"


def test_replay_rows_pool_peak(synthetic, in_process_sweep):
    rows, peak = sweep_peak(synthetic, 2)
    assert rows == in_process_sweep[0]
    assert peak <= in_process_sweep[1], f"sweep peaked at {peak / MIB:.2f} MiB"


def test_load_trace_peak(tmp_path):
    spec = SyntheticSpec(num_data=1600, num_accesses=100000,
                         group_structure=[(8, 0.8)] * 30, rng_seed=7)
    trace = synthesize_trace(spec)[0]
    path = tmp_path / "trace.csv"
    trace.save(path)  # 100k canonical lines, 4.8 MB
    loaded, peak = traced_peak(load_trace, path)
    assert len(loaded) == len(trace)
    assert peak <= 8 * MIB, f"load_trace peaked at {peak / MIB:.2f} MiB"


def test_load_trace_columns_peak(tmp_path):
    spec = SyntheticSpec(num_data=1600, num_accesses=250000,
                         group_structure=[(8, 0.8)] * 30, rng_seed=7)
    trace = synthesize_trace(spec)[0]
    path = tmp_path / "trace.csv"
    trace.save(path)  # 250k canonical lines, 12.2 MB
    loaded, peak = traced_peak(load_trace, path)
    assert np.array_equal(loaded.addresses, trace.addresses)
    assert peak <= 10 * MIB, f"load_trace peaked at {peak / MIB:.2f} MiB"


def test_load_transactions_peak(instance, tmp_path):
    txns, _ctf = instance
    path = tmp_path / "transactions.tsv"
    save_transactions(path, txns, ExtractorConfig(65536), config_hash="h")
    (log, _header), peak = traced_peak(load_transactions, path)
    assert len(log) == 4955 and len(log.members) == 79282
    assert peak <= 5 * MIB, f"load_transactions peaked at {peak / MIB:.2f} MiB"


def test_repeated_within_rows_peak():
    count, width = 50000, 20
    values = np.random.default_rng(3).integers(0, 1000, count * width)
    rows = artifacts.Rows("rows", {}, np.arange(count), values,
                          np.arange(0, count * width + 1, width),
                          np.zeros(count, bool), np.arange(count) + 2)
    mask, peak = traced_peak(rows.repeated, True)
    ordered = np.sort(values.reshape(count, width), axis=1)
    assert mask.sum() == (ordered[:, 1:] == ordered[:, :-1]).sum()
    assert peak <= 14 * MIB, f"Rows.repeated peaked at {peak / MIB:.2f} MiB"


def test_synthesize_peak():
    spec = SyntheticSpec(num_data=20000, num_accesses=300000,
                         group_structure=[(8, 1.0)] * 2000, rng_seed=1)
    (trace, _truth), peak = traced_peak(synthesize_trace, spec)
    assert len(trace) == 300000
    assert peak <= 14 * MIB, f"synthesize_trace peaked at {peak / MIB:.2f} MiB"


def test_access_count_gap_report_peak(trace, instance):
    txns, _ctf = instance
    pairs = locality.cooccurring_pairs(txns)
    index = locality.access_index(trace)
    reports, peak = traced_peak(locality.access_count_gap_report, index, pairs, [50.0, 150.0])
    assert len(pairs[0]) == 335706
    assert [(r.num_pairs, r.equal_count) for r in reports.values()] == [(139, 4), (3018, 314)]
    assert peak <= 24 * MIB, f"access_count_gap_report peaked at {peak / MIB:.2f} MiB"

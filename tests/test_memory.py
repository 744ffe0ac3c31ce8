"""Working-set bounds of the numpy kernels: chunking, grouping, replay, loading.

tracemalloc counts every block Python and numpy allocate, so the peak of
one call on a fixed input repeats exactly. The instance is a smaller
cluster-heavy workload: partial co-access in groups of 8, 16 and 32 at
sigma 0.6, about 49k (transaction, chunk) incidences and 5k
transactions. The bounds sit between the peaks of the numpy kernels with
and without their full-size int64 temporaries and unbounded pair batches:
chunk_all peaked at 5.0 MiB and compute_legal_relations at 16.2 MiB with
them, and at 2.8 and 6.7 MiB without (numpy 2.4, Python 3.11).
compute_legal_relations then peaked at 5.7 MiB while shared_run_counts'
setup made int64 arrays as long as its input, with 8,192-transaction
labeling batches and 65,536-occurrence pair batches, and peaks at 2.0
MiB with the setup in the index dtype, batches of 2,048 and 16,384, and
no Relation objects; its bound sits between the two.

chunk_all's peak is that of clustering its largest area, 534 data
here. Its bound is taken with one CPU, so every area is clustered in this
process. On two CPUs this process takes the largest area first, so its
peak is that area's again, and the two differ only by fork_map's
bookkeeping: by up to 0.2 KiB either way over repeated runs. The twin
allows FORK_BOOKKEEPING, 16 KiB, above the one-CPU peak. The child's
results for the other 33 areas, 30 KB pickled and 43 KB unpickled as
flat columns (23 KB and 0.2 MiB as member tuples and MergeRecords),
arrive after this process's share; either would cross it if it were held
at the peak.

chunk_all peaked at 2.45 MiB while each merge built a sorted member tuple
and a MergeRecord, and peaks at 2.38 MiB on flat merge logs, its audit
built only when read; its bound sits above both, as the largest area's
clustering dominates both.

chunk_all also runs at perfbench's planted-300k CTF shape: the 210k-access
training split of the synthesize_trace instance below, 19,999 data and
209,872 (datum, transaction) incidences. It peaked at 6.37 MiB with
per-datum keying and per-merge bit searches, and at 5.5-5.8 MiB with one
CPU and 5.9-6.0 MiB with two while each merge built member tuples and a
MergeRecord and chunk_all rebuilt the partition from the tuples. On flat
label columns and merge logs it peaks at 2.10 MiB with one CPU or two;
its bound sits between.

build_grouping runs at that planted-300k shape too, on the chunks
chunk_all makes there: 12,678 chunks, 15,346 legal relations and 6,636
merges. It peaked at 9.6 MiB with those full-size setup arrays, larger
batches, Relation objects and per-chunk union-find dicts, and peaks at
4.3 MiB on flat lists; its bound sits between the two. Its merge audit is
built only when read.

build_lru_profile runs on the same instance's 80k-access trace. Its bound
sits between its peak with int64 positions and byte sums throughout, 5.1
MiB, and with the int32 ones it ships with, 3.0 MiB.

plan_column runs on that trace under its 60 planted groups with no extra
sizes, so each member's first access gives its group a new plan: 940
plans, 880 of them taken by an access. It peaks at 1.8 MiB, of which the
list it returns is 0.6 MiB. When every plan made its own (member, size)
pairs, instead of sharing its group's, it peaked at 2.3 MiB. The int32
group column it replaced peaked at 1.3 MiB, and at 2.4 MiB when its
address lookup and first-access search ran over the whole trace at once.

sweep replays that trace under its 60 planted groups, with fifo and the
two group policies at two capacities and write_allocate off, so it builds
the trace's replay rows and one plan column. Its bound sits between its
peak when the rows were whole-column tolist() lists of fresh ints, 7.0
MiB, and when they hold shared objects built ROW_BLOCK accesses at a
time, 3.8 MiB. Converting four column blocks in every cell instead
peaked at 3.5 MiB. The bound is taken with one CPU, so the cells replay
in this process and their caches count; on a pool, tracemalloc sees only
this process, and its peak may be no higher than that one but for
FORK_BOOKKEEPING: when this process takes the costliest cell, its peak
is that cell's again plus fork_map's bookkeeping, which read 51 bytes
above the one-CPU peak in some full runs.

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
2,000 groups of 8 at probability 1.0, 300k accesses). Its bound sits
between its peak when it built the data's sizes through a dict by
address, 11.5 MiB, and with one sorted search, 9.7 MiB (15.7 MiB when it
drew one access at a time into a Python list). What it still holds when
it returns, the trace's 4.9 MiB of columns and the truth, was 6.9 MiB
while the truth kept that dict, 5.7 MiB without it (9.2 MiB with a
timestamp column), and 4.9 MiB since the truth keeps the spec and builds
its groups from the spec's layout on first read; the peak fell from 9.7
to 9.6 MiB with that.

Trace.first_seen_sizes runs on the same trace. Its bound sits between
its peak when it built a dict of the 20,000 data, 2.5 MiB, and as two
columns, 1.5 MiB.

The trace that load_input_trace hands to the stages holds 17 bytes per
record: an int64 address and size and a uint8 op code, and no timestamp.

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

import os
import tracemalloc

import numpy as np
import pytest

from conftest import chunkset_fields
from ctgroup import artifacts, locality, pipeline
from ctgroup.chunking import ChunkerConfig, chunk_all
from ctgroup.features import Partition, build_ctf
from ctgroup.grouping import GrouperConfig, build_grouping, compute_legal_relations
from ctgroup.simulator import (
    FIFO,
    GROUP_MERGED,
    GROUP_PREFETCH,
    GroupTable,
    ReplayRows,
    build_lru_profile,
    plan_column,
    sweep,
)
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.trace import load_trace
from ctgroup.transactions import (
    ExtractorConfig,
    extract_transactions,
    load_transactions,
    save_transactions,
)
from reference import ref_plan_column

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
    assert peak <= 3 * MIB, f"chunk_all peaked at {peak / MIB:.2f} MiB"


def test_chunk_all_forked_peak(instance, in_process_chunk_all):
    chunkset, peak = chunk_all_peak(instance[1], 2)
    assert chunkset_fields(chunkset) == chunkset_fields(in_process_chunk_all[0])
    assert peak <= in_process_chunk_all[1] + FORK_BOOKKEEPING, (
        f"chunk_all peaked at {peak / MIB:.2f} MiB")


def planted_spec():
    """perfbench's planted-300k shape."""
    return SyntheticSpec(num_data=20000, num_accesses=300000,
                         group_structure=[(8, 1.0)] * 2000, rng_seed=1)


@pytest.fixture(scope="module")
def planted_log():
    train = synthesize_trace(planted_spec())[0].split(210000)[0]
    return extract_transactions(train, ExtractorConfig(65536))


@pytest.fixture(scope="module")
def planted_chunk_all(planted_log):
    return traced_peak(chunk_all, build_ctf(planted_log), ChunkerConfig())


def test_chunk_all_planted_peak(planted_chunk_all):
    chunkset, peak = planted_chunk_all
    assert "audit" not in vars(chunkset)
    assert len(chunkset) == 12678 and len(chunkset.audit) == 7321
    assert peak <= 4.0 * MIB, f"chunk_all peaked at {peak / MIB:.2f} MiB"


def test_build_grouping_planted_peak(planted_log, planted_chunk_all):
    chunks = planted_chunk_all[0].partition
    grp, peak = traced_peak(build_grouping, planted_log, chunks, GrouperConfig())
    assert len(grp) == 6042 and grp.processed_cross + grp.skipped_same_group == 15346
    assert "audit" not in vars(grp) and len(grp.audit) == 6636
    assert peak <= 7.0 * MIB, f"build_grouping peaked at {peak / MIB:.2f} MiB"


def test_compute_legal_relations_peak(instance):
    txns, ctf = instance
    chunks = chunk_all(ctf, ChunkerConfig(sigma=0.6)).partition
    (x, _y, _counts), peak = traced_peak(compute_legal_relations, txns, chunks, 0.5)
    assert len(x) == 78
    assert peak <= 4 * MIB, f"compute_legal_relations peaked at {peak / MIB:.2f} MiB"


def test_build_lru_profile_peak(trace):
    profile, peak = traced_peak(build_lru_profile, trace.addresses, trace.sizes)
    assert profile.reuses_upto[-1] == len(trace) - 1600  # every non-first access
    assert peak <= 4 * MIB, f"build_lru_profile peaked at {peak / MIB:.2f} MiB"


def test_group_column_peak(synthetic):
    trace, truth = synthetic
    table = GroupTable(Partition.of(truth.groups))
    # with the replay rows' first-access search, and no extra sizes, so
    # that every member's first access makes its group a new plan
    column, peak = traced_peak(lambda t: plan_column(ReplayRows(t, []), table, {}), trace)
    assert column == ref_plan_column(trace, table, {})
    assert (len({id(plan) for plan in column if plan is not None})
            == sum(len(members) for members in truth.groups))
    assert peak <= 2 * MIB, f"plan_column peaked at {peak / MIB:.2f} MiB"


def sweep_peak(synthetic, cpus):
    """(sweep's rows, its traced peak) with ``cpus`` CPUs for the cells'
    pool."""
    trace, truth = synthetic
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
    assert peak <= in_process_sweep[1] + FORK_BOOKKEEPING, (
        f"sweep peaked at {peak / MIB:.2f} MiB")


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
    tracemalloc.start()
    try:
        trace, truth = synthesize_trace(planted_spec())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 300000 and "groups" not in vars(truth)
    assert peak <= 10 * MIB, f"synthesize_trace peaked at {peak / MIB:.2f} MiB"
    assert held <= 5 * MIB, f"synthesize_trace returned {held / MIB:.2f} MiB"


def test_first_seen_sizes_peak():
    trace = synthesize_trace(planted_spec())[0]
    sizes, peak = traced_peak(trace.first_seen_sizes)
    assert len(sizes) == 20000
    assert peak <= 2 * MIB, f"first_seen_sizes peaked at {peak / MIB:.2f} MiB"


@pytest.mark.parametrize("source", ["synthetic", "trace"])
def test_pipeline_trace_bytes_per_record(tmp_path, source):
    spec = tmp_path / "spec.cfg"
    spec.write_text("num_data=200\nnum_accesses=5000\ngroups=8x0.8,4x1.0\n"
                    "size_min=512\nsize_max=8192\n")
    cfg = pipeline.PipelineConfig.from_mapping({"synthetic": str(spec)})
    if source == "trace":
        pipeline.load_input_trace(cfg, timestamps=True)[0].save(tmp_path / "trace.csv")
        cfg = pipeline.PipelineConfig.from_mapping({"trace": str(tmp_path / "trace.csv")})
    trace = pipeline.load_input_trace(cfg)[0]
    held = sum(value.nbytes for value in vars(trace).values()
               if isinstance(value, np.ndarray))
    assert len(trace) == 5000 and trace.timestamps is None
    assert held <= 17 * len(trace), f"{held / len(trace):.1f} bytes per record"


def test_access_count_gap_report_peak(trace, instance):
    txns, _ctf = instance
    pairs = locality.cooccurring_pairs(txns)
    index = locality.access_index(trace)
    reports, peak = traced_peak(locality.access_count_gap_report, index, pairs, [50.0, 150.0])
    assert len(pairs[0]) == 335706
    assert [(r.num_pairs, r.equal_count) for r in reports.values()] == [(139, 4), (3018, 314)]
    assert peak <= 24 * MIB, f"access_count_gap_report peaked at {peak / MIB:.2f} MiB"

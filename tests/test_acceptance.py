"""Acceptance gate: one test per release criterion.

Each test records a single ``[acceptance] <name>: PASS|FAIL`` line; the
lines are printed in a terminal-summary section at the end of the run (and
immediately under -s) so the gate status is readable from raw pytest output.

The two cache-metric criteria (hit-rate uplift, I/O reduction) run against
a real block trace when CTGROUP_MSR_TRACE points at a 7-column CSV volume;
without one (this environment has no network access to fetch a public
trace) they run the same thresholds against a synthetic workload with
planted access groups.
"""

import contextlib
import os
import random
import resource
import statistics
import time

import numpy as np
import pytest

import conftest
from conftest import make_trace, random_accesses
from ctgroup import simulator
from ctgroup.chunking import ChunkerConfig, chunk_all
from ctgroup.features import CtfVector, Partition, build_ctf, strong_relation
from ctgroup.grouping import (
    GrouperConfig,
    build_grouping,
    merge_groups,
)
from ctgroup.pipeline import PipelineConfig, run_pipeline, sweep_parameters
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.trace import load_trace
from ctgroup.transactions import (
    CUMULATIVE,
    SNAPSHOT,
    ExtractorConfig,
    extract_transactions,
)
from reference import (
    legal_relations,
    reconstruct_transactions,
    ref_extract,
    ref_merge_groups,
    replay_audit,
    replay_group_audit,
)

MSR_ENV = "CTGROUP_MSR_TRACE"


def _announce(name, status):
    line = f"[acceptance] {name}: {status}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, flush=True)


@contextlib.contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        _announce(name, "FAIL")
        raise
    _announce(name, "PASS")


def singleton_members(count):
    """Chunks 0..count-1, chunk c holding address c * 8 alone."""
    return Partition.of((c * 8,) for c in range(count))


class TestExtraction:
    def test_extractor_matches_reference(self):
        with verdict("extractor oracle equivalence (1000 traces, both modes)"):
            rng = random.Random(20260825)
            start = time.perf_counter()
            for _ in range(1000):
                m = rng.randint(4, 32)
                pairs = random_accesses(rng, max_size=16)
                for mode in (SNAPSHOT, CUMULATIVE):
                    expected, tail = ref_extract(pairs, m, mode)
                    txns = extract_transactions(
                        make_trace(pairs), ExtractorConfig(m, mode)
                    )
                    full = [t.members for t in txns if not t.partial]
                    got_tail = tuple(
                        a for t in txns if t.partial for a in t.members
                    )
                    assert full == expected
                    assert got_tail == tail
            assert time.perf_counter() - start < 10.0

    def test_feature_inversion_roundtrip(self):
        with verdict("feature inversion reconstructs transactions"):
            rng = random.Random(31)
            for _ in range(200):
                pairs = random_accesses(rng)
                txns = extract_transactions(
                    make_trace(pairs), ExtractorConfig(rng.randint(4, 32), CUMULATIVE)
                )
                matrix = build_ctf(txns, include_partial=True)
                assert reconstruct_transactions(matrix) == [
                    set(t.members) for t in txns
                ]


class TestPredicates:
    def test_strong_relation_sigma_properties(self):
        with verdict("relation predicate: sigma=0 exactness, sigma monotone"):
            rng = random.Random(47)
            for i in range(10000):
                a = frozenset(rng.sample(range(40), rng.randint(1, 12)))
                if i % 10 == 0:
                    b = a
                else:
                    b = frozenset(rng.sample(range(40), rng.randint(1, 12)))
                x, y = CtfVector(sorted(a)), CtfVector(sorted(b))
                assert strong_relation(x, y, 0.0) == (a == b)
                lo, hi = sorted((rng.random(), rng.random()))
                if strong_relation(x, y, lo):
                    assert strong_relation(x, y, hi)


class TestGroupingInvariants:
    def _check_run(self, trace):
        txns = extract_transactions(trace, ExtractorConfig(65536))
        matrix = build_ctf(txns)
        chunkset = chunk_all(matrix, ChunkerConfig())
        grp = build_grouping(txns, chunkset.partition, GrouperConfig())

        # each transacted datum lands in exactly one chunk and one group
        chunk_members = [a for c in chunkset.chunks for a in c.members]
        assert sorted(chunk_members) == matrix.addresses.tolist()
        group_members = grp.partition.members.tolist()
        assert sorted(group_members) == matrix.addresses.tolist()
        assert len(group_members) == len(set(group_members))

        # the merge audits replay to the identical partitions, and every
        # recorded merge satisfied its threshold when it was executed
        feats = dict(matrix.rows)
        assert replay_audit(feats, chunkset.audit) == {
            c.members for c in chunkset.chunks
        }
        for rec in chunkset.audit:
            assert rec.distance <= rec.threshold
        chunk_ids = [c.id for c in chunkset.chunks]
        assert replay_group_audit(chunk_ids, grp.audit) == set(grp.chunk_ids.parts())
        for rec in grp.audit:
            assert rec.counter >= rec.threshold

    def test_grouping_partition_and_audit(self):
        with verdict("group partition invariant and audit replay"):
            for seed in range(5):
                sizes = [2, 4, 6, 8] * 4
                spec = SyntheticSpec(
                    num_data=sum(sizes) + 8, num_accesses=5000,
                    group_structure=[(s, 0.9) for s in sizes], rng_seed=seed,
                )
                trace, _ = synthesize_trace(spec)
                self._check_run(trace)
            msr = os.environ.get(MSR_ENV)
            if msr:
                self._check_run(
                    load_trace(msr, skip_malformed=True, max_records=200000)
                )

    def test_group_merge_matches_bruteforce(self):
        with verdict("group merge oracle equivalence (500 instances)"):
            rng = random.Random(53)
            for _ in range(500):
                n = rng.randint(2, 10)
                chunk_ids = list(range(n))
                counts = {}
                pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
                rng.shuffle(pairs)
                for pair in pairs[: rng.randint(0, 20)]:
                    counts[pair] = rng.randint(1, 10)
                pops = {c: rng.randint(1, 6) for c in chunk_ids}
                alpha = rng.choice([0.0, 0.3, 0.6])
                mu = rng.choice([0.0, 0.3, 0.5, 1.0])
                rels = legal_relations(counts, pops, alpha)
                grp = merge_groups(rels, singleton_members(n), GrouperConfig(mu=mu))
                expected = ref_merge_groups(
                    [(r.x, r.y) for r in rels], chunk_ids, mu
                )
                assert set(grp.chunk_ids.parts()) == expected


class TestPlantedRecovery:
    def test_planted_groups_recovered(self):
        with verdict("planted-group recovery on >= 95/100 seeds"):
            sizes = [2, 3, 4, 5, 6, 7, 8] * 2
            successes = 0
            for seed in range(100):
                spec = SyntheticSpec(
                    num_data=sum(sizes) + 10, num_accesses=6000,
                    group_structure=[(s, 1.0) for s in sizes], rng_seed=seed,
                )
                trace, truth = synthesize_trace(spec)
                txns = extract_transactions(trace, ExtractorConfig(65536))
                matrix = build_ctf(txns)
                chunkset = chunk_all(matrix, ChunkerConfig(sigma=0.2))
                grp = build_grouping(
                    txns, chunkset.partition, GrouperConfig(alpha=0.5, mu=0.5)
                )
                got = {members for members in grp.partition.parts() if len(members) > 1}
                planted = {tuple(g) for g in truth.groups}
                group_sizes = np.diff(grp.partition.offsets)
                labels = grp.partition.labels(np.array(truth.ungrouped, dtype=np.int64))
                singles_ok = all(group_sizes[labels[labels >= 0]] == 1)
                if got == planted and singles_ok:
                    successes += 1
            assert successes >= 95


@pytest.fixture(scope="module")
def cache_metric_rows():
    """(policy, fraction) -> SimMetrics on the shared evaluation workload."""
    msr = os.environ.get(MSR_ENV)
    if msr:
        trace = load_trace(msr, skip_malformed=True, max_records=2000000)
    else:
        spec = SyntheticSpec(
            num_data=10000, num_accesses=200000,
            group_structure=[(8, 1.0)] * 1250, rng_seed=7,
        )
        trace, _ = synthesize_trace(spec)
    train, test = trace.split(max(1, int(len(trace) * 0.7)))
    txns = extract_transactions(train, ExtractorConfig(65536))
    matrix = build_ctf(txns)
    chunkset = chunk_all(matrix, ChunkerConfig(sigma=0.2))
    grp = build_grouping(txns, chunkset.partition, GrouperConfig())
    table = simulator.GroupTable.from_grouping(grp)
    rows = simulator.sweep(
        test, table, [0.001, 0.002, 0.004, 0.008],
        [simulator.LRU, simulator.GROUP_PREFETCH, simulator.GROUP_MERGED],
        extra_sizes=trace.first_seen_sizes(),
    )
    return {(m.policy, m.capacity_fraction): m for m in rows}


class TestCacheMetrics:
    def test_hit_rate_trend(self, cache_metric_rows):
        with verdict("group-merged hit rate >= LRU + 5pp at 0.1%/0.2% capacity"):
            for fraction in (0.001, 0.002):
                lru = cache_metric_rows[(simulator.LRU, fraction)]
                merged = cache_metric_rows[(simulator.GROUP_MERGED, fraction)]
                assert merged.hit_rate >= lru.hit_rate + 0.05

    def test_io_reduction_trend(self, cache_metric_rows):
        with verdict("group-merged disk I/O <= 0.8x LRU and < one-step prefetch"):
            for fraction in (0.001, 0.002, 0.004, 0.008):
                lru = cache_metric_rows[(simulator.LRU, fraction)]
                merged = cache_metric_rows[(simulator.GROUP_MERGED, fraction)]
                prefetch = cache_metric_rows[(simulator.GROUP_PREFETCH, fraction)]
                assert merged.disk_ios <= 0.8 * lru.disk_ios
                assert merged.disk_ios < prefetch.disk_ios


@pytest.fixture(scope="module")
def sweep_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "workload.cfg"
    groups = ",".join(["6x0.9"] * 40)
    path.write_text(
        f"num_data=300\nnum_accesses=20000\ngroups={groups}\nrng_seed=11\n"
    )
    return path


class TestParameterSweeps:
    def config(self, spec, tmp_path, **extra):
        values = {"synthetic": str(spec), "output_dir": str(tmp_path / "o")}
        values.update({k: str(v) for k, v in extra.items()})
        return PipelineConfig.from_mapping(values)

    def test_parameter_sweep_trends(self, sweep_spec, tmp_path):
        with verdict("sweep trends: sigma down, M down/ge4 up, mu cheap"):
            # chunking threshold: swept with the grouper disabled-by-threshold
            # (alpha=1.0) so the clustering stage drives the group count
            cfg = self.config(sweep_spec, tmp_path, alpha="1.0")
            rows = sweep_parameters(cfg, "sigma", ["0.1", "0.2", "0.3", "0.4", "0.5"])
            counts = [r["group_count"] for r in rows]
            assert counts == sorted(counts, reverse=True)
            assert counts[-1] < counts[0]

            # window size: defaults elsewhere
            cfg = self.config(sweep_spec, tmp_path)
            rows = sweep_parameters(cfg, "M", ["16384", "32768", "65536", "131072"])
            counts = [r["group_count"] for r in rows]
            ge4 = [r["groups_ge_4"] for r in rows]
            assert counts == sorted(counts, reverse=True)
            assert counts[-1] < counts[0]
            assert ge4 == sorted(ge4)
            assert ge4[-1] > ge4[0]

            # merge threshold: affects the grouping, barely the wall time.
            # The host's speed drifts by tens of percent over a second, more
            # than one sweep's points differ, so each point is timed
            # relative to the median point of its own sweep, and the check
            # takes that ratio's median over 10 sweeps. The sweeps rotate
            # the order of the values so each runs equally often in each
            # position.
            mu_values = ["0.1", "0.3", "0.5", "0.7", "0.9"]
            relative: dict[str, list[float]] = {v: [] for v in mu_values}
            counts_by_mu: dict[str, int] = {}
            for sweep in range(10):
                shift = sweep % len(mu_values)
                order = mu_values[shift:] + mu_values[:shift]
                rows = sweep_parameters(cfg, "mu", order)
                typical = statistics.median(row["elapsed_s"] for row in rows)
                for row in rows:
                    counts_by_mu[row["value"]] = row["group_count"]
                    relative[row["value"]].append(row["elapsed_s"] / typical)
            assert len(set(counts_by_mu.values())) > 1
            times = [statistics.median(relative[v]) for v in mu_values]
            assert (max(times) - min(times)) / min(times) < 0.20, (
                f"median time per mu, relative to its sweep: {times}")


class TestThroughput:
    def test_throughput_budget(self, tmp_path):
        with verdict("3M-record pipeline <= 80 s and <= 1.5 GB peak RSS"):
            spec = tmp_path / "big.cfg"
            groups = ",".join(["8x1.0"] * 2000)
            spec.write_text(
                f"num_data=20000\nnum_accesses=3000000\ngroups={groups}\n"
                "rng_seed=1\n"
            )
            cfg = PipelineConfig.from_mapping(
                {"synthetic": str(spec), "output_dir": str(tmp_path / "out")}
            )
            start = time.perf_counter()
            manifest = run_pipeline(cfg)
            elapsed = time.perf_counter() - start
            # this process's peak, plus the largest child's peak for each
            # worker simulate may fork; a child's peak counts the pages it
            # still shares with this process, so the sum is an upper bound
            workers = len(os.sched_getaffinity(0))
            peak_gb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers
                       * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / (1 << 20)
            assert manifest["records"] == 3000000
            assert elapsed <= 80.0, f"pipeline took {elapsed:.1f}s"
            assert peak_gb <= 1.5, f"peak RSS, workers included, {peak_gb:.2f} GB"

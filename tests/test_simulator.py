import dataclasses
import os
import random
import threading

import numpy as np
import pytest

from conftest import both_take_a_unit, make_trace, no_child_left, random_accesses
from ctgroup import simulator
from ctgroup import trace as trace_module
from ctgroup.errors import ConfigError, DataError, InvariantError
from ctgroup.features import Partition
from ctgroup.forks import fork_map
from ctgroup.simulator import (
    FIFO,
    GROUP_MERGED,
    GROUP_PREFETCH,
    LRU,
    POLICIES,
    GroupTable,
    SimConfig,
    metrics_csv_lines,
    resolve_capacity,
    simulate,
    sweep,
)
from ctgroup.trace import AccessRecord, Op, Trace, first_access_positions
from reference import ref_group_column, ref_lru_hit_rate, ref_simulate

A, B, C = 0, 8, 16


def unit_trace(*addrs):
    return make_trace([(a, 1) for a in addrs])


class TestBaselines:
    def test_lru_hand_example(self):
        # a,b,a,c,a at capacity 2: c evicts the least-recent b, both
        # re-accesses of a hit
        m = simulate(unit_trace(A, B, A, C, A), SimConfig(LRU, capacity_bytes=2))
        assert (m.hits, m.misses, m.disk_ios) == (2, 3, 3)
        assert m.evictions == 1
        assert m.hit_rate == pytest.approx(0.4)

    def test_fifo_hand_example(self):
        # same stream, insertion-order eviction: c evicts a despite the hit
        m = simulate(unit_trace(A, B, A, C, A), SimConfig(FIFO, capacity_bytes=2))
        assert (m.hits, m.misses) == (1, 4)

    def test_infinite_capacity_misses_equal_distinct_data(self):
        rng = random.Random(8)
        trace = make_trace(random_accesses(rng, n=300))
        distinct = len(set(trace.addresses.tolist()))
        for policy in (LRU, FIFO):
            m = simulate(trace, SimConfig(policy, capacity_bytes=1 << 40))
            assert m.misses == distinct
            assert m.disk_ios == distinct
            assert m.evictions == 0

    def test_matches_reference_lru(self):
        rng = random.Random(9)
        for _ in range(60):
            pairs = random_accesses(rng, max_size=8)
            capacity = rng.randint(1, 64)
            trace = make_trace(pairs)
            m = simulate(trace, SimConfig(LRU, capacity_bytes=capacity))
            assert (m.hits, m.misses, m.evictions) == ref_lru_hit_rate(pairs, capacity)

    def test_oversized_datum_bypasses(self):
        # never admitted, so every access misses and bypasses again
        m = simulate(make_trace([(A, 10), (A, 10)]), SimConfig(LRU, capacity_bytes=4))
        assert m.bypasses == 2
        assert m.hits == 0 and m.misses == 2

    def test_write_allocate_toggle(self):
        records = [
            AccessRecord(1, A, 1, Op.WRITE),
            AccessRecord(2, A, 1, Op.READ),
        ]
        trace = Trace.from_records(records)
        on = simulate(trace, SimConfig(LRU, capacity_bytes=4))
        assert (on.hits, on.misses) == (1, 1)
        off = simulate(
            trace, SimConfig(LRU, capacity_bytes=4, write_allocate=False)
        )
        assert (off.hits, off.misses) == (0, 2)


class TestGroupPolicies:
    def table(self):
        return GroupTable(Partition.of([(A, B)]))

    @pytest.mark.parametrize("groups", [[[5, 5, 8]], [[5, 8], [16, 5]]])
    def test_address_listed_twice_rejected(self, groups):
        # the replay would count a repeated member twice where the oracle
        # skips it, so the table refuses it
        with pytest.raises(DataError, match="address 5 is listed twice"):
            GroupTable(Partition.of(groups))

    def test_merged_single_io_fetches_group(self):
        cfg = SimConfig(
            GROUP_MERGED, capacity_bytes=8, grouping=self.table(),
            extra_sizes={B: 1},
        )
        m = simulate(unit_trace(A, B), cfg)
        assert (m.hits, m.misses, m.disk_ios) == (1, 1, 1)
        assert m.hit_rate == pytest.approx(0.5)
        assert m.prefetched_bytes == 1

    def test_prefetch_costs_io_per_member(self):
        cfg = SimConfig(
            GROUP_PREFETCH, capacity_bytes=8, grouping=self.table(),
            extra_sizes={B: 1},
        )
        m = simulate(unit_trace(A, B), cfg)
        assert (m.hits, m.misses, m.disk_ios) == (1, 1, 2)
        assert m.prefetched_bytes == 1

    def test_ungrouped_data_fall_back_to_demand(self):
        cfg = SimConfig(
            GROUP_MERGED, capacity_bytes=8, grouping=self.table(),
        )
        m = simulate(unit_trace(C, C), cfg)
        assert (m.hits, m.misses, m.disk_ios) == (1, 1, 1)
        assert m.prefetched_bytes == 0

    def test_unknown_member_size_skipped(self):
        # B never traced and absent from extra_sizes: not prefetched
        cfg = SimConfig(GROUP_MERGED, capacity_bytes=8, grouping=self.table())
        m = simulate(unit_trace(A, B), cfg)
        assert m.unknown_size_skips == 1
        assert (m.hits, m.misses) == (0, 2)

    def test_oversized_group_bypasses_prefetch(self):
        # group total 10 > capacity 4: demand datum still admitted
        cfg = SimConfig(
            GROUP_MERGED, capacity_bytes=4, grouping=GroupTable(Partition.of([(A, B)])),
            extra_sizes={B: 9},
        )
        m = simulate(unit_trace(A, A), cfg)
        assert m.bypasses == 1
        assert (m.hits, m.misses) == (1, 1)
        assert m.prefetched_bytes == 0

    def test_merged_one_io_per_miss(self):
        # at tight capacities prefetch may pollute the cache and raise the
        # miss count, but each miss still costs exactly one I/O
        rng = random.Random(10)
        for _ in range(20):
            pairs = random_accesses(rng, n=150, max_addr=20, max_size=4)
            trace = make_trace(pairs)
            addrs = sorted(set(a for a, _ in pairs))
            groups = [addrs[i:i + 4] for i in range(0, len(addrs), 4)]
            table = GroupTable(Partition.of(groups))
            capacity = rng.randint(16, 96)
            merged = simulate(
                trace,
                SimConfig(GROUP_MERGED, capacity_bytes=capacity, grouping=table),
            )
            assert merged.disk_ios == merged.misses

    def test_merged_beats_lru_without_capacity_pressure(self):
        rng = random.Random(14)
        for _ in range(10):
            pairs = random_accesses(rng, n=150, max_addr=20, max_size=4)
            trace = make_trace(pairs)
            addrs = sorted(set(a for a, _ in pairs))
            table = GroupTable(Partition.of([addrs[i:i + 4] for i in range(0, len(addrs), 4)]))
            lru = simulate(trace, SimConfig(LRU, capacity_bytes=1 << 30))
            merged = simulate(
                trace,
                SimConfig(GROUP_MERGED, capacity_bytes=1 << 30, grouping=table),
            )
            assert merged.misses <= lru.misses

    def test_occupancy_invariant(self):
        rng = random.Random(11)
        pairs = random_accesses(rng, n=200, max_size=8)
        table = GroupTable(Partition.of([sorted(set(a for a, _ in pairs))[:6]]))
        for policy in (LRU, FIFO, GROUP_PREFETCH, GROUP_MERGED):
            cfg = SimConfig(policy, capacity_bytes=24, grouping=table)
            simulate(make_trace(pairs), cfg, check_invariants=True)


class TestReferenceReplay:
    """The inlined replay loop against the per-access dispatch it replaced."""

    @staticmethod
    def random_case(rng):
        addrs = [a * 8 for a in range(rng.randint(2, 24))]
        # data sizes up to 16 bytes, some accesses with another size
        base = {a: rng.randint(1, 16) for a in addrs}
        records = []
        for t in range(rng.randint(1, 250)):
            a = rng.choice(addrs)
            size = base[a] if rng.random() < 0.8 else rng.randint(1, 16)
            op = Op.WRITE if rng.random() < 0.3 else Op.READ
            records.append(AccessRecord(t + 1, a, size, op))
        trace = Trace.from_records(records)
        # groups over traced data plus members that are never traced
        pool = addrs + [1000 + a for a in addrs[: rng.randint(0, 6)]]
        rng.shuffle(pool)
        groups, i = [], 0
        while i < len(pool):
            n = rng.randint(1, 6)
            groups.append(pool[i:i + n])
            i += n
        table = GroupTable(Partition.of(groups[: rng.randint(0, len(groups))]))
        # extra sizes for some data, traced or not (the rest are unknown)
        extra = {a: rng.randint(1, 16) for a in pool if rng.random() < 0.6}
        return trace, table, extra

    def check_against_reference(self, rng, cases):
        for _ in range(cases):
            trace, table, extra = self.random_case(rng)
            capacity = rng.randint(1, 64)  # data and groups exceed it
            for policy in (LRU, FIFO, GROUP_PREFETCH, GROUP_MERGED):
                for write_allocate in (True, False):
                    cfg = SimConfig(
                        policy, capacity_bytes=capacity, grouping=table,
                        extra_sizes=extra, write_allocate=write_allocate,
                    )
                    check = rng.random() < 0.5
                    got = simulate(trace, cfg, check)
                    want = ref_simulate(trace, cfg, check)
                    assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_matches_reference_replay(self):
        self.check_against_reference(random.Random(15), 150)

    def test_replay_blocks_match_reference(self, monkeypatch):
        # traces cut into many column blocks
        monkeypatch.setattr(trace_module, "ROW_BLOCK", 7)
        self.check_against_reference(random.Random(17), 60)

    def test_fraction_capacity_matches_reference(self):
        rng = random.Random(16)
        for _ in range(30):
            trace, table, extra = self.random_case(rng)
            for fraction in (0.05, 0.3, 1.0):
                cfg = SimConfig(GROUP_MERGED, capacity_fraction=fraction,
                                grouping=table, extra_sizes=extra)
                assert simulate(trace, cfg) == ref_simulate(trace, cfg)


class TestOnePassLru:
    """lru cells served from the trace's reuse-distance profile, against the
    replay oracles, on both sides of each condition for the profile."""

    SHAPES = ("mixed", "zero", "no_reuse", "single", "empty", "two_sizes",
              "writes", "large")

    @staticmethod
    def random_case(rng, shape):
        """The records of a random trace of the given shape."""
        n = {"single": 1, "empty": 0}.get(shape, rng.randint(2, 160))
        distinct = n if shape == "no_reuse" else rng.randint(1, 30)
        addrs = rng.sample(range(1000), distinct)
        if shape == "zero":
            base = {a: rng.choice([0, 0, 1, 5]) for a in addrs}
        elif shape == "large":  # byte sums beyond 32 bits
            base = {a: rng.randint(1 << 28, 1 << 30) for a in addrs}
        else:
            base = {a: rng.randint(0, 16) for a in addrs}
        seq = addrs if shape == "no_reuse" else [rng.choice(addrs) for _ in range(n)]
        records = [AccessRecord(t + 1, a, base[a], Op.READ) for t, a in enumerate(seq)]
        if shape == "two_sizes":
            t = rng.randrange(n)
            a = records[t].block_address
            records[t] = records[t]._replace(size=base[a] + rng.randint(1, 4))
            records.append(AccessRecord(n + 1, a, base[a], Op.READ))
        if shape == "writes":
            for t in rng.sample(range(n), rng.randint(1, n)):
                records[t] = records[t]._replace(op=Op.WRITE)
        return records

    @staticmethod
    def capacities(rng, trace):
        """Fractions with repeats and two that resolve to one byte capacity,
        and byte capacities below, at and above the largest datum."""
        total = simulator.replay_rows(trace).unique_bytes
        fractions = [rng.choice([0.01, 0.1, 0.3, 1.0]) for _ in range(3)]
        fractions.append(fractions[0])
        if total > 1:
            c = rng.randint(1, total - 1)
            fractions += [(c + 0.2) / total, (c + 0.7) / total]
            same = [resolve_capacity(SimConfig(LRU, capacity_fraction=f), trace)
                    for f in fractions[-2:]]
            assert same == [c, c]
        largest = int(trace.sizes.max(initial=0))
        sizes = {1, largest, largest + 1, largest - 1, rng.randint(1, 200)}
        return fractions, sorted(c for c in sizes if c > 0)

    @staticmethod
    def assert_equal(got, want):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_matches_replay_oracles(self):
        rng = random.Random(31)
        served = replayed = 0
        for case in range(200):
            shape = self.SHAPES[case % len(self.SHAPES)]
            records = self.random_case(rng, shape)
            trace = Trace.from_records(records)
            pairs = [(r.block_address, r.size) for r in records]
            one_size = shape != "two_sizes"
            has_writes = any(r.op == Op.WRITE for r in records)
            fractions, byte_capacities = self.capacities(rng, trace)
            for allocate in (True, False):
                cfgs = [SimConfig(LRU, capacity_fraction=f, write_allocate=allocate)
                        for f in fractions]
                cfgs += [SimConfig(LRU, capacity_bytes=c, write_allocate=allocate)
                         for c in byte_capacities]
                for cfg in cfgs:
                    capacity = resolve_capacity(cfg, trace)
                    applies = (one_size and (allocate or not has_writes)
                               and trace.sizes.max(initial=0) <= capacity)
                    profiled = simulator._profiled_lru(trace, cfg, capacity)
                    assert (profiled is not None) == applies, (shape, capacity)
                    served += applies
                    replayed += not applies
                    got = simulate(trace, cfg)
                    self.assert_equal(got, ref_simulate(trace, cfg))
                    if not has_writes:
                        want = ref_lru_hit_rate(pairs, capacity)
                        assert (got.hits, got.misses, got.evictions) == want
                rows = sweep(trace, None, fractions, [LRU], write_allocate=allocate)
                for fraction, row in zip(fractions, rows):
                    cfg = SimConfig(LRU, capacity_fraction=fraction,
                                    write_allocate=allocate)
                    self.assert_equal(row, ref_simulate(trace, cfg))
        assert served > 1000 and replayed > 500

    def test_profile_built_once_per_trace(self, monkeypatch):
        builds, searches, pooled = [], [], []
        build = simulator.build_lru_profile
        monkeypatch.setattr(simulator, "build_lru_profile",
                            lambda *args: builds.append(1) or build(*args))
        for module in (simulator, trace_module):
            search = module.first_access_positions
            monkeypatch.setattr(module, "first_access_positions",
                                lambda addresses, search=search:
                                searches.append(1) or search(addresses))
        pool = simulator._pooled
        monkeypatch.setattr(simulator, "_pooled",
                            lambda column, *args: pooled.append(column) or pool(column, *args))
        calls = []
        replay = simulator.simulate

        def recording(trace, cfg, *args, **kwargs):
            row = replay(trace, cfg, *args, **kwargs)
            calls.append((cfg.capacity_fraction, cfg.policy, row))
            return row

        monkeypatch.setattr(simulator, "simulate", recording)
        accesses = random_accesses(random.Random(32), n=500)
        # the test split of a trace, as the pipeline replays it
        trace = make_trace([(a, 1 + a % 7) for a, _ in accesses]).split(100)[1]
        table = GroupTable(Partition.of([(0, 4, 8), (12, 16)]))
        fractions = [0.05, 0.1, 0.1, 0.2, 0.4, 0.8, 1.0]
        policies = [LRU, GROUP_MERGED, FIFO, GROUP_PREFETCH]
        rows = sweep(trace, table, fractions, policies)
        assert len(builds) == 1 and simulator.replay_rows(trace).profile is not None
        assert len(searches) == 1
        # the id and size rows once, and the group column under the table
        assert len(pooled) == 3
        assert [column is trace.addresses for column in pooled].count(True) == 1
        assert [column is trace.sizes for column in pooled].count(True) == 1
        # one simulate call per (fraction, policy) cell, returning sweep's row
        assert [(f, p) for f, p, _ in calls] == [(f, p) for f in fractions
                                                 for p in policies]
        assert [row for *_, row in calls] == rows
        sweep(trace, table, fractions, [LRU])
        assert len(builds) == 1
        # an lru sweep the profile serves replays nothing, so builds no rows
        sweep(make_trace([(a, 1 + a % 7) for a, _ in accesses]), None, fractions, [LRU])
        assert len(builds) == 2 and len(searches) == 2 and len(pooled) == 3

    def test_invariant_checks_replay(self, monkeypatch):
        def unused(addresses, sizes):
            raise AssertionError("profile used")

        monkeypatch.setattr(simulator, "build_lru_profile", unused)
        trace = make_trace(random_accesses(random.Random(33), n=120, max_size=4))
        cfg = SimConfig(LRU, capacity_bytes=40)
        assert simulate(trace, cfg, check_invariants=True) == ref_simulate(trace, cfg)


class TestGroupColumn:
    """The per-access group column the group policies replay from, and its
    cache on the trace's replay rows."""

    def test_matches_oracle(self, monkeypatch):
        rng = random.Random(41)
        for case in range(120):
            monkeypatch.setattr(trace_module, "ROW_BLOCK", rng.choice([1, 7, 1 << 15]))
            trace, table, _ = TestReferenceReplay.random_case(rng)
            got = simulator.group_column(trace.addresses, table,
                                          first_access_positions(trace.addresses))
            assert got.dtype == np.int32
            assert got.tolist() == ref_group_column(trace.addresses.tolist(),
                                                    table.partition.parts())

    def test_alternating_keys_match_reference(self):
        # one trace replayed under two tables, two extra-size maps and both
        # write_allocate values in turn, so a stale column or plan shows
        rng = random.Random(42)
        for _ in range(40):
            trace, table, extra = TestReferenceReplay.random_case(rng)
            _, other_table, other_extra = TestReferenceReplay.random_case(rng)
            capacity = rng.randint(1, 64)
            for _ in range(3):
                for grouping in (table, other_table):
                    for extra_sizes in (extra, other_extra):
                        for write_allocate in (True, False):
                            for policy in (GROUP_PREFETCH, GROUP_MERGED):
                                cfg = SimConfig(policy, capacity_bytes=capacity,
                                                grouping=grouping,
                                                extra_sizes=extra_sizes,
                                                write_allocate=write_allocate)
                                assert simulate(trace, cfg) == ref_simulate(trace, cfg)
                assert trace._replay.table is other_table

    def test_new_tables_of_dropped_ones_match_reference(self):
        # a table made after the last one is dropped may reuse its id()
        rng = random.Random(43)
        trace, _, extra = TestReferenceReplay.random_case(rng)
        addrs = sorted(set(trace.addresses.tolist()))
        for _ in range(30):
            rng.shuffle(addrs)
            cut = rng.randint(1, len(addrs))
            cfg = SimConfig(GROUP_MERGED, capacity_bytes=rng.randint(1, 64),
                            grouping=GroupTable(Partition.of([addrs[:cut], addrs[cut:]])),
                            extra_sizes=extra)
            assert simulate(trace, cfg) == ref_simulate(trace, cfg)
            del cfg  # the table too, unless the trace holds it

    def test_built_once_per_trace_in_a_sweep(self, monkeypatch):
        builds, row_builds = [], []
        build = simulator.group_column
        monkeypatch.setattr(simulator, "group_column",
                            lambda *args: builds.append(1) or build(*args))
        build_rows = simulator.ReplayRows
        monkeypatch.setattr(simulator, "ReplayRows",
                            lambda *args: row_builds.append(1) or build_rows(*args))
        searches = []
        search = simulator.first_access_positions
        monkeypatch.setattr(simulator, "first_access_positions",
                            lambda addresses: searches.append(1) or search(addresses))
        accesses = random_accesses(random.Random(44), n=400)
        trace = make_trace([(a, 1 + a % 7) for a, _ in accesses])
        table = GroupTable(Partition.of([(0, 4, 8), (12, 16), (20,)]))
        fractions = [0.05, 0.1, 0.2, 0.4, 1.0]
        policies = [LRU, GROUP_PREFETCH, FIFO, GROUP_MERGED]
        rows = sweep(trace, table, fractions, policies, extra_sizes={40: 3})
        # the group column, the replay rows and their first-access search once
        assert len(builds) == 1 and len(row_builds) == 1 and len(searches) == 1
        want = [ref_simulate(trace, SimConfig(
            p, capacity_fraction=f, grouping=table if p.startswith("group") else None,
            extra_sizes={40: 3})) for f in fractions for p in policies]
        assert rows == want
        sweep(trace, table, fractions, [GROUP_MERGED], write_allocate=False)
        assert len(builds) == 1
        sweep(trace, GroupTable(Partition.of([(0, 4)])), fractions, [GROUP_MERGED])
        assert len(builds) == 2 and len(row_builds) == 1
        # lru and fifo replays never build it, but a new trace gets its rows
        sweep(make_trace(accesses), None, fractions, [LRU, FIFO], write_allocate=False)
        assert len(builds) == 2 and len(row_builds) == 2 and len(searches) == 2

    def test_one_member_groups_take_the_demand_path(self):
        # one-member groups replay as no groups at all, oversized data too
        rng = random.Random(45)
        for _ in range(30):
            trace, _, extra = TestReferenceReplay.random_case(rng)
            singles = GroupTable(Partition.of([(a,) for a in set(trace.addresses.tolist())]))
            first = first_access_positions(trace.addresses)
            assert (simulator.group_column(trace.addresses, singles, first) == -1).all()
            for write_allocate in (True, False):
                capacity = rng.randint(1, 40)
                for policy in (GROUP_PREFETCH, GROUP_MERGED):
                    cfgs = [SimConfig(policy, capacity_bytes=capacity, grouping=table,
                                      extra_sizes=extra, write_allocate=write_allocate)
                            for table in (singles, GroupTable(Partition.of([])))]
                    got = simulate(trace, cfgs[0])
                    assert got == ref_simulate(trace, cfgs[0])
                    assert got == simulate(trace, cfgs[1])


class TestReplayRows:
    """The dense-id rows every replayed cell iterates, built once per trace,
    against the replay oracle."""

    @staticmethod
    def records(rng, addresses, n):
        """n random accesses to ``addresses``, some writes, some sizes odd."""
        base = {a: rng.randint(1, 12) for a in addresses}
        return [AccessRecord(t + 1, a, base[a] if rng.random() < 0.8 else rng.randint(1, 12),
                             Op.WRITE if rng.random() < 0.3 else Op.READ)
                for t, a in enumerate(rng.choice(addresses) for _ in range(n))]

    @staticmethod
    def random_groups(rng, pool):
        pool = list(pool)
        rng.shuffle(pool)
        groups = []
        while pool:
            cut = rng.randint(1, 5)
            groups.append(pool[:cut])
            pool = pool[cut:]
        return GroupTable(Partition.of(groups))

    def assert_cells_match(self, rng, trace, table, extra):
        for policy in POLICIES:
            for write_allocate in (True, False):
                cfg = SimConfig(policy, capacity_bytes=rng.randint(1, 60), grouping=table,
                                extra_sizes=extra, write_allocate=write_allocate)
                assert simulate(trace, cfg) == ref_simulate(trace, cfg)

    def test_members_never_traced(self):
        # untraced members lie below, between and above the traced data, so
        # their ids (after the trace's) do not follow address order
        rng = random.Random(46)
        for _ in range(60):
            traced = rng.sample(range(8, 400, 8), rng.randint(1, 12))
            untraced = rng.sample(range(3, 420, 8), rng.randint(1, 10))
            trace = Trace.from_records(self.records(rng, traced, rng.randint(1, 150)))
            table = self.random_groups(rng, traced + untraced)
            extra = {a: rng.randint(1, 12) for a in traced + untraced
                     if rng.random() < 0.7}
            self.assert_cells_match(rng, trace, table, extra)

    def test_extreme_addresses(self):
        top = (1 << 63) - 1
        addresses = [0, 1, 1 << 32, top - 8, top - 1, top]
        rng = random.Random(47)
        for _ in range(40):
            traced = rng.sample(addresses, rng.randint(1, len(addresses)))
            untraced = [a for a in addresses if a not in traced] + [top - 2, 2]
            trace = Trace.from_records(self.records(rng, traced, rng.randint(1, 100)))
            table = self.random_groups(rng, traced + untraced)
            extra = {a: rng.randint(1, 12) for a in traced + untraced
                     if rng.random() < 0.7}
            self.assert_cells_match(rng, trace, table, extra)

    def test_extra_sizes_mutated_between_calls(self):
        # the caller's mapping is read afresh by every cell
        rng = random.Random(48)
        for _ in range(60):
            trace, table, extra = TestReferenceReplay.random_case(rng)
            members = [a for group in table.partition.parts() for a in group]
            for policy in (GROUP_PREFETCH, GROUP_MERGED):
                cfg = SimConfig(policy, capacity_bytes=rng.randint(1, 64), grouping=table,
                                extra_sizes=extra)
                assert simulate(trace, cfg) == ref_simulate(trace, cfg)
                for a in rng.sample(members, min(len(members), 4)):
                    if a in extra and rng.random() < 0.4:
                        del extra[a]
                    else:
                        extra[a] = rng.randint(1, 16)
                assert simulate(trace, cfg) == ref_simulate(trace, cfg)

    def test_built_once_per_trace(self, monkeypatch):
        builds = []
        build = simulator.ReplayRows
        monkeypatch.setattr(simulator, "ReplayRows",
                            lambda *args: builds.append(1) or build(*args))
        rng = random.Random(49)
        orders = [[LRU, FIFO, GROUP_MERGED, GROUP_PREFETCH],
                  [GROUP_MERGED, LRU, GROUP_PREFETCH, FIFO],
                  [GROUP_PREFETCH, GROUP_MERGED, FIFO, LRU]]
        fractions = [0.05, 0.2, 0.2, 1.0]
        for case in range(20):
            trace, table, extra = TestReferenceReplay.random_case(rng)
            for write_allocate in (True, False, True):
                for policies in orders:
                    rows = sweep(trace, table, fractions, policies, extra_sizes=extra,
                                 write_allocate=write_allocate)
                    want = [ref_simulate(trace, SimConfig(
                        p, capacity_fraction=f, grouping=table, extra_sizes=extra,
                        write_allocate=write_allocate)) for f in fractions for p in policies]
                    assert rows == want
            assert len(builds) == case + 1


class TestCapacity:
    def test_fraction_of_first_seen_unique_bytes(self):
        trace = make_trace([(A, 10), (B, 6), (A, 2)])
        cfg = SimConfig(LRU, capacity_fraction=0.5)
        assert resolve_capacity(cfg, trace) == 8  # (10 + 6) / 2

    def test_fraction_floor_is_one_byte(self):
        trace = make_trace([(A, 10)])
        assert resolve_capacity(SimConfig(LRU, capacity_fraction=0.01), trace) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig("mru", capacity_bytes=8).validate()
        with pytest.raises(ConfigError):
            SimConfig(LRU).validate()
        with pytest.raises(ConfigError):
            SimConfig(LRU, capacity_bytes=8, capacity_fraction=0.5).validate()
        with pytest.raises(ConfigError):
            SimConfig(LRU, capacity_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            SimConfig(GROUP_MERGED, capacity_bytes=8).validate()


class TestSweep:
    def test_row_per_fraction_policy(self):
        trace = unit_trace(A, B, A, C)
        table = GroupTable(Partition.of([(A, B)]))
        rows = sweep(trace, table, [0.25, 0.5], [LRU, GROUP_MERGED])
        assert [(m.policy, m.capacity_fraction) for m in rows] == [
            (LRU, 0.25), (GROUP_MERGED, 0.25), (LRU, 0.5), (GROUP_MERGED, 0.5),
        ]

    def test_deterministic(self):
        rng = random.Random(13)
        trace = make_trace(random_accesses(rng, n=150))
        a = sweep(trace, None, [0.1, 0.4], [LRU, FIFO])
        b = sweep(trace, None, [0.1, 0.4], [LRU, FIFO])
        assert [m.as_dict() for m in a] == [m.as_dict() for m in b]

    def test_csv_lines(self):
        trace = unit_trace(A, B)
        rows = sweep(trace, None, [0.5], [LRU])
        lines = list(metrics_csv_lines(rows))
        assert lines[0].startswith("policy,capacity_fraction")
        assert len(lines) == 2
        assert lines[1].startswith("lru,0.5,")


class TestPool:
    """A sweep's replayed cells on forks.fork_map, against the same sweep
    in this process and the replay oracle."""

    def test_pool_map_in_order_on_workers(self, cpus, forked, tmp_path):
        cpus(2)
        parent = os.getpid()
        got = fork_map(both_take_a_unit(lambda unit: (unit, os.getpid()),
                                          tmp_path), list(range(9)))
        assert [unit for unit, _ in got] == list(range(9)) and len(forked) == 1
        # this process works next to its one child
        assert {pid for _, pid in got} == {parent, *forked}

        def failing(unit):
            if unit == 3:
                raise InvariantError("forced failure")
            return unit

        with pytest.raises(InvariantError, match="forced failure"):
            fork_map(failing, list(range(6)))
        assert len(forked) == 2 and no_child_left()

    def test_pool_rows_equal_in_process_rows(self, cpus, forked):
        rng = random.Random(62)
        fractions = [0.05, 0.2, 0.2, 1.0]
        for case in range(8):
            trace, table, extra = TestReferenceReplay.random_case(rng)
            for write_allocate in (True, False):
                want = [ref_simulate(trace, SimConfig(
                    p, capacity_fraction=f, grouping=table, extra_sizes=extra,
                    write_allocate=write_allocate)) for f in fractions for p in POLICIES]
                for n in (1, 2):
                    cpus(n)
                    assert sweep(trace, table, fractions, POLICIES, extra_sizes=extra,
                                 write_allocate=write_allocate) == want
            # on the pool, the sweep reads the caller's mapping as it is then
            for a in list(extra)[:3]:
                extra[a] += 1
            rows = sweep(trace, table, fractions, POLICIES, extra_sizes=extra)
            assert rows == [ref_simulate(trace, SimConfig(
                p, capacity_fraction=f, grouping=table, extra_sizes=extra))
                for f in fractions for p in POLICIES]
        # every sweep on two CPUs replayed at least the fifo cells with one child
        assert len(forked) == 3 * 8

    def test_direct_and_checking_calls_replay_in_process(self, cpus, no_fork, monkeypatch):
        cpus(2)
        trace, table, extra = TestReferenceReplay.random_case(random.Random(63))
        fractions, policies = [0.1, 0.5], [FIFO, GROUP_PREFETCH, GROUP_MERGED]
        cfgs = [SimConfig(p, capacity_fraction=f, grouping=table, extra_sizes=extra)
                for f in fractions for p in policies]
        want = [ref_simulate(trace, cfg) for cfg in cfgs]
        assert [simulate(trace, cfg) for cfg in cfgs] == want
        replay = simulator.simulate
        monkeypatch.setattr(simulator, "simulate",
                            lambda trace, cfg: replay(trace, cfg, check_invariants=True))
        assert sweep(trace, table, fractions, policies, extra_sizes=extra) == want

    def test_one_cpu_one_replayed_cell_or_threads_start_no_process(self, cpus, no_fork):
        accesses = random_accesses(random.Random(64), n=300)
        trace = make_trace([(a, 1 + a % 7) for a, _ in accesses])
        table = GroupTable(Partition.of([(0, 4, 8), (12, 16)]))

        def check(fractions, policies):
            assert sweep(trace, table, fractions, policies) == [
                ref_simulate(trace, SimConfig(p, capacity_fraction=f, grouping=table))
                for f in fractions for p in policies]

        cpus(1)
        check([0.2, 0.6], POLICIES)
        cpus(2)
        # the profile serves the lru cell, so one cell is replayed
        check([0.6], [LRU, GROUP_MERGED])
        # a fork copies only the thread that makes it
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            check([0.2, 0.6], POLICIES)
        finally:
            done.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()

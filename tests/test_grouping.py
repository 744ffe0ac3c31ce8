import numpy as np
import pytest

from ctgroup import features, grouping
from ctgroup.chunking import ChunkerConfig, chunk_all
from ctgroup.errors import ConfigError, UnknownDatumError
from ctgroup.features import Partition, build_ctf
from ctgroup.grouping import (
    ASCENDING,
    DESCENDING,
    GrouperConfig,
    build_grouping,
    compute_legal_relations,
    grouping_report,
    load_grouping_members,
    merge_groups,
    save_grouping,
)
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.transactions import (
    CUMULATIVE,
    SNAPSHOT,
    CacheTransaction,
    ExtractorConfig,
    TransactionLog,
    extract_transactions,
)
from reference import (
    count_cooccurrence,
    legal_relations,
    ref_chunk_popcounts,
    ref_merge_groups,
    relation_columns,
    replay_group_audit,
)


def txn(index, *members, partial=False):
    return CacheTransaction(index, members, partial)


def log(*txns):
    return TransactionLog.of(txns)


def singleton_members(count):
    """Chunks 0..count-1, chunk c holding address c * 8 alone."""
    return Partition.of((c * 8,) for c in range(count))


def triples(columns):
    """compute_legal_relations' columns as (x, y, count) tuples."""
    return list(zip(*(column.tolist() for column in columns)))


def members_of(lookup):
    """The chunks of address -> chunk id; a chunk id no address maps to
    is an empty chunk."""
    return Partition.of([a for a, c in lookup.items() if c == chunk]
                        for chunk in range(max(lookup.values()) + 1))


class TestCooccurrence:
    LOOKUP = {0: 0, 4: 0, 8: 1, 12: 2}

    def test_counted_once_per_transaction(self):
        # addresses 0 and 4 share chunk 0: pair (0,1) counted once here
        counts = count_cooccurrence([txn(0, 0, 4, 8)], self.LOOKUP)
        assert counts == {(0, 1): 1}

    def test_accumulates_across_transactions(self):
        txns = [txn(0, 0, 8), txn(1, 4, 8, 12), txn(2, 12)]
        counts = count_cooccurrence(txns, self.LOOKUP)
        assert counts == {(0, 1): 2, (0, 2): 1, (1, 2): 1}

    def test_partial_excluded_by_default(self):
        txns = [txn(0, 0, 8), txn(1, 0, 12, partial=True)]
        assert count_cooccurrence(txns, self.LOOKUP) == {(0, 1): 1}
        both = count_cooccurrence(txns, self.LOOKUP, include_partial=True)
        assert both == {(0, 1): 1, (0, 2): 1}

    def test_unknown_address_rejected(self):
        with pytest.raises(UnknownDatumError):
            count_cooccurrence([txn(0, 0, 999)], self.LOOKUP)


class TestLegalRelations:
    def test_threshold_uses_larger_popcount(self):
        # R=2 vs max(4,2)*0.5=2 passes; R=1 vs max(4,1)*0.5=2 fails
        counts = {(0, 1): 2, (0, 2): 1}
        pops = {0: 4, 1: 2, 2: 1}
        rels = legal_relations(counts, pops, alpha=0.5)
        assert rels == [(0, 1, 2)]

    def test_descending_order_with_id_tiebreak(self):
        counts = {(2, 3): 5, (0, 1): 5, (1, 2): 7}
        pops = {0: 1, 1: 1, 2: 1, 3: 1}
        rels = legal_relations(counts, pops, alpha=0.0)
        assert rels == [
            (1, 2, 7), (0, 1, 5), (2, 3, 5)
        ]

    def test_ascending_toggle(self):
        counts = {(0, 1): 5, (1, 2): 7}
        pops = {0: 1, 1: 1, 2: 1}
        rels = legal_relations(counts, pops, alpha=0.0, sort=ASCENDING)
        assert [count for _, _, count in rels] == [5, 7]

    def test_fused_path_matches_two_step(self, rng):
        # compute_legal_relations must agree with count + filter + sort
        for _ in range(50):
            n_chunks = rng.randint(2, 6)
            lookup = {a * 4: rng.randrange(n_chunks) for a in range(12)}
            addrs = list(lookup)
            txns = [
                CacheTransaction(i, tuple(rng.sample(addrs, rng.randint(1, 6))))
                for i in range(rng.randint(1, 15))
            ]
            pops = ref_chunk_popcounts(txns, lookup)
            alpha = rng.choice([0.0, 0.3, 0.7])
            counts = count_cooccurrence(txns, lookup)
            expected = legal_relations(counts, pops, alpha)
            got = compute_legal_relations(TransactionLog.of(txns), members_of(lookup), alpha)
            assert triples(got) == expected

    @staticmethod
    def random_log(rng, n_chunks, n_txns, partial_share=0.0):
        lookup = {a * 4: rng.randrange(n_chunks) for a in range(30)}
        addrs = list(lookup)
        # only the last transaction of a log may be partial
        txns = [
            CacheTransaction(i, tuple(rng.sample(addrs, rng.randint(1, 10))),
                             rng.random() < partial_share and i == n_txns - 1)
            for i in range(n_txns)
        ]
        return txns, lookup

    def test_fused_path_matches_two_step_with_partials(self, rng):
        for _ in range(50):
            txns, lookup = self.random_log(
                rng, rng.randint(2, 10), rng.randint(1, 20), partial_share=0.4
            )
            alpha = rng.choice([0.0, 0.3, 0.7])
            for include_partial in (False, True):
                counts = count_cooccurrence(txns, lookup, include_partial)
                pops = ref_chunk_popcounts(txns, lookup, include_partial)
                expected = legal_relations(counts, pops, alpha)
                got = compute_legal_relations(
                    TransactionLog.of(txns), members_of(lookup), alpha,
                    include_partial=include_partial
                )
                assert triples(got) == expected

    def test_fused_path_matches_two_step_ascending(self, rng):
        for _ in range(50):
            txns, lookup = self.random_log(rng, rng.randint(2, 10), 15)
            alpha = rng.choice([0.0, 0.3, 0.7])
            pops = ref_chunk_popcounts(txns, lookup)
            expected = legal_relations(
                count_cooccurrence(txns, lookup), pops, alpha, sort=ASCENDING
            )
            got = compute_legal_relations(TransactionLog.of(txns), members_of(lookup), alpha,
                                          sort=ASCENDING)
            assert triples(got) == expected

    def test_fused_path_matches_two_step_in_small_batches(self, rng, monkeypatch):
        # batches of 3 transactions and about 5 pair occurrences, so counts
        # and chunk pairs are split over many batches
        monkeypatch.setattr(grouping, "TXN_BATCH", 3)
        monkeypatch.setattr(features, "PAIR_BATCH", 5)
        for _ in range(30):
            txns, lookup = self.random_log(
                rng, rng.randint(2, 12), rng.randint(1, 25), partial_share=0.2
            )
            alpha = rng.choice([0.0, 0.3])
            pops = ref_chunk_popcounts(txns, lookup, True)
            for sort in (DESCENDING, ASCENDING):
                expected = legal_relations(
                    count_cooccurrence(txns, lookup, True), pops, alpha, sort
                )
                got = compute_legal_relations(
                    TransactionLog.of(txns), members_of(lookup), alpha, sort,
                    include_partial=True
                )
                assert triples(got) == expected

    def test_fused_path_rejects_unknown_address(self, monkeypatch):
        members = Partition.of([(0, 4), (8,)])
        with pytest.raises(UnknownDatumError) as exc:
            compute_legal_relations(log(txn(0, 0, 8), txn(1, 4, 999)), members, 0.5)
        assert exc.value.address == 999
        assert str(exc.value) == "no chunk assignment for block address 999"
        # the first unknown address in log order is named, in any batch
        monkeypatch.setattr(grouping, "TXN_BATCH", 1)
        with pytest.raises(UnknownDatumError) as exc:
            compute_legal_relations(
                log(txn(0, 0, 8), txn(1, 4, 12), txn(2, 7, 8)), members, 0.5
            )
        assert exc.value.address == 12
        # an unknown address in a skipped partial transaction is not read
        rels = compute_legal_relations(
            log(txn(0, 0, 8), txn(1, 0, 999, partial=True)), members, 0.5
        )
        assert triples(rels) == [(0, 1, 1)]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GrouperConfig(alpha=-0.1).validate()
        with pytest.raises(ConfigError):
            GrouperConfig(mu=2.0).validate()
        with pytest.raises(ConfigError):
            GrouperConfig(sort="sideways").validate()

    @pytest.mark.parametrize("alpha, sort, match", [
        (0.5, "bogus", "sort must be"), (1.5, DESCENDING, "alpha must be"),
        (-0.1, ASCENDING, "alpha must be"),
    ])
    def test_compute_legal_relations_validates(self, alpha, sort, match):
        # an unknown sort is no silent choice of either order
        with pytest.raises(ConfigError, match=match):
            compute_legal_relations(log(txn(0, 0, 8)), Partition.of([(0,), (8,)]), alpha, sort)


class TestMergeGroups:
    def test_single_relation_merges_at_mu_one(self):
        rels = [(0, 1, 9)]
        grouping = merge_groups(relation_columns(rels), singleton_members(2), GrouperConfig(mu=1.0))
        assert grouping.chunk_ids.parts() == [(0, 1)]

    def test_growing_groups_need_more_edges(self):
        # after (0,1) merge, {0,1} vs {2} needs 2 edges at mu=1: the first
        # cross relation only bumps the counter, the second completes it
        rels = [(0, 1, 9), (0, 2, 8), (1, 2, 7)]
        grouping = merge_groups(relation_columns(rels), singleton_members(3), GrouperConfig(mu=1.0))
        assert grouping.chunk_ids.parts() == [(0, 1, 2)]
        assert grouping.processed_cross == 3
        assert grouping.internal_edges[0] == 3

    def test_insufficient_edges_leave_groups_apart(self):
        rels = [(0, 1, 9), (0, 2, 8)]
        grouping = merge_groups(relation_columns(rels), singleton_members(3), GrouperConfig(mu=1.0))
        assert grouping.chunk_ids.parts() == [(0, 1), (2,)]

    def test_mu_zero_merges_on_first_contact(self):
        rels = [(0, 1, 5), (2, 3, 4), (1, 2, 1)]
        grouping = merge_groups(relation_columns(rels), singleton_members(4), GrouperConfig(mu=0.0))
        assert grouping.chunk_ids.parts() == [(0, 1, 2, 3)]

    def test_unrelated_chunks_become_singletons(self):
        grouping = merge_groups(relation_columns([]), singleton_members(3), GrouperConfig(mu=0.5))
        assert grouping.chunk_ids.parts() == [(0,), (1,), (2,)]
        assert all(edges == 0 for edges in grouping.internal_edges)

    def test_groups_ordered_by_smallest_chunk_id(self):
        rels = [(1, 3, 9), (0, 2, 8)]
        grouping = merge_groups(relation_columns(rels), singleton_members(4), GrouperConfig(mu=1.0))
        assert grouping.chunk_ids.parts() == [(0, 2), (1, 3)]
        assert grouping.partition.parts() == [(0, 16), (8, 24)]

    def test_members_sorted_and_labels_complete(self):
        chunks = Partition.of([(16, 0), (8,)])
        grouping = merge_groups(relation_columns([(0, 1, 3)]), chunks, GrouperConfig(mu=1.0))
        (members,) = grouping.partition.parts()
        assert members == (0, 8, 16)
        labels = grouping.partition.labels(np.array([0, 8, 16, 24]))
        assert labels.tolist() == [0, 0, 0, -1]

    def test_same_group_relations_skipped(self):
        rels = [(0, 1, 9), (0, 1, 2)]
        grouping = merge_groups(relation_columns(rels), singleton_members(2), GrouperConfig(mu=1.0))
        assert grouping.skipped_same_group == 1
        assert grouping.processed_cross == 1


class TestOracle:
    def random_instance(self, rng):
        n = rng.randint(2, 12)
        chunk_ids = list(range(n))
        counts = {}
        for x in range(n):
            for y in range(x + 1, n):
                if rng.random() < 0.5:
                    counts[(x, y)] = rng.randint(1, 10)
        pops = {c: rng.randint(1, 6) for c in chunk_ids}
        alpha = rng.choice([0.0, 0.3, 0.6])
        mu = rng.choice([0.0, 0.3, 0.5, 1.0])
        rels = legal_relations(counts, pops, alpha)
        return chunk_ids, rels, mu

    def test_matches_reference(self, rng):
        for _ in range(200):
            chunk_ids, rels, mu = self.random_instance(rng)
            grouping = merge_groups(relation_columns(rels), singleton_members(len(chunk_ids)),
                                    GrouperConfig(mu=mu))
            got = set(grouping.chunk_ids.parts())
            expected = ref_merge_groups([(x, y) for x, y, _ in rels], chunk_ids, mu)
            assert got == expected

    def test_audit_replays_partition(self, rng):
        for _ in range(100):
            chunk_ids, rels, mu = self.random_instance(rng)
            grouping = merge_groups(relation_columns(rels), singleton_members(len(chunk_ids)),
                                    GrouperConfig(mu=mu))
            replayed = replay_group_audit(chunk_ids, grouping.audit)
            assert replayed == set(grouping.chunk_ids.parts())
            for rec in grouping.audit:
                assert rec.counter >= rec.threshold

    def test_edge_conservation_at_mu_zero(self, rng):
        # every processed cross relation merges immediately, so all of
        # them end up counted as internal edges
        for _ in range(50):
            chunk_ids, rels, _ = self.random_instance(rng)
            grouping = merge_groups(relation_columns(rels), singleton_members(len(chunk_ids)),
                                    GrouperConfig(mu=0.0))
            total = sum(grouping.internal_edges)
            assert total == grouping.processed_cross

    def test_internal_edges_bounded(self, rng):
        for _ in range(50):
            chunk_ids, rels, mu = self.random_instance(rng)
            grouping = merge_groups(relation_columns(rels), singleton_members(len(chunk_ids)),
                                    GrouperConfig(mu=mu))
            assert sum(grouping.internal_edges) <= grouping.processed_cross
            for group, edges in zip(grouping.chunk_ids.parts(), grouping.internal_edges):
                n = len(group)
                assert edges <= n * (n - 1) // 2

    def test_deterministic(self, rng):
        chunk_ids, rels, mu = self.random_instance(rng)
        a = merge_groups(relation_columns(rels), singleton_members(len(chunk_ids)),
                         GrouperConfig(mu=mu))
        b = merge_groups(relation_columns(rels), singleton_members(len(chunk_ids)),
                         GrouperConfig(mu=mu))
        assert a.chunk_ids.parts() == b.chunk_ids.parts()

    def test_partition_invariant(self, rng):
        for _ in range(50):
            chunk_ids, rels, mu = self.random_instance(rng)
            chunks = Partition.of((c * 8, c * 8 + 4) for c in chunk_ids)
            grouping = merge_groups(relation_columns(rels), chunks, GrouperConfig(mu=mu))
            covered = grouping.partition.members.tolist()
            assert sorted(covered) == sorted(chunks.members.tolist())
            assert len(covered) == len(set(covered))


class TestEndToEnd:
    def build(self, mu=0.5):
        # two address clusters that always transact together
        txns = [
            txn(0, 0, 8, 16),
            txn(1, 0, 8, 16),
            txn(2, 1000, 1008),
            txn(3, 1000, 1008),
            txn(4, 0, 8, 16),
        ]
        ctf = build_ctf(log(*txns))
        chunkset = chunk_all(ctf, ChunkerConfig(q=2, sigma=0.0))
        return build_grouping(log(*txns), chunkset.partition,
                              GrouperConfig(alpha=0.5, mu=mu)), chunkset

    def test_clusters_recovered(self):
        grouping, _ = self.build()
        got = set(grouping.partition.parts())
        assert got == {(0, 8, 16), (1000, 1008)}

    def test_report(self):
        grouping, _ = self.build()
        report = grouping_report(grouping)
        assert report.group_count == 2
        assert report.size_histogram == {2: 1, 3: 1}
        assert report.groups_of_size_at_least(3) == 1
        assert report.groups_of_size_at_least(4) == 0
        # sigma=0 collapsed each cluster into one chunk: singleton density
        assert set(report.densities.values()) == {None}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode, include_partial, sigma", [
        (CUMULATIVE, False, 0.1),
        (CUMULATIVE, True, 0.1),
        (SNAPSHOT, False, 0.1),
        (CUMULATIVE, False, 0.3),
    ])
    def test_popcounts_are_or_feature_popcounts(self, seed, mode, include_partial, sigma):
        # |V_C| counted from the transactions equals the popcount of the
        # chunk's OR feature, so the relations equal those filtered by it
        spec = SyntheticSpec(num_data=300, num_accesses=8000, rng_seed=seed,
                             group_structure=[(8, 0.8)] * 10 + [(4, 1.0)] * 10)
        trace, _truth = synthesize_trace(spec)
        txns = extract_transactions(trace, ExtractorConfig(32768, mode))
        ctf = build_ctf(txns, include_partial=include_partial)
        chunkset = chunk_all(ctf, ChunkerConfig(sigma=sigma))
        # the popcount of each chunk's OR feature, from the CTF
        pops = {c.id: len(set().union(*(ctf[a].bits for a in c.members)))
                for c in chunkset.chunks}
        lookup = {a: c.id for c in chunkset.chunks for a in c.members}
        assert ref_chunk_popcounts(txns, lookup, include_partial) == pops
        counts = count_cooccurrence(txns, lookup, include_partial)
        got = compute_legal_relations(txns, chunkset.partition, 0.5,
                                      include_partial=include_partial)
        assert triples(got) == legal_relations(counts, pops, 0.5)

    def test_int64_index_dtype_matches_int32(self, monkeypatch):
        # no tier-1 input reaches 2**31 positions or pair occurrences, so
        # index_dtype's int64 branch runs only when patched in
        spec = SyntheticSpec(num_data=300, num_accesses=8000, rng_seed=1,
                             group_structure=[(8, 0.8)] * 10 + [(4, 1.0)] * 10)
        txns = extract_transactions(synthesize_trace(spec)[0], ExtractorConfig(32768))
        chunks = chunk_all(build_ctf(txns), ChunkerConfig(sigma=0.3)).partition
        monkeypatch.setattr(grouping, "TXN_BATCH", 50)
        monkeypatch.setattr(features, "PAIR_BATCH", 64)

        def run():
            fresh = Partition(chunks.members, chunks.offsets)  # no cached int32 index
            return (compute_legal_relations(txns, fresh, 0.5),
                    build_grouping(txns, fresh, GrouperConfig(alpha=0.5, mu=0.5)))

        (narrow, narrow_grp), bounds = run(), []
        monkeypatch.setattr(features, "index_dtype",
                            lambda bound: bounds.append(bound) or np.int64)
        wide, wide_grp = run()
        assert bounds
        assert [column.dtype for column in wide] == [np.int64] * 3
        assert triples(wide) == triples(narrow) and len(narrow[0]) > 50
        assert wide_grp.partition.parts() == narrow_grp.partition.parts()
        assert wide_grp.internal_edges == narrow_grp.internal_edges
        assert wide_grp.audit == narrow_grp.audit and narrow_grp.audit

    def test_report_density_of_merged_chunks(self):
        rels = [(0, 1, 9), (0, 2, 8), (1, 2, 7)]
        grouping = merge_groups(relation_columns(rels), singleton_members(3), GrouperConfig(mu=1.0))
        report = grouping_report(grouping)
        assert report.chunk_size_histogram == {3: 1}
        assert report.densities[0] == 1.0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rels = [(0, 1, 3)]
        chunks = Partition.of([(0, 4), (8,), (1000,)])
        grouping = merge_groups(relation_columns(rels), chunks, GrouperConfig(mu=1.0))
        path = tmp_path / "grouping.csv"
        save_grouping(path, grouping, config_hash="gg")
        loaded, header = load_grouping_members(path)
        assert loaded.parts() == grouping.partition.parts() == [
            (0, 4, 8), (1000,)]
        assert header["config_hash"] == "gg"
        assert header["mu"] == "1.0"

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgroup import features
from ctgroup.chunking import (
    AreaKey,
    ChunkerConfig,
    chunk_all,
    load_chunk_members,
    save_chunks,
)
from ctgroup.errors import ConfigError
from ctgroup.features import CtfMatrix, CtfVector, build_ctf, distance, strong_relation
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.transactions import (
    CacheTransaction,
    ExtractorConfig,
    TransactionLog,
    extract_transactions,
)
from conftest import chunkset_fields
from reference import ref_area_key, ref_chunk_all, ref_cluster, replay_audit


def matrix(vectors, dim=None):
    """CtfMatrix from {addr: iterable-of-indices}."""
    if dim is None:
        dim = 1 + max((b for bits in vectors.values() for b in bits), default=-1)
    rows = [sorted(vectors[a]) for a in sorted(vectors)]
    return CtfMatrix(dim, np.array(sorted(vectors), dtype=np.int64),
                     np.cumsum([0, *map(len, rows)], dtype=np.int64),
                     np.array([b for row in rows for b in row], dtype=np.int32))


def one_area(vectors, sigma, metric="symmetric_diff", dim=None):
    """chunk_all of {addr: iterable-of-indices} with every datum in one
    area: q=1, and p above every popcount."""
    ctf = matrix(vectors, dim)
    p = 2.0 + max(map(len, vectors.values()))
    return chunk_all(ctf, ChunkerConfig(q=1, p=p, sigma=sigma), metric=metric)


def area_of(address, freq, cfg, max_address):
    """The area chunk_all puts a lone datum of popcount ``freq`` in."""
    (key,) = chunk_all(matrix({address: range(freq)}), cfg, max_address).areas
    return key


def or_feature(ctf, members):
    """The OR of the members' vectors."""
    return CtfVector(sorted(set().union(*(ctf[a].bits for a in members))))


class TestAreaKey:
    def test_hand_evaluated(self):
        # address 250 of 1000 with q=10 -> bin 2; freq 9 with p=3 -> bin 2
        cfg = ChunkerConfig(q=10, p=3.0)
        assert area_of(250, 9, cfg, 1000) == AreaKey(2, 2)

    def test_frequency_one_is_bin_zero(self):
        cfg = ChunkerConfig(q=4, p=2.0)
        assert area_of(0, 1, cfg, 100).freq_bin == 0

    def test_max_address_lands_in_last_bin(self):
        cfg = ChunkerConfig(q=8)
        assert area_of(100, 1, cfg, 100).addr_bin == 7

    def test_log_bins_widen_with_frequency(self):
        cfg = ChunkerConfig(q=1, p=2.0)
        bins = [area_of(0, f, cfg, 1).freq_bin for f in range(1, 17)]
        assert bins == [0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4]

    def test_exact_power_boundaries(self):
        # floor(log_p) must not slip on exact powers despite float log
        cfg = ChunkerConfig(q=1, p=10.0)
        assert area_of(0, 1000, cfg, 1).freq_bin == 3
        assert area_of(0, 999, cfg, 1).freq_bin == 2


class TestPreBlock:
    def test_zero_frequency_excluded(self):
        chunkset = chunk_all(matrix({0: {0}, 8: set(), 16: {0, 1}}), ChunkerConfig(q=2), 16)
        assert list(chunkset.excluded) == [8]
        assert sorted(chunkset.partition.members.tolist()) == [0, 16]

    def test_address_beyond_range_rejected(self):
        with pytest.raises(ConfigError):
            chunk_all(matrix({200: {0}}), ChunkerConfig(), 100)

    def test_partition_by_area(self):
        rng = random.Random(6)
        data = [(rng.randrange(1000), rng.randint(0, 40)) for _ in range(200)]
        data = list({a: f for a, f in data}.items())
        cfg = ChunkerConfig(q=7, p=2.5)
        chunkset = chunk_all(matrix({a: range(f) for a, f in data}), cfg, 1000)
        excluded = list(chunkset.excluded)
        seen = sorted(excluded + chunkset.partition.members.tolist())
        assert seen == sorted(a for a, _ in data)
        for key, addrs in zip(chunkset.areas, chunkset.partition.parts()):
            for a in addrs:
                freq = dict(data)[a]
                assert AreaKey(*ref_area_key(a, freq, cfg.q, cfg.p, 1000)) == key

    @pytest.mark.parametrize("data, max_address", [
        ([(-1, 1)], 100),
        ([(5, 1)], -1),
        ([(5, 0)], 1 << 63),
    ])
    def test_address_range_rejected(self, data, max_address):
        # addresses lie in [0, max_address] and max_address in int64
        with pytest.raises(ConfigError, match="must lie in"):
            chunk_all(matrix({a: range(f) for a, f in data}), ChunkerConfig(), max_address)

    def test_bins_exact_where_address_times_q_overflows(self):
        top = (1 << 63) - 1
        cfg = ChunkerConfig(q=(1 << 62) + 3)
        for address in (0, 1, 1 << 62, top - 1, top):
            assert area_of(address, 1, cfg, top).addr_bin == min(
                address * cfg.q // top, cfg.q - 1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ChunkerConfig(q=0).validate()
        with pytest.raises(ConfigError):
            ChunkerConfig(q=1 << 63).validate()
        with pytest.raises(ConfigError):
            ChunkerConfig(p=1.0).validate()
        with pytest.raises(ConfigError):
            ChunkerConfig(sigma=1.5).validate()


class TestClusterArea:
    def test_identical_vectors_collapse(self):
        vectors = {0: {0, 1}, 4: {0, 1}, 8: {2}}
        assert one_area(vectors, sigma=0.0).partition.parts() == [(0, 4), (8,)]

    def test_qualifying_pair_merges(self):
        # distance 1 <= ((4+3)/2)*0.5
        vectors = {0: {0, 1, 2, 3}, 4: {0, 1, 2}}
        assert one_area(vectors, sigma=0.5).partition.parts() == [(0, 4)]

    def test_non_qualifying_pair_stays_split(self):
        vectors = {0: {0}, 4: {1}}
        assert one_area(vectors, sigma=0.9).partition.parts() == [(0,), (4,)]

    def test_smallest_distance_merges_first(self):
        # b is distance 1 from a and 2 from c; after (a, b) merges the
        # combined feature no longer qualifies with c
        vectors = {0: {0, 1, 2}, 4: {0, 1, 2, 3}, 8: {0, 1, 4, 5}}
        assert one_area(vectors, sigma=0.35).partition.parts() == [(0, 4), (8,)]

    def test_euclidean_metric_admits_more(self):
        # count 4 > ((4+8)/2)*0.5 = 3, but sqrt(4) = 2 <= 3
        vectors = {0: set(range(4)), 4: set(range(8))}
        assert one_area(vectors, 0.5).partition.parts() == [(0,), (4,)]
        assert one_area(vectors, 0.5, metric="euclidean").partition.parts() == [(0, 4)]

    def test_euclidean_disjoint_pair_merges(self):
        # sqrt(8) <= ((4+4)/2)*1: disjoint vectors qualify once
        # |x| + |y| >= 4 / sigma**2, with or without a shared-index pair
        # merged first
        vectors = {0: {0, 1, 2, 3}, 4: {4, 5, 6, 7}}
        assert strong_relation(CtfVector([0, 1, 2, 3]), CtfVector([4, 5, 6, 7]),
                               1.0, "euclidean")
        assert one_area(vectors, 1.0, metric="euclidean").partition.parts() == [(0, 4)]
        assert one_area(vectors, 1.0).partition.parts() == [(0,), (4,)]
        # the empty feature of 12 is left out, as in the pipeline
        vectors = {0: {0, 1}, 4: {0, 1, 2}, 8: {5, 6, 7, 8}, 12: set()}
        chunkset = one_area(vectors, 1.0, metric="euclidean")
        out = chunkset.partition.parts()
        want, excluded = ref_chunk_all(vectors, 1, 5.0, 1.0, 12, "euclidean")
        assert out == [members for _, members in want]
        assert chunkset.excluded == tuple(excluded) == (12,)
        assert out == [(0, 4, 8)]

    @pytest.mark.parametrize("pair_batch", [features.PAIR_BATCH, 3])
    def test_matches_reference_euclidean(self, monkeypatch, pair_batch):
        # popcounts up to 8 reach 4 / sigma**2 from sigma 0.5 on, so
        # disjoint pairs qualify both in the first heap and after merges
        monkeypatch.setattr(features, "PAIR_BATCH", pair_batch)
        rng = random.Random(83)
        for _ in range(150):
            dim = rng.randint(3, 16)
            vectors = {
                a * 4: frozenset(rng.sample(range(dim), rng.randint(0, min(dim, 8))))
                for a in rng.sample(range(60), rng.randint(2, 20))
            }
            sigma = rng.choice([0.0, 0.3, 0.5, 2 / 3, 0.8, 1.0])
            ctf = matrix(vectors, dim=dim)
            chunkset = one_area(vectors, sigma, "euclidean", dim=dim)
            got = set(chunkset.partition.parts())
            want, _ = ref_chunk_all(vectors, 1, 9.0, sigma, max(vectors), "euclidean")
            assert got == {members for _, members in want}
            transacted = {a: ctf[a] for a, bits in vectors.items() if bits}
            assert replay_audit(transacted, chunkset.audit) == got

    def test_matches_reference(self):
        rng = random.Random(77)
        for _ in range(120):
            n = rng.randint(1, 12)
            vectors = {
                a * 4: frozenset(
                    rng.sample(range(10), rng.randint(1, 6))
                )
                for a in range(n)
            }
            sigma = rng.choice([0.0, 0.1, 0.3, 0.5, 0.8, 1.0])
            got = set(one_area(vectors, sigma, dim=10).partition.parts())
            assert got == ref_cluster(vectors, sigma)

    @pytest.mark.parametrize("sigma", [-0.1, 1.5, 2.0])
    def test_sigma_outside_unit_interval_rejected(self, sigma):
        # as ChunkerConfig rejects it: no config selects such a sigma
        vectors = {0: {0, 1}, 4: {0, 1, 2}, 8: {5}, 12: set()}
        with pytest.raises(ConfigError, match="sigma must be in"):
            one_area(vectors, sigma, dim=6)

    @pytest.mark.parametrize("pair_batch", [features.PAIR_BATCH, 3])
    def test_matches_reference_on_ties(self, monkeypatch, pair_batch):
        # few transaction indices and many data: vectors overlap heavily
        # and many candidate pairs share a distance, so the result depends
        # on the (distance, min-address, min-address) tie order; a small
        # pair batch splits the first heap's candidates over many batches
        monkeypatch.setattr(features, "PAIR_BATCH", pair_batch)
        rng = random.Random(79)
        for _ in range(150):
            dim = rng.randint(3, 12)
            vectors = {
                a * 4: frozenset(rng.sample(range(dim), rng.randint(1, min(dim, 4))))
                for a in rng.sample(range(60), rng.randint(2, 30))
            }
            sigma = rng.choice([0.4, 0.5, 2 / 3, 0.8, 1.0])
            ctf = matrix(vectors, dim=dim)
            chunkset = one_area(vectors, sigma, dim=dim)
            got = set(chunkset.partition.parts())
            assert got == ref_cluster(vectors, sigma)
            assert replay_audit({a: ctf[a] for a in vectors}, chunkset.audit) == got

    def test_audit_replays_to_same_clusters(self):
        rng = random.Random(78)
        for _ in range(40):
            vectors = {
                a * 8: frozenset(rng.sample(range(8), rng.randint(1, 5)))
                for a in range(rng.randint(2, 10))
            }
            ctf = matrix(vectors, dim=8)
            chunkset = one_area(vectors, 0.6, dim=8)
            out = chunkset.partition.parts()
            feats = {a: ctf[a] for a in vectors}
            assert replay_audit(feats, chunkset.audit) == set(out)
            # every recorded merge satisfied the predicate when executed
            for rec in chunkset.audit:
                assert rec.distance <= rec.threshold

    def test_unknown_metric_rejected(self):
        # an unknown metric is no silent choice of either rule
        with pytest.raises(ConfigError, match="metric must be one of"):
            one_area({0: {0, 1}, 4: {2, 3}}, 1.0, metric="bogus")


class TestChunkAll:
    def small_matrix(self):
        txns = [
            CacheTransaction(0, (0, 4096)),
            CacheTransaction(1, (0, 4096, 8192)),
            CacheTransaction(2, (1 << 20,)),
            CacheTransaction(3, (1 << 20, (1 << 20) + 4096)),
        ]
        return build_ctf(TransactionLog.of(txns))

    def test_partition_of_addresses(self):
        ctf = self.small_matrix()
        chunkset = chunk_all(ctf, ChunkerConfig(q=4, sigma=0.2))
        covered = [a for c in chunkset.chunks for a in c.members]
        assert sorted(covered) == ctf.addresses.tolist()
        assert len(covered) == len(set(covered))
        for chunk in chunkset.chunks:
            assert chunkset.partition.labels(np.array(chunk.members)).tolist() == [
                chunk.id] * len(chunk.members)
        assert chunkset.partition.labels(np.array([4, 1 << 30])).tolist() == [-1, -1]

    def test_chunks_never_cross_areas(self):
        ctf = self.small_matrix()
        chunkset = chunk_all(ctf, ChunkerConfig(q=4, sigma=1.0))
        cfg = chunkset.config
        for chunk in chunkset.chunks:
            keys = {
                AreaKey(*ref_area_key(a, ctf[a].popcount(), cfg.q, cfg.p,
                                      chunkset.max_address))
                for a in chunk.members
            }
            assert keys == {chunk.area}

    def test_feature_is_or_of_members(self):
        # each audited merge is scored on the distance between the two
        # clusters' OR features, computed here from the CTF
        spec = SyntheticSpec(num_data=120, num_accesses=4000, rng_seed=1,
                             group_structure=[(8, 0.8)] * 6)
        ctf = build_ctf(extract_transactions(synthesize_trace(spec)[0],
                                             ExtractorConfig(32768)))
        chunkset = chunk_all(ctf, ChunkerConfig(q=2, sigma=0.6))
        assert any(len(rec.members_a) > 1 or len(rec.members_b) > 1
                   for rec in chunkset.audit)
        for rec in chunkset.audit:
            assert rec.distance == distance(or_feature(ctf, rec.members_a),
                                            or_feature(ctf, rec.members_b))

    def test_sigma_zero_only_identical_merge(self):
        ctf = self.small_matrix()
        chunkset = chunk_all(ctf, ChunkerConfig(q=1, sigma=0.0))
        for chunk in chunkset.chunks:
            assert len({ctf[a] for a in chunk.members}) == 1

    def test_members_within_chunks_strongly_related_transitively(self):
        # direct pairwise relation is not guaranteed, but every merge in
        # the audit was legal; spot-check singleton chunks have no partner
        ctf = self.small_matrix()
        chunkset = chunk_all(ctf, ChunkerConfig(q=1, sigma=0.3))
        singles = [c for c in chunkset.chunks if len(c.members) == 1]
        for c in singles:
            for other in chunkset.chunks:
                if other.id != c.id and other.area == c.area:
                    assert not strong_relation(or_feature(ctf, c.members),
                                               or_feature(ctf, other.members), 0.3)

    def test_ids_deterministic(self):
        ctf = self.small_matrix()
        a = chunk_all(ctf, ChunkerConfig(q=4, sigma=0.2))
        b = chunk_all(ctf, ChunkerConfig(q=4, sigma=0.2))
        assert [(c.id, c.members) for c in a.chunks] == [
            (c.id, c.members) for c in b.chunks
        ]

    def test_unreferenced_data_absent(self):
        # chunk_all excludes freq-0 data; build_ctf never produces them,
        # so chunk_all over a matrix reports no exclusions
        chunkset = chunk_all(self.small_matrix(), ChunkerConfig())
        assert chunkset.excluded == ()


class TestForkedAreas:
    """chunk_all with its areas on one CPU and on two."""

    @pytest.mark.parametrize("sigma", [0.1, 0.6])
    @pytest.mark.parametrize("q, p", [(16, 2.0), (1, 1e9)], ids=["areas", "one-area"])
    def test_same_chunkset(self, cpus, forked, sigma, q, p):
        # groups at probability 1.0 give identical vectors: merges at distance 0
        spec = SyntheticSpec(num_data=300, num_accesses=8000, rng_seed=5,
                             group_structure=[(8, 1.0)] * 10 + [(8, 0.7)] * 10)
        ctf = build_ctf(extract_transactions(synthesize_trace(spec)[0],
                                             ExtractorConfig(32768)))
        got = []
        for n in (1, 2):
            cpus(n)
            got.append(chunkset_fields(chunk_all(ctf, ChunkerConfig(q=q, p=p, sigma=sigma))))
        assert got[0] == got[1]
        _parts, areas, audit, *_ = got[0]
        assert any(merge.distance == 0 for merge in audit)
        assert (len(set(areas)) > 1) == (q > 1)
        assert len(forked) == (q > 1)  # one area is clustered in this process


@st.composite
def chunk_cases(draw):
    """{address: index set} over ``dim`` transactions, and the max_address
    to pass (None: the largest address). Addresses reach 2**62 and beyond,
    where address * q overflows int64, and may include max_address itself;
    popcounts favour the exact powers 1, 2, 4, 8 and 10, and include 0."""
    top = draw(st.sampled_from([40, 1000, 1 << 62, (1 << 62) + 12345, (1 << 63) - 1]))
    addresses = draw(st.sets(st.integers(0, top), min_size=1, max_size=9))
    if draw(st.booleans()):
        addresses.add(top)
    dim = draw(st.integers(1, 10))
    popcount = st.one_of(st.sampled_from([0, 1, 2, 4, 8, 10]), st.integers(0, 10))
    vectors = {a: frozenset(draw(st.permutations(range(dim)))[:draw(popcount)])
               for a in addresses}
    return vectors, dim, draw(st.sampled_from([None, top]))


class TestChunkAllOracle:
    @given(chunk_cases(), st.sampled_from([1, 2, 16, 10**6]),
           st.sampled_from([1.5, 2.0, 10.0]), st.sampled_from([0.0, 0.1, 0.6, 1.0]),
           st.sampled_from(["symmetric_diff", "euclidean"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case, q, p, sigma, metric):
        vectors, dim, max_address = case
        chunkset = chunk_all(matrix(vectors, dim), ChunkerConfig(q=q, p=p, sigma=sigma),
                             max_address, metric)
        want, excluded = ref_chunk_all(vectors, q, p, sigma,
                                       max(vectors) if max_address is None else max_address,
                                       metric)
        assert [((key.addr_bin, key.freq_bin), members)
                for key, members in zip(chunkset.areas, chunkset.partition.parts())] == want
        assert chunkset.excluded == tuple(excluded)
        transacted = {a: bits for a, bits in vectors.items() if bits}
        assert replay_audit(transacted, chunkset.audit) == {members for _, members in want}
        for rec in chunkset.audit:
            assert rec.distance <= rec.threshold


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        txns = [CacheTransaction(0, (0, 8)), CacheTransaction(1, (0, 8, 16))]
        chunkset = chunk_all(build_ctf(TransactionLog.of(txns)), ChunkerConfig(q=2, sigma=0.5))
        path = tmp_path / "chunks.tsv"
        save_chunks(path, chunkset, config_hash="qq")
        chunks, header = load_chunk_members(path)
        assert chunks.parts() == [c.members for c in chunkset.chunks]
        assert chunks.members.tolist() == chunkset.partition.members.tolist()
        assert chunks.offsets.tolist() == chunkset.partition.offsets.tolist()
        assert header["config_hash"] == "qq"
        assert header["q"] == "2"

import random

import pytest

from conftest import make_trace
from ctgroup import features
from ctgroup.errors import UnknownDatumError
from ctgroup.locality import (
    AccessIndex,
    access_count_gap_report,
    always_followed_pairs,
    cooccurring_pairs,
    make_histogram,
    related_pair_distance_histogram,
    relation_strength,
    symmetric_relation_strength,
)
from ctgroup.transactions import CacheTransaction, TransactionLog
from reference import ref_cooccurring_pairs


def index_from_seqs(seqs):
    return AccessIndex({addr: sorted(s) for addr, s in seqs.items()})


class TestRelationStrength:
    def test_hand_evaluated(self):
        # x at {1,5}, y at {2,7}: (min(1,6) + min(3,2)) / 2 = 1.5
        index = index_from_seqs({"x": [1, 5], "y": [2, 7]})
        assert relation_strength(index, "x", "y") == 1.5

    def test_constant_interval(self):
        index = index_from_seqs({"x": [0, 10, 20], "y": [1, 11, 21]})
        assert relation_strength(index, "x", "y") == 1.0

    def test_self_distance_zero(self):
        index = index_from_seqs({"x": [3, 8, 13]})
        assert relation_strength(index, "x", "x") == 0.0

    def test_asymmetry(self):
        index = index_from_seqs({"x": [0], "y": [1, 100, 200]})
        assert relation_strength(index, "x", "y") == 1.0
        assert relation_strength(index, "y", "x") == (1 + 100 + 200) / 3
        assert symmetric_relation_strength(index, "y", "x") == 1.0

    def test_unknown_datum(self):
        index = index_from_seqs({"x": [0]})
        with pytest.raises(UnknownDatumError):
            relation_strength(index, "x", "nope")

    def test_bounded_by_max_gap(self):
        rng = random.Random(11)
        for _ in range(50):
            xs = sorted(rng.sample(range(1000), rng.randint(1, 20)))
            ys = sorted(rng.sample(range(1000), rng.randint(1, 20)))
            index = AccessIndex({"x": xs, "y": ys})
            w = relation_strength(index, "x", "y")
            gaps = [min(abs(s - t) for t in ys) for s in xs]
            assert 0 <= w <= max(gaps)


class TestRelatedPairs:
    def test_constructed_adjacency(self):
        trace = make_trace([(0, 1), (4096, 1)] * 3)
        hist = related_pair_distance_histogram(trace)
        assert hist.total == 1
        assert sum(c for _, _, c, _ in hist.buckets) == 1
        # the single pair sits in the bucket containing 4096
        (pair,) = always_followed_pairs(trace)
        assert pair == (0, 4096)

    def test_no_repeated_adjacency(self):
        trace = make_trace([(0, 1), (4, 1), (0, 1), (8, 1), (0, 1), (12, 1)])
        assert related_pair_distance_histogram(trace).total == 0

    def test_min_occurrence_guard(self):
        trace = make_trace([(0, 1), (4, 1), (8, 1), (12, 1)])
        assert always_followed_pairs(trace, min_occurrences=2) == []
        assert (0, 4) in always_followed_pairs(trace, min_occurrences=1)

    def test_planted_cdf(self):
        # 6 of 10 always-sequential pairs within distance d0: CDF hits 0.6
        rng = random.Random(21)
        d0 = 1 << 12
        pairs = []
        for i in range(10):
            base = (i + 1) << 24
            dist = (i % 3 + 1) << 8 if i < 6 else d0 << (i - 4)
            pairs.append((base, base + dist))
        accesses = []
        for _ in range(5):
            order = list(pairs)
            rng.shuffle(order)
            for x, y in order:
                accesses.append((x, 1))
                accesses.append((y, 1))
        trace = make_trace(accesses)
        detected = always_followed_pairs(trace)
        assert set(detected) == set(pairs)
        hist = related_pair_distance_histogram(
            trace, bucket_edges=[0, d0, 1 << 40]
        )
        assert hist.cdf_at(d0) == pytest.approx(0.6)

    def test_histogram_mass_equals_pairs(self):
        values = [3, 5, 5, 900, 17]
        hist = make_histogram(values)
        assert hist.total == len(values)
        assert sum(c for _, _, c, _ in hist.buckets) == len(values)
        assert hist.buckets[-1][3] == pytest.approx(1.0)


class TestGapReport:
    def test_all_equal_counts(self):
        index = index_from_seqs({"a": [0, 2], "b": [1, 3]})
        reports = access_count_gap_report(index, [("a", "b")], [20, 50])
        for rep in reports.values():
            assert rep.equal_fraction == 1.0

    def test_half_equal(self):
        # x:{1,3} y:{2,4} have equal counts; u:{5} v:{6,8} differ
        index = index_from_seqs({"x": [1, 3], "y": [2, 4], "u": [5], "v": [6, 8]})
        reports = access_count_gap_report(index, [("x", "y"), ("u", "v")], [20])
        assert reports[20].num_pairs == 2
        assert reports[20].equal_fraction == 0.5
        assert reports[20].gap_counts == {0: 1, 1: 1}

    def test_empty_pair_set_flagged(self):
        index = index_from_seqs({"x": [0], "y": [500]})
        reports = access_count_gap_report(index, [("x", "y")], [0.5])
        assert reports[0.5].num_pairs == 0
        assert reports[0.5].equal_fraction is None

    def test_limits_required(self):
        index = index_from_seqs({"x": [0]})
        with pytest.raises(ValueError):
            access_count_gap_report(index, [], [])


class TestScopeFilter:
    def test_cooccurring_pairs(self):
        txns = [CacheTransaction(0, (1, 2, 3)), CacheTransaction(1, (3, 4))]
        assert cooccurring_pairs(TransactionLog.of(txns)) == {(1, 2), (1, 3), (2, 3), (3, 4)}

    @pytest.mark.parametrize("pair_batch", [features.PAIR_BATCH, 3])
    def test_matches_reference(self, monkeypatch, pair_batch):
        # members in insertion order, large and negative addresses, empty
        # and one-member transactions; a pair batch of 3 splits the pairs
        monkeypatch.setattr(features, "PAIR_BATCH", pair_batch)
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 25)
            universe = rng.sample(range(-(1 << 40), 1 << 40), n)
            txns = [
                CacheTransaction(i, tuple(rng.sample(universe, rng.randint(0, n))))
                for i in range(rng.randint(0, 12))
            ]
            assert cooccurring_pairs(TransactionLog.of(txns)) == ref_cooccurring_pairs(txns)
        assert cooccurring_pairs(TransactionLog.of([])) == set()

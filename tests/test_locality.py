import random

import numpy as np
import pytest

from conftest import make_trace
from ctgroup import features, locality
from ctgroup.errors import UnknownDatumError
from ctgroup.locality import (
    access_count_gap_report,
    access_index,
    always_followed_pairs,
    cooccurring_pairs,
    make_histogram,
    related_pair_distance_histogram,
    relation_strength,
    relation_strengths,
)
from ctgroup.transactions import CacheTransaction, TransactionLog
from reference import (
    ref_access_index,
    ref_always_followed_pairs,
    ref_cooccurring_pairs,
    ref_gap_report,
    ref_make_histogram,
    ref_relation_strength,
)

# the addresses of the hand-made indexes
X, Y, U, V = 10, 20, 30, 40


def index_from_seqs(seqs):
    """The access index of a trace that accesses each address at its
    positions in ``seqs``, and a filler address of its own at every other
    position."""
    length = max(max(positions) for positions in seqs.values()) + 1
    addresses = [1000 + p for p in range(length)]
    for address, positions in seqs.items():
        for p in positions:
            addresses[p] = address
    return access_index(make_trace([(a, 1) for a in addresses]))


def pair_set(pairs):
    x, y = pairs
    return set(zip(x.tolist(), y.tolist()))


class TestRelationStrength:
    def test_hand_evaluated(self):
        # x at {1,5}, y at {2,7}: (min(1,6) + min(3,2)) / 2 = 1.5
        index = index_from_seqs({X: [1, 5], Y: [2, 7]})
        assert relation_strength(index, X, Y) == 1.5

    def test_constant_interval(self):
        index = index_from_seqs({X: [0, 10, 20], Y: [1, 11, 21]})
        assert relation_strength(index, X, Y) == 1.0

    def test_self_distance_zero(self):
        index = index_from_seqs({X: [3, 8, 13]})
        assert relation_strength(index, X, X) == 0.0

    def test_asymmetry(self):
        index = index_from_seqs({X: [0], Y: [1, 100, 200]})
        assert relation_strength(index, X, Y) == 1.0
        assert relation_strength(index, Y, X) == (1 + 100 + 200) / 3

    def test_unknown_datum(self):
        index = index_from_seqs({X: [0]})
        with pytest.raises(UnknownDatumError,
                           match="^block address 99 is never accessed in the trace$"):
            relation_strength(index, X, 99)

    def test_bounded_by_max_gap(self):
        rng = random.Random(11)
        for _ in range(50):
            nx, ny = rng.randint(1, 20), rng.randint(1, 20)
            positions = rng.sample(range(1000), nx + ny)  # one address per position
            xs, ys = sorted(positions[:nx]), sorted(positions[nx:])
            index = index_from_seqs({X: xs, Y: ys})
            w = relation_strength(index, X, Y)
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
        hist = related_pair_distance_histogram(trace)
        (cdf,) = [cdf for _, hi, _, cdf in hist.buckets if hi == d0]
        assert cdf == pytest.approx(0.6)

    def test_histogram_mass_equals_pairs(self):
        values = [3, 5, 5, 900, 17]
        hist = make_histogram(values)
        assert hist.total == len(values)
        assert sum(c for _, _, c, _ in hist.buckets) == len(values)
        assert hist.buckets[-1][3] == pytest.approx(1.0)


class TestGapReport:
    def test_all_equal_counts(self):
        index = index_from_seqs({X: [0, 2], Y: [1, 3]})
        reports = access_count_gap_report(index, ([X], [Y]), [20, 50])
        for rep in reports.values():
            assert rep.equal_fraction == 1.0

    def test_half_equal(self):
        # x:{1,3} y:{2,4} have equal counts; u:{5} v:{6,8} differ
        index = index_from_seqs({X: [1, 3], Y: [2, 4], U: [5], V: [6, 8]})
        reports = access_count_gap_report(index, ([X, U], [Y, V]), [20])
        assert reports[20].num_pairs == 2
        assert reports[20].equal_fraction == 0.5
        assert reports[20].gap_counts == {0: 1, 1: 1}

    def test_empty_pair_set_flagged(self):
        index = index_from_seqs({X: [0], Y: [500]})
        reports = access_count_gap_report(index, ([X], [Y]), [0.5])
        assert reports[0.5].num_pairs == 0
        assert reports[0.5].equal_fraction is None

    def test_limits_required(self):
        index = index_from_seqs({X: [0]})
        with pytest.raises(ValueError):
            access_count_gap_report(index, ([], []), [])


class TestScopeFilter:
    def test_cooccurring_pairs(self):
        txns = [CacheTransaction(0, (1, 2, 3)), CacheTransaction(1, (3, 4))]
        x, y = cooccurring_pairs(TransactionLog.of(txns))
        assert (x.tolist(), y.tolist()) == ([1, 1, 2, 3], [2, 3, 3, 4])

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
            x, y = cooccurring_pairs(TransactionLog.of(txns))
            assert np.all((x[:-1] < x[1:]) | ((x[:-1] == x[1:]) & (y[:-1] < y[1:])))
            assert pair_set((x, y)) == ref_cooccurring_pairs(txns)
        assert pair_set(cooccurring_pairs(TransactionLog.of([]))) == set()


class TestMatchesReference:
    @pytest.mark.parametrize("access_batch", [locality.ACCESS_BATCH, 3])
    def test_matches_reference(self, monkeypatch, access_batch):
        # repeated and back-to-back accesses, addresses up to 2**62, x == y
        # pairs; a batch of 3 x-accesses splits pairs across batches
        monkeypatch.setattr(locality, "ACCESS_BATCH", access_batch)
        rng = random.Random(41)
        for _ in range(150):
            universe = rng.sample(range(1 << 62), rng.randint(1, 8))
            addresses = [rng.choice(universe) for _ in range(rng.randint(1, 60))]
            trace = make_trace([(a, 1) for a in addresses])
            seqs = ref_access_index(addresses)
            index = access_index(trace)
            assert {a: list(index[a].bits) for a in index} == seqs
            for min_occurrences in (1, 2, 3):
                assert (always_followed_pairs(trace, min_occurrences)
                        == ref_always_followed_pairs(addresses, min_occurrences))
            accessed = sorted(seqs)
            pairs = [(rng.choice(accessed), rng.choice(accessed))
                     for _ in range(rng.randint(0, 30))]
            x = np.array([p[0] for p in pairs], dtype=np.int64)
            y = np.array([p[1] for p in pairs], dtype=np.int64)
            assert relation_strengths(index, x, y).tolist() == [
                ref_relation_strength(seqs, *p) for p in pairs]
            limits = [rng.choice([0.5, 1, 2.5, 7, 20, 100]) for _ in range(rng.randint(1, 3))]
            reports = access_count_gap_report(index, (x, y), limits)
            assert {limit: (r.num_pairs, r.equal_count, r.gap_counts)
                    for limit, r in reports.items()} == ref_gap_report(seqs, pairs, limits)
            values = [rng.choice([0, 1, 2, 3, 1 << 20, (1 << 63) - 1, rng.randrange(1 << 63)])
                      for _ in range(rng.randint(0, 20))]
            hist = make_histogram(values)
            assert (hist.buckets, hist.total) == ref_make_histogram(values)


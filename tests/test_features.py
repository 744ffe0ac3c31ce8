import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from reference import reconstruct_transactions
from ctgroup.errors import DimensionMismatchError
from ctgroup.features import (
    CtfVector,
    build_ctf,
    distance,
    load_ctf,
    save_ctf,
    strong_relation,
)
from ctgroup.transactions import (
    CUMULATIVE,
    CacheTransaction,
    ExtractorConfig,
    TransactionLog,
    extract_transactions,
)

bitsets = st.sets(st.integers(min_value=0, max_value=63))


def vec(*bits):
    return CtfVector(sorted(bits))


def txn(index, *members, partial=False):
    return CacheTransaction(index, members, partial)


class TestBuild:
    def test_direct_inversion(self):
        matrix = build_ctf(TransactionLog.of([txn(0, 10, 20), txn(1, 20, 30)]))
        assert matrix.num_transactions == 2
        assert matrix[10].bits == (0,)
        assert matrix[20].bits == (0, 1)
        assert matrix[30].bits == (1,)

    def test_empty_log(self):
        matrix = build_ctf(TransactionLog.of([]))
        assert matrix.num_transactions == 0
        assert not matrix.rows

    def test_reconstruction_roundtrip(self):
        txns = [txn(0, 1, 2, 3), txn(1, 2), txn(2, 3, 1)]
        matrix = build_ctf(TransactionLog.of(txns))
        assert reconstruct_transactions(matrix) == [
            set(t.members) for t in txns
        ]

    def test_partial_excluded_by_default(self):
        txns = [txn(0, 1), txn(1, 2, partial=True)]
        assert 2 not in build_ctf(TransactionLog.of(txns))
        matrix = build_ctf(TransactionLog.of(txns), include_partial=True)
        assert matrix[2].bits == (1,)
        assert matrix.num_transactions == 2

    def test_non_consecutive_indices_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_ctf(TransactionLog.of([txn(1, 5)]))


class TestVectorStorage:
    @given(bitsets, bitsets)
    def test_equality_hash_and_index_set(self, a, b):
        # equal iff the index sets are, whatever the dims, as when each
        # vector also held a frozenset of its indices
        x, y = CtfVector(sorted(a)), CtfVector(sorted(b), dim=64)
        assert (x == y) == (a == b)
        assert len({x, y}) == len({frozenset(a), frozenset(b)})
        if a == b:
            assert hash(x) == hash(y)
        assert x != sorted(a)
        assert x.index_set == frozenset(a)
        assert type(x.index_set) is frozenset
        # the indices are stored once, as the ascending tuple
        assert x.bits == tuple(sorted(a))
        assert not hasattr(x, "__dict__")
        assert not any(isinstance(getattr(x, slot), (set, frozenset))
                       for slot in CtfVector.__slots__)


class TestDistance:
    def test_identical(self):
        assert distance(vec(0, 1), vec(0, 1)) == 0

    def test_disjoint_singletons(self):
        assert distance(vec(0), vec(1)) == 2

    def test_symmetric_difference(self):
        # symmetric difference of {0,1,2} and {1,2,3} is {0,3}
        assert distance(vec(0, 1, 2), vec(1, 2, 3)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance(CtfVector([0], dim=4), CtfVector([1], dim=5))

    @given(bitsets, bitsets)
    def test_symmetry_and_identity(self, a, b):
        x, y = CtfVector(sorted(a)), CtfVector(sorted(b))
        assert distance(x, y) == distance(y, x)
        assert (distance(x, y) == 0) == (a == b)

    @given(bitsets, bitsets, bitsets)
    def test_triangle_inequality(self, a, b, c):
        x, y, z = (CtfVector(sorted(s)) for s in (a, b, c))
        assert distance(x, z) <= distance(x, y) + distance(y, z)


class TestStrongRelation:
    def test_sigma_zero_requires_identical(self):
        assert strong_relation(vec(0, 2), vec(0, 2), 0.0)
        assert not strong_relation(vec(0, 2), vec(0, 1), 0.0)

    def test_disjoint_singletons_fail_even_at_one(self):
        # distance 2 > ((1+1)/2)*1
        assert not strong_relation(vec(0), vec(1), 1.0)

    def test_real_valued_threshold(self):
        # distance 1 <= ((4+3)/2)*0.5 = 1.75
        assert strong_relation(vec(0, 1, 2, 3), vec(0, 1, 2), 0.5)

    @given(bitsets, bitsets, st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_monotone_in_sigma(self, a, b, s1, s2):
        lo, hi = sorted((s1, s2))
        x, y = CtfVector(sorted(a)), CtfVector(sorted(b))
        if strong_relation(x, y, lo):
            assert strong_relation(x, y, hi)


class TestAccessFrequency:
    def test_values(self):
        assert vec().popcount() == 0
        assert vec(0, 1).popcount() == 2
        n = 57
        assert CtfVector(range(n)).popcount() == n


class TestSizeEffect:
    def test_larger_data_co_occur_with_fewer_data(self):
        # one datum of size M/2 among unit-size data: its transactions have
        # fewer co-members on average
        rng = random.Random(42)
        m = 32
        big = 999
        pairs = []
        for _ in range(4000):
            if rng.random() < 0.1:
                pairs.append((big, m // 2))
            else:
                pairs.append((rng.randrange(200), 1))
        txns = extract_transactions(make_trace(pairs), ExtractorConfig(m, CUMULATIVE))
        matrix = build_ctf(txns)
        sizes = [len(t.members) for t in txns if not t.partial]

        def mean_comembers(addr):
            lengths = [sizes[j] - 1 for j in matrix[addr].bits]
            return sum(lengths) / len(lengths)

        small_means = [
            mean_comembers(a) for a in matrix.rows if a != big
        ]
        assert mean_comembers(big) < sum(small_means) / len(small_means)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        matrix = build_ctf(TransactionLog.of([txn(0, 5, 9), txn(1, 9), txn(2, 5, 7)]))
        path = tmp_path / "ctf.tsv"
        save_ctf(path, matrix, config_hash="xyz")
        loaded, header = load_ctf(path)
        assert loaded.num_transactions == matrix.num_transactions
        assert {a: v.bits for a, v in loaded.rows.items()} == {
            a: v.bits for a, v in matrix.rows.items()
        }
        assert header["config_hash"] == "xyz"

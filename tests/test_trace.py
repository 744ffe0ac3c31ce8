import io
import random

import numpy as np
import pytest

from ctgroup.errors import (
    ConfigError,
    EmptyTraceError,
    RejectedRecordError,
    TraceParseError,
)
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.trace import AccessRecord, Op, Trace, load_trace, parse_record
from reference import ref_first_seen_sizes, ref_load_trace, ref_synthesize_trace

MSR_LINE = "128166372003061629,hm,0,Read,383496192,32768,1331"


class TestParseRecord:
    def test_msr_convention_line(self):
        rec = parse_record(MSR_LINE)
        assert rec == AccessRecord(128166372003061629, 383496192, 32768, Op.READ)

    def test_minimal_write(self):
        assert parse_record("1,h,0,Write,0,4096,0") == AccessRecord(
            1, 0, 4096, Op.WRITE
        )

    def test_case_insensitive_op(self):
        assert parse_record("1,h,0,READ,0,1,0").op == Op.READ
        assert parse_record("1,h,0,write,0,1,0").op == Op.WRITE

    def test_negative_size_rejected(self):
        with pytest.raises(RejectedRecordError):
            parse_record("1,h,0,Read,0,-5,0")

    def test_zero_size_rejected(self):
        with pytest.raises(RejectedRecordError):
            parse_record("1,h,0,Read,0,0,0")

    @pytest.mark.parametrize(
        "line",
        [
            "1,h,0,Read,0,4096",  # 6 fields
            "1,h,0,Read,0,4096,0,extra",  # 8 fields
            "x,h,0,Read,0,4096,0",  # bad timestamp
            "1,h,0,Flush,0,4096,0",  # bad op
            "1,h,0,Read,abc,4096,0",  # bad offset
        ],
    )
    def test_malformed(self, line):
        with pytest.raises(TraceParseError):
            parse_record(line)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(TraceParseError) as err:
            parse_record("nope", line_no=42)
        assert err.value.line_no == 42
        assert "line 42" in str(err.value)


class TestLoadTrace:
    def write(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        return path

    def test_order_preserved(self, tmp_path):
        path = self.write(
            tmp_path,
            "1,h,0,Read,0,4096,0\n2,h,0,Write,4096,512,0\n3,h,0,Read,8192,1,0\n",
        )
        trace = load_trace(path)
        assert len(trace) == 3
        assert [r.block_address for r in trace] == [0, 4096, 8192]
        assert trace.skipped == 0

    def test_skip_malformed(self, tmp_path):
        path = self.write(
            tmp_path, "1,h,0,Read,0,4096,0\ngarbage\n3,h,0,Read,8192,1,0\n"
        )
        with pytest.raises(TraceParseError):
            load_trace(path)
        trace = load_trace(path, skip_malformed=True)
        assert len(trace) == 2
        assert trace.skipped == 1

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(EmptyTraceError):
            load_trace(path)

    def test_header_row_skipped(self, tmp_path):
        path = self.write(
            tmp_path, "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"
            "1,h,0,Read,0,4096,0\n"
        )
        trace = load_trace(path)
        assert len(trace) == 1
        assert trace.skipped == 0

    def test_host_disk_filter(self, tmp_path):
        path = self.write(
            tmp_path,
            "1,a,0,Read,0,1,0\n2,b,0,Read,4,1,0\n3,a,1,Read,8,1,0\n",
        )
        assert len(load_trace(path, host="a")) == 2
        assert len(load_trace(path, host="a", disk="1")) == 1

    def test_ops_filter(self, tmp_path):
        path = self.write(tmp_path, "1,h,0,Read,0,1,0\n2,h,0,Write,4,1,0\n")
        assert len(load_trace(path, ops="read")) == 1
        assert len(load_trace(path, ops="write")) == 1
        assert len(load_trace(path, ops="both")) == 2

    def test_roundtrip(self, tmp_path):
        rng = random.Random(7)
        records = [
            AccessRecord(i, rng.randrange(1 << 40), rng.randint(1, 1 << 20),
                         rng.choice([Op.READ, Op.WRITE]))
            for i in range(50)
        ]
        trace = Trace.from_records(records, source_label="rt")
        out = tmp_path / "out.csv"
        trace.save(out)
        again = load_trace(out)
        assert list(again) == list(trace)


class TestSplit:
    def test_prefix_split(self):
        trace = Trace.from_records(
            [AccessRecord(i, i * 8, 1, Op.READ) for i in range(10)]
        )
        train, test = trace.split(3)
        assert [r.timestamp for r in train] == [0, 1, 2]
        assert [r.timestamp for r in test] == list(range(3, 10))

    def test_full_length_split_rejected(self):
        trace = Trace.from_records([AccessRecord(0, 0, 1, Op.READ)] * 4)
        with pytest.raises(ConfigError):
            trace.split(4)
        with pytest.raises(ConfigError):
            trace.split(0)

    def test_partition_identity(self):
        rng = random.Random(3)
        records = [
            AccessRecord(i, rng.randrange(100), rng.randint(1, 9), Op.READ)
            for i in range(37)
        ]
        trace = Trace.from_records(records)
        for count in (1, 10, 36):
            train, test = trace.split(count)
            assert list(train) + list(test) == records


class TestSynthesize:
    def spec(self, **kw):
        base = dict(num_data=6, num_accesses=60,
                    group_structure=[(3, 1.0), (3, 1.0)], rng_seed=5)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_runs_cover_exactly_one_group(self):
        trace, truth = synthesize_trace(self.spec())
        group_sets = [frozenset(g) for g in truth.groups]
        addrs = trace.addresses.tolist()
        i = 0
        while i < len(addrs):
            run = frozenset(addrs[i:i + 3])
            if len(addrs) - i < 3:
                # truncated final run: prefix of one group
                assert any(run <= g for g in group_sets)
                break
            assert run in group_sets
            i += 3

    def test_deterministic(self):
        t1, truth1 = synthesize_trace(self.spec())
        t2, truth2 = synthesize_trace(self.spec())
        assert list(t1) == list(t2)
        assert truth1.groups == truth2.groups

    def test_seed_changes_output(self):
        t1, _ = synthesize_trace(self.spec())
        t2, _ = synthesize_trace(self.spec(rng_seed=6))
        assert list(t1) != list(t2)

    def test_zero_accesses(self):
        with pytest.raises(EmptyTraceError):
            synthesize_trace(self.spec(num_accesses=0))

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            synthesize_trace(self.spec(group_structure=[(3, 1.5)]))

    def test_spec_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "num_data=6\nnum_accesses=60\ngroups=3x1.0,3x1.0\nrng_seed=5\n"
        )
        spec = SyntheticSpec.from_file(path)
        t1, _ = synthesize_trace(spec)
        t2, _ = synthesize_trace(self.spec())
        assert list(t1) == list(t2)

    @pytest.mark.parametrize("text, message", [
        ("num_data=6\nnum_accesses=60\nsize_mx=8192\n", "unknown synthetic spec key 'size_mx'"),
        ("num_data=6\n", "missing key 'num_accesses'"),
        ("num_data=6\nnum_accesses=sixty\n", "bad synthetic spec value"),
        ("num_data=6\nnum_accesses\n", "line 2: no '='"),
    ])
    def test_spec_file_errors(self, tmp_path, text, message):
        path = tmp_path / "spec.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            SyntheticSpec.from_file(path)


def assert_same_trace(got, want):
    for column in ("timestamps", "addresses", "sizes", "ops"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    assert got.source_label == want.source_label
    assert got.skipped == want.skipped


def random_spec(rng: random.Random) -> SyntheticSpec:
    num_data = rng.randint(1, 60)
    structure = []
    free = num_data
    while free and rng.random() < 0.7:
        size = rng.randint(1, min(free, 9))
        prob = rng.choice([0.0, 0.2, 0.5, 0.9, 1.0, rng.random()])
        structure.append((size, prob))
        free -= size
    if free and rng.random() < 0.3:
        structure.append((free, rng.choice([0.0, 0.6, 1.0])))  # every datum grouped
    size_min = rng.choice([1, 512, 4096])
    return SyntheticSpec(
        num_data=num_data,
        num_accesses=rng.randint(1, 400),
        group_structure=structure,
        size_min=size_min,
        size_max=size_min + rng.choice([0, 0, 1, 7, 4096]),
        rng_seed=rng.randrange(1 << 32),
        address_stride=rng.choice([1, 512, 4096]),
        # small gaps make neighbouring regions overlap
        region_gap=rng.choice([4096, 1 << 20]),
    )


class TestSynthesizeOracle:
    """synthesize_trace against the record-by-record reference generator."""

    def check(self, spec):
        got, got_truth = synthesize_trace(spec)
        want, want_truth = ref_synthesize_trace(spec)
        assert_same_trace(got, want)
        assert got_truth == want_truth
        assert list(got_truth.sizes.items()) == list(want_truth.sizes.items())

    def test_random_specs(self):
        rng = random.Random(2024)
        for _ in range(300):
            self.check(random_spec(rng))

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("prob", [0.0, 0.4, 1.0])
    def test_last_run_cut(self, seed, prob):
        # 8-member groups and 8k+5 accesses: the final run stops mid-group
        spec = SyntheticSpec(
            num_data=40, num_accesses=8 * 25 + 5,
            group_structure=[(8, prob)] * 4, size_min=100, size_max=200,
            rng_seed=seed,
        )
        self.check(spec)

    def test_every_datum_grouped(self):
        spec = SyntheticSpec(
            num_data=12, num_accesses=500,
            group_structure=[(4, 0.0), (4, 0.5), (4, 1.0)], rng_seed=3,
        )
        self.check(spec)
        _, truth = synthesize_trace(spec)
        assert truth.ungrouped == ()


def random_csv_line(rng: random.Random) -> str:
    """One CSV line, valid or broken in one of the ways the parser meets."""
    kind = rng.random()
    if kind < 0.06:
        return rng.choice(["", "   ", "\t"])
    if kind < 0.12:
        return ",".join(str(rng.randrange(9)) for _ in range(rng.choice([1, 6, 8])))
    if kind < 0.15:
        return rng.choice(["garbage", "Timestamp,Hostname,DiskNumber,Type,Offset,Size,"
                           "ResponseTime", ",,,,,,"])
    timestamp = rng.choice([str(rng.randrange(10**18)), f"+{rng.randrange(99)}",
                            "1_000", f" {rng.randrange(99)} ", "-3", "12a"])
    host = rng.choice(["a", "b", " a ", "a b"])
    disk = rng.choice(["0", "1", " 0"])
    op = rng.choice(["Read", "Write", "READ", " write ", "Flush", ""])
    offset = rng.choice([str(rng.randrange(1 << 40)), str(4096 * rng.randrange(9)),
                         "+8", "4_096", "-4096", "0", "abc", " 512 "])
    size = rng.choice([str(rng.randint(1, 1 << 16)), "4096", "0", "-1", "+512",
                       "1_024", "x", " 64 "])
    response = rng.choice(["0", "17", "", "n/a"])
    return ",".join([timestamp, host, disk, op, offset, size, response])


def random_csv(rng: random.Random) -> bytes:
    lines = [random_csv_line(rng) for _ in range(rng.randint(0, 30))]
    if rng.random() < 0.3:
        lines.insert(0, "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime")
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    return text.encode()


def outcome(load, path, **kwargs):
    """A loaded trace, or the (type, message, line number) of the error."""
    try:
        return load(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc), getattr(exc, "line_no", None)


class TestLoadTraceOracle:
    """load_trace against the record-by-record reference loader."""

    def test_random_csvs(self, tmp_path):
        rng = random.Random(77)
        path = tmp_path / "trace.csv"
        loaded = raised = 0
        for _ in range(600):
            path.write_bytes(random_csv(rng))
            kwargs = {
                "skip_malformed": rng.random() < 0.7,
                "ops": rng.choice(["both", "both", "read", "write"]),
                "host": rng.choice([None, None, "a", "b"]),
                "disk": rng.choice([None, None, "0"]),
                "max_records": rng.choice([None, None, 1, rng.randint(1, 20)]),
                "source_label": rng.choice([None, "vol"]),
            }
            got = outcome(load_trace, path, **kwargs)
            want = outcome(ref_load_trace, path, **kwargs)
            if isinstance(want, Trace):
                assert isinstance(got, Trace), (got, kwargs)
                assert_same_trace(got, want)
                loaded += 1
            else:
                assert got == want, kwargs
                raised += 1
        # both branches exercised
        assert loaded > 100 and raised > 100

    def test_strict_errors_name_the_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = ["1,h,0,Read,0,4096,0", "2,h,0,Read,-4096,4096,0",
                "3,h,0,Read,0,0,0", "4,h,0,Flush,0,1,0", "5,h,0,Read,0,1",
                "6,h,0,Read,x,1,0"]
        for bad in range(1, len(rows)):
            path.write_text("\n".join(rows[:1] + [rows[bad]]) + "\n")
            got = outcome(load_trace, path)
            assert got == outcome(ref_load_trace, path)
            assert got[2] == 2

    def test_empty_after_ops_filter(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,h,0,Read,0,4096,0\n")
        got = outcome(load_trace, path, ops="write")
        assert got == outcome(ref_load_trace, path, ops="write")
        assert got[0] is EmptyTraceError


class TestFirstSeenSizes:
    def test_matches_first_access_loop(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 300)
            records = [
                AccessRecord(i, rng.randrange(rng.choice([3, 40, 1 << 40])),
                             rng.randint(1, 64), Op.READ)
                for i in range(n)
            ]
            trace = Trace.from_records(records)
            got = trace.first_seen_sizes()
            want = ref_first_seen_sizes(trace)
            assert list(got.items()) == list(want.items())

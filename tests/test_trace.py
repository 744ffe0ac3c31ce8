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
from ctgroup import synthetic
from ctgroup.synthetic import SyntheticSpec, synthesize_trace
from ctgroup.trace import AccessRecord, Op, Trace, load_trace, parse_record
from reference import ref_first_seen_sizes, ref_load_trace, ref_synthesize_trace

MSR_LINE = "128166372003061629,hm,0,Read,383496192,32768,1331"
HEADER = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"


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

    def test_undecodable_byte_is_a_line_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"1,h,0,Read,0,4096,0\n2,h\xff,0,Read,8,1,0\n"
                         b"3,h,0,Read,9,1,0\n")
        with pytest.raises(TraceParseError, match="line 2: byte 0xff") as err:
            load_trace(path)
        assert err.value.line_no == 2
        trace = load_trace(path, skip_malformed=True)
        assert [r.block_address for r in trace] == [0, 9]
        assert trace.skipped == 1

    def test_value_beyond_int64_is_a_line_error(self, tmp_path):
        path = self.write(tmp_path,
                          "1,h,0,Read,0,1,0\n99999999999999999999,h,0,Read,8,1,0\n")
        with pytest.raises(TraceParseError, match="line 2: .*out of int64 range"):
            load_trace(path)
        assert load_trace(path, skip_malformed=True).skipped == 1

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


def assert_same_outcome(got, want, kwargs=None):
    """Both loaders returned equal traces or raised the same error."""
    if isinstance(want, Trace):
        assert isinstance(got, Trace), (got, kwargs)
        assert_same_trace(got, want)
    else:
        assert got == want, kwargs


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

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_tiny_word_blocks(self, monkeypatch, block):
        # blocks end inside runs, member draws and fallback draws alike
        monkeypatch.setattr(synthetic, "WORD_BLOCK", block)
        rng = random.Random(block)
        for _ in range(40):
            self.check(random_spec(rng))
        self.check(SyntheticSpec(num_data=60, num_accesses=2000, rng_seed=block,
                                 group_structure=[(8, 0.4), (16, 0.0), (32, 0.9)]))

    @pytest.mark.parametrize("size_max", [2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3,
                                          2**63 - 1])
    def test_wide_size_range(self, size_max):
        # size_max - size_min >= 2**32 makes randint take two words a try
        spec = SyntheticSpec(num_data=30, num_accesses=500, size_min=1, size_max=size_max,
                             group_structure=[(5, 0.5), (5, 1.0)], rng_seed=9)
        self.check(spec)

    def test_prob_zero_groups(self):
        # every run of a group draws its fallback member
        spec = SyntheticSpec(num_data=300, num_accesses=20000, rng_seed=4,
                             group_structure=[(3, 0.0), (8, 0.0), (32, 0.0)] * 5)
        self.check(spec)

    @pytest.mark.parametrize("size, prob", [(1, 1.0), (1, 0.3), (7, 1.0), (7, 0.0),
                                            (40, 0.5)])
    def test_one_unit(self, size, prob):
        spec = SyntheticSpec(num_data=size, num_accesses=3000, rng_seed=2,
                             group_structure=[(size, prob)])
        self.check(spec)

    @pytest.mark.parametrize("shape", ["planted", "cluster"])
    def test_benchmark_shapes(self, shape):
        # perfbench's planted-300k and cluster-heavy specs at 20k accesses
        if shape == "planted":
            spec = SyntheticSpec(num_data=20000, num_accesses=20000, rng_seed=11,
                                 group_structure=[(8, 1.0)] * 2000)
        else:
            spec = SyntheticSpec(num_data=8000, num_accesses=20000, rng_seed=11,
                                 group_structure=[(8, 0.8)] * 150 + [(16, 0.8)] * 100
                                 + [(32, 0.8)] * 50)
        self.check(spec)

    def test_spec_outside_int64(self):
        with pytest.raises(ConfigError, match="below 2"):
            synthesize_trace(SyntheticSpec(num_data=2, num_accesses=5, size_max=2**63))
        with pytest.raises(ConfigError, match="below 2"):
            synthesize_trace(SyntheticSpec(num_data=3, num_accesses=5, region_gap=2**62))


class TestMersenneStream:
    """The words synthetic unpacks from one getrandbits call, and the draw
    rules it copies from CPython's random module, equal random.Random's own
    draws, so a change to either in CPython fails here."""

    SEEDS = [0, 1, 7, 2**40 + 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words(self, seed):
        words = synthetic._words(random.Random(seed), 2000)
        rng = random.Random(seed)
        assert words.tolist() == [rng.getrandbits(32) for _ in range(2000)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random(self, seed):
        uniform = synthetic._uniform(synthetic._words(random.Random(seed), 2000))
        rng = random.Random(seed)
        assert uniform[::2].tolist() == [rng.random() for _ in range(1000)]

    @pytest.mark.parametrize("k", range(33))
    def test_randrange_around_powers_of_two(self, k):
        for n in sorted({max(2**k - 1, 1), 2**k, 2**k + 1}):
            rng = random.Random(k)
            values, accepted = synthetic._tries(synthetic._words(random.Random(k), 400), n)
            drawn = values[accepted].tolist()
            assert drawn == [rng.randrange(n) for _ in drawn], n
            if n >= 2**32:
                continue
            # the fallback rule: the first accepted try from each start
            words = synthetic._words(random.Random(k), 400)
            start = np.arange(8)
            found, value = synthetic._first_below(words, start, np.full(8, n))
            for s, at, v in zip(start.tolist(), found.tolist(), value.tolist()):
                rng = random.Random(k)
                for _ in range(s):
                    rng.getrandbits(32)
                assert v == rng.randrange(n), n
                assert words[at + 1] == rng.getrandbits(32), n

    @pytest.mark.parametrize("k", range(0, 64, 3))
    def test_randint(self, k):
        for low, high in ((5, 5 + 2**k - 1), (1, 2**k), (3, 2**k + 3)):
            if high >= 2**63:
                continue
            drawn, rest = synthetic._randint(random.Random(k), low, high, 100)
            rng = random.Random(k)
            assert drawn.tolist() == [rng.randint(low, high) for _ in range(100)]
            # the words left over continue the stream
            assert rest.tolist() == [rng.getrandbits(32) for _ in range(len(rest))]


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
        lines.insert(0, HEADER)
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    return text.encode()


def outcome(load, path, **kwargs):
    """A loaded trace, or the (type, message, line number) of the error."""
    try:
        return load(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc), getattr(exc, "line_no", None)


def canonical_line(rng: random.Random) -> bytes:
    """A line the block parser takes: digits, Read or Write, ASCII host."""
    return (f"{rng.randrange(10**18)},{rng.choice('ab')},{rng.choice('01')},"
            f"{rng.choice(['Read', 'Write'])},{rng.randrange(1 << 40)},"
            f"{rng.randint(1, 1 << 16)},{rng.choice(['0', '17', 'n/a', ''])}").encode()


def odd_line(rng: random.Random) -> bytes:
    """A line that takes the per-line path: blank, header, padded or signed
    ints, long values, non-ASCII text, odd ops, or a byte that is not UTF-8."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([b"", b"  ", b"\t", b"\x0c", b"\xc2\xa0", HEADER.encode()])
    if kind == 1:
        return random_csv_line(rng).encode()
    fields = canonical_line(rng).split(b",")
    if kind == 2:  # 19 digits or more, in or out of int64
        fields[rng.choice([0, 4, 5])] = rng.choice([
            str(rng.randrange(10**18, 10**24)), "0" * 19 + "7", str((1 << 63) - 1),
            str(1 << 63), f"-{1 << 63}", f"-{(1 << 63) + 1}"]).encode()
    elif kind == 3:
        k = rng.choice([1, 2, 6])
        fields[k] = rng.choice(["hôst", "主机", "a ", " b", "\x1fa", "٣"]).encode()
    elif kind == 4:
        k = rng.choice([0, 3, 4, 5])
        fields[k] = rng.choice(
            {0: [b"+5", b"1_000", b" 7", b"-3", b"\xd9\xa3"],
             3: [b"read", b"WRITE", b" Read"],
             4: [b"-4096", b"+8", b"0x10"],
             5: [b"0", b"00", b"-1", b"1_024"]}[k])
    else:  # bytes that are not UTF-8
        line = b",".join(fields)
        at = rng.randrange(len(line) + 1)
        bad = rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80x"])
        return line[:at] + bad + line[at:]
    return b",".join(fields)


def long_csv(rng: random.Random, lines: int) -> bytes:
    odd_share = rng.choice([0.0, 0.002, 0.05, 0.3])
    ends = [b"\n"] * 8 + [b"\r\n", b"\r"]
    out = [HEADER.encode() + b"\n"] if rng.random() < 0.3 else []
    for _ in range(lines):
        line = odd_line(rng) if rng.random() < odd_share else canonical_line(rng)
        out.append(line + rng.choice(ends))
    if out and rng.random() < 0.3:
        out[-1] = out[-1].rstrip(b"\r\n")
    return b"".join(out)


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

    def check_long_csvs(self, path, rng, files, lines):
        """Compare both loaders on random CSVs of lines[0] to lines[1] lines
        under random options, every other one with max_records; returns how
        many loaded, and how many of those max_records cut."""
        loaded = cut = 0
        for i in range(files):
            n = rng.randint(*lines)
            path.write_bytes(long_csv(rng, n))
            kwargs = {
                "skip_malformed": rng.random() < 0.7,
                "ops": rng.choice(["both", "both", "read", "write"]),
                "host": rng.choice([None, None, None, "a", "b", " a", "hôst"]),
                "disk": rng.choice([None, None, "0", "1"]),
                "max_records": rng.choice([0, 1, rng.randint(1, n)]) if i % 2 else None,
            }
            want = outcome(ref_load_trace, path, **kwargs)
            assert_same_outcome(outcome(load_trace, path, **kwargs), want, kwargs)
            if isinstance(want, Trace):
                loaded += 1
                cut += kwargs["max_records"] is not None
        return loaded, cut

    @pytest.mark.parametrize("block, lines", [(1, 150), (7, 150), (64, 200),
                                              (1000, 3000)])
    def test_long_csvs_in_small_blocks(self, tmp_path, monkeypatch, block, lines):
        monkeypatch.setattr("ctgroup.trace.READ_BLOCK", block)
        loaded, cut = self.check_long_csvs(tmp_path / "trace.csv", random.Random(block),
                                           files=24, lines=(1, lines))
        assert 6 < loaded < 22 and cut > 3

    def test_long_csvs_in_default_blocks(self, tmp_path):
        # 8k lines or more, about 400 kB, span two READ_BLOCKs or more
        loaded, cut = self.check_long_csvs(tmp_path / "trace.csv", random.Random(9),
                                           files=8, lines=(8000, 16000))
        assert 1 < loaded < 8 and cut > 0

    @pytest.mark.parametrize("skip_malformed", [False, True])
    def test_cut_before_a_malformed_line_in_its_block(self, tmp_path, skip_malformed):
        rng = random.Random(5)
        lines = [canonical_line(rng) for _ in range(6)]
        lines.insert(3, b"7,h,0,Read,\xff,1,0")
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        got = load_trace(path, skip_malformed=skip_malformed, max_records=3)
        assert len(got) == 3 and got.skipped == 0  # line 4 is never parsed
        assert_same_trace(got, ref_load_trace(path, skip_malformed=skip_malformed,
                                              max_records=3))
        kwargs = {"skip_malformed": skip_malformed, "max_records": 4}
        assert_same_outcome(outcome(load_trace, path, **kwargs),
                            outcome(ref_load_trace, path, **kwargs))


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

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_matches_first_access_loop_in_small_blocks(self, monkeypatch, block):
        # addresses first seen in later blocks, and blocks with none new
        monkeypatch.setattr("ctgroup.trace.ROW_BLOCK", block)
        rng = random.Random(32 + block)
        for _ in range(100):
            n = rng.randint(1, 400)
            distinct = rng.choice([1, 5, 60, n])
            records = [
                AccessRecord(i, rng.randrange(distinct) * 4096 + rng.choice([0, 1 << 40]),
                             rng.randint(1, 64), Op.READ)
                for i in range(n)
            ]
            trace = Trace.from_records(records)
            want = ref_first_seen_sizes(trace)
            assert list(trace.first_seen_sizes().items()) == list(want.items())
            assert trace.total_unique_bytes() == sum(want.values())

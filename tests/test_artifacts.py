import numpy as np
import pytest

from ctgroup import artifacts
from ctgroup.chunking import load_chunk_members
from ctgroup.errors import ConfigError, DataError, InvariantError
from ctgroup.features import Partition, load_ctf
from ctgroup.grouping import load_grouping_members
from ctgroup.pipeline import PipelineConfig, run_pipeline
from ctgroup.transactions import (
    SNAPSHOT,
    ExtractorConfig,
    TransactionLog,
    load_transactions,
    save_transactions,
)

INT64_MAX = (1 << 63) - 1


def read(tmp_path, text, **kwargs):
    path = tmp_path / "a.tsv"
    path.write_bytes(text.encode())
    return artifacts.read_rows(path, **kwargs)


def as_lists(rows):
    """(ids, value lists, flagged, line numbers) of Rows, as Python lists."""
    bounds = rows.offsets.tolist()
    values = rows.values.tolist()
    return (rows.ids.tolist(), [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
            rows.flagged.tolist(), rows.lines.tolist())


def test_roundtrip_with_columns(tmp_path):
    path = tmp_path / "a.csv"
    artifacts.write(path, {"k": 1, "config_hash": "h1"}, ("1,2", "3,4"), columns="a,b")
    assert path.read_text() == "# k=1 config_hash=h1\na,b\n1,2\n3,4\n"
    rows = artifacts.read_rows(path, "h1", sep=",", columns="a,b")
    assert rows.header == {"k": "1", "config_hash": "h1"}
    assert as_lists(rows) == ([1, 3], [[2], [4]], [False, False], [3, 4])


def test_list_lines_roundtrip(tmp_path):
    rows = [(0, [5, 6]), (1, []), (2, (7,))]
    assert list(artifacts.list_lines(rows)) == ["0\t5,6", "1\t", "2\t7"]
    assert list(artifacts.list_lines([])) == []
    path = tmp_path / "a.tsv"
    artifacts.write(path, {"config_hash": "h"}, artifacts.list_lines(rows))
    rows = artifacts.read_rows(path)
    assert as_lists(rows) == ([0, 1, 2], [[5, 6], [], [7]], [False, False, False], [2, 3, 4])


@pytest.mark.parametrize("offsets", [[0, 1], [0, 2, 2, 3]])
def test_only_a_partial_log_flags_its_last_row(tmp_path, offsets):
    path = tmp_path / "t.tsv"
    members = np.arange(5, 5 + offsets[-1])
    for partial in (False, True):
        log = TransactionLog(members, np.array(offsets), partial)
        save_transactions(path, log, ExtractorConfig(8), config_hash="h")
        lines = path.read_text().splitlines()[1:]
        assert [line.endswith("\tpartial") for line in lines] == (
            [False] * (len(lines) - 1) + [partial])
        loaded = load_transactions(path)[0]
        assert (loaded.members.tolist(), loaded.offsets.tolist(), loaded.partial) == (
            members.tolist(), offsets, partial)


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "a.tsv"
    artifacts.write(path, {"config_hash": "h"}, ["1\t2"])

    def lines():
        yield "5\t6"
        raise RuntimeError("stage failed mid-write")

    with pytest.raises(RuntimeError):
        artifacts.write(path, {"config_hash": "h"}, lines())
    assert path.read_text() == "# config_hash=h\n1\t2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.tsv"]


def test_hash_mismatch_is_invariant_error(tmp_path):
    path = tmp_path / "a.tsv"
    artifacts.write(path, {"config_hash": "h1"}, [])
    with pytest.raises(InvariantError, match="produced under config hash h1"):
        artifacts.read_rows(path, "h2")


@pytest.mark.parametrize("text, columns, message", [
    ("", None, "line 1: no '# key=value' header"),
    ("1\t2\n", None, "line 1: no '# key=value' header"),
    ("# k=1\n", None, "line 1: header has no config_hash"),
    ("# config_hash=h\n", "a,b", "line 2: expected the column line 'a,b'"),
    ("# config_hash=h\na,c\n", "a,b", "line 2: expected the column line 'a,b'"),
    ("# config_hash=h\n1\t2\n\n1\n", None, "line 4: not a row of the form"),
])
def test_malformed_is_data_error(tmp_path, text, columns, message):
    with pytest.raises(DataError, match=message):
        read(tmp_path, text, columns=columns)


def test_missing_files(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        artifacts.read_rows(tmp_path / "none.tsv")
    with pytest.raises(ConfigError, match="cannot read"):
        artifacts.read_keyvalues(tmp_path / "none.cfg")


class TestGrammar:
    """Fields are 1 to 19 ASCII digits within int64; rows are id<TAB>list,
    with an optional trailing flag, or id,value."""

    @pytest.mark.parametrize("row", [
        "+1\t2", "1\t-2", " 1\t2", "1\t 2", "1\t2 ", "1_0\t2", "1\t٣", "1\t0x10",
        "1\t2.0", "1\t1e3", "1\t2,", "1\t,2", "1\t2,,3", "1", "\t2", "1\t2\t",
        "1\t2\tpartial", "1\t2\t3", "1,2\t3",
        f"{INT64_MAX + 1}\t1", f"1\t{INT64_MAX + 1}", "1\t" + "0" * 20,
    ])
    def test_tsv_row_rejected_naming_its_line(self, tmp_path, row):
        with pytest.raises(DataError, match=r"a.tsv, line 3: not a row of the form"):
            read(tmp_path, f"# config_hash=h\n0\t1\n{row}\n2\t3\n")

    @pytest.mark.parametrize("row", ["1\t2\tpartia", "1\t2\tpartial\tpartial",
                                     "1\t2\tPartial", "1\t2\t partial", "1\t2\t3,partial"])
    def test_only_the_exact_flag_word(self, tmp_path, row):
        with pytest.raises(DataError, match="line 2: "):
            read(tmp_path, f"# config_hash=h\n{row}\n", flag="partial")

    @pytest.mark.parametrize("row", ["1,2,3", "1,", ",2", "1", "1\t2", "1,+2", "1, 2"])
    def test_csv_row_rejected_naming_its_line(self, tmp_path, row):
        with pytest.raises(DataError, match=r"a.tsv, line 3: not a row of the form 'id,value'"):
            read(tmp_path, f"# config_hash=h\ngroup_id,block_address\n{row}\n",
                 sep=",", columns="group_id,block_address")

    def test_int64_bounds(self, tmp_path):
        rows = read(tmp_path, f"# config_hash=h\n{INT64_MAX}\t0,{INT64_MAX},1\n0\t\n")
        assert as_lists(rows) == ([INT64_MAX, 0], [[0, INT64_MAX, 1], []],
                                  [False, False], [2, 3])
        assert rows.values.dtype == rows.ids.dtype == np.int64

    def test_empty_lists_and_flags(self, tmp_path):
        rows = read(tmp_path, "# config_hash=h\n0\t\n1\t4\tpartial\n2\t\tpartial\n",
                    flag="partial")
        assert as_lists(rows) == ([0, 1, 2], [[], [4], []], [False, True, True], [2, 3, 4])

    def test_no_rows(self, tmp_path):
        rows = read(tmp_path, "# config_hash=h\n\n")
        assert as_lists(rows) == ([], [], [], [])
        assert rows.offsets.tolist() == [0]


class TestLineEnds:
    TEXT = "# config_hash=h x=1\n0\t5,6\n\n1\t\n2\t7,8,9\tpartial\n"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_any_line_end_reads_the_same(self, tmp_path, end):
        rows = read(tmp_path, self.TEXT.replace("\n", end), flag="partial")
        assert rows.header == {"config_hash": "h", "x": "1"}
        assert as_lists(rows) == ([0, 1, 2], [[5, 6], [], [7, 8, 9]],
                                  [False, False, True], [2, 4, 5])

    def test_last_line_without_end(self, tmp_path):
        rows = read(tmp_path, self.TEXT.rstrip("\n"), flag="partial")
        assert as_lists(rows)[1] == [[5, 6], [], [7, 8, 9]]

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_small_blocks(self, tmp_path, monkeypatch, block):
        lines = [f"{i}\t" + ",".join(str(i * 1000 + k) for k in range(i % 5))
                 for i in range(300)]
        text = "# config_hash=h\r\ncolumns\r\n" + "\r\n".join(lines) + "\r\n"
        whole = read(tmp_path, text, columns="columns")
        monkeypatch.setattr(artifacts, "READ_BLOCK", block)
        assert as_lists(read(tmp_path, text, columns="columns")) == as_lists(whole)
        with pytest.raises(DataError, match="line 250: not a row"):
            read(tmp_path, text.replace("\r\n247\t", "\r\n247\tx"), columns="columns")


class TestChecks:
    def rows(self, tmp_path):
        return read(tmp_path, "# config_hash=h\n0\t1,2\n\n1\t3\n2\t4,5\n")

    def test_earliest_row_wins(self, tmp_path):
        rows = self.rows(tmp_path)
        with pytest.raises(DataError, match=r"line 4: second: '1\\t3'"):
            rows.check((artifacts.first(np.array([False, False, True])), lambda r: "first"),
                       rows.at_value(rows.values == 3, lambda p: "second"))
        rows.check((artifacts.first(np.zeros(3, bool)), lambda r: "none"))

    def test_first_listed_wins_a_tie(self, tmp_path):
        rows = self.rows(tmp_path)
        with pytest.raises(DataError, match=r"line 5: value 5 of row 2"):
            rows.check(rows.at_value(rows.values == 5,
                                     lambda p: f"value {rows.values[p]} of row 2"),
                       (2, lambda r: "row"))

    def test_repeats(self, tmp_path):
        rows = read(tmp_path, "# config_hash=h\n0\t7,3,7\n1\t3,9\n2\t9,1,9,9\n")
        assert rows.repeated().tolist() == [False, False, True, True, False, True,
                                            False, True, True]
        assert rows.repeated(within_rows=True).tolist() == [False, False, True, False,
                                                            False, False, False, True, True]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 18])
    def test_repeats_within_rows_over_slices(self, monkeypatch, block):
        # slices of about ``block`` values, cut only between rows, some of
        # them empty or longer than a slice
        monkeypatch.setattr(artifacts, "READ_BLOCK", block)
        rng = np.random.default_rng(block)
        lengths = rng.choice([0, 1, 2, 4, 9], size=60)
        values = rng.integers(0, 6, lengths.sum())
        offsets = np.append(0, np.cumsum(lengths))
        rows = artifacts.Rows("x", {}, np.arange(60), values, offsets,
                              np.zeros(60, bool), np.arange(60) + 2)
        expected = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            row = values[lo:hi].tolist()
            expected += [v in row[:k] for k, v in enumerate(row)]
        assert rows.repeated(within_rows=True).tolist() == expected


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A pipeline's artifacts, and a snapshot-mode log whose transactions 1
    and 3 are empty and whose last one is partial."""
    out = tmp_path_factory.mktemp("saved")
    spec = out / "spec.cfg"
    spec.write_text("num_data=60\nnum_accesses=3000\ngroups=" + ",".join(["4x1.0"] * 10)
                    + "\nrng_seed=2\n")
    run_pipeline(PipelineConfig.from_mapping(
        {"synthetic": str(spec), "M": "32768", "output_dir": str(out)}))
    log = TransactionLog(np.array([5, 6, 7, 8, 9]), np.array([0, 2, 2, 3, 3, 5]), True)
    save_transactions(out / "snapshot.tsv", log, ExtractorConfig(8, SNAPSHOT),
                      config_hash="h")
    return out


LOADERS = {
    "transactions.tsv": lambda path: load_transactions(path),
    "snapshot.tsv": lambda path: load_transactions(path),
    "ctf.tsv": lambda path: load_ctf(path),
    "chunks.tsv": lambda path: load_chunk_members(path),
    "grouping.csv": lambda path: load_grouping_members(path),
}


def loaded(name, path):
    """What a loader returns, as comparable Python values."""
    value, header = LOADERS[name](path)
    if isinstance(value, TransactionLog):
        value = (value.members.tolist(), value.offsets.tolist(), value.partial)
    elif isinstance(value, Partition):
        value = (value.members.tolist(), value.offsets.tolist())
    else:  # a CtfMatrix
        value = (value.num_transactions, value.addresses.tolist(),
                 value.offsets.tolist(), value.indices.tolist(), value.indices.dtype)
    return value, header


class TestRewrittenLineEnds:
    """Every artifact rewritten with \\r\\n line ends and a blank line
    inserted reads back the same, and errors name the lines of the rewrite."""

    def rewrite(self, saved, tmp_path, name, extra=None):
        lines = (saved / name).read_text().splitlines()
        lines.insert(3, "")
        if extra is not None:
            lines.append(extra)
        path = tmp_path / name
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        return path, len(lines)

    @pytest.mark.parametrize("name", sorted(LOADERS))
    def test_same_arrays(self, saved, tmp_path, name):
        path, _ = self.rewrite(saved, tmp_path, name)
        assert loaded(name, path) == loaded(name, saved / name)

    def test_empty_snapshot_transaction_stays_legal(self, saved):
        assert (saved / "snapshot.tsv").read_text().splitlines()[1:] == [
            "0\t5,6", "1\t", "2\t7", "3\t", "4\t8,9\tpartial"]
        assert loaded("snapshot.tsv", saved / "snapshot.tsv")[0] == (
            [5, 6, 7, 8, 9], [0, 2, 2, 3, 3, 5], True)

    @pytest.mark.parametrize("name, extra, message", [
        ("transactions.tsv", "0\t1", "transaction id 0 is not its position"),
        ("snapshot.tsv", "5\t1,1", "partial transaction 4 is not the last"),
        ("ctf.tsv", "0\t1", "addresses are not strictly ascending"),
        ("ctf.tsv", f"{INT64_MAX}\t2,1", "transaction indices are not strictly ascending"),
        ("ctf.tsv", f"{INT64_MAX}\t1,99999", "transaction index 99999 is not below "
                                             "num_transactions="),
        ("grouping.csv", "0,-1", "not a row of the form 'id,value'"),
        ("chunks.tsv", "x\t1", "not a row of the form"),
    ])
    def test_errors_name_the_line(self, saved, tmp_path, name, extra, message):
        path, line_no = self.rewrite(saved, tmp_path, name, extra)
        with pytest.raises(DataError, match=f"{name}, line {line_no}: {message}"):
            LOADERS[name](path)

    def test_repeated_chunk_address_names_the_line(self, saved, tmp_path):
        first = (saved / "chunks.tsv").read_text().splitlines()[1].split("\t")[1]
        first = first.split(",")[0]
        path, line_no = self.rewrite(saved, tmp_path, "chunks.tsv", f"9999\t{first}")
        with pytest.raises(DataError, match=f"line {line_no}: chunk id 9999 is not"):
            load_chunk_members(path)
        lines = path.read_bytes().split(b"\r\n")
        lines[line_no - 1] = f"{line_no - 3}\t{first}".encode()  # one blank line above
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError, match=f"line {line_no}: address {first} is listed twice"):
            load_chunk_members(path)

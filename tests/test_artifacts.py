import pytest

from ctgroup import artifacts
from ctgroup.errors import ConfigError, DataError, InvariantError


def pair(fields):
    a, b = fields
    return int(a), int(b)


def test_roundtrip_with_columns(tmp_path):
    path = tmp_path / "a.csv"
    artifacts.write(path, {"k": 1, "config_hash": "h1"}, ("1,2", "3,4"), columns="a,b")
    assert path.read_text() == "# k=1 config_hash=h1\na,b\n1,2\n3,4\n"
    header, rows = artifacts.read(path, pair, "h1", sep=",", columns="a,b")
    assert header == {"k": "1", "config_hash": "h1"}
    assert list(rows) == [(1, 2), (3, 4)]


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
        artifacts.read(path, pair, "h2")


@pytest.mark.parametrize("text, message", [
    ("", "line 1: no '# key=value' header"),
    ("# k=1\n", "line 1: header has no config_hash"),
    ("# config_hash=h\n1\t2\n\n1\n", "line 4: not enough values"),
])
def test_malformed_is_data_error(tmp_path, text, message):
    path = tmp_path / "a.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        list(artifacts.read(path, pair)[1])


def test_missing_files(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        artifacts.read(tmp_path / "none.tsv", pair)
    with pytest.raises(ConfigError, match="cannot read"):
        artifacts.read_keyvalues(tmp_path / "none.cfg")

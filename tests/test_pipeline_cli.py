import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from itertools import islice

import pytest

from conftest import both_take_a_unit, no_child_left
from ctgroup import artifacts, chunking, cli, features, locality, pipeline, simulator, transactions
from ctgroup.errors import ConfigError, DataError, InvariantError
from ctgroup.grouping import load_grouping_members
from ctgroup.pipeline import PipelineConfig, PipelineStageError, run_pipeline
from ctgroup.trace import Trace


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "synthetic.cfg"
    groups = ",".join(["4x1.0"] * 8)
    path.write_text(
        f"num_data=40\nnum_accesses=2000\ngroups={groups}\nrng_seed=3\n"
    )
    return path


def config_for(spec_file, out_dir, **extra):
    values = {
        "synthetic": str(spec_file),
        "M": "32768",
        "output_dir": str(out_dir),
    }
    values.update({k: str(v) for k, v in extra.items()})
    return PipelineConfig.from_mapping(values)


def read_artifacts(out_dir):
    return {
        name: (out_dir / name).read_bytes()
        for name in pipeline.ARTIFACTS
    }


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"synthetic": "x", "wibble": "1"})

    def test_requires_exactly_one_source(self, spec_file):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({})
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping(
                {"synthetic": str(spec_file), "trace": "t.csv"}
            )

    def test_string_coercion(self, spec_file, tmp_path):
        cfg = config_for(
            spec_file, tmp_path / "o", sigma="0.25", q="8",
            capacity_fractions="0.1,0.5", policies="lru,fifo",
            include_partial="true",
        )
        assert cfg.sigma == 0.25
        assert cfg.q == 8
        assert cfg.capacity_fractions == (0.1, 0.5)
        assert cfg.policies == ("lru", "fifo")
        assert cfg.include_partial is True

    def test_bad_value_reported_as_config_error(self, spec_file, tmp_path):
        with pytest.raises(ConfigError):
            config_for(spec_file, tmp_path / "o", M="lots")
        with pytest.raises(ConfigError):
            config_for(spec_file, tmp_path / "o", sigma="1.5")

    def test_hash_covers_parameters_not_output_dir(self, spec_file, tmp_path):
        a = config_for(spec_file, tmp_path / "a")
        b = config_for(spec_file, tmp_path / "b")
        assert a.config_hash() == b.config_hash()
        c = config_for(spec_file, tmp_path / "a", sigma="0.3")
        assert c.config_hash() != a.config_hash()

    def test_config_file_with_overrides(self, spec_file, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"synthetic={spec_file}\nM=32768\nsigma=0.1  # comment\n"
        )
        cfg = PipelineConfig.from_file(cfg_path, {"sigma": "0.2"})
        assert cfg.sigma == 0.2
        assert cfg.M == 32768


class TestRunPipeline:
    def test_manifest_and_artifacts(self, spec_file, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(config_for(spec_file, out))
        assert [a["name"] for a in manifest["artifacts"]] == list(pipeline.ARTIFACTS)
        for entry in manifest["artifacts"]:
            assert (out / entry["name"]).exists()
        assert manifest["records"] == 2000
        assert manifest["train_records"] + manifest["test_records"] == 2000
        assert manifest["data"] <= 40
        assert manifest["groups"] >= 1
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_digests_match_files(self, spec_file, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(config_for(spec_file, out))
        for entry in manifest["artifacts"]:
            assert entry["sha256"] == pipeline._digest(out / entry["name"])

    def test_rerun_is_byte_identical(self, spec_file, tmp_path):
        out = tmp_path / "out"
        cfg = config_for(spec_file, out)
        run_pipeline(cfg)
        first = read_artifacts(out)
        first["manifest.json"] = (out / "manifest.json").read_bytes()
        run_pipeline(cfg)
        second = read_artifacts(out)
        second["manifest.json"] = (out / "manifest.json").read_bytes()
        assert first == second

    @pytest.mark.parametrize("extra", [{}, {"sigma": 0.6}, {"q": 1, "p": 1e9}],
                             ids=["sigma-0.1", "sigma-0.6", "one-area"])
    def test_one_and_two_cpus_write_the_same_bytes(self, spec_file, tmp_path, cpus, extra):
        # the planted groups give identical vectors, merged at distance 0
        written = []
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"cpus-{n}"
            run_pipeline(config_for(spec_file, out, **extra))
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1]
        assert set(written[0]) == {*pipeline.ARTIFACTS, "manifest.json"}

    def test_planted_groups_recovered(self, spec_file, tmp_path):
        out = tmp_path / "out"
        cfg = config_for(spec_file, out)
        run_pipeline(cfg)
        groups, _ = load_grouping_members(out / "grouping.csv")
        got = {v for v in groups.parts() if len(v) > 1}
        stride, gap = 4096, 1 << 20
        planted = {
            tuple(base * gap + j * stride for j in range(4))
            for base in range(8)
        }
        assert planted == got

    def test_views_the_benchmark_traced_round_reads(self, spec_file, tmp_path,
                                                    monkeypatch):
        # perfbench's traced round wraps these module attributes and takes
        # its per-layer counts from these views of what they return
        returned = {}

        def keep(owner, attr):
            inner = getattr(owner, attr)

            def call(*args, **kwargs):
                returned.setdefault(attr, []).append(inner(*args, **kwargs))
                return returned[attr][-1]
            monkeypatch.setattr(owner, attr, call)

        keep(transactions, "extract_transactions")
        keep(features, "build_ctf")
        keep(chunking, "chunk_all")
        keep(simulator.GroupTable, "from_grouping")
        keep(simulator, "simulate")
        run_pipeline(config_for(spec_file, tmp_path / "out"))
        (log,), (matrix,), (chunkset,) = (returned[name] for name in (
            "extract_transactions", "build_ctf", "chunk_all"))
        full = [t for t in log if not t.partial]
        assert len(full) == log.full_count
        assert sum(len(t.members) for t in full) == log.used()[0].size
        assert len(matrix.rows) == len(matrix)
        assert sum(v.popcount() for v in matrix.rows.values()) == len(matrix.indices)
        assert {c.area for c in chunkset.chunks} == set(chunkset.areas)
        assert isinstance(returned["from_grouping"][0], simulator.GroupTable)
        cells = returned["simulate"]
        assert len(cells) == 16
        assert cells[-1].as_dict()["policy"] == simulator.GROUP_MERGED

    def test_failed_stage_marks_partials(self, spec_file, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = config_for(spec_file, out)
        run_pipeline(cfg)

        def boom(*args, **kwargs):
            raise InvariantError("forced failure")

        monkeypatch.setattr(pipeline.simulator, "simulate", boom)
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "simulate"
        # stale outputs of the failed stage are flagged, earlier ones kept
        assert (out / "metrics.csv.partial").exists()
        assert not (out / "metrics.csv").exists()
        assert (out / "grouping.csv").exists()

    @pytest.mark.parametrize("module, attr, stage", [
        ("transactions", "extract_transactions", "extract"),
        ("features", "build_ctf", "ctf"),
        ("chunking", "chunk_all", "chunk"),
        ("grouping", "build_grouping", "group"),
    ])
    def test_error_names_failing_stage(self, spec_file, tmp_path, monkeypatch,
                                       module, attr, stage):
        def boom(*args, **kwargs):
            raise InvariantError("forced failure")

        monkeypatch.setattr(getattr(pipeline, module), attr, boom)
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(config_for(spec_file, tmp_path / "out"))
        assert err.value.stage == stage
        assert isinstance(err.value.cause, InvariantError)


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def base_flags(self, spec_file, out):
        return [
            "--synthetic", str(spec_file), "--M", "32768",
            "--output_dir", str(out),
        ]

    def test_pipeline_exit_zero(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("pipeline", *self.base_flags(spec_file, out)) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["records"] == 2000

    def test_invalid_parameter_exit_two(self, spec_file, tmp_path, capsys):
        rc = self.run(
            "pipeline", *self.base_flags(spec_file, tmp_path / "o"),
            "--sigma", "1.5",
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_records_below_one_exit_two(self, spec_file, tmp_path, capsys, value):
        rc = self.run("pipeline", *self.base_flags(spec_file, tmp_path / "o"),
                      "--max_records", value)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "max_records" in err

    @pytest.mark.parametrize("source, key, value", [
        ("synthetic", "host", "h1"), ("synthetic", "disk", "0"),
        ("synthetic", "max_records", "100"), ("trace", "rng_seed", "5"),
    ])
    def test_key_the_input_ignores_exit_two(self, spec_file, tmp_path, capsys,
                                            source, key, value):
        # a key that would move the extract hash without changing the input
        path = spec_file if source == "synthetic" else tmp_path / "trace.csv"
        rc = self.run("pipeline", f"--{source}", str(path),
                      "--output_dir", str(tmp_path / "o"), f"--{key}", value)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} does not apply to {source}= input" in err

    @pytest.mark.parametrize("command, key", [
        ("analyze", "w_limits"), ("pipeline", "policies"),
        ("pipeline", "capacity_fractions"),
    ])
    def test_empty_list_exit_two(self, spec_file, tmp_path, capsys, command, key):
        out = tmp_path / "o"
        assert self.run(command, *self.base_flags(spec_file, out), f"--{key}", ",") == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    def test_missing_source_exit_two(self, capsys):
        assert self.run("pipeline", "--output_dir", "/tmp/none") == 2

    def test_unknown_spec_key_exit_two(self, spec_file, tmp_path, capsys):
        spec_file.write_text(spec_file.read_text() + "size_mx=8192\n")
        assert self.run("pipeline", *self.base_flags(spec_file, tmp_path / "o")) == 2
        assert "size_mx" in capsys.readouterr().err

    def test_empty_trace_exit_three(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = self.run(
            "pipeline", "--trace", str(empty),
            "--output_dir", str(tmp_path / "o"),
        )
        assert rc == 3

    def test_synthetic_filtered_to_nothing_exit_three(self, spec_file, tmp_path, capsys):
        # synthetic traces are all reads
        rc = self.run("pipeline", *self.base_flags(spec_file, tmp_path / "o"),
                      "--ops", "write")
        assert rc == 3
        err = capsys.readouterr().err
        assert ("stage 'ingest' failed: no records left in synthetic(seed=3) after "
                "ops=write filter") in err

    THREE_RECORDS = "1,h,0,Read,0,4096,0\n2,h,0,Read,4096,4096,0\n3,h,0,Write,8192,4096,0\n"

    @pytest.mark.parametrize("count", ["0", "3", "100"])
    def test_train_count_outside_the_trace_exit_two(self, tmp_path, capsys, count):
        trace = tmp_path / "r.csv"
        trace.write_text(self.THREE_RECORDS)
        rc = self.run("pipeline", "--trace", str(trace), "--train_count", count,
                      "--output_dir", str(tmp_path / "o"))
        assert rc == 2
        err = capsys.readouterr().err
        # a count below 1 is refused with the config, before the trace is read
        assert ("train_count must be >= 1, got 0" if count == "0" else
                f"train_count must be in [1, 2] for a trace of 3 records, got {count}") in err

    def test_train_count_below_one_refused_before_reading(self, tmp_path, capsys):
        rc = self.run("pipeline", "--trace", str(tmp_path / "missing.csv"),
                      "--train_count", "0", "--output_dir", str(tmp_path / "o"))
        assert rc == 2
        assert "config error: train_count must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "analyze"])
    def test_closed_stdout_exit_zero(self, spec_file, tmp_path, command):
        # the reader is gone before the command prints: its output is
        # complete on disk, so the command exits 0 without a traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from ctgroup import cli; "
                 "sys.exit(cli.main(sys.argv[1:]))", command,
                 *self.base_flags(spec_file, tmp_path / "o")],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))))
        finally:
            os.close(write_end)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert (tmp_path / "o" / ("manifest.json" if command == "pipeline"
                                  else "locality_gap.csv")).exists()

    def test_one_record_trace_exit_three(self, tmp_path, capsys):
        # one write is left by the filter, and no train_count is set
        trace = tmp_path / "r.csv"
        trace.write_text(self.THREE_RECORDS)
        rc = self.run("pipeline", "--trace", str(trace), "--ops", "write",
                      "--output_dir", str(tmp_path / "o"))
        assert rc == 3
        err = capsys.readouterr().err
        assert "fewer than 2 records cannot be split" in err

    def test_stagewise_equals_pipeline(self, spec_file, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert self.run("pipeline", *self.base_flags(spec_file, out_a)) == 0
        for command in ("extract", "ctf", "chunk", "group", "simulate"):
            assert self.run(command, *self.base_flags(spec_file, out_b)) == 0
        assert read_artifacts(out_a) == read_artifacts(out_b)

    def test_stagewise_equals_pipeline_at_19_digit_addresses(self, tmp_path, capsys):
        # datum d sits at offset 2**63 - 1 - 4096 d, so the artifacts list
        # addresses of 19 digits up to int64's maximum
        top = (1 << 63) - 1
        rng = random.Random(8)
        lines = []
        for t in range(1, 1500):
            first = rng.randrange(0, 120, 4)
            for datum in range(first, first + 4):
                lines.append(f"{t},h,0,Read,{top - 4096 * datum},4096,0")
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(lines) + "\n")
        flags = ["--trace", str(trace), "--M", "32768"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run("pipeline", *flags, "--output_dir", str(out_a)) == 0
        for command in ("extract", "ctf", "chunk", "group", "simulate"):
            assert self.run(command, *flags, "--output_dir", str(out_b)) == 0
        assert read_artifacts(out_a) == read_artifacts(out_b)
        for name in ("transactions.tsv", "chunks.tsv", "grouping.csv"):
            assert str(top) in (out_b / name).read_text()

    def test_staged_stages_before_simulate_do_not_read_the_trace(self, spec_file,
                                                                 tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("extract", *self.base_flags(spec_file, out)) == 0
        spec_file.unlink()
        for command in ("ctf", "chunk"):
            assert self.run(command, *self.base_flags(spec_file, out)) == 0
        # group reads the transactions and the chunk membership only
        (out / "ctf.tsv").unlink()
        assert self.run("group", *self.base_flags(spec_file, out)) == 0
        # simulate replays the test split, so it does read the trace
        capsys.readouterr()
        assert self.run("simulate", *self.base_flags(spec_file, out)) == 2
        assert "stage 'simulate' failed" in capsys.readouterr().err

    def test_failing_stage_named_with_its_exit_code(self, spec_file, tmp_path, capsys,
                                                    monkeypatch):
        out = tmp_path / "out"
        # no transactions.tsv to read: a data error
        assert self.run("ctf", *self.base_flags(spec_file, out)) == 3
        assert "error: stage 'ctf' failed: cannot read" in capsys.readouterr().err
        # no synthetic spec to read: a config error
        missing = tmp_path / "missing.cfg"
        assert self.run("extract", *self.base_flags(missing, out)) == 2
        assert "error: stage 'extract' failed: cannot read" in capsys.readouterr().err

        def boom(*args, **kwargs):
            raise InvariantError("forced failure")

        for command in ("extract", "ctf"):
            assert self.run(command, *self.base_flags(spec_file, out)) == 0
        monkeypatch.setattr(pipeline.chunking, "chunk_all", boom)
        capsys.readouterr()
        assert self.run("chunk", *self.base_flags(spec_file, out)) == 4
        assert "error: stage 'chunk' failed: forced failure" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["raise", "exit"])
    def test_failed_replay_worker_exit_four(self, spec_file, tmp_path, capfd, monkeypatch,
                                            fault):
        # every group_merged cell replays on this process and one child, and
        # fails in the child
        parent, replay = os.getpid(), simulator._replay

        def failing(*args):
            if os.getpid() != parent:
                if fault == "exit":
                    os._exit(1)
                raise InvariantError("forced failure")
            return replay(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(simulator, "_replay",
                            both_take_a_unit(failing, tmp_path))
        assert self.run("pipeline", *self.base_flags(spec_file, tmp_path / "out")) == 4
        err = capfd.readouterr().err
        assert "internal error: stage 'simulate' failed: " in err
        assert ("forced failure" in err) == (fault == "raise")
        assert "Traceback" not in err
        assert no_child_left()

    # (fault, exit code, CPUs): a child's exit only where the write runs in one
    WRITE_FAULTS = [("data", 3, 1), ("os", 4, 1), ("data", 3, 2), ("os", 4, 2), ("exit", 4, 2)]

    @pytest.mark.parametrize("fault, code, n", WRITE_FAULTS,
                             ids=[f"{f}-{n}cpu" for f, _, n in WRITE_FAULTS])
    @pytest.mark.parametrize("module, attr, stage", [
        ("transactions", "save_transactions", "extract"), ("features", "save_ctf", "ctf"),
        ("chunking", "save_chunks", "chunk"), ("grouping", "save_grouping", "group"),
    ], ids=["extract", "ctf", "chunk", "group"])
    def test_failed_write(self, spec_file, tmp_path, capfd, monkeypatch, cpus,
                          module, attr, stage, fault, code, n):
        out = tmp_path / "out"
        flags = self.base_flags(spec_file, out)
        assert self.run("pipeline", *flags) == 0  # files for the failed run to flag
        cpus(n)
        parent = os.getpid()

        def failing(path, *args, **kwargs):
            # a pipeline stage but the last writes in a child on two CPUs
            assert (os.getpid() != parent) == (n == 2), "written in the wrong process"
            with artifacts.replacing(path) as fh:
                fh.write("half a file")
                if fault == "exit":
                    os._exit(1)
                raise (DataError("forced failure") if fault == "data"
                       else OSError(28, "No space left on device", str(path)))

        monkeypatch.setattr(getattr(pipeline, module), attr, failing)
        capfd.readouterr()
        assert self.run("pipeline", *flags) == code
        err = capfd.readouterr().err
        assert f"error: stage {stage!r} failed: " in err and "Traceback" not in err
        # the earlier stages' artifacts are kept, this stage's and later
        # ones flagged; the earlier run's manifest is left as it was
        earlier = pipeline.STAGE_TABLE[:pipeline.STAGES.index(stage)]
        kept = {name for s in earlier for name in s.artifacts}
        assert {path.name for path in out.iterdir()} == kept | {"manifest.json"} | {
            f"{name}.partial" for name in pipeline.ARTIFACTS if name not in kept}
        assert no_child_left()

    @pytest.mark.parametrize("command", ["pipeline", "extract", "ingest", "analyze",
                                         "sweep", "simulate"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_output_dir_that_cannot_be_a_directory_exit_two(self, spec_file, tmp_path,
                                                            capfd, command, below):
        taken = tmp_path / "taken"
        taken.write_text("a regular file\n")
        out = taken / "out" if below else taken
        extra = ["--axis", "mu", "--values", "0.5"] if command == "sweep" else []
        assert self.run(command, *self.base_flags(spec_file, out), *extra) == 2
        err = capfd.readouterr().err
        assert f"config error: output_dir {str(out)!r} cannot be a directory" in err
        assert "Traceback" not in err
        assert taken.read_text() == "a regular file\n"

    def test_hash_guard_exit_four(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("extract", *self.base_flags(spec_file, out)) == 0
        rc = self.run(
            "ctf", "--synthetic", str(spec_file), "--M", "16384",
            "--output_dir", str(out),
        )
        assert rc == 4
        assert "config hash" in capsys.readouterr().err

    def test_ingest_writes_normalized_trace(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("ingest", *self.base_flags(spec_file, out)) == 0
        assert sum(1 for _ in open(out / "trace.csv")) == 2000

    def test_undecodable_trace_line_is_skipped(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("ingest", *self.base_flags(spec_file, out)) == 0
        lines = (out / "trace.csv").read_bytes().splitlines(keepends=True)
        lines.insert(10, b"5,h\xff,0,Read,0,4096,0\n")
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"".join(lines))
        flags = ["--trace", str(trace), "--M", "32768", "--output_dir", str(out)]
        capsys.readouterr()
        assert self.run("ingest", *flags) == 0
        assert "wrote 2000 records (1 skipped)" in capsys.readouterr().out
        assert self.run("pipeline", *flags) == 0
        assert json.loads(capsys.readouterr().out)["records"] == 2000

    # sha256 of (locality_distance.csv, locality_gap.csv) as the per-pair
    # implementation of the statistics wrote them
    ANALYZE_DIGESTS = {
        "synthetic": ("aed2b969bc2083c26e9fca89b1a159cb9accea5155185b91d181b03f3a5db517",
                      "af62e33947e0b91dd79184a97e48b42fe16e479fdc58a2c07aa852c0e2b68614"),
        "csv": ("2127789d51e776ca028e6966cbae002fd5567d55abe62183eeb7ed9764db1e1a",
                "9de66017feff4826c7f9c7bd9fad12de2a609be42cd7ad3d52f9eb1e6076861e"),
    }

    def test_analyze_outputs(self, spec_file, tmp_path, capsys):
        # units of 4 data at strides of 512 B to 512 KiB, and singletons;
        # about 30% of the accesses are writes
        rng = random.Random(12)
        lines = []
        while len(lines) < 3000:
            unit = rng.randrange(60)
            for j in range(4 if unit % 5 else 1):
                op = "Write" if rng.random() < 0.3 else "Read"
                lines.append(f"{len(lines) + 1},h,0,{op},{(unit << 20) + (j << unit % 7 * 2 + 9)},"
                             f"{rng.choice((512, 4096, 8192))},0\n")
        trace = tmp_path / "trace.csv"
        trace.write_text("".join(lines))
        sources = {"synthetic": ["--synthetic", str(spec_file)],
                   "csv": ["--trace", str(trace)]}
        for name, source in sources.items():
            out = tmp_path / name
            assert self.run("analyze", *source, "--M", "32768",
                            "--output_dir", str(out)) == 0
            digests = tuple(hashlib.sha256((out / csv).read_bytes()).hexdigest()
                            for csv in ("locality_distance.csv", "locality_gap.csv"))
            assert digests == self.ANALYZE_DIGESTS[name], name

    def test_sweep_outputs(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = self.run(
            "sweep", *self.base_flags(spec_file, out),
            "--axis", "sigma", "--values", "0.0,0.2",
        )
        assert rc == 0
        lines = (out / "sweep_sigma.csv").read_text().splitlines()
        assert lines[0] == "axis,value,group_count,groups_ge_4,elapsed_s"
        assert len(lines) == 3
        assert (out / "sweep_sigma_hist.csv").exists()

    @pytest.mark.parametrize("axis, values, message", [
        ("sigma", "abc", "bad value for sigma"), ("M", "1.5", "bad value for M"),
        ("mu", "0.5,x", "bad value for mu"), ("mu", ",", "no mu values to sweep"),
    ])
    def test_sweep_value_the_axis_rejects_exit_two(self, spec_file, tmp_path, capsys,
                                                   axis, values, message):
        out = tmp_path / "out"
        rc = self.run("sweep", *self.base_flags(spec_file, out),
                      "--axis", axis, "--values", values)
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, owner, attr, name", [
        ("ingest", Trace, "to_csv_lines", "trace.csv"),
        ("sweep", pipeline, "sweep_csv_lines", "sweep_mu.csv"),
        ("analyze", locality, "gap_report_csv_lines", "locality_gap.csv"),
    ], ids=["ingest", "sweep", "analyze"])
    def test_interrupted_write_keeps_the_earlier_file(self, spec_file, tmp_path,
                                                      monkeypatch, command, owner,
                                                      attr, name):
        out = tmp_path / "out"
        extra = ["--axis", "mu", "--values", "0.5"] if command == "sweep" else []
        argv = [command, *self.base_flags(spec_file, out), *extra]
        assert self.run(*argv) == 0
        earlier = (out / name).read_bytes()
        inner = getattr(owner, attr)

        def interrupted(*args):
            yield from islice(inner(*args), 2)
            raise RuntimeError("interrupted")
        monkeypatch.setattr(owner, attr, interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            self.run(*argv)
        assert (out / name).read_bytes() == earlier
        assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]

    def test_sweep_bad_axis_rejected_by_parser(self, spec_file, tmp_path):
        with pytest.raises(SystemExit):
            self.run(
                "sweep", *self.base_flags(spec_file, tmp_path / "o"),
                "--axis", "gamma", "--values", "1",
            )


class TestSweepParameters:
    def test_invalid_axis(self, spec_file, tmp_path):
        cfg = config_for(spec_file, tmp_path / "o")
        with pytest.raises(ConfigError):
            pipeline.sweep_parameters(cfg, "q", [1])

    def test_rows_carry_reports(self, spec_file, tmp_path):
        cfg = config_for(spec_file, tmp_path / "o")
        rows = pipeline.sweep_parameters(cfg, "mu", ["0.2", "0.8"])
        assert [r["value"] for r in rows] == ["0.2", "0.8"]
        for row in rows:
            assert row["group_count"] == sum(row["size_histogram"].values())
            assert row["elapsed_s"] >= 0.0


# A data row of each artifact's own format that is not an integer, and one
# with the wrong number of fields, per artifact and the stage that reads it.
CORRUPTIONS = {
    "transactions.tsv": ("ctf", "x\t1,2", "7"),
    "ctf.tsv": ("chunk", "4096\t1,y", "4096\t1\t2"),
    "chunks.tsv": ("group", "z\t4096", "0"),
    "grouping.csv": ("simulate", "0,w", "0,4096,1"),
}


class TestArtifactGuards:
    """Malformed, unhashed and stale artifacts end in exit 3 or 4 with a message."""

    def run(self, *argv):
        return cli.main(list(argv))

    def flags(self, spec_file, out, *extra):
        return ["--synthetic", str(spec_file), "--M", "32768",
                "--output_dir", str(out), *extra]

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("damage", ["non_integer", "field_count", "no_header"])
    def test_malformed_artifact_exit_three(self, spec_file, tmp_path, capsys,
                                           name, damage):
        out = tmp_path / "out"
        assert self.run("pipeline", *self.flags(spec_file, out)) == 0
        command, non_integer, field_count = CORRUPTIONS[name]
        lines = (out / name).read_text().splitlines()
        if damage == "no_header":
            lines, line_no = lines[1:2], 1
        else:
            lines.append(non_integer if damage == "non_integer" else field_count)
            line_no = len(lines)
        (out / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run(command, *self.flags(spec_file, out)) == 3
        err = capsys.readouterr().err
        assert f"{out / name}, line {line_no}:" in err

    @pytest.mark.parametrize("row", ["4096\t2,1", "4096\t1,1"])
    def test_unordered_ctf_row_exit_three(self, spec_file, tmp_path, capsys, row):
        # vectors are equal iff their index tuples are, so a row must list
        # distinct indices in ascending order
        out = tmp_path / "out"
        for command in ("extract", "ctf"):
            assert self.run(command, *self.flags(spec_file, out)) == 0
        ctf = out / "ctf.tsv"
        lines = ctf.read_text().splitlines() + [row]
        ctf.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run("chunk", *self.flags(spec_file, out)) == 3
        err = capsys.readouterr().err
        message = "transaction indices are not strictly ascending"
        assert f"{ctf}, line {len(lines)}: {message}" in err

    def test_ctf_rows_out_of_address_order_exit_three(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("extract", "ctf"):
            assert self.run(command, *self.flags(spec_file, out)) == 0
        ctf = out / "ctf.tsv"
        lines = ctf.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        ctf.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run("chunk", *self.flags(spec_file, out)) == 3
        message = "addresses are not strictly ascending"
        assert f"{ctf}, line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, line_no, message", [
        ("repeat", 2, "an address is listed twice"),
        ("renumber", 2, "transaction id 5 is not its position 0"),
        ("early_partial", 3, "partial transaction 0 is not the last"),
    ])
    def test_bad_transaction_row_exit_three(self, spec_file, tmp_path, capsys,
                                            damage, line_no, message):
        # a row lists distinct addresses, its id is its position, and only
        # the last row may be the partial one
        out = tmp_path / "out"
        assert self.run("extract", *self.flags(spec_file, out)) == 0
        path = out / "transactions.tsv"
        lines = path.read_text().splitlines()
        index, members = lines[1].split("\t")
        lines[1] = {"repeat": f"{index}\t{members},{members.split(',')[0]}",
                    "renumber": f"5\t{members}",
                    "early_partial": f"{index}\t{members}\tpartial"}[damage]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run("ctf", *self.flags(spec_file, out)) == 3
        assert f"{path}, line {line_no}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, line_no, message", [
        ("renumber", 2, "chunk id 5 is not its position 0"),
        ("empty", 2, "chunk 0 lists no address"),
        ("repeat", 3, "address {first} is listed twice"),
        ("untransacted", 2, "address 12345 is in no used transaction"),
    ])
    def test_bad_chunk_row_exit_three(self, spec_file, tmp_path, capsys,
                                      damage, line_no, message):
        # a row's id is its position, it lists an address, no address is in
        # two chunks, and the transactions the group stage reads hold each
        out = tmp_path / "out"
        for command in ("extract", "ctf", "chunk"):
            assert self.run(command, *self.flags(spec_file, out)) == 0
        path = out / "chunks.tsv"
        lines = path.read_text().splitlines()
        index, members = lines[1].split("\t")
        first = members.split(",")[0]
        if damage == "repeat":
            lines[2] += f",{first}"
        else:
            lines[1] = {"renumber": f"5\t{members}", "empty": f"{index}\t",
                        "untransacted": f"{index}\t{members},12345"}[damage]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run("group", *self.flags(spec_file, out)) == 3
        message = message.format(first=first)
        assert f"{path}, line {line_no}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("same_group", [True, False])
    def test_grouping_address_listed_twice_exit_three(self, spec_file, tmp_path, capsys,
                                                      same_group):
        # in one group or across two, a repeated address would be replayed
        # twice in a group's prefetch plan
        out = tmp_path / "out"
        assert self.run("pipeline", *self.flags(spec_file, out)) == 0
        path = out / "grouping.csv"
        lines = path.read_text().splitlines()
        gid, address = lines[2].split(",")
        other = int(lines[-1].split(",")[0]) + 1
        lines.append(f"{gid if same_group else other},{address}")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run("simulate", *self.flags(spec_file, out)) == 3
        message = f"address {address} is listed twice"
        assert f"{path}, line {len(lines)}: {message}" in capsys.readouterr().err

    def test_grouping_rows_load_in_gid_order(self, spec_file, tmp_path, capsys):
        # gids out of order, not contiguous and interleaved: groups are
        # ordered by gid and numbered from 0, members ascending
        out = tmp_path / "out"
        assert self.run("pipeline", *self.flags(spec_file, out)) == 0
        path = out / "grouping.csv"
        head = path.read_text().splitlines()[:2]
        rows = ["5,16", "2,8", "5,0", "9,40", "2,4", "5,12"]
        path.write_text("\n".join(head + rows) + "\n")
        group = next(stage for stage in pipeline.STAGE_TABLE if stage.name == "group")
        table = group.load(path, None, None, {})
        assert len(table.partition) == 3
        assert [table.partition.parts()[gid] for gid in range(3)] == [(4, 8), (0, 12, 16), (40,)]
        assert self.run("simulate", *self.flags(spec_file, out)) == 0
        # an address repeated under another, interleaved gid
        path.write_text("\n".join(head + rows + ["2,0", "9,48"]) + "\n")
        capsys.readouterr()
        assert self.run("simulate", *self.flags(spec_file, out)) == 3
        line = len(head) + len(rows) + 1
        assert f"{path}, line {line}: address 0 is listed twice" in capsys.readouterr().err

    def test_missing_hash_exit_three(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("extract", "ctf"):
            assert self.run(command, *self.flags(spec_file, out)) == 0
        ctf = out / "ctf.tsv"
        header, rest = ctf.read_text().split("\n", 1)
        header = " ".join(f for f in header.split() if not f.startswith("config_hash="))
        ctf.write_text(header + "\n" + rest)
        assert self.run("chunk", *self.flags(spec_file, out, "--sigma", "0.3")) == 3
        assert "has no config_hash" in capsys.readouterr().err

    def test_later_stages_rerun_on_saved_artifacts(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run("pipeline", *self.flags(spec_file, out)) == 0
        rows = json.loads((out / "metrics.json").read_text())["rows"]
        fraction = pipeline.DEFAULT_FRACTIONS[1]
        assert self.run("simulate", *self.flags(
            spec_file, out, "--policies", "lru", "--capacity_fractions", str(fraction))) == 0
        staged = json.loads((out / "metrics.json").read_text())["rows"]
        assert staged == [r for r in rows
                          if r["policy"] == "lru" and r["capacity_fraction"] == fraction]
        capsys.readouterr()
        assert self.run("simulate", *self.flags(spec_file, out, "--sigma", "0.3")) == 4
        assert "config hash" in capsys.readouterr().err
        assert self.run("group", *self.flags(spec_file, out, "--mu", "0.9")) == 0
        assert self.run("chunk", *self.flags(spec_file, out, "--sigma", "0.3")) == 0


STAGE_KEYS = {
    "extract": {"trace", "synthetic", "rng_seed", "ops", "host", "disk", "max_records",
                "train_count", "train_fraction", "M", "mode"},
    "ctf": {"include_partial"},
    "chunk": {"q", "p", "sigma", "distance"},
    "group": {"alpha", "mu", "sort"},
    "simulate": {"capacity_fractions", "policies", "write_allocate"},
}


class TestStageHashes:
    def test_stage_of_every_key(self, spec_file, tmp_path):
        cfg = config_for(spec_file, tmp_path / "o")
        assert {s: set(cfg.stage_keys(s)) for s in pipeline.STAGES} == STAGE_KEYS
        assert {f.name for f in fields(cfg)} - set().union(*STAGE_KEYS.values()) == {
            "output_dir", "w_limits"}

    @pytest.mark.parametrize("key", sorted(set().union(*STAGE_KEYS.values()))
                             + ["output_dir", "w_limits"])
    def test_key_moves_its_stage_and_later(self, spec_file, tmp_path, key):
        cfg = config_for(spec_file, tmp_path / "o")
        changed = replace(cfg, **{key: "changed"})
        moved = [s for s in pipeline.STAGES if changed.stage_hash(s) != cfg.stage_hash(s)]
        stage = next((s for s, keys in STAGE_KEYS.items() if key in keys), None)
        assert moved == ([] if stage is None else
                         list(pipeline.STAGES[pipeline.STAGES.index(stage):]))
        assert changed.config_hash() == changed.stage_hash("simulate")

    def test_new_field_gets_flag_and_stage(self, spec_file, tmp_path, monkeypatch):
        @dataclass
        class Extended(PipelineConfig):
            extra: int = pipeline.config_key("chunk", 0, int)

        monkeypatch.setattr(cli, "PipelineConfig", Extended)
        args = cli.build_parser().parse_args(
            ["chunk", "--synthetic", str(spec_file), "--extra", "3"])
        cfg = cli.load_config(args)
        assert cfg.extra == 3
        base = replace(cfg, extra=0)
        moved = [s for s in pipeline.STAGES if cfg.stage_hash(s) != base.stage_hash(s)]
        assert moved == ["chunk", "group", "simulate"]

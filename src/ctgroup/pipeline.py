"""End-to-end orchestration: ingest -> extract -> ctf -> chunk -> group ->
simulate, with every intermediate artifact persisted (format: artifacts.py).

A pipeline run is driven by a single PipelineConfig (flat key=value file,
every key overridable from the command line). Each key declares the one
stage it shapes. A stage's hash is sha256 over the previous stage's hash and
the stage's own keys, so it moves with those keys and every earlier stage's
but never with a later stage's. Each artifact header records the hash of
the stage that wrote it, and a stage reads only artifacts whose hash
matches: `simulate` with other policies or capacities accepts a saved
grouping.csv, while `simulate --sigma 0.3` rejects it. The metrics and the
manifest carry the simulate stage's hash, which covers every key but
output_dir and w_limits. Reruns with the same config and inputs, in one go
or stage by stage, produce byte-identical artifacts.

Work spreads over the CPUs this process may use through forks.py, with no
config key: the chunk stage clusters its areas on fork_map, simulate
replays its cells on it, and run_stages writes each stage's artifacts in
a forked child while the next stage runs (one CPU, or a running thread,
keeps all of it in this process).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from . import artifacts, chunking, features, forks, grouping, simulator, transactions
from .errors import ConfigError, CtgroupError, EmptyTraceError
from .synthetic import SyntheticSpec, synthesize_trace
from .trace import Trace, load_trace

DEFAULT_WINDOW_BYTES = 65536
DEFAULT_FRACTIONS = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128)


def _flag(text):
    return text.lower() in ("1", "true", "yes", "on")


def _items(parse):
    """Parser of a comma-separated list."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def config_key(stage, default, parse=str):
    """A PipelineConfig field: the stage it shapes (None: no artifact) and
    the parser of its text form."""
    return field(default=default, metadata={"stage": stage, "parse": parse})


@dataclass
class PipelineConfig:
    trace: str | None = config_key("extract", None)
    synthetic: str | None = config_key("extract", None)  # path to a synthetic spec
    ops: str = config_key("extract", "both")
    host: str | None = config_key("extract", None)
    disk: str | None = config_key("extract", None)
    max_records: int | None = config_key("extract", None, int)
    train_count: int | None = config_key("extract", None, int)
    train_fraction: float = config_key("extract", 0.7, float)
    M: int = config_key("extract", DEFAULT_WINDOW_BYTES, int)  # transaction window bytes
    mode: str = config_key("extract", transactions.CUMULATIVE)
    include_partial: bool = config_key("ctf", False, _flag)
    q: int = config_key("chunk", 16, int)
    p: float = config_key("chunk", 2.0, float)
    sigma: float = config_key("chunk", 0.1, float)
    alpha: float = config_key("group", 0.5, float)
    mu: float = config_key("group", 0.5, float)
    distance: str = config_key("chunk", features.SYMMETRIC_DIFF)
    sort: str = config_key("group", grouping.DESCENDING)
    capacity_fractions: tuple = config_key("simulate", DEFAULT_FRACTIONS, _items(float))
    policies: tuple = config_key("simulate", (simulator.LRU, simulator.GROUP_MERGED),
                                 _items(str))
    write_allocate: bool = config_key("simulate", True, _flag)
    rng_seed: int | None = config_key("extract", None, int)  # overrides the spec's seed
    output_dir: str = config_key(None, "out")
    w_limits: tuple = config_key(None, (20.0, 50.0, 100.0, 150.0), _items(float))

    def validate(self):
        if self.trace is None and self.synthetic is None:
            raise ConfigError("either trace= or synthetic= must be set")
        if self.trace is not None and self.synthetic is not None:
            raise ConfigError("trace= and synthetic= are mutually exclusive")
        if self.ops not in ("read", "write", "both"):
            raise ConfigError(f"ops must be read|write|both, got {self.ops!r}")
        for key in ("max_records", "train_count"):
            if (value := getattr(self, key)) is not None and value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        kind, ignored = (("synthetic=", ("host", "disk", "max_records"))
                         if self.synthetic is not None else ("trace=", ("rng_seed",)))
        for key in ignored:
            if getattr(self, key) is not None:
                raise ConfigError(f"{key} does not apply to {kind} input")
        if self.train_count is None and not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must be in (0,1)")
        if self.distance not in features.METRICS:
            raise ConfigError(f"distance must be one of {features.METRICS}")
        self.extractor_config().validate()
        self.chunker_config().validate()
        self.grouper_config().validate()
        for key in ("capacity_fractions", "policies", "w_limits"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must list at least one value")
        for f in self.capacity_fractions:
            if not 0 < f <= 1:
                raise ConfigError(f"capacity fraction {f} outside (0,1]")
        for policy in self.policies:
            if policy not in simulator.POLICIES:
                raise ConfigError(f"unknown policy {policy!r}")
        existing = os.path.abspath(self.output_dir)  # its longest part that exists
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"output_dir {self.output_dir!r} cannot be a directory: "
                              f"{existing!r} is not one")

    def extractor_config(self) -> transactions.ExtractorConfig:
        return transactions.ExtractorConfig(window_bytes=self.M, mode=self.mode)

    def chunker_config(self) -> chunking.ChunkerConfig:
        return chunking.ChunkerConfig(q=self.q, p=self.p, sigma=self.sigma)

    def grouper_config(self) -> grouping.GrouperConfig:
        return grouping.GrouperConfig(alpha=self.alpha, mu=self.mu, sort=self.sort)

    def stage_keys(self, stage: str) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata.get("stage") == stage}

    def stage_hash(self, stage: str) -> str:
        """sha256(previous stage's hash + JSON of this stage's keys), 16 hex digits."""
        digest = ""
        for name in STAGES[: STAGES.index(stage) + 1]:
            canon = json.dumps(self.stage_keys(name), sort_keys=True)
            digest = hashlib.sha256((digest + canon).encode()).hexdigest()[:16]
        return digest

    def config_hash(self) -> str:
        """The simulate stage's hash, which covers every staged key."""
        return self.stage_hash(STAGES[-1])

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        values = artifacts.read_keyvalues(path)
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict) -> "PipelineConfig":
        cfg = cls(**{key: cls.parse(key, val) for key, val in values.items()})
        cfg.validate()
        return cfg

    @classmethod
    def parse(cls, key: str, val):
        """``val`` as the value of config key ``key``: text goes through
        the key's parser, and other values are taken as they are. An
        unknown key or text its parser rejects is a ConfigError."""
        known = {f.name: f for f in fields(cls)}
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if not isinstance(val, str):
            return val
        try:
            return known[key].metadata.get("parse", str)(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None


class PipelineStageError(CtgroupError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def _failing_as(stage):
    """Raise any error but a PipelineStageError as one naming ``stage``."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc


def load_input_trace(cfg: PipelineConfig):
    """Returns (trace, truth-or-None). Applies the ops/host/disk filters."""
    if cfg.synthetic is not None:
        spec = SyntheticSpec.from_file(cfg.synthetic)
        if cfg.rng_seed is not None:
            spec.rng_seed = cfg.rng_seed
        trace, truth = synthesize_trace(spec)
        if cfg.ops != "both":
            trace = trace.filter_ops(cfg.ops)
        return trace, truth
    trace = load_trace(cfg.trace, skip_malformed=True, ops=cfg.ops, host=cfg.host,
                       disk=cfg.disk, max_records=cfg.max_records)
    return trace, None


def split_for_training(cfg: PipelineConfig, trace: Trace):
    """(training prefix, test rest) of the input trace; an explicit
    train_count that leaves either part empty is a ConfigError."""
    if len(trace) < 2:
        raise EmptyTraceError(f"{trace.source_label}: a trace of fewer than 2 records "
                              "cannot be split into training and test parts")
    count = cfg.train_count
    if count is None:
        count = max(1, int(len(trace) * cfg.train_fraction))
    return trace.split(count)


def _save_metrics(paths, rows, chash, *_):
    csv_path, json_path = paths
    artifacts.write(csv_path, {"config_hash": chash}, simulator.metrics_csv_lines(rows))
    artifacts.write_json(json_path, {"config_hash": chash,
                                     "rows": [m.as_dict() for m in rows]})


def _load_chunks(path, chash, cfg, held):
    """Chunk membership, every address in a transaction the group stage reads."""
    members = held["extract"].used(cfg.include_partial)[0]
    return chunking.load_chunk_members(path, chash, features.sorted_distinct(members))[0]


@dataclass(frozen=True)
class Stage:
    """One step of the chain, with the artifacts it writes.

    ``reads`` lists what the stage takes, in argument order: "trace" (the
    input trace) or an earlier stage, whose output a later stage takes in
    the form ``hand_on`` gives it or ``load`` reads back from the first
    artifact. The functions look the stage code up in its module when
    called, so a patched module attribute is the one that runs.
    """

    name: str
    artifacts: tuple[str, ...]
    reads: tuple[str, ...]
    run: Callable                               # (cfg, *inputs) -> output
    save: Callable                              # (paths, output, hash, cfg, *inputs)
    counts: Callable = lambda output: {}        # output -> manifest counts
    hand_on: Callable = lambda output: output
    load: Callable | None = None                # (path, hash, cfg, held) -> handed on


STAGE_TABLE = (
    Stage("extract", ("transactions.tsv",), ("trace",),
          run=lambda cfg, trace: transactions.extract_transactions(
              split_for_training(cfg, trace)[0], cfg.extractor_config()),
          save=lambda paths, log, chash, cfg, trace: transactions.save_transactions(
              paths[0], log, cfg.extractor_config(), trace.source_label, chash),
          counts=lambda log: {"transactions": log.full_count},
          load=lambda path, chash, *_: transactions.load_transactions(path, chash)[0]),
    Stage("ctf", ("ctf.tsv",), ("extract",),
          run=lambda cfg, log: features.build_ctf(log, include_partial=cfg.include_partial),
          save=lambda paths, matrix, chash, *_: features.save_ctf(
              paths[0], matrix, config_hash=chash),
          counts=lambda matrix: {"data": len(matrix)},
          load=lambda path, chash, *_: features.load_ctf(path, chash)[0]),
    Stage("chunk", ("chunks.tsv",), ("ctf",),
          run=lambda cfg, matrix: chunking.chunk_all(matrix, cfg.chunker_config(),
                                                     metric=cfg.distance),
          save=lambda paths, chunkset, chash, *_: chunking.save_chunks(
              paths[0], chunkset, config_hash=chash),
          counts=lambda chunkset: {"chunks": len(chunkset)},
          hand_on=lambda chunkset: chunkset.partition,
          load=_load_chunks),
    Stage("group", ("grouping.csv",), ("extract", "chunk"),
          run=lambda cfg, log, chunks: grouping.build_grouping(
              log, chunks, cfg.grouper_config(), include_partial=cfg.include_partial),
          save=lambda paths, grp, chash, *_: grouping.save_grouping(
              paths[0], grp, config_hash=chash),
          counts=lambda grp: {"groups": len(grp)},
          hand_on=lambda grp: simulator.GroupTable.from_grouping(grp),
          load=lambda path, chash, *_: simulator.GroupTable(
              grouping.load_grouping_members(path, chash)[0])),
    Stage("simulate", ("metrics.csv", "metrics.json"), ("trace", "group"),
          run=lambda cfg, trace, table: simulator.sweep(
              split_for_training(cfg, trace)[1], table, cfg.capacity_fractions,
              cfg.policies, extra_sizes=trace.first_seen_sizes(),
              write_allocate=cfg.write_allocate),
          save=_save_metrics),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
ARTIFACTS = tuple(name for stage in STAGE_TABLE for name in stage.artifacts)


def make_output_dir(cfg: PipelineConfig):
    """Make cfg.output_dir if it is missing; failing to is a ConfigError."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {cfg.output_dir!r} cannot be made: "
                          f"{exc.strerror}") from None


def run_stages(cfg: PipelineConfig, stages, held: dict, saved: dict | None = None):
    """Run ``stages``, consecutive entries of STAGE_TABLE, and return the
    last one's output.

    ``held`` maps what the stages read to its value: "trace" to the input
    trace, a stage's name to its handed-on output. What it lacks is read
    when a stage first needs it: the trace by load_input_trace, a stage's
    output from its artifact under that stage's hash. With ``saved`` (a
    dict), each stage writes its artifacts and then records its manifest
    counts there under its name. Each output is dropped as soon as no
    later stage reads it. A failure is a PipelineStageError naming the
    stage.

    Every stage but the last writes on forks.start, in a child that
    overlaps the next stage's run; the last writes in this process. A
    write is joined when the next stage's run ends, before that stage
    writes, and before this returns or raises. So the stage reported is
    the earliest whose run or write failed, no later stage has written,
    and a failed write leaves no temporary file.
    """
    if saved is not None:
        make_output_dir(cfg)
    writing = None  # the write in flight: (stage name, paths, counts, forks.Started)
    try:
        for i, stage in enumerate(stages):
            later = {name for s in stages[i + 1:] for name in s.reads}
            with _failing_as(stage.name):
                try:
                    for name in stage.reads:
                        if name in held:
                            continue
                        if name == "trace":
                            held[name] = load_input_trace(cfg)[0]
                        else:
                            source = STAGE_TABLE[STAGES.index(name)]
                            path = os.path.join(cfg.output_dir, source.artifacts[0])
                            held[name] = source.load(path, cfg.stage_hash(name), cfg, held)
                    inputs = [held.pop(name) if name not in later else held[name]
                              for name in stage.reads]
                    output = stage.run(cfg, *inputs)
                finally:
                    done, writing = writing, None
                    _joined(done, saved)
                if saved is not None:
                    paths = [os.path.join(cfg.output_dir, name) for name in stage.artifacts]
                    chash = cfg.stage_hash(stage.name)
                    if i < len(stages) - 1:
                        writing = (stage.name, paths, stage.counts(output),
                                   forks.start(stage.save, paths, output, chash, cfg, *inputs))
                    else:
                        stage.save(paths, output, chash, cfg, *inputs)
                        saved[stage.name] = stage.counts(output)
                del inputs
                if stage.name in later:
                    held[stage.name] = stage.hand_on(output)
            if i < len(stages) - 1:
                del output
    finally:
        _joined(writing, saved)
    return output


def _joined(writing, saved: dict):
    """Wait for a write begun by run_stages, then record its counts in
    ``saved``; a failed one raises naming its stage, and its temporary
    files are removed (a child that died left them)."""
    if writing is None:
        return
    name, paths, counts, started = writing
    with _failing_as(name):
        try:
            forks.join(started)
        except Exception:
            for path in paths:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(artifacts.temporary(path))
            raise
    saved[name] = counts


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@contextlib.contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector for a batch run.

    The stages hold their data in numpy columns, but some still allocate
    many Python objects that form no reference cycles: the chunk stage's
    heap tuples, the group stage's union-find dicts and relations, and
    the simulate stage's replay rows and cache dicts. The collector would
    scan them again each time it runs as they pile up. With it running,
    collection took 0.16-0.18 s of a 17-18 s run on the 3M-record gate
    and 0.02-0.11 s of 2-3 s on each benchmark workload (2-CPU host,
    Python 3.11), so the pause saves little today. Reference counting
    still frees the objects; the collector's state is restored on exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute all stages, persist artifacts, return the manifest."""
    cfg.validate()
    saved: dict[str, dict] = {}

    def path_of(name):
        return os.path.join(cfg.output_dir, name)

    try:
        with _failing_as("ingest"):
            trace = load_input_trace(cfg)[0]  # the synthetic truth is not kept
        run_stages(cfg, STAGE_TABLE, {"trace": trace}, saved)
    except PipelineStageError:
        # Leave whatever the failing stage produced flagged as partial.
        written = {name for stage in STAGE_TABLE if stage.name in saved
                   for name in stage.artifacts}
        for name in ARTIFACTS:
            if name not in written and os.path.exists(path_of(name)):
                os.replace(path_of(name), path_of(name) + ".partial")
        raise

    train, test = split_for_training(cfg, trace)
    manifest = {
        "config_hash": cfg.config_hash(),
        "trace_label": trace.source_label,
        "records": len(trace),
        "train_records": len(train),
        "test_records": len(test),
        **{key: n for counts in saved.values() for key, n in counts.items()},
        "artifacts": [
            {"name": name, "sha256": _digest(path_of(name))} for name in ARTIFACTS
        ],
    }
    artifacts.write_json(path_of("manifest.json"), manifest)
    return manifest


SWEEP_AXES = ("sigma", "mu", "M")


@_collector_paused()
def sweep_parameters(cfg: PipelineConfig, axis: str, values) -> list[dict]:
    """Rerun the grouping stages per axis value; returns per-value summaries.

    Each value is text that the axis key's parser reads, as in a config
    file. Each summary carries the grouping report (group count, size
    histogram) and the wall time of the run, for trend plots over
    sigma / mu / M.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    cfg.validate()
    points = [replace(cfg, **{axis: cfg.parse(axis, value)}) for value in values]
    if not points:
        raise ConfigError(f"no {axis} values to sweep")
    for point in points:
        point.validate()
    trace = load_input_trace(cfg)[0]
    stages = STAGE_TABLE[:STAGES.index("group") + 1]
    results = []
    for value, point in zip(values, points):
        start = time.perf_counter()
        grp = run_stages(point, stages, {"trace": trace})
        elapsed = time.perf_counter() - start
        report = grouping.grouping_report(grp)
        results.append({
            "axis": axis, "value": value, "group_count": report.group_count,
            "groups_ge_4": report.groups_of_size_at_least(4),
            "size_histogram": report.size_histogram, "elapsed_s": elapsed,
        })
    return results


def sweep_csv_lines(results):
    yield "axis,value,group_count,groups_ge_4,elapsed_s"
    for row in results:
        yield (f"{row['axis']},{row['value']},{row['group_count']},"
               f"{row['groups_ge_4']},{row['elapsed_s']:.3f}")


def sweep_histogram_csv_lines(results):
    yield "axis,value,group_size,count"
    for row in results:
        for size, count in row["size_histogram"].items():
            yield f"{row['axis']},{row['value']},{size},{count}"

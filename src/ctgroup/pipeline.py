"""End-to-end orchestration: ingest -> extract -> features -> chunk ->
group -> simulate, with every intermediate artifact persisted.

A pipeline run is driven by a single PipelineConfig (flat key=value file,
every key overridable from the command line). The configuration hash covers
every algorithmic parameter; each artifact header records it, and no stage
will read an artifact produced under a different hash. Reruns with the same
config and inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, fields, replace

from . import chunking, features, grouping, locality, simulator, transactions
from .errors import ConfigError, CtgroupError, InvariantError
from .synthetic import SyntheticSpec, synthesize_trace
from .trace import Trace, load_trace

DEFAULT_WINDOW_BYTES = 65536
DEFAULT_FRACTIONS = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128)

ARTIFACTS = (
    "transactions.tsv",
    "ctf.tsv",
    "chunks.tsv",
    "grouping.csv",
    "metrics.csv",
    "metrics.json",
)


@dataclass
class PipelineConfig:
    trace: str | None = None
    synthetic: str | None = None        # path to a synthetic key=value spec
    ops: str = "both"
    host: str | None = None
    disk: str | None = None
    max_records: int | None = None
    train_count: int | None = None
    train_fraction: float = 0.7
    M: int = DEFAULT_WINDOW_BYTES       # transaction window bytes
    mode: str = transactions.CUMULATIVE
    include_partial: bool = False
    q: int = 16
    p: float = 2.0
    sigma: float = 0.1
    alpha: float = 0.5
    mu: float = 0.5
    distance: str = features.SYMMETRIC_DIFF
    sort: str = grouping.DESCENDING
    capacity_fractions: tuple = DEFAULT_FRACTIONS
    policies: tuple = (simulator.LRU, simulator.GROUP_MERGED)
    write_allocate: bool = True
    rng_seed: int | None = None         # overrides the synthetic spec's seed
    output_dir: str = "out"
    w_limits: tuple = (20.0, 50.0, 100.0, 150.0)

    _BOOL_KEYS = ("include_partial", "write_allocate")
    _INT_KEYS = ("max_records", "train_count", "M", "q", "rng_seed")
    _FLOAT_KEYS = ("train_fraction", "p", "sigma", "alpha", "mu")

    def validate(self):
        if self.trace is None and self.synthetic is None:
            raise ConfigError("either trace= or synthetic= must be set")
        if self.trace is not None and self.synthetic is not None:
            raise ConfigError("trace= and synthetic= are mutually exclusive")
        if self.ops not in ("read", "write", "both"):
            raise ConfigError(f"ops must be read|write|both, got {self.ops!r}")
        if self.train_count is None and not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must be in (0,1)")
        if self.distance not in features.METRICS:
            raise ConfigError(f"distance must be one of {features.METRICS}")
        self.extractor_config().validate()
        self.chunker_config().validate()
        self.grouper_config().validate()
        for f in self.capacity_fractions:
            if not 0 < f <= 1:
                raise ConfigError(f"capacity fraction {f} outside (0,1]")
        for policy in self.policies:
            if policy not in simulator.POLICIES:
                raise ConfigError(f"unknown policy {policy!r}")

    def extractor_config(self) -> transactions.ExtractorConfig:
        return transactions.ExtractorConfig(window_bytes=self.M, mode=self.mode)

    def chunker_config(self) -> chunking.ChunkerConfig:
        return chunking.ChunkerConfig(q=self.q, p=self.p, sigma=self.sigma)

    def grouper_config(self) -> grouping.GrouperConfig:
        return grouping.GrouperConfig(alpha=self.alpha, mu=self.mu, sort=self.sort)

    def config_hash(self) -> str:
        algorithmic = {
            "trace": self.trace,
            "synthetic": self.synthetic,
            "ops": self.ops,
            "host": self.host,
            "disk": self.disk,
            "max_records": self.max_records,
            "train_count": self.train_count,
            "train_fraction": self.train_fraction,
            "M": self.M,
            "mode": self.mode,
            "include_partial": self.include_partial,
            "q": self.q,
            "p": self.p,
            "sigma": self.sigma,
            "alpha": self.alpha,
            "mu": self.mu,
            "distance": self.distance,
            "sort": self.sort,
            "capacity_fractions": list(self.capacity_fractions),
            "policies": list(self.policies),
            "write_allocate": self.write_allocate,
            "rng_seed": self.rng_seed,
        }
        canon = json.dumps(algorithmic, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        values: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line without '=': {raw!r}")
                key, val = line.split("=", 1)
                values[key.strip()] = val.strip()
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, val in values.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = cls._coerce(key, val)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def _coerce(cls, key, val):
        if not isinstance(val, str):
            return val
        try:
            if key in cls._BOOL_KEYS:
                return val.lower() in ("1", "true", "yes", "on")
            if key in cls._INT_KEYS:
                return int(val)
            if key in cls._FLOAT_KEYS:
                return float(val)
            if key in ("capacity_fractions", "w_limits"):
                return tuple(float(v) for v in val.split(",") if v.strip())
            if key == "policies":
                return tuple(v.strip() for v in val.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        return val


class PipelineStageError(CtgroupError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


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
    trace = load_trace(
        cfg.trace,
        skip_malformed=True,
        ops=cfg.ops,
        host=cfg.host,
        disk=cfg.disk,
        max_records=cfg.max_records,
    )
    return trace, None


def split_for_training(cfg: PipelineConfig, trace: Trace):
    count = cfg.train_count
    if count is None:
        count = max(1, int(len(trace) * cfg.train_fraction))
    count = min(count, len(trace) - 1)
    return trace.split(count)


def run_stages(cfg: PipelineConfig, trace: Trace, enter=lambda stage: None):
    """In-memory pipeline: returns (txns, ctf, chunkset, grouping, train, test).

    enter is called with each stage's name as the stage starts.
    """
    enter("extract")
    train, test = split_for_training(cfg, trace)
    txns = transactions.extract_transactions(train, cfg.extractor_config())
    enter("ctf")
    matrix = features.build_ctf(txns, include_partial=cfg.include_partial)
    enter("chunk")
    # Address-axis span is taken over the transacted data so the standalone
    # `chunk` subcommand (which only sees the feature artifact) agrees.
    chunkset = chunking.chunk_all(matrix, cfg.chunker_config(), metric=cfg.distance)
    enter("group")
    grp = grouping.build_grouping(
        txns, chunkset, cfg.grouper_config(), include_partial=cfg.include_partial
    )
    return txns, matrix, chunkset, grp, train, test


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_artifact_hash(header: dict, cfg: PipelineConfig, path):
    found = header.get("config_hash", "")
    expected = cfg.config_hash()
    if found and found != expected:
        raise InvariantError(
            f"{path} was produced under config hash {found}, current is {expected}"
        )


@contextlib.contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector for a batch run.

    The stages allocate millions of long-lived objects that form no
    reference cycles (trace records, transactions, feature vectors), and
    the collector would scan them again each time it runs as they pile
    up: on the 3M-record gate that cost about a quarter of the run time
    (50 s against 37 s paused, on a 2-CPU host). Reference counting still
    frees them; the collector's state is restored on exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def run_pipeline(cfg: PipelineConfig, check_invariants: bool = False) -> dict:
    """Execute all stages, persist artifacts, return the manifest."""
    cfg.validate()
    os.makedirs(cfg.output_dir, exist_ok=True)
    chash = cfg.config_hash()
    written: list[str] = []

    def path_of(name):
        return os.path.join(cfg.output_dir, name)

    stage = "ingest"

    def enter(name):
        nonlocal stage
        stage = name

    try:
        trace = load_input_trace(cfg)[0]  # the synthetic truth is not kept

        txns, matrix, chunkset, grp, train, test = run_stages(cfg, trace, enter)
        stage = "extract"
        transactions.save_transactions(
            path_of("transactions.tsv"), txns, cfg.extractor_config(),
            trace_label=trace.source_label, config_hash=chash,
        )
        written.append("transactions.tsv")

        stage = "ctf"
        extractor_meta = {"window_bytes": cfg.M, "mode": cfg.mode}
        features.save_ctf(path_of("ctf.tsv"), matrix, extractor_meta, chash)
        written.append("ctf.tsv")

        stage = "chunk"
        chunking.save_chunks(path_of("chunks.tsv"), chunkset, extractor_meta, chash)
        written.append("chunks.tsv")

        stage = "group"
        grouping.save_grouping(
            path_of("grouping.csv"), grp,
            {"window_bytes": cfg.M, "mode": cfg.mode, "q": cfg.q, "p": cfg.p,
             "sigma": cfg.sigma, "trace": trace.source_label.replace(" ", "_")},
            chash,
        )
        written.append("grouping.csv")

        stage = "simulate"
        table = simulator.GroupTable.from_grouping(grp)
        rows = simulator.sweep(
            test, table, cfg.capacity_fractions, cfg.policies,
            extra_sizes=trace.first_seen_sizes(),
            write_allocate=cfg.write_allocate,
            check_invariants=check_invariants,
        )
        with open(path_of("metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(f"# config_hash={chash}\n")
            for line in simulator.metrics_csv_lines(rows):
                fh.write(line + "\n")
        written.append("metrics.csv")
        with open(path_of("metrics.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"config_hash": chash, "rows": [m.as_dict() for m in rows]},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        written.append("metrics.json")
    except Exception as exc:
        # Leave whatever the failing stage produced flagged as partial.
        for name in ARTIFACTS:
            if name not in written and os.path.exists(path_of(name)):
                os.replace(path_of(name), path_of(name) + ".partial")
        raise PipelineStageError(stage, exc) from exc

    stage = "manifest"
    manifest = {
        "config_hash": chash,
        "trace_label": trace.source_label,
        "records": len(trace),
        "train_records": len(train),
        "test_records": len(test),
        "transactions": sum(1 for t in txns if not t.partial),
        "data": len(matrix.rows),
        "chunks": len(chunkset),
        "groups": len(grp),
        "artifacts": [
            {"name": name, "sha256": _digest(path_of(name))} for name in written
        ],
    }
    with open(path_of("manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


SWEEP_AXES = ("sigma", "mu", "M")


@_collector_paused()
def sweep_parameters(cfg: PipelineConfig, axis: str, values) -> list[dict]:
    """Rerun the grouping stages per axis value; returns per-value summaries.

    Each summary carries the grouping report (group count, size histogram)
    and the wall time of the run, for trend plots over sigma / mu / M.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    cfg.validate()
    trace = load_input_trace(cfg)[0]
    results = []
    for value in values:
        point = replace(cfg, **{axis: int(value) if axis == "M" else float(value)})
        point.validate()
        start = time.perf_counter()
        _txns, _matrix, _chunkset, grp, _train, _test = run_stages(point, trace)
        elapsed = time.perf_counter() - start
        report = grouping.grouping_report(grp)
        results.append(
            {
                "axis": axis,
                "value": value,
                "group_count": report.group_count,
                "groups_ge_4": report.groups_of_size_at_least(4),
                "size_histogram": report.size_histogram,
                "elapsed_s": elapsed,
            }
        )
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


def analyze_locality(cfg: PipelineConfig, trace: Trace, txns) -> dict:
    """Workload statistics: related-pair distance histogram and the
    access-count gap report under the configured W limits."""
    index = locality.AccessIndex.from_trace(trace)
    histogram = locality.related_pair_distance_histogram(trace)
    pairs = locality.cooccurring_pairs(t for t in txns if not t.partial)
    gap_reports = locality.access_count_gap_report(index, pairs, cfg.w_limits)
    return {"histogram": histogram, "gap_reports": gap_reports}

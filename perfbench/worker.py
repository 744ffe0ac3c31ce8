"""One measured round of a workload, in a process of its own.

    python3 perfbench/worker.py <workload> <plain|traced> <result.json>

``plain`` times ``pipeline.load_input_trace`` and ``pipeline.run_pipeline``
with nothing added. ``traced`` wraps the public calls that
``run_pipeline`` makes in spans, then runs it, writing the same artifacts
to ``out-traced``. Either way the round's figures go to
``result.json``; a fresh process per round makes ``ru_maxrss`` the peak of
that round alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ctgroup import (  # noqa: E402
    chunking,
    cli,
    features,
    grouping,
    pipeline,
    simulator,
    transactions,
)

from workloads import WORKLOADS  # noqa: E402

# simulate() results summed over a traced round's cells
CELL_COUNTS = ("accesses", "disk_ios", "evictions", "prefetched_bytes", "bypasses",
               "unknown_size_skips")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_config(cfg_path, output_dir=None):
    argv = ["pipeline", "--config", cfg_path]
    if output_dir is not None:
        argv += ["--output_dir", output_dir]
    return cli.load_config(cli.build_parser().parse_args(argv))


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(out_dir) -> dict:
    return {name: sha256(os.path.join(out_dir, name)) for name in pipeline.ARTIFACTS}


class Spans:
    """In-memory span log: name, start, end, parent, CPU time, RSS after."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "counts": {}}
        self._stack.append(len(self.records))
        self.records.append(rec)
        cpu = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            rec["cpu_s"] = rec["cpu_end"] - cpu
            rec["rss_mb"] = rss_mb()
            self._stack.pop()

    def last(self, name) -> dict:
        return [r for r in self.records if r["name"] == name][-1]

    def tail(self, name, after):
        """Add a child of the root from the end of span ``after`` to the root's end."""
        root = self.records[0]
        self.records.append({
            "name": name, "parent": 0, "counts": {}, "start": after["end"],
            "end": root["end"], "cpu_s": root["cpu_end"] - after["cpu_end"],
            "rss_mb": root["rss_mb"]})


def plain_round(workload, cfg_path) -> dict:
    cfg = load_config(cfg_path)
    start, cpu = time.perf_counter(), time.process_time()
    trace, _truth = pipeline.load_input_trace(cfg)
    setup_s, setup_cpu_s = time.perf_counter() - start, time.process_time() - cpu
    del trace, _truth
    start, cpu = time.perf_counter(), time.process_time()
    pipeline.run_pipeline(cfg)
    pipeline_s, pipeline_cpu_s = time.perf_counter() - start, time.process_time() - cpu
    result = {"setup_s": setup_s, "pipeline_s": pipeline_s, "setup_cpu_s": setup_cpu_s,
              "pipeline_cpu_s": pipeline_cpu_s, "rss_mb": rss_mb(),
              "digests": artifact_digests(cfg.output_dir)}
    if workload.staged_simulate:
        result["staged"] = staged_simulate(cfg, cfg_path)
    return result


def staged_simulate(cfg, cfg_path) -> dict:
    """Re-evaluate the saved grouping for one cell with another policy list.

    Runs in its own output directory so the pipeline's metrics stay put.
    Returns the exit code and, on success, the row it produced.
    """
    staged_dir = os.path.join(os.path.dirname(cfg.output_dir), "staged")
    shutil.rmtree(staged_dir, ignore_errors=True)
    os.makedirs(staged_dir)
    shutil.copy(os.path.join(cfg.output_dir, "grouping.csv"), staged_dir)
    fraction = repr(cfg.capacity_fractions[0])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--config", cfg_path, "--output_dir", staged_dir,
                         "--policies", simulator.LRU, "--capacity_fractions", fraction])
    result = {"exit": code, "stderr": err.getvalue().strip()}
    if code == 0:
        with open(os.path.join(staged_dir, "metrics.json"), encoding="utf-8") as fh:
            result["rows"] = json.load(fh)["rows"]
    return result


def traced_round(cfg_path) -> dict:
    """pipeline.run_pipeline with a span around each public call it makes.

    The wrappers replace the module attributes that run_pipeline and
    run_stages look up at call time, so the spans follow the sequence the
    pipeline really runs. A span's counts are taken from the call's result
    after the span has closed. The metrics and manifest writes have no call
    of their own to wrap; they are the root's time after the last
    simulate cell.
    """
    spans = Spans()
    cfg = load_config(cfg_path, os.path.join(os.path.dirname(cfg_path), "out-traced"))
    rows = []

    def traced(inner, name, counts=None):
        def call(*args, **kwargs):
            with spans.span(name) as c:
                result = inner(*args, **kwargs)
            if counts is not None:
                c.update(counts(result))
            return result
        return call

    def patch(owner, attr, name, counts=None):
        setattr(owner, attr, traced(getattr(owner, attr), name, counts))

    def ingest_counts(result):
        trace = result[0]
        # Only the pipeline's own call on the whole trace is timed, not the
        # calls simulate makes on the test split.
        trace.first_seen_sizes = traced(trace.first_seen_sizes, "trace.first_seen")
        return {"records": len(trace)}

    def extract_counts(txns):
        full = [t for t in txns if not t.partial]
        return {"count": len(full), "members": sum(len(t.members) for t in full)}

    def cell_counts(m):
        rows.append(m.as_dict())
        return {key: getattr(m, key) for key in CELL_COUNTS}

    patch(pipeline, "load_input_trace", "ingest", ingest_counts)
    patch(pipeline, "synthesize_trace", "synthetic.synthesize")
    patch(pipeline, "load_trace", "trace.load")
    patch(pipeline, "split_for_training", "pipeline.split")
    patch(transactions, "extract_transactions", "transactions.extract", extract_counts)
    patch(features, "build_ctf", "features.build_ctf", lambda matrix: {
        "data": len(matrix.rows),
        "nnz": sum(v.popcount() for v in matrix.rows.values())})
    patch(chunking, "chunk_all", "chunking.chunk_all", lambda chunkset: {
        "areas": len({ch.area for ch in chunkset.chunks}),
        "chunks": len(chunkset),
        "merges": len(chunkset.audit),
        "merges_d0": sum(1 for m in chunkset.audit if m.distance == 0)})
    patch(grouping, "build_grouping", "grouping.build_grouping", lambda grp: {
        "relations": grp.processed_cross + grp.skipped_same_group,
        "merges": len(grp.audit),
        "groups": len(grp)})
    for module, attr in ((transactions, "save_transactions"), (features, "save_ctf"),
                         (chunking, "save_chunks"), (grouping, "save_grouping")):
        patch(module, attr, "pipeline.write")
    patch(simulator.GroupTable, "from_grouping", "simulator.group_table")
    patch(simulator, "simulate", "simulator.cell", cell_counts)

    with spans.span("pipeline") as root:
        pipeline.run_pipeline(cfg)
    spans.tail("pipeline.write", after=spans.last("simulator.cell"))
    root["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(cfg.output_dir, name))
        for name in pipeline.ARTIFACTS + ("manifest.json",))
    return {"spans": spans.records, "rows": rows,
            "digests": artifact_digests(cfg.output_dir)}


def main(argv) -> int:
    name, mode, result_path = argv
    workload = WORKLOADS[name]
    cfg_path = workload.path("run.cfg")
    if mode == "plain":
        result = plain_round(workload, cfg_path)
    else:
        result = traced_round(cfg_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

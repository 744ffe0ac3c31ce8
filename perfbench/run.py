"""ctgroup benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload planted-300k --seed 1 --seconds 30 --trace 0

The inputs are made from ``--seed``; then whole rounds run, each in a
fresh process, until ``--seconds`` have passed. With ``--trace 0`` every
round is an untraced pipeline run and the end-to-end metrics are reported
(medians over rounds). With ``--trace 1`` untraced and traced rounds
alternate and the per-layer metrics are reported. Either way the
artifacts are checked (see checks.py) and the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ctgroup import pipeline  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, planted_groups, write_inputs  # noqa: E402

ROUND_TIMEOUT_S = 150
# The known fault of the staged `ctgroup simulate` call: config_hash covers
# the simulate-only keys, so the saved grouping.csv is rejected.
STAGED_FAULT_EXIT = 4
STAGED_FAULT = "produced under config hash"
LAYERS = ("synthetic", "trace", "transactions", "features", "chunking", "grouping",
          "simulator", "pipeline")
TIMED_SPANS = ("synthetic.synthesize", "trace.load", "trace.first_seen",
               "transactions.extract", "features.build_ctf", "chunking.chunk_all",
               "grouping.build_grouping", "pipeline.write")
# per-layer count -> (span name, key in that span's counts)
SPAN_COUNTS = {
    "transactions.count": ("transactions.extract", "count"),
    "transactions.members": ("transactions.extract", "members"),
    "features.data": ("features.build_ctf", "data"),
    "features.nnz": ("features.build_ctf", "nnz"),
    "chunking.areas": ("chunking.chunk_all", "areas"),
    "chunking.chunks": ("chunking.chunk_all", "chunks"),
    "chunking.merges": ("chunking.chunk_all", "merges"),
    "chunking.merges_d0": ("chunking.chunk_all", "merges_d0"),
    "grouping.relations": ("grouping.build_grouping", "relations"),
    "grouping.merges": ("grouping.build_grouping", "merges"),
    "grouping.groups": ("grouping.build_grouping", "groups"),
    "pipeline.artifact_bytes": ("pipeline", "artifact_bytes"),
}


def run_round(workload, mode, index) -> dict:
    result_path = os.path.join(workload.work_dir, f"round-{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload.name, mode,
         result_path],
        stdout=sys.stderr, timeout=ROUND_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.exit(f"{mode} round {index} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(plain, rows) -> dict:
    merged = [r for r in rows if r["policy"] == "group_merged"]
    lru_ios = sum(r["disk_ios"] for r in rows if r["policy"] == "lru")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "hit_rate.group_merged": statistics.fmean(r["hit_rate"] for r in merged),
        "io_ratio.lru_over_merged": lru_ios / sum(r["disk_ios"] for r in merged),
    }


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced round."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    out = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = sum(s["end"] - s["start"] for s in named(name))
        out[f"{name}_cpu_s"] = sum(s["cpu_s"] for s in named(name))
    cells = named("simulator.cell")
    out["simulator.simulate_s"] = sum(s["end"] - s["start"] for s in cells)
    out["simulator.simulate_cpu_s"] = sum(s["cpu_s"] for s in cells)
    out["simulator.cell_s"] = statistics.median(s["end"] - s["start"] for s in cells)
    out["simulator.cell_cpu_s"] = statistics.median(s["cpu_s"] for s in cells)
    out["simulator.cells"] = len(cells)
    for key in cells[0]["counts"]:
        out[f"simulator.{key}"] = sum(s["counts"][key] for s in cells)
    for metric, (name, key) in SPAN_COUNTS.items():
        out[metric] = named(name)[0]["counts"][key]
    out["trace.records"] = named("ingest")[0]["counts"]["records"]
    out["grouping.merges_per_relation"] = (
        out["grouping.merges"] / out["grouping.relations"]
        if out["grouping.relations"] else 0.0)
    for layer in LAYERS:
        out[f"{layer}.rss_mb"] = max(
            (s["rss_mb"] for s in spans
             if s["name"] == layer or s["name"].startswith(layer + ".")), default=0.0)
    return out


def stage_summary(spans) -> dict:
    """Root span, the sum of its direct children, and every span's self time."""
    root = spans[0]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s, inner in zip(spans, child_time):
        s["self_s"] = s["end"] - s["start"] - inner
    return {"total_s": root["end"] - root["start"], "stage_sum_s": child_time[0]}


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def check_outputs(cfg, out_dir, rows) -> list:
    if "trace" in cfg:
        accesses = checks.read_csv_trace(cfg["trace"])
    else:
        # Synthetic traces come from the program's own generator; the
        # checks below judge what the pipeline made of them.
        trace, _ = pipeline.load_input_trace(
            pipeline.PipelineConfig.from_mapping(cfg))
        accesses = list(zip(trace.addresses.tolist(), trace.sizes.tolist(),
                            (o == 1 for o in trace.ops.tolist())))
    test = checks.held_out(accesses, float(cfg.get("train_fraction", 0.7)))
    write_allocate = cfg.get("write_allocate", "true") == "true"
    failures = checks.check_rows(rows, test, write_allocate)
    return failures + checks.check_partitions(out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    cfg = write_inputs(workload, args.seed)

    # With --trace 1, untraced and traced rounds alternate.
    plain, traced = [], []
    start = time.perf_counter()
    while (not plain or (args.trace and not traced)
           or time.perf_counter() - start < args.seconds):
        if args.trace and len(traced) < len(plain):
            traced.append(run_round(workload, "traced", len(traced)))
        else:
            plain.append(run_round(workload, "plain", len(plain)))

    failures = []
    digests = plain[0]["digests"]
    if any(r["digests"] != digests for r in plain + traced):
        failures.append("artifacts differ between rounds")
    out_dir = cfg["output_dir"]
    rows = checks.load_metric_rows(out_dir)
    failures += check_outputs(cfg, out_dir, rows)
    attempted, failed = len(plain), 0
    for r in plain:
        staged = r.get("staged")
        if staged is None:
            continue
        attempted += 1
        if staged["exit"] == 0:
            if staged["rows"] != [x for x in rows if x["policy"] == "lru"][:1]:
                failures.append("staged simulate row differs from the pipeline's")
            continue
        failed += 1
        if staged["exit"] != STAGED_FAULT_EXIT or STAGED_FAULT not in staged["stderr"]:
            failures.append(f"staged simulate exited with {staged['exit']}: "
                            f"{staged['stderr']}")

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "rounds": len(plain), "attempted": attempted, "failed": failed,
              "machine": machine_facts(), "digests": digests,
              "samples": {k: [r[k] for r in plain]
                          for k in ("setup_s", "pipeline_s", "setup_cpu_s",
                                    "pipeline_cpu_s", "rss_mb")}}
    if workload.name == "planted-300k":
        planted = planted_groups()
        split = checks.split_planted(out_dir, planted)
        record["planted_split"] = len(split)
        failures += checks.check_planted(rows, len(split), len(planted))
    if plain[0].get("staged"):
        record["staged_error"] = plain[0]["staged"]["stderr"]
    if args.trace:
        per_round = [layer_metrics(r["spans"]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        counts = [k for k in per_round[0] if not k.endswith(("_s", ".rss_mb"))]
        for k in counts:
            values[k] = per_round[0][k]
            if any(m[k] != values[k] for m in per_round):
                failures.append(f"{k} differs between traced rounds")
        totals = [stage_summary(r["spans"]) for r in traced]
        pipeline_s = statistics.median(r["pipeline_s"] for r in plain)
        values["pipeline.trace_overhead_s"] = (
            statistics.median(t["total_s"] for t in totals) - pipeline_s)
        record["stages"] = {"pipeline_s": pipeline_s, "traced": totals}
        for r in traced:
            if r["rows"] != rows:
                failures.append("traced metrics rows differ from metrics.json")
        with open(os.path.join(workload.work_dir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([r["spans"] for r in traced], fh)
    else:
        values = end_to_end(plain, rows)
    record["failures"] = failures
    with open(os.path.join(workload.work_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    m = record["machine"]
    artifacts = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"# {workload.name} seed={args.seed} rounds={len(plain)} "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"attempted={attempted} failed={failed} artifacts={artifacts[:16]}")
    if args.trace:
        t = totals[0]
        print(f"# traced total {t['total_s']:.3f}s, stage spans {t['stage_sum_s']:.3f}s,"
              f" untraced pipeline_s {pipeline_s:.3f}s")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

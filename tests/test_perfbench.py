"""The benchmark's traced round runs against the library in src/.

perfbench's traced round wraps ctgroup names (pipeline.split_for_training,
GroupTable.from_grouping, simulator.simulate, Trace.first_seen_sizes, the
save_* writers, ...) and reads views of what they return, so a change to
any of them can break the benchmark while every other test passes. The
round leaves module attributes patched, so it runs in a process of its
own.
"""

import json
import subprocess
import sys
from pathlib import Path

from ctgroup.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]

ROUND = """
import json, sys
sys.dont_write_bytecode = True  # nothing is written under perfbench/
sys.path.insert(0, sys.argv[1])
import run, worker
spans = worker.traced_round(sys.argv[2])["spans"]
print(json.dumps(run.layer_metrics(spans)))
"""


def test_traced_round_gives_every_per_layer_metric(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("num_data=50\nnum_accesses=3000\ngroups=5x1.0,5x1.0,5x0.8\n"
                    "rng_seed=4\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"synthetic={spec}\nM=32768\n")
    done = subprocess.run([sys.executable, "-c", ROUND, str(ROOT / "perfbench"),
                           str(cfg_path)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    layers = json.loads(done.stdout.splitlines()[-1])

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    # run.py's main computes the overhead from the untraced rounds
    assert wanted - {"pipeline.trace_overhead_s"} <= set(layers)

    manifest = json.loads((tmp_path / "out-traced" / "manifest.json").read_text())
    for metric, key in (("features.data", "data"), ("chunking.chunks", "chunks"),
                        ("grouping.groups", "groups"),
                        ("transactions.count", "transactions")):
        assert layers[metric] == manifest[key], metric
    cfg = PipelineConfig.from_file(cfg_path)
    assert layers["simulator.cells"] == len(cfg.capacity_fractions) * len(cfg.policies)

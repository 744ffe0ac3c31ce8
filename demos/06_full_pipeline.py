"""
The end-to-end pipeline and parameter sweeps
============================================

One config drives everything: ingest -> transactions -> features ->
chunks -> groups -> cache metrics, with every intermediate artifact
written to the output directory under a config hash. Re-running with the
same config reproduces the artifacts byte for byte.

The same stages are also exposed as the `ctgroup` command line tool:

    ctgroup pipeline --synthetic workload.cfg --output_dir out
    ctgroup sweep --synthetic workload.cfg --axis sigma --values 0.1,0.3,0.5
"""

import dataclasses
import json
import pathlib
import tempfile

from ctgroup.pipeline import PipelineConfig, run_pipeline, sweep_parameters

with tempfile.TemporaryDirectory(prefix="ctgroup_demo_") as tmp:
    workdir = pathlib.Path(tmp)

    # A synthetic workload spec: 30 planted groups of 6, softened with 0.9
    # intra-group access probability.
    workload = workdir / "workload.cfg"
    workload.write_text(
        "num_data=200\n"
        "num_accesses=15000\n"
        f"groups={','.join(['6x0.9'] * 30)}\n"
        "rng_seed=4\n"
    )

    cfg = PipelineConfig.from_mapping({
        "synthetic": str(workload),
        "output_dir": str(workdir / "out"),
        "capacity_fractions": "0.01,0.04,0.16",
    })
    manifest = run_pipeline(cfg)
    print(f"pipeline artifacts in {cfg.output_dir} (config {manifest['config_hash']}):")
    for entry in manifest["artifacts"]:
        print(f"  {entry['name']}  sha256={entry['sha256'][:12]}...")
    print(json.dumps({k: manifest[k] for k in
                      ("records", "transactions", "data", "chunks", "groups")},
                     indent=2))

    # Sweep the chunking threshold: a looser sigma merges more data per chunk,
    # so the total group count falls. The grouper is held back (alpha=1.0) so
    # the clustering stage, not the co-occurrence merging, drives the counts.
    print("\nsigma sweep:")
    sweep_cfg = dataclasses.replace(cfg, alpha=1.0)
    for row in sweep_parameters(sweep_cfg, "sigma", ["0.1", "0.3", "0.5"]):
        print(f"  sigma={row['value']}: {row['group_count']} groups "
              f"({row['groups_ge_4']} with >= 4 data)")

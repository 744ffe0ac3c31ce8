"""Command-line front end.

Subcommands mirror the pipeline stages; `pipeline` runs everything and
`sweep` re-runs the grouping stages across one parameter axis. Every
config-file key has a same-named flag that overrides it.

Exit codes: 0 success, 2 config error, 3 data error, 4 internal invariant
violation. A command whose reader closes stdout early exits 0 without a
traceback: every command prints only after its files are written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import artifacts, locality, pipeline, transactions
from .errors import ConfigError, CtgroupError, DataError
from .pipeline import PipelineConfig, PipelineStageError


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(PipelineConfig):
        parser.add_argument(f"--{f.name}", dest=f.name, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctgroup",
        description="Cache-transaction data grouping and prefetch evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("ingest", cmd_ingest, "parse and filter a trace, write the normalized CSV"),
        ("extract", cmd_stage, "extract cache transactions from the training split"),
        ("ctf", cmd_stage, "invert the transaction log into feature vectors"),
        ("chunk", cmd_stage, "pre-block and cluster data into chunks"),
        ("group", cmd_stage, "merge chunks into disjoint groups"),
        ("simulate", cmd_stage, "replay the test split through the cache policies"),
        ("analyze", cmd_analyze, "emit workload locality statistics"),
        ("pipeline", cmd_pipeline, "run every stage and write a manifest"),
        ("sweep", cmd_sweep, "re-run grouping across one parameter axis"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        _add_config_flags(p)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=pipeline.SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    return parser


def load_config(args) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name) is not None}
    if args.config:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_mapping(overrides)


def _out(cfg, name):
    pipeline.make_output_dir(cfg)
    return os.path.join(cfg.output_dir, name)


def _write_lines(cfg, name, lines):
    with artifacts.replacing(_out(cfg, name)) as fh:
        fh.writelines(line + "\n" for line in lines)


def cmd_ingest(cfg, args):
    trace, _ = pipeline.load_input_trace(cfg, timestamps=True)
    trace.save(_out(cfg, "trace.csv"))
    print(f"wrote {len(trace)} records ({trace.skipped} skipped) to "
          f"{os.path.join(cfg.output_dir, 'trace.csv')}")


def cmd_stage(cfg, args):
    """One pipeline stage: reads what it needs, writes its artifacts."""
    stage = pipeline.STAGE_TABLE[pipeline.STAGES.index(args.command)]
    saved = {}
    pipeline.run_stages(cfg, [stage], {}, saved)
    counts = "".join(f" {key}={n}" for key, n in saved[stage.name].items())
    paths = ", ".join(os.path.join(cfg.output_dir, name) for name in stage.artifacts)
    print(f"{stage.name}:{counts} -> {paths}")


def cmd_analyze(cfg, args):
    """Workload statistics: the related-pair distance histogram and the
    access-count gap report under the configured W limits."""
    trace, _ = pipeline.load_input_trace(cfg)
    histogram = locality.related_pair_distance_histogram(trace)
    pairs = locality.cooccurring_pairs(
        transactions.extract_transactions(trace, cfg.extractor_config()))
    reports = locality.access_count_gap_report(locality.access_index(trace), pairs,
                                               cfg.w_limits)
    _write_lines(cfg, "locality_distance.csv", histogram.to_csv_lines())
    _write_lines(cfg, "locality_gap.csv", locality.gap_report_csv_lines(reports))
    print(f"related pairs: {histogram.total}; reports written to {cfg.output_dir}")


def cmd_pipeline(cfg, args):
    manifest = pipeline.run_pipeline(cfg)
    print(json.dumps(manifest, indent=2, sort_keys=True))


def cmd_sweep(cfg, args):
    axis = args.axis
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    results = pipeline.sweep_parameters(cfg, axis, values)
    _write_lines(cfg, f"sweep_{axis}.csv", pipeline.sweep_csv_lines(results))
    _write_lines(cfg, f"sweep_{axis}_hist.csv", pipeline.sweep_histogram_csv_lines(results))
    for row in results:
        print(f"{axis}={row['value']}: {row['group_count']} groups "
              f"({row['groups_ge_4']} of size >= 4) in {row['elapsed_s']:.2f}s")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(load_config(args), args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the output is complete; stdout now points at devnull, so the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except CtgroupError as exc:
        # a failed stage is reported under the kind of error that failed it
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        code, kind = ((2, "config error") if isinstance(cause, ConfigError) else
                      (3, "data error") if isinstance(cause, DataError) else
                      (4, "internal error"))
        print(f"{kind}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands mirror the pipeline stages; `pipeline` runs everything and
`sweep` re-runs the grouping stages across one parameter axis. Every
config-file key has a same-named flag that overrides it.

Exit codes: 0 success, 2 config error, 3 data error, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import chunking, features, grouping, locality, pipeline, simulator, transactions
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
        ("extract", cmd_extract, "extract cache transactions from the training split"),
        ("ctf", cmd_ctf, "invert the transaction log into feature vectors"),
        ("chunk", cmd_chunk, "pre-block and cluster data into chunks"),
        ("group", cmd_group, "merge chunks into disjoint groups"),
        ("simulate", cmd_simulate, "replay the test split through the cache policies"),
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
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _load(cfg, load, name, stage):
    """load(output_dir/name), which must carry the stage's hash; drops the header."""
    return load(_out(cfg, name), config_hash=cfg.stage_hash(stage))[0]


def _write_lines(cfg, name, lines):
    with open(_out(cfg, name), "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def cmd_ingest(cfg):
    trace, _ = pipeline.load_input_trace(cfg)
    trace.save(_out(cfg, "trace.csv"))
    print(f"wrote {len(trace)} records ({trace.skipped} skipped) to "
          f"{os.path.join(cfg.output_dir, 'trace.csv')}")


def cmd_extract(cfg):
    trace, _ = pipeline.load_input_trace(cfg)
    train, _test = pipeline.split_for_training(cfg, trace)
    log = transactions.extract_transactions(train, cfg.extractor_config())
    transactions.save_transactions(
        _out(cfg, "transactions.tsv"), log, cfg.extractor_config(),
        trace.source_label, cfg.stage_hash("extract"),
    )
    print(f"extracted {log.full_count} transactions (+{int(log.partial)} partial)")


def cmd_ctf(cfg):
    log = _load(cfg, transactions.load_transactions, "transactions.tsv", "extract")
    matrix = features.build_ctf(log, include_partial=cfg.include_partial)
    features.save_ctf(_out(cfg, "ctf.tsv"), matrix, config_hash=cfg.stage_hash("ctf"))
    print(f"built features for {len(matrix)} data over "
          f"{matrix.num_transactions} transactions")


def cmd_chunk(cfg):
    matrix = _load(cfg, features.load_ctf, "ctf.tsv", "ctf")
    chunkset = chunking.chunk_all(matrix, cfg.chunker_config(), metric=cfg.distance)
    chunking.save_chunks(_out(cfg, "chunks.tsv"), chunkset,
                         config_hash=cfg.stage_hash("chunk"))
    print(f"formed {len(chunkset)} chunks ({len(chunkset.excluded)} data excluded)")


def cmd_group(cfg):
    log = _load(cfg, transactions.load_transactions, "transactions.tsv", "extract")
    matrix = _load(cfg, features.load_ctf, "ctf.tsv", "ctf")
    chunkset = chunking.load_chunks(_out(cfg, "chunks.tsv"), matrix, cfg.chunker_config(),
                                    cfg.stage_hash("chunk"))
    grp = grouping.build_grouping(log, chunkset, cfg.grouper_config(),
                                  include_partial=cfg.include_partial)
    grouping.save_grouping(_out(cfg, "grouping.csv"), grp,
                           config_hash=cfg.stage_hash("group"))
    print(f"merged {len(chunkset)} chunks into {len(grp)} groups")


def cmd_simulate(cfg):
    trace, _ = pipeline.load_input_trace(cfg)
    _train, test = pipeline.split_for_training(cfg, trace)
    members = _load(cfg, grouping.load_grouping_members, "grouping.csv", "group")
    rows = simulator.sweep(
        test, simulator.GroupTable.from_members(members), cfg.capacity_fractions,
        cfg.policies, extra_sizes=trace.first_seen_sizes(),
        write_allocate=cfg.write_allocate,
    )
    pipeline.write_metrics(cfg, rows)
    for m in rows:
        print(f"{m.policy} fraction={m.capacity_fraction} "
              f"hit_rate={m.hit_rate:.4f} disk_ios={m.disk_ios}")


def cmd_analyze(cfg):
    trace, _ = pipeline.load_input_trace(cfg)
    log = transactions.extract_transactions(trace, cfg.extractor_config())
    stats = pipeline.analyze_locality(cfg, trace, log)
    _write_lines(cfg, "locality_distance.csv", stats["histogram"].to_csv_lines())
    _write_lines(cfg, "locality_gap.csv", locality.gap_report_csv_lines(stats["gap_reports"]))
    print(f"related pairs: {stats['histogram'].total}; reports written to "
          f"{cfg.output_dir}")


def cmd_pipeline(cfg):
    manifest = pipeline.run_pipeline(cfg)
    print(json.dumps(manifest, indent=2, sort_keys=True))


def cmd_sweep(cfg, axis, values_text):
    values = [v.strip() for v in values_text.split(",") if v.strip()]
    results = pipeline.sweep_parameters(cfg, axis, values)
    _write_lines(cfg, f"sweep_{axis}.csv", pipeline.sweep_csv_lines(results))
    _write_lines(cfg, f"sweep_{axis}_hist.csv", pipeline.sweep_histogram_csv_lines(results))
    for row in results:
        print(f"{axis}={row['value']}: {row['group_count']} groups "
              f"({row['groups_ge_4']} of size >= 4) in {row['elapsed_s']:.2f}s")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "sweep":
            cmd_sweep(cfg, args.axis, args.values)
        else:
            args.run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, ConfigError):
            return 2
        if isinstance(exc.cause, DataError):
            return 3
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CtgroupError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

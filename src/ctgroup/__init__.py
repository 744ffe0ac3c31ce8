"""Cache-transaction based data grouping and prefetch evaluation.

Pipeline: trace ingestion -> FIFO-window transaction extraction ->
per-datum transaction-membership features -> locality-aware chunking ->
high-correlation-first group merging -> cache/prefetch simulation against
LRU/FIFO baselines.
"""

from .trace import AccessRecord, Op, Trace, load_trace, parse_record
from .synthetic import SyntheticSpec, SyntheticTruth, synthesize_trace
from .transactions import (
    CacheTransaction,
    ExtractorConfig,
    TransactionLog,
    extract_transactions,
)
from .features import (
    CtfMatrix,
    CtfVector,
    Partition,
    access_frequency,
    build_ctf,
    distance,
    strong_relation,
)
from .chunking import Chunk, ChunkerConfig, ChunkSet, chunk_all
from .grouping import (
    Grouping,
    GrouperConfig,
    build_grouping,
    grouping_report,
)
from .simulator import GroupTable, SimConfig, SimMetrics, simulate, sweep
from .pipeline import PipelineConfig, run_pipeline, sweep_parameters

__version__ = "0.1.0"

__all__ = [
    "AccessRecord", "Op", "Trace", "load_trace", "parse_record",
    "SyntheticSpec", "SyntheticTruth", "synthesize_trace",
    "CacheTransaction", "ExtractorConfig", "TransactionLog", "extract_transactions",
    "CtfMatrix", "CtfVector", "Partition", "access_frequency", "build_ctf", "distance",
    "strong_relation",
    "Chunk", "ChunkerConfig", "ChunkSet", "chunk_all",
    "Grouping", "GrouperConfig", "build_grouping", "grouping_report",
    "GroupTable", "SimConfig", "SimMetrics", "simulate", "sweep",
    "PipelineConfig", "run_pipeline", "sweep_parameters",
]

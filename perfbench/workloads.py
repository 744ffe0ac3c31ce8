"""Benchmark workloads: how each one's inputs are made from a seed.

Every workload writes its inputs and a flat ``run.cfg`` under
``.perfbench_work/<name>/`` in the checkout. The paths are relative and
the same on every run, because the config hash and the trace label embed
the input path; byte-identical artifacts depend on both.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORK_ROOT = ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict = field(default_factory=dict)  # run.cfg keys besides the source
    # The replay-mixed round also re-runs one cell through the staged
    # `ctgroup simulate` subcommand (a known fault; see README).
    staged_simulate: bool = False

    @property
    def work_dir(self) -> str:
        return os.path.join(WORK_ROOT, self.name)

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


# planted-300k: the acceptance gate's TestThroughput data shape (20,000
# data, 2,000 planted 8x1.0 groups, 4 KiB reads, default config) at 300k
# of its 3M accesses, so that several rounds fit in one run.
PLANTED_DATA = 20000
PLANTED_GROUPS = 2000
PLANTED_ACCESSES = 300000

# cluster-heavy: partial co-access (p=0.8) in groups of 8, 16 and 32, with
# sigma raised so chunking performs thousands of non-zero-distance merges.
CLUSTER_DATA = 8000
CLUSTER_GROUPS = ((8, 150), (16, 100), (32, 50))
CLUSTER_PROB = 0.8
CLUSTER_ACCESSES = 400000

# replay-mixed: a generated MSR-format CSV (see write_replay_csv).
REPLAY_DATA = 12000
REPLAY_RECORDS = 150000
REPLAY_SIZES = (512, 4096, 8192, 16384, 32768, 65536)
REPLAY_SIZE_WEIGHTS = (1, 4, 3, 2, 1, 1)
REPLAY_GROUP_SIZES = (4, 6, 8, 12, 16)
REPLAY_GROUPED_DATA = 6000
REPLAY_WRITE_SHARE = 0.3
REPLAY_ODD_SIZE_SHARE = 0.1   # accesses whose size differs from the datum's
REPLAY_MEMBER_PROB = 0.9      # chance a group member is touched in a group run
REPLAY_SKEW = 0.6             # unit popularity ~ rank ** -REPLAY_SKEW
REPLAY_STRIDE = 1 << 17       # 128 KiB between data, above the largest size
# The data universe (sizes, groups, popularity order) is the same for every
# seed, as on one real volume; the seed draws the access sequence. With a
# per-seed universe the hit rate moved by 7% between seeds.
REPLAY_UNIVERSE_SEED = 2009

WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-300k", {}),
        Workload(
            "cluster-heavy",
            {"train_fraction": "0.9", "sigma": "0.6",
             "capacity_fractions": "0.002,0.008"},
        ),
        Workload(
            "replay-mixed",
            {"train_fraction": "0.2", "write_allocate": "false",
             "policies": "lru,fifo,group_prefetch,group_merged",
             "capacity_fractions": "0.0002,0.001,0.004,0.016,0.064"},
            staged_simulate=True,
        ),
    )
}


def planted_groups() -> list[tuple[int, ...]]:
    """Member addresses of planted-300k's planted groups.

    Derived from the spec layout (groups take the first regions, members
    are address_stride apart), not from the generator's output.
    """
    stride, gap = 4096, 1 << 20
    return [tuple(g * gap + j * stride for j in range(8)) for g in range(PLANTED_GROUPS)]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_inputs(workload: Workload, seed: int) -> dict:
    """Write the workload's inputs and run.cfg for ``seed``; returns the
    run.cfg keys."""
    os.makedirs(workload.work_dir, exist_ok=True)
    cfg = dict(workload.config)
    if workload.name == "planted-300k":
        spec = workload.path("spec.cfg")
        groups = ",".join(["8x1.0"] * PLANTED_GROUPS)
        _write(spec, f"num_data={PLANTED_DATA}\nnum_accesses={PLANTED_ACCESSES}\n"
                     f"groups={groups}\nrng_seed={seed}\n")
        cfg["synthetic"] = spec
    elif workload.name == "cluster-heavy":
        spec = workload.path("spec.cfg")
        groups = ",".join(f"{size}x{CLUSTER_PROB}"
                          for size, count in CLUSTER_GROUPS for _ in range(count))
        _write(spec, f"num_data={CLUSTER_DATA}\nnum_accesses={CLUSTER_ACCESSES}\n"
                     f"groups={groups}\nrng_seed={seed}\n")
        cfg["synthetic"] = spec
    else:
        csv_path = workload.path("trace.csv")
        write_replay_csv(csv_path, seed)
        cfg["trace"] = csv_path
    cfg["output_dir"] = workload.path("out")
    _write(workload.path("run.cfg"),
           "".join(f"{k}={v}\n" for k, v in sorted(cfg.items())))
    return cfg


def write_replay_csv(path: str, seed: int) -> None:
    """MSR-format block trace: planted co-access groups plus singletons.

    Units (groups of 4-16 consecutive data, sizes in a fixed cycle, or
    single data) are drawn with a skewed popularity; a group run touches
    each member with probability REPLAY_MEMBER_PROB. Each datum has a size
    from 512 B to 64 KiB; a tenth of the accesses use another size, and
    about 30% are writes.
    """
    universe = random.Random(REPLAY_UNIVERSE_SEED)
    sizes = universe.choices(REPLAY_SIZES, REPLAY_SIZE_WEIGHTS, k=REPLAY_DATA)
    units: list[list[int]] = []
    datum = 0
    while datum < REPLAY_GROUPED_DATA:
        n = REPLAY_GROUP_SIZES[len(units) % len(REPLAY_GROUP_SIZES)]
        units.append(list(range(datum, min(datum + n, REPLAY_GROUPED_DATA))))
        datum += n
    units.extend([d] for d in range(REPLAY_GROUPED_DATA, REPLAY_DATA))
    universe.shuffle(units)
    cum_weights = []
    total = 0.0
    for rank in range(len(units)):
        total += (rank + 1) ** -REPLAY_SKEW
        cum_weights.append(total)

    rng = random.Random(seed)
    lines = []
    ts = 0
    while len(lines) < REPLAY_RECORDS:
        unit = rng.choices(units, cum_weights=cum_weights)[0]
        for d in unit:
            if len(unit) > 1 and rng.random() >= REPLAY_MEMBER_PROB:
                continue
            size = sizes[d]
            if rng.random() < REPLAY_ODD_SIZE_SHARE:
                size = rng.choice(REPLAY_SIZES)
            op = "Write" if rng.random() < REPLAY_WRITE_SHARE else "Read"
            ts += rng.randint(1, 2000)
            lines.append(f"{ts},bench,0,{op},{d * REPLAY_STRIDE},{size},"
                         f"{rng.randint(50, 5000)}\n")
            if len(lines) == REPLAY_RECORDS:
                break
    _write(path, "".join(lines))

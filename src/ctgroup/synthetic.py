"""Synthetic trace generation with planted group structure.

The generator emits accesses in runs: each run picks one planted group (or
one ungrouped datum) uniformly at random and accesses its members
contiguously. With intra-group probability 1.0 every member appears in
every run of its group, so the planted partition is recoverable and can
serve as ground truth for the chunking/grouping stages.

Randomness comes from a single ``random.Random(rng_seed)`` instance
(CPython's Mersenne Twister, which is specified and stable across
platforms), so traces are bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import random

import numpy as np

from .artifacts import read_keyvalues
from .errors import ConfigError, EmptyTraceError
from .trace import Op, Trace


@dataclass
class SyntheticSpec:
    """Parameters for a planted-group trace.

    group_structure lists (group size, intra-group access probability)
    pairs; data not covered by any group are accessed as singletons.
    Member addresses within a group are contiguous (address_stride apart)
    and each group/singleton gets its own region_gap-spaced base address.
    """

    num_data: int
    num_accesses: int
    group_structure: list[tuple[int, float]] = field(default_factory=list)
    size_min: int = 4096
    size_max: int = 4096
    rng_seed: int = 0
    address_stride: int = 4096
    region_gap: int = 1 << 20

    def validate(self):
        if self.num_data <= 0:
            raise ConfigError("num_data must be positive")
        if self.num_accesses < 0:
            raise ConfigError("num_accesses must be non-negative")
        if not 0 < self.size_min <= self.size_max:
            raise ConfigError("need 0 < size_min <= size_max")
        if self.address_stride <= 0 or self.region_gap <= 0:
            raise ConfigError("address_stride and region_gap must be positive")
        total = 0
        for size, prob in self.group_structure:
            if size <= 0:
                raise ConfigError(f"group size must be positive, got {size}")
            if not 0.0 <= prob <= 1.0:
                raise ConfigError(f"intra-group probability {prob} outside [0,1]")
            total += size
        if total > self.num_data:
            raise ConfigError(
                f"group structure covers {total} data but num_data={self.num_data}"
            )

    @classmethod
    def from_file(cls, path) -> "SyntheticSpec":
        """Read a flat key=value spec file.

        Recognized keys: num_data, num_accesses, groups (e.g. "3x1.0,4x0.8"),
        size_min, size_max, rng_seed, address_stride, region_gap; any other
        key is a ConfigError.
        """
        values = read_keyvalues(path)
        int_keys = {f.name for f in fields(cls)} - {"group_structure"}
        for key in values:
            if key not in int_keys and key != "groups":
                raise ConfigError(f"unknown synthetic spec key {key!r}")
        for key in ("num_data", "num_accesses"):
            if key not in values:
                raise ConfigError(f"synthetic spec missing key {key!r}")
        try:
            spec = cls(group_structure=parse_group_structure(values.pop("groups", "")),
                       **{key: int(val) for key, val in values.items()})
        except ValueError as exc:
            raise ConfigError(f"bad synthetic spec value: {exc}") from None
        spec.validate()
        return spec


def parse_group_structure(text: str) -> list[tuple[int, float]]:
    """Parse "3x1.0,4x0.8" into [(3, 1.0), (4, 0.8)]."""
    structure = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "x" not in part:
            raise ConfigError(f"group entry {part!r} must look like SIZExPROB")
        size_text, prob_text = part.split("x", 1)
        structure.append((int(size_text), float(prob_text)))
    return structure


@dataclass
class SyntheticTruth:
    """Ground truth accompanying a synthetic trace."""

    groups: list[tuple[int, ...]]  # planted groups, member block addresses
    ungrouped: tuple[int, ...]
    sizes: dict[int, int]


def synthesize_trace(spec: SyntheticSpec) -> tuple[Trace, SyntheticTruth]:
    """Generate a trace and its planted partition. Deterministic per seed.

    Runs draw datum indices into one list, which numpy turns into the
    trace's columns; no per-access record is built.
    """
    spec.validate()
    if spec.num_accesses == 0:
        raise EmptyTraceError("num_accesses is 0")
    rng = random.Random(spec.rng_seed)

    addresses: list[int] = []  # per datum, in placement order
    next_region = 0
    sizes: dict[int, int] = {}

    def place(count: int) -> list[int]:
        """Place count data in a fresh region; returns their datum indices."""
        nonlocal next_region
        base = next_region * spec.region_gap
        next_region += 1
        first = len(addresses)
        addresses.extend(base + j * spec.address_stride for j in range(count))
        for a in addresses[first:]:
            sizes[a] = rng.randint(spec.size_min, spec.size_max)
        return list(range(first, len(addresses)))

    groups = [place(size) for size, _prob in spec.group_structure]
    ungrouped: list[int] = []
    for _ in range(spec.num_data - len(addresses)):
        ungrouped.extend(place(1))

    # Selection units: each planted group and each singleton, uniform.
    units: list[tuple[list[int], float]] = [
        (g, prob) for g, (_size, prob) in zip(groups, spec.group_structure)
    ]
    units.extend(([i], 1.0) for i in ungrouped)

    picks: list[int] = []
    extend = picks.extend
    randrange = rng.randrange
    draw = rng.random
    num_units = len(units)
    n = spec.num_accesses
    while len(picks) < n:
        members, prob = units[randrange(num_units)]
        if prob >= 1.0 or len(members) == 1:
            extend(members)
        else:
            chosen = [i for i in members if draw() < prob]
            if not chosen:
                chosen = [members[randrange(len(members))]]
            extend(chosen)
    del picks[n:]  # the last run is cut at num_accesses

    picked = np.array(picks, dtype=np.intp)
    # An address shared by two data (regions overlapping when
    # region_gap < size * address_stride) takes the size drawn last.
    trace = Trace(
        timestamps=np.arange(1, n + 1, dtype=np.int64),
        addresses=np.array(addresses, dtype=np.int64)[picked],
        sizes=np.array([sizes[a] for a in addresses], dtype=np.int64)[picked],
        ops=np.full(n, int(Op.READ), dtype=np.uint8),
        source_label=f"synthetic(seed={spec.rng_seed})",
    )
    truth = SyntheticTruth(
        groups=[tuple(addresses[i] for i in g) for g in groups],
        ungrouped=tuple(addresses[i] for i in ungrouped),
        sizes=sizes,
    )
    return trace, truth

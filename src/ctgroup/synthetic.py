"""Synthetic trace generation with planted group structure.

The generator emits accesses in runs: each run picks one planted group (or
one ungrouped datum) uniformly at random and accesses its members
contiguously. With intra-group probability 1.0 every member appears in
every run of its group, so the planted partition is recoverable and can
serve as ground truth for the chunking/grouping stages.

Randomness is the stream of ``random.Random(rng_seed)``, CPython's Mersenne
Twister, which is specified and stable across platforms, so traces are
bitwise reproducible for a fixed seed. The generator hands out its 32-bit
words in blocks: ``getrandbits(32 * count)`` is the next ``count`` words as
one integer, the first word lowest, which numpy unpacks. Every draw is then
made in numpy from those words, by CPython's rules (``tests/reference.py``
makes the same draws one call at a time):

- ``randrange(n)``, and ``randint(a, b)`` with n = b - a + 1, take one
  word per try (two when n needs more than 32 bits, the first one low),
  keep the top ``n.bit_length()`` bits and try again while that is >= n;
- ``random()`` takes two words a, b: ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.

Placement draws each datum's size with randint. Then each run draws its
unit with randrange. A partial unit (probability below 1, more than one
member) then draws random() for each member, and randrange over its
members if none was chosen. Only partial runs move where the next run
starts, so each block of words is decoded for every word at once, and
Python steps only from one partial run to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterator

import numpy as np

from .artifacts import read_keyvalues
from .errors import ConfigError, EmptyTraceError
from .features import ranges
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
        # The generator's columns are int64, and a unit draw takes one word.
        if self.num_data >= 1 << 32:
            raise ConfigError("num_data must be below 2**32")
        regions = len(self.group_structure) + self.num_data - total
        top = max([(regions - 1) * self.region_gap]
                  + [u * self.region_gap + (size - 1) * self.address_stride
                     for u, (size, _prob) in enumerate(self.group_structure)])
        if max(top, self.size_max, self.region_gap, self.address_stride) >= 1 << 63:
            raise ConfigError("addresses, sizes, address_stride and region_gap "
                              "must stay below 2**63")

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
    """Ground truth accompanying a synthetic trace: its planted partition,
    which the spec's layout alone decides. ``groups`` and ``ungrouped``
    are built from the spec on first read."""

    spec: SyntheticSpec

    @cached_property
    def groups(self) -> list[tuple[int, ...]]:
        """The planted groups' member block addresses, ascending."""
        first, _size, address = _layout(self.spec)
        addresses = address.tolist()
        return [tuple(addresses[lo:lo + size])
                for lo, (size, _prob) in zip(first.tolist(), self.spec.group_structure)]

    @cached_property
    def ungrouped(self) -> tuple[int, ...]:
        grouped = sum(size for size, _prob in self.spec.group_structure)
        return tuple(_layout(self.spec)[2][grouped:].tolist())


def _layout(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, size, address) of the selection units, each planted group
    and then each ungrouped datum: unit u gets its own region and holds the
    data first[u] .. first[u] + size[u] - 1, and datum i lies at address[i]."""
    group_size = np.array([size for size, _prob in spec.group_structure], np.int64)
    size = np.concatenate((group_size, np.ones(spec.num_data - int(group_size.sum()), np.int64)))
    first = np.cumsum(size) - size
    region = np.repeat(np.arange(len(size)), size)
    address = (region * spec.region_gap
               + (np.arange(spec.num_data) - first[region]) * spec.address_stride)
    return first, size, address


def synthesize_trace(spec: SyntheticSpec) -> tuple[Trace, SyntheticTruth]:
    """Generate a trace and its planted partition. Deterministic per seed.

    The trace's columns are filled a block of runs at a time; no Python
    code runs per access. It has no timestamps: an access's position is
    its time, and ``Trace.save`` writes positions 1..n.
    """
    spec.validate()
    if spec.num_accesses == 0:
        raise EmptyTraceError("num_accesses is 0")
    rng = random.Random(spec.rng_seed)
    first, unit_size, address = _layout(spec)
    unit_prob = np.concatenate(([prob for _size, prob in spec.group_structure],
                                np.ones(len(unit_size) - len(spec.group_structure))))
    drawn, words = _randint(rng, spec.size_min, spec.size_max, spec.num_data)
    # An address shared by two data (regions overlapping when
    # region_gap < size * address_stride) takes the size drawn last: the
    # last of its data in a stable sort.
    order = np.argsort(address, kind="stable")
    size = drawn[order[np.searchsorted(address[order], address, "right") - 1]]

    n = spec.num_accesses
    addresses_column, sizes_column = np.empty(n, np.int64), np.empty(n, np.int64)
    at = 0
    for picked in _runs(rng, words, first, unit_size, unit_prob, n):
        fill = slice(at, at + len(picked))
        np.take(address, picked, out=addresses_column[fill], mode="clip")  # unbuffered
        np.take(size, picked, out=sizes_column[fill], mode="clip")
        at += len(picked)
    trace = Trace(
        addresses=addresses_column,
        sizes=sizes_column,
        ops=np.full(n, int(Op.READ), dtype=np.uint8),
        source_label=f"synthetic(seed={spec.rng_seed})",
    )
    return trace, SyntheticTruth(spec)


# Runs are decoded from this many words of the stream at a time (more while
# one run needs more), so their temporaries are a few arrays of about this
# length.
WORD_BLOCK = 1 << 15


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of the generator, as int64."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
                         "<u4").astype(np.int64)


def _tries(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(value, accepted) of each randrange(n) try that ``words`` make, in
    order. A try is one word, or two when n needs more than 32 bits."""
    k = n.bit_length()
    if k > 32:
        pairs = words[:len(words) // 2 * 2].reshape(-1, 2)
        values = pairs[:, 0] | (pairs[:, 1] >> (64 - k)) << 32
    else:
        values = words >> (32 - k)
    return values, values < n


def _uniform(words: np.ndarray) -> np.ndarray:
    """random() of each two adjacent words: entry i uses words i and i + 1."""
    return ((words[:-1] >> 5) * 67108864.0 + (words[1:] >> 6)) * (1.0 / 9007199254740992.0)


def _randint(rng: random.Random, low: int, high: int,
             count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` successive randint(low, high) draws, and the words drawn
    past the last one."""
    width = high - low + 1
    per_try = 1 + (width.bit_length() > 32)
    words = _words(rng, 0)
    while True:
        values, accepted = _tries(words, width)
        taken = np.flatnonzero(accepted)[:count]
        if len(taken) == count:
            return low + values[taken], words[(int(taken[-1]) + 1) * per_try:]
        # on average at least half the tries are accepted
        more = 2 * per_try * (count - len(taken)) + per_try
        words = np.concatenate((words, _words(rng, more)))


def _runs(rng: random.Random, words, first, unit_size, unit_prob,
          n: int) -> Iterator[np.ndarray]:
    """The datum index of each of the n accesses, a block of runs at a
    time. The stream continues from ``words``."""
    partial = (unit_prob < 1.0) & (unit_size > 1)
    left = n
    while left:
        words = np.concatenate((words, _words(rng, max(WORD_BLOCK, len(words)))))
        picked, words = _decode(words, first, unit_size, unit_prob, partial, left)
        picked = picked[:left]
        yield picked
        left -= len(picked)


def _decode(words, first, unit_size, unit_prob, partial, need):
    """(the datum indices picked, the words left over) of the runs that a
    block of words decides, from the block's first word on, up to the run
    that brings the picks to ``need``."""
    values, accepted = _tries(words, len(unit_size))
    draws = np.flatnonzero(accepted)  # every run's unit draw is one of these
    unit = values[draws]
    # Each partial draw, as if it began a run: its member draws, the
    # fallback member if none is chosen, and the word after its run.
    part = np.flatnonzero(partial[unit])
    size, prob = unit_size[unit[part]], unit_prob[unit[part]]
    start = draws[part] + 1  # its first member draw
    stop = start + 2 * size
    uniform = _uniform(words)
    inside = np.flatnonzero(stop <= len(words))
    lowest = np.full(len(part), np.inf)
    lowest[inside] = _strided_min(uniform, start[inside], size[inside])
    none = lowest >= prob
    fallback, member = np.full(len(part), -1), np.zeros(len(part), np.int64)
    rows = inside[none[inside]]
    fallback[rows], member[rows] = _first_below(words, stop[rows], size[rows])
    end = np.where(none, fallback + 1, stop)
    decided = (stop <= len(words)) & (~none | (fallback >= 0))

    # Walk from one partial run to the next; the draws between two of them
    # each begin a full run.
    next_draw = np.searchsorted(draws, end)
    next_part = np.searchsorted(part, next_draw).tolist()
    decided = decided.tolist() + [False]
    walked = []
    r = 0
    while decided[r]:
        walked.append(r)
        r = next_part[r]
    los = np.append(0, next_draw[walked])
    if r < len(part):  # this partial run needs words past the block
        his = np.append(part[walked] + 1, part[r])
        rest = words[draws[part[r]]:]
    else:  # the words after the last run are rejected unit draws
        his = np.append(part[walked] + 1, len(draws))
        rest = words[:0]
    runs = ranges(los, his - los)  # ranks in draws

    # Each run picks at least one member, a full run all of them.
    full = ~partial[unit[runs]]
    picks = np.where(full, unit_size[unit[runs]], 1)
    runs = runs[:int(np.searchsorted(np.cumsum(picks), need)) + 1]
    full, count = full[:len(runs)], unit_size[unit[runs]]
    picked = ranges(first[unit[runs]], count)
    p = np.flatnonzero(~full)
    if not len(p):
        return picked, rest
    slot = np.cumsum(count) - count  # each run's first entry in picked
    row = np.searchsorted(part, runs[p])
    slots = ranges(slot[p], count[p])
    j = slots - np.repeat(slot[p], count[p])  # member
    chosen = np.where(np.repeat(none[row], count[p]),
                      j == np.repeat(member[row], count[p]),
                      uniform[np.repeat(start[row], count[p]) + 2 * j]
                      < np.repeat(prob[row], count[p]))
    keep = np.ones(len(picked), bool)
    keep[slots] = chosen
    return picked[keep], rest


def _strided_min(values, start, count):
    """min(values[start + 2 * j] for j < count), per row. Level L of a
    sparse table holds the minimum of 2**L entries two apart; a row reads
    two overlapping entries of the highest level whose 2**L <= count."""
    level = np.frexp(count)[1] - 1
    lowest = np.empty(len(start))
    table = values
    for lv in range(int(level.max(initial=-1)) + 1):
        if lv:
            table = np.minimum(table[:-(1 << lv)], table[1 << lv:])
        rows = np.flatnonzero(level == lv)
        lo = start[rows]
        lowest[rows] = np.minimum(table[lo], table[lo + 2 * (count[rows] - (1 << lv))])
    return lowest


def _first_below(words, start, n):
    """(the word of the first accepted randrange(n) try at or after start,
    its value) per row; the word is -1 where the block ends first."""
    shift = 32 - np.frexp(n)[1]  # n < 2**32: one word per try
    found, value = np.full(len(start), -1), np.zeros(len(start), np.int64)
    todo, at = np.arange(len(start)), start
    while todo.size:
        todo, at = todo[at < len(words)], at[at < len(words)]
        tried = words[at] >> shift[todo]
        ok = tried < n[todo]
        found[todo[ok]], value[todo[ok]] = at[ok], tried[ok]
        todo, at = todo[~ok], at[~ok] + 1
    return found, value

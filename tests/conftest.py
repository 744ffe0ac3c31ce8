import os
import random
import time

import numpy as np
import pytest

from ctgroup.trace import Op, Trace


def make_trace(pairs, label="test"):
    """Trace of reads from (addr, size) pairs. Like the pipeline's traces,
    it keeps no timestamps."""
    pairs = list(pairs)
    return Trace(np.array([a for a, _ in pairs], dtype=np.int64),
                 np.array([s for _, s in pairs], dtype=np.int64),
                 np.full(len(pairs), int(Op.READ), dtype=np.uint8), source_label=label)


def random_accesses(rng: random.Random, n=None, max_addr=40, max_size=16):
    n = rng.randint(1, 200) if n is None else n
    return [
        (rng.randrange(max_addr) * 4, rng.randint(1, max_size)) for _ in range(n)
    ]


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs this process may use, as ctgroup.forks sees them."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity",
                                         lambda pid: set(range(n)))


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def no_fork(monkeypatch):
    def refused():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", refused)


def chunkset_fields(chunkset):
    """All a ChunkSet holds, in a form == compares."""
    return (list(chunkset.partition.parts()), chunkset.areas, chunkset.audit,
            chunkset.excluded, chunkset.max_address, chunkset.config)


def no_child_left():
    """True when this process has no child, live or exited."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def both_take_a_unit(fn, directory):
    """fn, except that each call, in this process or in a forked child,
    first waits, up to 10 s, until the other side has begun a call: so
    this process and a child of fork_map each take a unit, however fast
    either could work through them all. A side marks its first call with
    a file in ``directory``."""
    parent = os.getpid()

    def call(*args):
        mine, theirs = ("parent", "child") if os.getpid() == parent else ("child", "parent")
        (directory / mine).touch()
        deadline = time.monotonic() + 10
        while not (directory / theirs).exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return fn(*args)

    return call


# Acceptance verdicts collected by tests/test_acceptance.py. Printed via a
# terminal-summary hook because pytest's fd-level capture swallows writes
# made during the tests themselves, even through sys.__stdout__.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

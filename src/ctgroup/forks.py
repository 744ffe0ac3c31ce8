"""Work on the CPUs this process may use, by ``os.fork``.

``start`` runs one call in a forked child and ``join`` takes its result;
``fork_map`` maps a function over units, this process working through
them next to at most one forked child per further CPU. The process count
is ``len(os.sched_getaffinity(0))`` and no config key sets it: it shapes
no result.

A child inherits all the parent holds at the fork, so nothing is sent to
it. It sends back one pickled payload on a pipe, its result or the
exception it raised, and leaves through ``os._exit``, so it runs no exit
handlers and flushes none of the parent's buffers. An exception raises
again in the parent with its own type (errors.py keeps the toolkit's
errors picklable); a child that dies, or whose payload cannot be read, is
a WorkerError. Every child is reaped before the call that joins it
returns or raises.

Everything runs in this process when it may use one CPU, when a map has
one unit, or when other Python threads run: a fork copies only the thread
that makes it, and a lock held by another thread would stay held in the
child.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, NamedTuple, Sequence

from .errors import WorkerError

# fork_map hands out units by tokens on one pipe: one unit per token up
# to this many units, and runs of consecutive units beyond. The tokens
# then fit in one write of at most PIPE_BUF (4 KiB) bytes, the smallest
# buffer a pipe may have, so writing them never blocks.
_TOKENS = 1024
_TOKEN_BYTES = 4


def _cpus() -> int:
    """The CPUs this process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _may_fork(processes: int) -> bool:
    return processes > 1 and threading.active_count() == 1


def _payload(body: Callable) -> bytes:
    """body()'s outcome, pickled: (True, result) or (False, exception)."""
    try:
        return pickle.dumps((True, body()), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # sent to the parent, which raises it
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = WorkerError(f"{type(exc).__name__}: {exc}")
        return pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)


def _fork(body: Callable) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that sends body()'s outcome."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        with open(write, "wb") as fh:
            fh.write(_payload(body))
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read: int) -> tuple[bool, object]:
    """The outcome a child sent, once it has exited; the child is killed
    if this is interrupted."""
    try:
        with open(read, "rb") as fh:
            payload = fh.read()
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        _kill(pid)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and payload:
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise WorkerError(f"worker process {pid} sent an unreadable result: {exc}") from None
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    raise WorkerError(f"worker process {pid} {how}")


def _kill(pid: int):
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


class Started(NamedTuple):
    """A call begun by ``start``: a child's (pid, pipe), or the outcome
    of a call made in this process."""

    pid: int | None
    read: int | None
    outcome: tuple[bool, object] | None


def start(fn: Callable, *args) -> Started:
    """Begin fn(*args) in a forked child, or run it here on one CPU or
    while other threads run; ``join`` returns its result."""
    if _may_fork(_cpus()):
        return Started(*_fork(lambda: fn(*args)), None)
    try:
        return Started(None, None, (True, fn(*args)))
    except Exception as exc:  # raised by join, as a child's would be
        return Started(None, None, (False, exc))


def join(started: Started):
    """The result of a started call, or the exception it raised."""
    ok, value = started.outcome if started.pid is None else _collect(started.pid,
                                                                     started.read)
    if not ok:
        raise value
    return value


def fork_map(fn: Callable, units: Sequence) -> list:
    """[fn(unit) for unit in units], in input order, worked by at most one
    process per CPU, this one among them.

    Each process takes the next token from one shared pipe until none is
    left, so a process that finishes early takes more; put the costliest
    units first. A child sends all its results once, when it has finished.
    A child whose unit raises takes the remaining tokens, so the others
    stop after their current unit, and the exception raises here once
    every child has exited; when a unit of this process's share raises,
    the children are killed.
    """
    processes = min(_cpus(), len(units))
    if not _may_fork(processes):
        return [fn(unit) for unit in units]
    tokens = min(len(units), _TOKENS)
    read, write = os.pipe()
    try:
        os.write(write, b"".join(t.to_bytes(_TOKEN_BYTES, "little") for t in range(tokens)))
    finally:
        os.close(write)

    def share() -> dict:
        done = {}
        try:
            while token := os.read(read, _TOKEN_BYTES):
                t = int.from_bytes(token, "little")
                for i in range(len(units) * t // tokens, len(units) * (t + 1) // tokens):
                    done[i] = fn(units[i])
        except BaseException:
            while os.read(read, 1 << 12):
                pass
            raise
        return done

    children = []
    try:
        for _ in range(processes - 1):
            children.append(_fork(share))
        results = share()
        failure = None
        while children:
            try:
                ok, value = _collect(*children.pop())
            except WorkerError as exc:
                ok, value = False, exc
            if ok:
                results.update(value)
            elif failure is None:
                failure = value
        if failure is not None:
            raise failure
    finally:
        os.close(read)
        for pid, pipe in children:  # left by an exception here: killed
            os.close(pipe)
            _kill(pid)
    return [results[i] for i in range(len(units))]

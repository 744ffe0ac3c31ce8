"""forks: start/join and fork_map against the same calls made in this process."""

import os
import threading
import time

import pytest

from conftest import both_take_a_unit, no_child_left
from ctgroup import forks
from ctgroup.errors import ConfigError, DataError, UnknownDatumError, WorkerError


def slow_square(unit):
    """Units of unequal cost: the lower the unit, the longer it takes."""
    time.sleep(0.002 * (unit % 5 == 0) * (20 - unit % 20) / 20)
    return unit * unit


class TestForkMap:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_input_order_with_unequal_units(self, cpus, forked, tmp_path, n):
        cpus(n)
        units = list(range(40))
        fn = both_take_a_unit(slow_square, tmp_path) if n > 1 else slow_square
        assert forks.fork_map(fn, units) == [u * u for u in units]
        assert len(forked) == n - 1 and no_child_left()

    def test_more_units_than_tokens(self, cpus, forked):
        cpus(2)
        units = list(range(3 * forks._TOKENS + 7))
        assert forks.fork_map(lambda u: -u, units) == [-u for u in units]
        assert len(forked) == 1 and no_child_left()

    @pytest.mark.parametrize("error", [
        DataError("bad row"), ConfigError("bad key"), UnknownDatumError(12, "no chunk"),
        OSError(28, "No space left on device", "out/ctf.tsv"), KeyError("missing"),
    ], ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("where", ["parent", "child"])
    def test_error_raises_with_its_type(self, cpus, forked, tmp_path, error, where):
        cpus(2)
        parent = os.getpid()

        def failing(unit):
            if (os.getpid() == parent) == (where == "parent"):
                raise error
            return unit

        with pytest.raises(type(error)) as raised:
            forks.fork_map(both_take_a_unit(failing, tmp_path), list(range(8)))
        assert str(raised.value) == str(error)
        assert raised.value.__dict__ == error.__dict__
        assert len(forked) == 1 and no_child_left()

    def test_unpicklable_error_is_a_worker_error(self, cpus, tmp_path):
        cpus(2)
        parent = os.getpid()

        class Local(Exception):  # no import path: cannot be pickled
            pass

        def failing(unit):
            if os.getpid() != parent:
                raise Local("cannot travel")
            return unit

        with pytest.raises(WorkerError, match="Local: cannot travel"):
            forks.fork_map(both_take_a_unit(failing, tmp_path), list(range(8)))
        assert no_child_left()

    def test_dead_child_is_a_worker_error(self, cpus, tmp_path):
        cpus(2)
        parent = os.getpid()

        def dying(unit):
            if os.getpid() != parent:
                os._exit(3)
            return unit

        with pytest.raises(WorkerError, match="exited with status 3"):
            forks.fork_map(both_take_a_unit(dying, tmp_path), list(range(8)))
        assert no_child_left()


class TestStart:
    @pytest.mark.parametrize("n", [1, 2])
    def test_result(self, cpus, forked, n):
        cpus(n)
        parent = os.getpid()
        started = forks.start(lambda a, b: (a + b, os.getpid() == parent), 2, 3)
        assert forks.join(started) == (5, n == 1)
        assert len(forked) == n - 1 and no_child_left()

    @pytest.mark.parametrize("n", [1, 2])
    def test_error_raised_by_join(self, cpus, n):
        cpus(n)

        def failing():
            raise UnknownDatumError(7, "address 7 is in no chunk")

        started = forks.start(failing)
        with pytest.raises(UnknownDatumError, match="address 7") as raised:
            forks.join(started)
        assert raised.value.address == 7 and no_child_left()

    def test_dead_child_is_a_worker_error(self, cpus):
        cpus(2)
        started = forks.start(os._exit, 1)
        with pytest.raises(WorkerError, match="exited with status 1"):
            forks.join(started)
        assert no_child_left()


class TestInProcess:
    """One CPU, one unit, or a running thread starts no process."""

    def test_one_cpu(self, cpus, no_fork):
        cpus(1)
        assert forks.fork_map(abs, [-1, -2, 3]) == [1, 2, 3]
        assert forks.join(forks.start(abs, -4)) == 4

    def test_one_unit(self, cpus, no_fork):
        cpus(2)
        assert forks.fork_map(abs, [-5]) == [5]
        assert forks.fork_map(abs, []) == []

    def test_running_thread(self, cpus, no_fork):
        cpus(2)
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            assert forks.fork_map(abs, [-1, -2, 3]) == [1, 2, 3]
            assert forks.join(forks.start(abs, -4)) == 4
        finally:
            done.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()
